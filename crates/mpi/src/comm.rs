//! Communicators: point-to-point messaging, collectives, splitting.

use std::cell::Cell;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use bytes::Bytes;

use crate::datatype::{from_bytes, to_bytes, MpiData};
use crate::world::{Envelope, WorldInner};
use crate::Source;

/// Per-handle traffic counters (this rank, this communicator).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Bytes sent through this handle.
    pub bytes_sent: u64,
    /// Bytes received through this handle.
    pub bytes_received: u64,
    /// Messages sent through this handle.
    pub messages_sent: u64,
    /// Messages received through this handle.
    pub messages_received: u64,
}

/// A communicator handle owned by one rank.
///
/// Mirrors MPI semantics: every rank of the communicator must call
/// collectives in the same order; point-to-point messages match on
/// (communicator, source, tag) with FIFO ordering per (source, tag) pair.
pub struct Comm {
    world: Arc<WorldInner>,
    /// Context id isolating this communicator's traffic.
    ctx: u64,
    /// This rank within the communicator.
    rank: usize,
    /// Communicator rank → world rank.
    members: Arc<Vec<usize>>,
    /// Collective sequence number (same progression on every member).
    coll_seq: Cell<u64>,
    /// Child-context allocation counter (same progression on every
    /// member; see [`derive_ctx`]).
    ctx_alloc: Cell<u64>,
    traffic: Cell<Traffic>,
}

/// Internal tag space: bit 63 marks collective-internal messages.
const COLLECTIVE_BIT: u64 = 1 << 63;

fn coll_tag(seq: u64, phase: u64) -> u64 {
    debug_assert!(phase < 256);
    COLLECTIVE_BIT | (seq << 8) | phase
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic child-context derivation: mixes the parent context, the
/// parent's allocation index (how many `split`/`dup` calls preceded this
/// one — synchronized by collective calling order) and the branch (color
/// index within a split; 0 for `dup`).
///
/// Every member computes the same value without any shared counter, which
/// is what makes context allocation work across *process* boundaries: a
/// socket world has no shared memory to host the old global `next_ctx`,
/// and per-process counters would drift apart as soon as disjoint
/// sub-communicators allocated children independently.
fn derive_ctx(parent: u64, alloc_idx: u64, branch: u64) -> u64 {
    splitmix64(splitmix64(parent ^ splitmix64(alloc_idx.wrapping_add(1))).wrapping_add(branch))
}

impl Comm {
    pub(crate) fn new_world(world: Arc<WorldInner>, rank: usize, members: Arc<Vec<usize>>) -> Self {
        Comm {
            world,
            ctx: 0,
            rank,
            members,
            coll_seq: Cell::new(0),
            ctx_alloc: Cell::new(0),
            traffic: Cell::new(Traffic::default()),
        }
    }

    /// This rank's id within the communicator.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Traffic this handle has generated so far.
    pub fn traffic(&self) -> Traffic {
        self.traffic.get()
    }

    fn next_seq(&self) -> u64 {
        let s = self.coll_seq.get();
        self.coll_seq.set(s + 1);
        s
    }

    fn post(&self, dest: usize, tag: u64, payload: Bytes) {
        let world_rank = self.members[dest];
        let mut t = self.traffic.get();
        t.bytes_sent += payload.len() as u64;
        t.messages_sent += 1;
        self.traffic.set(t);
        self.world
            .bytes_sent
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        self.world.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.world.post(
            world_rank,
            Envelope {
                ctx: self.ctx,
                src: self.rank,
                tag,
                payload,
            },
        );
    }

    fn note_received(&self, payload: &Bytes) {
        let mut t = self.traffic.get();
        t.bytes_received += payload.len() as u64;
        t.messages_received += 1;
        self.traffic.set(t);
    }

    /// Dead-rank check for plain (non-degraded-aware) receives: a receive
    /// that can never be satisfied must fail loudly instead of
    /// deadlocking. For a specific source that means the source itself is
    /// dead; for an any-source receive *any* dead member fails the call,
    /// because collectives built on any-source gathers (e.g. `barrier`)
    /// would otherwise wait forever for the dead member's contribution.
    /// Degraded-mode servers use [`Comm::recv_any_or_death`] instead.
    fn check_dead(&self, dead: &std::collections::BTreeSet<usize>, src: Source) {
        if dead.is_empty() {
            return;
        }
        match src {
            Source::Rank(r) => {
                if dead.contains(&self.members[r]) {
                    panic!("mini-mpi: receive failed: rank {r} died");
                }
            }
            Source::Any => {
                for (r, w) in self.members.iter().enumerate() {
                    if r != self.rank && dead.contains(w) {
                        panic!("mini-mpi: receive failed: rank {r} died (any-source receive)");
                    }
                }
            }
        }
    }

    fn wait_match(&self, src: Source, tag: u64) -> (usize, Bytes) {
        let mailbox = self.world.mailbox(self.members[self.rank]);
        let mut st = mailbox.state.lock();
        loop {
            if let Some((from, payload)) = st.pop(self.ctx, src, tag) {
                drop(st);
                self.note_received(&payload);
                return (from, payload);
            }
            // A broken peer stream poisons the mailbox: fail every receive
            // loudly (MPI-abort semantics) instead of deadlocking on a
            // message that can never arrive.
            if let Some(reason) = st.poisoned.clone() {
                drop(st);
                panic!("mini-mpi: receive failed: {reason}");
            }
            // Buffered messages (above) win over death: anything already
            // delivered is still receivable after the sender died.
            self.check_dead(&st.dead, src);
            mailbox.arrived.wait(&mut st);
        }
    }

    fn try_match(&self, src: Source, tag: u64) -> Option<(usize, Bytes)> {
        let mailbox = self.world.mailbox(self.members[self.rank]);
        let mut st = mailbox.state.lock();
        if let Some((from, payload)) = st.pop(self.ctx, src, tag) {
            drop(st);
            self.note_received(&payload);
            return Some((from, payload));
        }
        if let Some(reason) = st.poisoned.clone() {
            drop(st);
            panic!("mini-mpi: receive failed: {reason}");
        }
        None
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// Send a typed slice to `dest` with a user tag. Eager-buffered: never
    /// blocks (the "network" is process memory).
    pub fn send<T: MpiData>(&self, dest: usize, tag: u32, data: &[T]) {
        assert!(
            dest < self.size(),
            "send to rank {dest} in a {}-rank communicator",
            self.size()
        );
        self.post(dest, tag as u64, to_bytes(data));
    }

    /// Receive a message matching `(src, tag)`; blocks until one arrives.
    pub fn recv<T: MpiData>(&self, src: Source, tag: u32) -> Vec<T> {
        self.recv_with_source(src, tag).0
    }

    /// Like [`Comm::recv`], additionally reporting the actual source rank
    /// (useful with [`Source::Any`]).
    pub fn recv_with_source<T: MpiData>(&self, src: Source, tag: u32) -> (Vec<T>, usize) {
        let (from, payload) = self.wait_match(src, tag as u64);
        (from_bytes(&payload), from)
    }

    /// Non-blocking receive: `Some((data, source))` when a matching
    /// message is already queued, `None` otherwise (MPI_Iprobe+recv).
    /// Used by servers that multiplex several message kinds without
    /// dedicating a thread per tag.
    pub fn try_recv<T: MpiData>(&self, src: Source, tag: u32) -> Option<(Vec<T>, usize)> {
        let (from, payload) = self.try_match(src, tag as u64)?;
        Some((from_bytes(&payload), from))
    }

    /// Communicator-relative ranks currently known dead (heartbeat /
    /// membership layer), ascending. Always empty in thread worlds.
    pub fn dead_ranks(&self) -> Vec<usize> {
        let dead = self.world.mailbox(self.members[self.rank]).dead_snapshot();
        if dead.is_empty() {
            return Vec::new();
        }
        self.members
            .iter()
            .enumerate()
            .filter_map(|(r, w)| dead.contains(w).then_some(r))
            .collect()
    }

    /// Degraded-mode any-source receive: block until either a matching
    /// message arrives (`Ok((data, source))`, exactly like
    /// [`Comm::recv_with_source`] with [`Source::Any`]) or a member *not
    /// already listed in `known_dead`* is declared dead
    /// (`Err(newly_dead)`, communicator-relative ranks, ascending).
    ///
    /// Messages already delivered always win over a death report, so a
    /// dead rank's in-flight traffic is fully drained before the caller
    /// learns of the death. This is the receive primitive for servers
    /// that must keep serving survivors — a plain any-source [`Comm::recv`]
    /// fails loudly on the first death instead.
    pub fn recv_any_or_death<T: MpiData>(
        &self,
        tag: u32,
        known_dead: &[usize],
    ) -> Result<(Vec<T>, usize), Vec<usize>> {
        let mailbox = self.world.mailbox(self.members[self.rank]);
        let mut st = mailbox.state.lock();
        loop {
            if let Some((from, payload)) = st.pop(self.ctx, Source::Any, tag as u64) {
                drop(st);
                self.note_received(&payload);
                return Ok((from_bytes(&payload), from));
            }
            if let Some(reason) = st.poisoned.clone() {
                drop(st);
                panic!("mini-mpi: receive failed: {reason}");
            }
            let newly: Vec<usize> = self
                .members
                .iter()
                .enumerate()
                .filter(|&(r, w)| r != self.rank && st.dead.contains(w) && !known_dead.contains(&r))
                .map(|(r, _)| r)
                .collect();
            if !newly.is_empty() {
                return Err(newly);
            }
            mailbox.arrived.wait(&mut st);
        }
    }

    // ------------------------------------------------------------------
    // Collectives
    //
    // All collectives are built from eager p2p messages with internal tags
    // derived from a per-communicator sequence number, so consecutive
    // collectives cannot cross-talk even when ranks drift. Reductions fold
    // contributions in rank order at the root — O(p) messages instead of a
    // binomial tree, chosen for bit-level determinism (floating-point
    // reductions reproduce exactly run to run, which the experiment harness
    // relies on).
    // ------------------------------------------------------------------

    /// Synchronize all ranks.
    pub fn barrier(&self) {
        let seq = self.next_seq();
        // Gather a token at rank 0, then release everyone.
        if self.rank == 0 {
            for _ in 1..self.size() {
                let _ = self.wait_match(Source::Any, coll_tag(seq, 0));
            }
            for r in 1..self.size() {
                self.post(r, coll_tag(seq, 1), Bytes::new());
            }
        } else {
            self.post(0, coll_tag(seq, 0), Bytes::new());
            let _ = self.wait_match(Source::Rank(0), coll_tag(seq, 1));
        }
    }

    /// Broadcast `data` from `root`; every rank returns the payload.
    /// Binomial-tree dissemination (log₂ p rounds).
    pub fn bcast<T: MpiData>(&self, root: usize, data: &[T]) -> Vec<T> {
        let seq = self.next_seq();
        let p = self.size();
        // Rotate so the root is virtual rank 0.
        let vrank = (self.rank + p - root) % p;
        let payload: Bytes = if self.rank == root {
            to_bytes(data)
        } else {
            // Receive from virtual parent.
            let parent_v = vrank & (vrank - 1); // clear lowest set bit
            let parent = (parent_v + root) % p;
            let (_, payload) = self.wait_match(Source::Rank(parent), coll_tag(seq, 0));
            payload
        };
        // Forward to virtual children: vrank | (1 << k) for k above our
        // lowest set bit (or all bits if we are the root).
        let lowest = if vrank == 0 {
            usize::BITS
        } else {
            vrank.trailing_zeros()
        };
        for k in (0..lowest).rev() {
            let child_v = vrank | (1usize << k);
            if child_v < p && child_v != vrank {
                let child = (child_v + root) % p;
                self.post(child, coll_tag(seq, 0), payload.clone());
            }
        }
        from_bytes(&payload)
    }

    /// Element-wise reduction to `root`. Returns `Some(result)` on the root,
    /// `None` elsewhere. `op(acc, x)` folds one element.
    pub fn reduce<T: MpiData>(
        &self,
        root: usize,
        contribution: &[T],
        op: impl Fn(&mut T, T),
    ) -> Option<Vec<T>> {
        let seq = self.next_seq();
        if self.rank == root {
            let mut acc = contribution.to_vec();
            for r in 0..self.size() {
                if r == root {
                    continue;
                }
                let (_, payload) = self.wait_match(Source::Rank(r), coll_tag(seq, 0));
                let other: Vec<T> = from_bytes(&payload);
                assert_eq!(
                    other.len(),
                    acc.len(),
                    "reduce contribution length mismatch"
                );
                for (a, x) in acc.iter_mut().zip(other) {
                    op(a, x);
                }
            }
            Some(acc)
        } else {
            self.post(root, coll_tag(seq, 0), to_bytes(contribution));
            None
        }
    }

    /// Reduction whose result every rank receives.
    pub fn allreduce<T: MpiData>(&self, contribution: &[T], op: impl Fn(&mut T, T)) -> Vec<T> {
        let reduced = self.reduce(0, contribution, op);
        self.bcast(0, reduced.as_deref().unwrap_or(&[]))
    }

    /// Gather variable-length contributions at `root` (MPI_Gatherv).
    /// Returns `Some(per-rank vectors)` on the root, `None` elsewhere.
    pub fn gather<T: MpiData>(&self, root: usize, contribution: &[T]) -> Option<Vec<Vec<T>>> {
        let seq = self.next_seq();
        if self.rank == root {
            let mut out: Vec<Vec<T>> = (0..self.size()).map(|_| Vec::new()).collect();
            out[root] = contribution.to_vec();
            #[allow(clippy::needless_range_loop)] // skips `root`, fills by rank
            for r in 0..self.size() {
                if r == root {
                    continue;
                }
                let (_, payload) = self.wait_match(Source::Rank(r), coll_tag(seq, 0));
                out[r] = from_bytes(&payload);
            }
            Some(out)
        } else {
            self.post(root, coll_tag(seq, 0), to_bytes(contribution));
            None
        }
    }

    /// Gather whose result every rank receives (MPI_Allgatherv).
    pub fn all_gather<T: MpiData>(&self, contribution: &[T]) -> Vec<Vec<T>> {
        let gathered = self.gather(0, contribution);
        // Broadcast lengths, then the flattened payload.
        let (lens, flat): (Vec<u64>, Vec<T>) = match gathered {
            Some(parts) => {
                let lens = parts.iter().map(|p| p.len() as u64).collect();
                let flat = parts.into_iter().flatten().collect();
                (lens, flat)
            }
            None => (Vec::new(), Vec::new()),
        };
        let lens = self.bcast(0, &lens);
        let flat = self.bcast(0, &flat);
        let mut out = Vec::with_capacity(lens.len());
        let mut offset = 0usize;
        for l in lens {
            let l = l as usize;
            out.push(flat[offset..offset + l].to_vec());
            offset += l;
        }
        out
    }

    /// Scatter per-rank chunks from `root` (MPI_Scatterv). The root passes
    /// `Some(chunks)` (one per rank), everyone else `None`; each rank
    /// returns its chunk.
    pub fn scatter<T: MpiData>(&self, root: usize, chunks: Option<Vec<Vec<T>>>) -> Vec<T> {
        let seq = self.next_seq();
        if self.rank == root {
            let chunks = chunks.expect("root must provide scatter chunks");
            assert_eq!(
                chunks.len(),
                self.size(),
                "scatter needs one chunk per rank"
            );
            let mut own = Vec::new();
            for (r, chunk) in chunks.into_iter().enumerate() {
                if r == self.rank {
                    own = chunk;
                } else {
                    self.post(r, coll_tag(seq, 0), to_bytes(&chunk));
                }
            }
            own
        } else {
            let (_, payload) = self.wait_match(Source::Rank(root), coll_tag(seq, 0));
            from_bytes(&payload)
        }
    }

    /// Personalized all-to-all exchange (MPI_Alltoallv): `chunks[j]` goes to
    /// rank `j`; the result's element `i` came from rank `i`.
    pub fn alltoall<T: MpiData>(&self, chunks: Vec<Vec<T>>) -> Vec<Vec<T>> {
        assert_eq!(
            chunks.len(),
            self.size(),
            "alltoall needs one chunk per rank"
        );
        let seq = self.next_seq();
        let mut out: Vec<Vec<T>> = (0..self.size()).map(|_| Vec::new()).collect();
        for (j, chunk) in chunks.into_iter().enumerate() {
            if j == self.rank {
                out[j] = chunk;
            } else {
                self.post(j, coll_tag(seq, 0), to_bytes(&chunk));
            }
        }
        #[allow(clippy::needless_range_loop)] // skips `self.rank`, fills by rank
        for i in 0..self.size() {
            if i == self.rank {
                continue;
            }
            let (_, payload) = self.wait_match(Source::Rank(i), coll_tag(seq, 0));
            out[i] = from_bytes(&payload);
        }
        out
    }

    // ------------------------------------------------------------------
    // Communicator management
    // ------------------------------------------------------------------

    /// Partition the communicator by `color`; ranks passing `None` opt out
    /// (MPI_UNDEFINED) and receive `None`. Within a color, new ranks are
    /// ordered by `(key, old rank)`.
    ///
    /// This is how Damaris carves the "clients" communicator and the
    /// "dedicated cores" communicator out of MPI_COMM_WORLD.
    pub fn split(&self, color: Option<u64>, key: i64) -> Option<Comm> {
        // Every member consumes one allocation index, whether or not it
        // participates — calling order keeps the counters in lockstep.
        let alloc_idx = self.ctx_alloc.get();
        self.ctx_alloc.set(alloc_idx + 1);
        // Gather (color+1 (0 = undefined), key) pairs at rank 0.
        let encoded = [color.map_or(0, |c| c + 1) as i64, key, self.rank as i64];
        let gathered = self.gather(0, &encoded);
        // Rank 0 computes the grouping and scatters (ctx, new_rank,
        // member world ranks) to each rank; opted-out ranks get ctx = 0.
        let assignment: Vec<i64> = if let Some(rows) = gathered {
            let mut per_rank: Vec<Vec<i64>> = vec![Vec::new(); self.size()];
            // Distinct colors in ascending order get distinct derived
            // contexts (branch = color index).
            let mut colors: Vec<u64> = rows
                .iter()
                .filter(|r| r[0] != 0)
                .map(|r| r[0] as u64)
                .collect();
            colors.sort_unstable();
            colors.dedup();
            for (ci, &color) in colors.iter().enumerate() {
                let ctx = derive_ctx(self.ctx, alloc_idx, ci as u64);
                let mut members: Vec<(i64, usize)> = rows
                    .iter()
                    .filter(|r| r[0] as u64 == color)
                    .map(|r| (r[1], r[2] as usize))
                    .collect();
                members.sort_unstable();
                let member_old_ranks: Vec<i64> = members.iter().map(|&(_, r)| r as i64).collect();
                for (new_rank, &(_, old_rank)) in members.iter().enumerate() {
                    let mut msg = vec![ctx as i64, new_rank as i64];
                    msg.extend_from_slice(&member_old_ranks);
                    per_rank[old_rank] = msg;
                }
            }
            for row in per_rank.iter_mut() {
                if row.is_empty() {
                    row.push(0); // undefined marker
                }
            }
            self.scatter(0, Some(per_rank))
        } else {
            self.scatter(0, None)
        };

        if assignment[0] == 0 {
            return None;
        }
        let ctx = assignment[0] as u64;
        let new_rank = assignment[1] as usize;
        // Member list maps new communicator ranks to *parent* communicator
        // ranks; translate to world ranks through our own member table.
        let members: Vec<usize> = assignment[2..]
            .iter()
            .map(|&r| self.members[r as usize])
            .collect();
        Some(Comm {
            world: self.world.clone(),
            ctx,
            rank: new_rank,
            members: Arc::new(members),
            coll_seq: Cell::new(0),
            ctx_alloc: Cell::new(0),
            traffic: Cell::new(Traffic::default()),
        })
    }

    /// Duplicate the communicator into a fresh context (MPI_Comm_dup):
    /// same ranks, isolated traffic. Communication-free: every member
    /// derives the same child context from the shared allocation index.
    pub fn dup(&self) -> Comm {
        let alloc_idx = self.ctx_alloc.get();
        self.ctx_alloc.set(alloc_idx + 1);
        Comm {
            world: self.world.clone(),
            ctx: derive_ctx(self.ctx, alloc_idx, 0),
            rank: self.rank,
            members: self.members.clone(),
            coll_seq: Cell::new(0),
            ctx_alloc: Cell::new(0),
            traffic: Cell::new(Traffic::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Source, World};

    #[test]
    fn ring_pass() {
        let out = World::run(5, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 7, &[comm.rank() as u32]);
            comm.recv::<u32>(Source::Rank(prev), 7)[0]
        });
        assert_eq!(out, vec![4, 0, 1, 2, 3]);
    }

    #[test]
    fn tag_matching_out_of_order() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &[10u8]);
                comm.send(1, 2, &[20u8]);
            } else {
                // Receive tag 2 first even though tag 1 arrived first.
                assert_eq!(comm.recv::<u8>(Source::Rank(0), 2), vec![20]);
                assert_eq!(comm.recv::<u8>(Source::Rank(0), 1), vec![10]);
            }
        });
    }

    #[test]
    fn any_source_reports_sender() {
        World::run(3, |comm| {
            if comm.rank() == 0 {
                let mut froms = Vec::new();
                for _ in 0..2 {
                    let (_, from) = comm.recv_with_source::<u8>(Source::Any, 0);
                    froms.push(from);
                }
                froms.sort_unstable();
                assert_eq!(froms, vec![1, 2]);
            } else {
                comm.send(0, 0, &[comm.rank() as u8]);
            }
        });
    }

    #[test]
    fn fifo_per_source_and_tag() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..10u32 {
                    comm.send(1, 3, &[i]);
                }
            } else {
                for i in 0..10u32 {
                    assert_eq!(comm.recv::<u32>(Source::Rank(0), 3), vec![i]);
                }
            }
        });
    }

    #[test]
    fn out_of_order_tag_stress_10k() {
        // Satellite fix regression test: rank 1 receives 10 000 messages in
        // the *reverse* of their send order, so at peak ~10 000 unmatched
        // envelopes sit in the mailbox. With the old flat-Vec mailbox every
        // wakeup rescanned all of them (O(n²)); the keyed mailbox pops each
        // in O(log n) index maintenance. The test asserts correctness and
        // must finish quickly enough for CI either way.
        const N: u32 = 10_000;
        World::run(2, |comm| {
            if comm.rank() == 0 {
                for tag in 0..N {
                    comm.send(1, tag, &[tag as u64]);
                }
                // Interleaved any-source block at a tag above the burst.
                comm.send(1, N + 1, &[u64::from(N) + 1]);
            } else {
                // Drain in reverse tag order: worst case for a scan-based
                // mailbox, every receive is the last match in the queue.
                for tag in (0..N).rev() {
                    assert_eq!(comm.recv::<u64>(Source::Rank(0), tag), vec![tag as u64]);
                }
                let (v, src) = comm.recv_with_source::<u64>(Source::Any, N + 1);
                assert_eq!((v, src), (vec![u64::from(N) + 1], 0));
            }
        });
    }

    #[test]
    fn try_recv_nonblocking() {
        World::run(2, |comm| {
            if comm.rank() == 0 {
                assert!(comm.try_recv::<u8>(Source::Any, 9).is_none());
                comm.send(1, 5, &[42u8]);
                // Handshake so the try_recv below observes the message.
                let _: Vec<u8> = comm.recv(Source::Rank(1), 6);
            } else {
                let data = loop {
                    if let Some((data, src)) = comm.try_recv::<u8>(Source::Rank(0), 5) {
                        assert_eq!(src, 0);
                        break data;
                    }
                    std::thread::yield_now();
                };
                assert_eq!(data, vec![42]);
                comm.send(0, 6, &[1u8]);
            }
        });
    }

    #[test]
    fn bcast_various_roots_and_sizes() {
        for p in [1usize, 2, 3, 4, 7, 8] {
            for root in 0..p {
                let out = World::run(p, move |comm| {
                    let data: Vec<u64> = if comm.rank() == root {
                        vec![42, root as u64]
                    } else {
                        vec![]
                    };
                    comm.bcast(root, &data)
                });
                for r in out {
                    assert_eq!(r, vec![42, root as u64]);
                }
            }
        }
    }

    #[test]
    fn reduce_sum_matches_reference() {
        let out = World::run(6, |comm| {
            let contrib = vec![comm.rank() as u64, 1];
            comm.reduce(2, &contrib, |a, b| *a += b)
        });
        for (r, res) in out.iter().enumerate() {
            if r == 2 {
                assert_eq!(res.as_ref().unwrap(), &vec![1 + 2 + 3 + 4 + 5, 6]);
            } else {
                assert!(res.is_none());
            }
        }
    }

    #[test]
    fn allreduce_max() {
        let out = World::run(5, |comm| {
            let contrib = vec![(comm.rank() as i64) * (-1i64).pow(comm.rank() as u32)];
            comm.allreduce(&contrib, |a, b| *a = (*a).max(b))
        });
        for r in out {
            assert_eq!(r, vec![4]); // max of [0, -1, 2, -3, 4]
        }
    }

    #[test]
    fn gather_variable_lengths() {
        let out = World::run(4, |comm| {
            let contrib: Vec<u32> = (0..comm.rank() as u32).collect();
            comm.gather(0, &contrib)
        });
        let root = out[0].as_ref().unwrap();
        assert_eq!(root[0], Vec::<u32>::new());
        assert_eq!(root[3], vec![0, 1, 2]);
        assert!(out[1].is_none());
    }

    #[test]
    fn all_gather_everyone_sees_everything() {
        let out = World::run(3, |comm| comm.all_gather(&[comm.rank() as u16; 2]));
        for r in out {
            assert_eq!(r, vec![vec![0, 0], vec![1, 1], vec![2, 2]]);
        }
    }

    #[test]
    fn scatter_chunks() {
        let out = World::run(3, |comm| {
            let chunks = if comm.rank() == 1 {
                Some(vec![vec![0u8], vec![10, 11], vec![20, 21, 22]])
            } else {
                None
            };
            comm.scatter(1, chunks)
        });
        assert_eq!(out, vec![vec![0], vec![10, 11], vec![20, 21, 22]]);
    }

    #[test]
    fn alltoall_transpose() {
        let out = World::run(3, |comm| {
            // Rank r sends value 10*r + j to rank j.
            let chunks: Vec<Vec<u32>> = (0..3)
                .map(|j| vec![10 * comm.rank() as u32 + j as u32])
                .collect();
            comm.alltoall(chunks)
        });
        assert_eq!(out[0], vec![vec![0], vec![10], vec![20]]);
        assert_eq!(out[1], vec![vec![1], vec![11], vec![21]]);
        assert_eq!(out[2], vec![vec![2], vec![12], vec![22]]);
    }

    #[test]
    fn split_even_odd() {
        let out = World::run(6, |comm| {
            let sub = comm.split(Some((comm.rank() % 2) as u64), 0).unwrap();
            // Sum of world ranks within my parity group.
            let s = sub.allreduce(&[comm.rank() as u64], |a, b| *a += b);
            (sub.rank(), sub.size(), s[0])
        });
        // Evens: 0+2+4=6; odds: 1+3+5=9.
        assert_eq!(out[0], (0, 3, 6));
        assert_eq!(out[1], (0, 3, 9));
        assert_eq!(out[4], (2, 3, 6));
        assert_eq!(out[5], (2, 3, 9));
    }

    #[test]
    fn split_with_undefined_members() {
        let out = World::run(4, |comm| {
            let color = if comm.rank() == 3 { None } else { Some(0) };
            comm.split(color, -(comm.rank() as i64))
                .map(|sub| (sub.rank(), sub.size()))
        });
        // Key is -rank, so new rank order is reversed: world 2→0, 1→1, 0→2.
        assert_eq!(out[0], Some((2, 3)));
        assert_eq!(out[1], Some((1, 3)));
        assert_eq!(out[2], Some((0, 3)));
        assert_eq!(out[3], None);
    }

    #[test]
    fn dup_isolates_traffic() {
        World::run(2, |comm| {
            let dup = comm.dup();
            if comm.rank() == 0 {
                comm.send(1, 5, &[1u8]);
                dup.send(1, 5, &[2u8]);
            } else {
                // Receive from the dup first: tags match but contexts differ,
                // so we must get the dup message (2), not the comm one (1).
                assert_eq!(dup.recv::<u8>(Source::Rank(0), 5), vec![2]);
                assert_eq!(comm.recv::<u8>(Source::Rank(0), 5), vec![1]);
            }
        });
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = counter.clone();
        World::run(8, move |comm| {
            c2.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier every rank must observe all 8 increments.
            assert_eq!(c2.load(Ordering::SeqCst), 8);
        });
    }

    #[test]
    fn traffic_counters_track_p2p() {
        let out = World::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, &[0u64; 16]);
            } else {
                let _: Vec<u64> = comm.recv(Source::Rank(0), 0);
            }
            comm.traffic()
        });
        assert_eq!(out[0].bytes_sent, 128);
        assert_eq!(out[0].messages_sent, 1);
        assert_eq!(out[1].bytes_received, 128);
        assert_eq!(out[1].messages_received, 1);
    }

    #[test]
    fn consecutive_collectives_do_not_crosstalk() {
        let out = World::run(4, |comm| {
            let a = comm.allreduce(&[1u32], |x, y| *x += y);
            let b = comm.allreduce(&[2u32], |x, y| *x += y);
            let c = comm.bcast(0, &[comm.rank() as u32]);
            (a[0], b[0], c[0])
        });
        for r in out {
            assert_eq!(r, (4, 8, 0));
        }
    }
}
