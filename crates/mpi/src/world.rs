//! World construction, rank mailboxes and the transport seam.
//!
//! A world is a set of ranks plus a `Transport` that moves envelopes
//! between them. Two transports exist:
//!
//! * **in-process** (`Transport::InProc`) — ranks are OS threads, an
//!   envelope post is a push into the destination's mailbox under its
//!   lock ([`World::run`]);
//! * **socket** (`Transport::Socket`) — ranks are OS processes connected
//!   by a full mesh of Unix-domain sockets (TCP loopback fallback); a post
//!   hands the envelope to the rank's one mesh thread, which writes it to
//!   the peer's socket and demuxes incoming frames into the local mailbox
//!   ([`World::run_spawned`]).
//!
//! Both feed the same mailbox/condvar matching logic in
//! [`crate::comm::Comm`], so rank programs behave identically (and move
//! identical [`crate::Traffic`] volumes) on either transport.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Condvar, Mutex};

use crate::comm::Comm;
use crate::socket::{self, SocketPeers};
use crate::{Source, SpawnError, SpawnOptions};

/// A message in flight: communicator context, source (communicator-relative
/// rank), tag, payload.
#[derive(Clone)]
pub(crate) struct Envelope {
    pub ctx: u64,
    pub src: usize,
    pub tag: u64,
    pub payload: Bytes,
}

/// One rank's incoming-message buffer, indexed for O(1)-ish matching.
///
/// The previous representation was a flat `Vec<Envelope>` rescanned under
/// the lock on every wakeup — O(n²) total work when many unmatched
/// envelopes queue ahead of the one being waited for (e.g. out-of-order
/// tags). Envelopes are now bucketed by `(ctx, src, tag)` with FIFO
/// preserved per key, plus an arrival-ordered index per `(ctx, tag)` so
/// any-source receives still match the earliest arrival.
pub(crate) struct Mailbox {
    pub state: Mutex<MailState>,
    pub arrived: Condvar,
    /// Lock-free mirror of `MailState::poisoned.is_some()`, so hot paths
    /// (every socket-world send) can check peer health without contending
    /// the state mutex against the demux readers and the matcher.
    poisoned_hint: std::sync::atomic::AtomicBool,
}

pub(crate) struct MailState {
    /// FIFO queue per exact key; entries carry their arrival sequence.
    by_key: HashMap<(u64, usize, u64), VecDeque<(u64, Bytes)>>,
    /// Arrival order per `(ctx, tag)`: seq → src, for any-source matching.
    any_index: HashMap<(u64, u64), BTreeMap<u64, usize>>,
    next_seq: u64,
    /// Set when a peer's stream broke (a sequence gap, an unexpected
    /// frame): every pending and future receive fails loudly instead of
    /// deadlocking.
    pub poisoned: Option<String>,
    /// World ranks known dead via the heartbeat/membership layer. Unlike
    /// `poisoned`, a dead rank is survivable: receives targeting it fail,
    /// but traffic among survivors keeps flowing (degraded mode).
    pub dead: BTreeSet<usize>,
}

impl Mailbox {
    pub(crate) fn new() -> Self {
        Mailbox {
            state: Mutex::new(MailState {
                by_key: HashMap::new(),
                any_index: HashMap::new(),
                next_seq: 0,
                poisoned: None,
                dead: BTreeSet::new(),
            }),
            arrived: Condvar::new(),
            poisoned_hint: std::sync::atomic::AtomicBool::new(false),
        }
    }

    pub(crate) fn push(&self, env: Envelope) {
        let mut st = self.state.lock();
        st.push(env);
        drop(st);
        self.arrived.notify_all();
    }

    /// Mark the mailbox dead (peer failure) and wake every waiter.
    pub(crate) fn poison(&self, reason: String) {
        let mut st = self.state.lock();
        if st.poisoned.is_none() {
            st.poisoned = Some(reason);
        }
        drop(st);
        self.poisoned_hint.store(true, Ordering::Release);
        self.arrived.notify_all();
    }

    /// Lock-free health check; only takes the lock to fetch the reason
    /// once a failure has actually been flagged.
    pub(crate) fn is_poisoned(&self) -> Option<String> {
        if !self.poisoned_hint.load(Ordering::Acquire) {
            return None;
        }
        self.state.lock().poisoned.clone()
    }

    /// Record that `world_rank` died (heartbeat/membership layer) and wake
    /// every waiter so blocked receives can re-evaluate. Idempotent.
    pub(crate) fn mark_dead(&self, world_rank: usize) {
        let mut st = self.state.lock();
        st.dead.insert(world_rank);
        drop(st);
        self.arrived.notify_all();
    }

    /// Snapshot of the dead world ranks, in ascending order.
    pub(crate) fn dead_snapshot(&self) -> Vec<usize> {
        self.state.lock().dead.iter().copied().collect()
    }
}

impl MailState {
    pub(crate) fn push(&mut self, env: Envelope) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.any_index
            .entry((env.ctx, env.tag))
            .or_default()
            .insert(seq, env.src);
        self.by_key
            .entry((env.ctx, env.src, env.tag))
            .or_default()
            .push_back((seq, env.payload));
    }

    /// Remove and return the matching envelope with the earliest arrival,
    /// if any. FIFO per `(ctx, src, tag)` is preserved; `Source::Any`
    /// picks the earliest arrival across sources of the same `(ctx, tag)`.
    pub(crate) fn pop(&mut self, ctx: u64, src: Source, tag: u64) -> Option<(usize, Bytes)> {
        let src_rank = match src {
            Source::Rank(r) => {
                self.by_key.get(&(ctx, r, tag))?;
                r
            }
            Source::Any => {
                let idx = self.any_index.get(&(ctx, tag))?;
                let (_, &src_rank) = idx.iter().next()?;
                src_rank
            }
        };
        let key = (ctx, src_rank, tag);
        let queue = self.by_key.get_mut(&key)?;
        let (seq, payload) = queue.pop_front()?;
        if queue.is_empty() {
            self.by_key.remove(&key);
        }
        if let Some(idx) = self.any_index.get_mut(&(ctx, tag)) {
            idx.remove(&seq);
            if idx.is_empty() {
                self.any_index.remove(&(ctx, tag));
            }
        }
        Some((src_rank, payload))
    }
}

/// The transport seam: how envelopes move between world ranks.
pub(crate) enum Transport {
    /// All ranks share one address space; one mailbox per rank.
    InProc { mailboxes: Vec<Mailbox> },
    /// This process is exactly one rank; peers are socket connections.
    Socket(SocketPeers),
}

pub(crate) struct WorldInner {
    pub transport: Transport,
    /// Total bytes moved through point-to-point sends (collectives included,
    /// since they are built on p2p). Process-local in socket worlds.
    pub bytes_sent: AtomicU64,
    /// Total messages sent.
    pub messages_sent: AtomicU64,
}

impl WorldInner {
    pub(crate) fn in_proc(size: usize) -> Self {
        WorldInner {
            transport: Transport::InProc {
                mailboxes: (0..size).map(|_| Mailbox::new()).collect(),
            },
            bytes_sent: AtomicU64::new(0),
            messages_sent: AtomicU64::new(0),
        }
    }

    /// Deliver an envelope to a world rank (local push or socket frame).
    pub(crate) fn post(&self, dest_world_rank: usize, env: Envelope) {
        match &self.transport {
            Transport::InProc { mailboxes } => mailboxes[dest_world_rank].push(env),
            Transport::Socket(peers) => peers.post(dest_world_rank, env),
        }
    }

    /// The mailbox that `world_rank` receives on. In a socket world only
    /// the local rank's mailbox exists.
    pub(crate) fn mailbox(&self, world_rank: usize) -> &Mailbox {
        match &self.transport {
            Transport::InProc { mailboxes } => &mailboxes[world_rank],
            Transport::Socket(peers) => {
                debug_assert_eq!(world_rank, peers.rank(), "socket world is single-rank");
                peers.mailbox()
            }
        }
    }
}

/// Per-rank outcome of a spawned world that tolerates rank failures.
///
/// Returned by [`World::run_spawned_outcome`]: instead of turning any
/// failed rank into a [`SpawnError::RanksFailed`] for the whole world,
/// each rank's result slot is `None` when that rank died or exited
/// abnormally, with one human-readable line per failure in `failures`.
/// This is the parent-side half of degraded mode: the surviving ranks
/// finish and report normally while the dead rank's slot stays empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpawnOutcome {
    /// Result bytes per rank; `None` where the rank failed.
    pub results: Vec<Option<Vec<u8>>>,
    /// One line per failed rank, e.g. `"rank 2: exit 137, no result"`.
    pub failures: Vec<String>,
}

impl SpawnOutcome {
    /// Ranks (world ids) that produced no result.
    pub fn failed_ranks(&self) -> Vec<usize> {
        self.results
            .iter()
            .enumerate()
            .filter_map(|(r, slot)| slot.is_none().then_some(r))
            .collect()
    }
}

/// Handle to a running world (shared by all ranks).
///
/// Created indirectly through [`World::run`] (thread ranks) or
/// [`World::run_spawned`] (process ranks over sockets); exposes global
/// traffic statistics once the ranks have finished.
pub struct World;

impl World {
    /// Spawn `size` ranks, each running `f` with its own world communicator,
    /// and return their results in rank order.
    ///
    /// Panics in any rank propagate after all ranks have been joined, so a
    /// failing test names the guilty rank instead of deadlocking.
    pub fn run<R, F>(size: usize, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(&mut Comm) -> R + Send + Sync + 'static,
    {
        Self::run_with_stats(size, f).0
    }

    /// Like [`World::run`], also returning `(bytes_sent, messages_sent)`
    /// accumulated across all communicators.
    pub fn run_with_stats<R, F>(size: usize, f: F) -> (Vec<R>, u64, u64)
    where
        R: Send + 'static,
        F: Fn(&mut Comm) -> R + Send + Sync + 'static,
    {
        assert!(size > 0, "world size must be positive");
        let inner = Arc::new(WorldInner::in_proc(size));
        let f = Arc::new(f);
        let mut handles = Vec::with_capacity(size);
        for rank in 0..size {
            let inner = inner.clone();
            let f = f.clone();
            let members: Arc<Vec<usize>> = Arc::new((0..size).collect());
            handles.push(
                std::thread::Builder::new()
                    .name(format!("mini-mpi-rank-{rank}"))
                    .spawn(move || {
                        let mut comm = Comm::new_world(inner, rank, members);
                        f(&mut comm)
                    })
                    .expect("failed to spawn rank thread"),
            );
        }
        let mut results = Vec::with_capacity(size);
        let mut panic: Option<(usize, Box<dyn std::any::Any + Send>)> = None;
        for (rank, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(r) => results.push(r),
                Err(e) => {
                    if panic.is_none() {
                        panic = Some((rank, e));
                    }
                }
            }
        }
        if let Some((rank, e)) = panic {
            let msg = e
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| e.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!("rank {rank} panicked: {msg}");
        }
        let bytes = inner.bytes_sent.load(Ordering::Relaxed);
        let msgs = inner.messages_sent.load(Ordering::Relaxed);
        (results, bytes, msgs)
    }

    /// Run `size` ranks as separate OS **processes** talking over
    /// Unix-domain sockets (TCP loopback fallback), by re-executing the
    /// current binary once per rank.
    ///
    /// The calling process is the rendezvous registry: each child finds
    /// it, its spawn directory and its rank id in environment variables
    /// (`MINI_MPI_DIR`, `MINI_MPI_RANK`, …), registers its mesh address
    /// and receives the peer table and `input` back. Inside a child, the
    /// matching `run_spawned` call recognises the environment, runs `f`
    /// as that rank, reports the result to the parent over its registry
    /// connection and exits — code after the call never runs in children.
    /// The parent waits in one `poll(2)` loop on the calling thread and
    /// starts no thread of its own.
    ///
    /// `program` must uniquely identify this call site across re-execution
    /// of the binary: for a plain binary whose `main` reaches this call,
    /// any constant string works; for a libtest binary use
    /// [`World::run_spawned_test`], which passes the test's path so the
    /// harness re-runs exactly the calling test.
    ///
    /// Returns each rank's result bytes in rank order. If any rank dies
    /// (non-zero exit, missing result) the mesh declares it dead,
    /// survivors' receives from it fail with a
    /// "rank N died" error rather than deadlocking, and the whole call
    /// returns [`SpawnError::RanksFailed`].
    pub fn run_spawned<F>(
        size: usize,
        program: &str,
        input: &[u8],
        f: F,
    ) -> Result<Vec<Vec<u8>>, SpawnError>
    where
        F: FnOnce(&mut Comm, &[u8]) -> Vec<u8>,
    {
        socket::run_spawned_impl(size, program, input, SpawnOptions::default(), f)
    }

    /// [`World::run_spawned`] for call sites inside `#[test]` functions:
    /// children are re-executed with `--exact <program> --nocapture` so
    /// the libtest harness runs only the calling test. `program` must be
    /// the test's full path within its binary (for an integration-test
    /// file, the bare function name).
    pub fn run_spawned_test<F>(
        size: usize,
        program: &str,
        input: &[u8],
        f: F,
    ) -> Result<Vec<Vec<u8>>, SpawnError>
    where
        F: FnOnce(&mut Comm, &[u8]) -> Vec<u8>,
    {
        let opts = SpawnOptions {
            harness_args: true,
            ..SpawnOptions::default()
        };
        socket::run_spawned_impl(size, program, input, opts, f)
    }

    /// [`World::run_spawned`] with explicit [`SpawnOptions`] (seed-list
    /// rendezvous, the heartbeat timeout, the spawn timeout, …).
    pub fn run_spawned_with<F>(
        size: usize,
        program: &str,
        input: &[u8],
        opts: SpawnOptions,
        f: F,
    ) -> Result<Vec<Vec<u8>>, SpawnError>
    where
        F: FnOnce(&mut Comm, &[u8]) -> Vec<u8>,
    {
        socket::run_spawned_impl(size, program, input, opts, f)
    }

    /// Failure-tolerant spawned world: like [`World::run_spawned_with`],
    /// but a dying rank does not fail the call. The returned
    /// [`SpawnOutcome`] carries `None` in each failed rank's slot plus a
    /// description per failure; `Err` is reserved for orchestration
    /// failures (I/O, timeout, program mismatch). The *surviving* ranks
    /// detect the death within [`SpawnOptions::heartbeat_timeout_ms`],
    /// agree on membership and can run to completion instead of aborting.
    pub fn run_spawned_outcome<F>(
        size: usize,
        program: &str,
        input: &[u8],
        opts: SpawnOptions,
        f: F,
    ) -> Result<SpawnOutcome, SpawnError>
    where
        F: FnOnce(&mut Comm, &[u8]) -> Vec<u8>,
    {
        socket::run_spawned_outcome_impl(size, program, input, opts, f)
    }

    /// Whether this process is a spawned rank of a socket world (useful to
    /// skip unrelated work in binaries that both orchestrate and serve as
    /// the rank program).
    pub fn is_spawned_child() -> bool {
        socket::child_env().is_some()
    }

    /// The spawn directory of the surrounding socket world, if this
    /// process is a spawned rank. Rank programs can use it to share
    /// auxiliary files (e.g. a shared-memory segment) without further
    /// coordination.
    pub fn spawn_dir() -> Option<std::path::PathBuf> {
        socket::child_env().map(|e| e.dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_world() {
        let out = World::run(1, |comm| (comm.rank(), comm.size()));
        assert_eq!(out, vec![(0, 1)]);
    }

    #[test]
    fn results_in_rank_order() {
        let out = World::run(8, |comm| comm.rank() * 10);
        assert_eq!(out, (0..8).map(|r| r * 10).collect::<Vec<_>>());
    }

    #[test]
    fn stats_accumulate() {
        let (_, bytes, msgs) = World::run_with_stats(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, &[1u64, 2, 3]);
            } else {
                let _: Vec<u64> = comm.recv(crate::Source::Rank(0), 0);
            }
        });
        assert_eq!(bytes, 24);
        assert_eq!(msgs, 1);
    }

    #[test]
    #[should_panic(expected = "rank 1 panicked")]
    fn rank_panic_propagates_with_rank_id() {
        World::run(2, |comm| {
            if comm.rank() == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    #[should_panic(expected = "world size must be positive")]
    fn zero_size_rejected() {
        World::run(0, |_| ());
    }

    #[test]
    fn mailbox_pop_matches_fifo_and_any() {
        let mb = Mailbox::new();
        let env = |ctx, src, tag, byte: u8| Envelope {
            ctx,
            src,
            tag,
            payload: Bytes::copy_from_slice(&[byte]),
        };
        mb.push(env(0, 1, 7, 10));
        mb.push(env(0, 2, 7, 20));
        mb.push(env(0, 1, 7, 11));
        mb.push(env(1, 1, 7, 99)); // other context, must not match ctx 0
        let mut st = mb.state.lock();
        // Any-source picks the earliest arrival (src 1, payload 10).
        let (src, p) = st.pop(0, Source::Any, 7).unwrap();
        assert_eq!((src, p[0]), (1, 10));
        // Specific source skips over other sources but stays FIFO per key.
        let (src, p) = st.pop(0, Source::Rank(1), 7).unwrap();
        assert_eq!((src, p[0]), (1, 11));
        let (src, p) = st.pop(0, Source::Any, 7).unwrap();
        assert_eq!((src, p[0]), (2, 20));
        assert!(st.pop(0, Source::Any, 7).is_none());
        let (src, p) = st.pop(1, Source::Rank(1), 7).unwrap();
        assert_eq!((src, p[0]), (1, 99));
        // Fully drained: the internal indexes must not accumulate.
        assert!(st.by_key.is_empty());
        assert!(st.any_index.is_empty());
    }
}
