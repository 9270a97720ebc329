//! Process-mode Damaris: clients and the dedicated core as separate OS
//! **processes**, exactly like the original middleware's MPI ranks.
//!
//! The thread-mode [`crate::DamarisNode`] shares one address space, which
//! makes its shared segment and event queue trivially "shared". The paper's
//! architecture is stronger: every core of an SMP node is its own MPI
//! process, the segment is a POSIX shared-memory object all of them map,
//! and events travel through real IPC. This module reproduces that
//! boundary on top of two substrate pieces:
//!
//! * a [`mini_mpi`] **socket world** ([`mini_mpi::World::run_spawned`]) —
//!   one process per rank, envelopes over Unix-domain sockets;
//! * a [`damaris_shm::ShmFile`] — a `/dev/shm` file every rank maps, so
//!   block payloads move through genuine shared memory while only tiny
//!   *descriptors* (variable id, iteration, file offset, length) cross
//!   the socket.
//!
//! ## Roles and protocol
//!
//! Rank 0 is the dedicated core ([`ProcessServer`]); ranks 1.. are
//! clients ([`ProcessClient`]). The shared file is partitioned into one
//! slice per client; each client lays a private allocator
//! ([`damaris_shm::SharedSegment::over_mapping`]) over its slice, so
//! allocation never needs cross-process coordination. A write is: carve a
//! block, one copy into the mapping (streamed past the cache for blocks ≥
//! [`damaris_shm::STREAM_MIN`]), append a 3-word descriptor to the
//! iteration's envelope (§IV.B's "the time to write … is the time
//! required to write in shared-memory"). Descriptors are **coalesced**:
//! `end_iteration` flushes the whole client-iteration — every write
//! descriptor plus the end marker — as one framed message, so the socket
//! carries one envelope per client per iteration instead of one message
//! per block.
//!
//! ## One dedicated-core state machine
//!
//! The server owns no completion logic of its own. It checks every
//! descriptor, turns each into a refcounted read-only
//! [`damaris_shm::BlockRef`] over its range of the mapping
//! ([`damaris_shm::SharedSegment::view`]), and hands the thread world's
//! [`Event`] values — `Write`, `EndIteration`, `Signal`,
//! `ClientFinalize`, and `ClientDied` for a rank the heartbeat mesh
//! declared dead — to the [`ServerShared`] handler the thread world's
//! event loop runs. Plugins therefore see the same
//! [`crate::plugins::IterationCtx`] in both worlds (0-based sources,
//! blocks ordered by `(variable, source)`, bytes read in place), and
//! [`ProcessServer::new`] registers the same built-ins
//! [`crate::NodeBuilder::build`] registers. A process world re-executes
//! the launching binary once per rank, so plugin *instances* are
//! constructed in every rank; only rank 0's are registered and called.
//!
//! ## Acknowledge on release, back-pressure by occupancy
//!
//! A client may recycle a block only when the dedicated core holds no
//! view of it (the server cannot free ranges in another process's
//! allocator, so it says so in a message). All views minted from one
//! envelope share one lease, and the `TAG_ACK` of that (client,
//! iteration) is sent when the last of them drops — after the storage
//! append, after the last subscriber frame, when the iteration leaves the
//! `<serve retain>` window — from whichever thread dropped it. Until then
//! the blocks stay allocated in the client's slice, so the client's only
//! back-pressure is its slice's occupancy, exactly as a thread client's is
//! the segment's: [`SkipMode::DropIteration`] drops an iteration that
//! starts above the watermark or exhausts the slice, [`SkipMode::Block`]
//! waits for an acknowledgement when an allocation does not fit.
//! `end_iteration` itself never waits.
//!
//! ## API parity with thread mode
//!
//! [`ProcessClient`] implements [`crate::facade::SimHandle`], the paper
//! surface, at parity with [`crate::DamarisClient`]: `write`/`write_id`
//! returning [`WriteStatus`], zero-copy `alloc` → `commit` over the shared
//! mapping, user signals delivered to the dedicated core (`KIND_SIGNAL`
//! descriptors → [`crate::Plugin::on_signal`]),
//! [`SkipMode::DropIteration`] admission/exhaustion semantics, and the
//! lock-free latency histogram behind `stats`.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use damaris_shm::{Block, BlockRef, SharedSegment, ShmFile};
use damaris_xml::schema::{Configuration, SkipMode};
use damaris_xml::{EventId, VarId};
use mini_mpi::{Comm, Source};
use parking_lot::Mutex;

use crate::client::{ClientStats, StatsRecorder, WriteStatus};
use crate::error::{DamarisError, DamarisResult};
use crate::event::Event;
use crate::facade::{check_layout, resolve_var, SimHandle, SimWriter};
use crate::node::NodeReport;
use crate::plugins::Plugin;
use crate::policy::SkipPolicy;
use crate::server::ServerShared;

/// World rank of the dedicated core.
pub const DEDICATED_RANK: usize = 0;

/// Client → server messages (tag [`TAG_MSG`]), `u64`-encoded with a
/// leading kind word. Kinds 1 and 2 are retired (the per-block and
/// end-of-iteration descriptors [`KIND_BATCH`] replaced) and rejected.
const TAG_MSG: u32 = 1;
/// Server → client iteration acknowledgements (tag [`TAG_ACK`]), on a
/// [`Comm::dup`] of the world communicator both sides derive at
/// construction: the server sends them from whichever thread drops an
/// iteration's last view, so they cannot go through `serve`'s `Comm`.
const TAG_ACK: u32 = 2;

const KIND_FIN: u64 = 3;
/// A user signal: `[KIND_SIGNAL, event_id, iteration]` — the process-mode
/// `damaris_signal`, firing [`crate::Plugin::on_signal`] on the dedicated
/// core. Signals stay their own immediate messages (they are
/// order-independent with respect to writes), everything else coalesces
/// into the iteration envelope.
const KIND_SIGNAL: u64 = 4;
/// One client-iteration coalesced into a single framed envelope:
/// `[KIND_BATCH, iteration, writes, skipped, (var, offset, len) × writes]`
/// — flushed on `end_iteration`: **one message per client per
/// iteration**.
const KIND_BATCH: u64 = 5;

/// Words of the [`KIND_BATCH`] envelope header preceding the descriptor
/// triples.
const BATCH_HEADER: usize = 4;

/// Where the node's segment file lives, given a directory every rank can
/// derive (e.g. [`mini_mpi::World::spawn_dir`]).
pub fn segment_path(dir: &std::path::Path) -> std::path::PathBuf {
    dir.join("damaris-segment.shm")
}

fn slice_bytes(cfg: &Configuration, clients: usize) -> DamarisResult<usize> {
    let align = damaris_shm::segment::BLOCK_ALIGN;
    let slice = (cfg.architecture.buffer_size / clients.max(1)) / align * align;
    // Fixed layouts bound themselves; dynamic layouts count through
    // their declared `max_size` (an unbounded dynamic layout is checked
    // per write against the live slice instead).
    let largest = cfg
        .registry()
        .vars()
        .filter_map(|(_, e)| e.layout.max_byte_size())
        .max()
        .unwrap_or(0);
    if slice < largest.max(align) {
        return Err(DamarisError::InvalidState(format!(
            "buffer of {} bytes over {clients} clients leaves {slice}-byte slices, \
             smaller than the largest declared layout ({largest} bytes)",
            cfg.architecture.buffer_size
        )));
    }
    Ok(slice)
}

/// The dedicated core's hold on the blocks of one client-iteration. Every
/// view minted from the envelope shares it, and dropping the last of them
/// — wherever, on whichever thread — sends the `TAG_ACK` that lets the
/// client recycle the ranges: never while a view is alive.
struct Lease {
    acks: Arc<Mutex<Comm>>,
    rank: usize,
    iteration: u64,
}

impl Drop for Lease {
    fn drop(&mut self) {
        // A send to a rank the mesh declared dead is dropped silently; one
        // on a poisoned or torn-down mesh panics, which a destructor must
        // not pass on — and is what an unwinding `serve` has just met, so
        // it does not try. Nobody is left to act on the acknowledgement
        // then.
        if std::thread::panicking() {
            return;
        }
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.acks.lock().send(self.rank, TAG_ACK, &[self.iteration]);
        }));
    }
}

/// The live views by file offset, each holding its envelope's lease.
type Leases = Arc<Mutex<HashMap<usize, Arc<Lease>>>>;

/// The dedicated-core role: owns the segment file, turns the clients'
/// envelopes into events for the shared state machine, and acknowledges a
/// client-iteration when the last view of it is released.
pub struct ProcessServer {
    shared: ServerShared,
    /// Reader over the whole mapping: mints the blocks' views.
    views: SharedSegment,
    leases: Leases,
    acks: Arc<Mutex<Comm>>,
    /// Bytes of one client's slice; client `c` owns `[c, c + 1) × slice`.
    slice: usize,
}

impl ProcessServer {
    /// Create the segment file (sized from the configuration's buffer,
    /// one slice per client), register the built-in plugins the
    /// configuration asks for (node id 0; artifacts land in `dir` unless
    /// the configuration says otherwise) and synchronize with the clients.
    /// Must be called by rank [`DEDICATED_RANK`] of `comm`; every rank must
    /// enter its constructor at the same time (internal barrier).
    pub fn new(comm: &Comm, cfg: Configuration, dir: &std::path::Path) -> DamarisResult<Self> {
        assert_eq!(comm.rank(), DEDICATED_RANK, "server must be rank 0");
        let clients = comm.size() - 1;
        if clients == 0 {
            return Err(DamarisError::InvalidState(
                "a process node needs at least one client rank".into(),
            ));
        }
        let slice = slice_bytes(&cfg, clients)?;
        let shm = Arc::new(ShmFile::create(segment_path(dir), slice * clients)?);
        let leases = Leases::default();
        let held = leases.clone();
        let views = SharedSegment::reader(&shm, move |offset| {
            // Bound, so the map is unlocked again before the lease — and
            // with the last one the acknowledgement — goes.
            let lease = held.lock().remove(&offset);
            drop(lease);
        })?;
        let shared = ServerShared::new(Arc::new(cfg), 0, clients, dir.to_path_buf());
        shared.register_builtins()?;
        let acks = Arc::new(Mutex::new(comm.dup()));
        comm.barrier(); // clients may open the file now
        Ok(ProcessServer {
            shared,
            views,
            leases,
            acks,
            slice,
        })
    }

    /// Register a data-management plugin (replaces a previous plugin with
    /// the same name, including auto-registered built-ins) — the same
    /// [`Plugin`] a thread-world [`crate::DamarisNode`] takes.
    pub fn register_plugin(&self, plugin: Arc<dyn Plugin>) {
        self.shared.register_plugin(plugin);
    }

    /// Serve until every client finalizes **or dies**, then let the
    /// plugins finalize and release everything still retained. Plugins
    /// read blocks in place in the shared mapping and may keep clones of
    /// them (see [`crate::plugins`]) until [`Plugin::on_finalize`] returns.
    ///
    /// A malformed message — an unknown kind, a descriptor outside the
    /// sender's slice, an undeclared variable or event — is rejected whole
    /// with [`DamarisError::InvalidState`] naming the rank; the call may be
    /// repeated to keep serving.
    ///
    /// A client crash does not wedge the node: once the heartbeat mesh
    /// declares the rank dead it is recorded in
    /// [`NodeReport::dead_ranks`], it counts as "ended" for every
    /// staged and future iteration, and the survivors' iterations keep
    /// completing.
    pub fn serve(&self, comm: &Comm) -> DamarisResult<NodeReport> {
        let mut dead: Vec<usize> = Vec::new();
        while !self.shared.all_departed() {
            let wait_start = Instant::now();
            let received = comm.recv_any_or_death::<u64>(TAG_MSG, &dead);
            self.shared.timed(wait_start, || match received {
                Ok((msg, rank)) => self.dispatch(&msg, rank),
                Err(newly_dead) => {
                    for rank in newly_dead {
                        dead.push(rank);
                        self.shared.handle(Event::ClientDied { source: rank - 1 });
                    }
                    Ok(())
                }
            })?;
        }
        self.shared.finalize_plugins();
        // Nothing more will be read: let go of the retained iterations, so
        // the clients waiting in `finalize` get their last acknowledgements.
        let retained = std::mem::take(&mut *self.shared.store.lock());
        drop(retained);
        // Every client is past its last write, so acknowledging a range
        // that is still viewed can no longer get it overwritten — better
        // than leaving a client waiting forever on a plugin's leak.
        let leaked: Vec<Arc<Lease>> = self.leases.lock().drain().map(|(_, l)| l).collect();
        if !leaked.is_empty() {
            self.shared.errors.lock().push(format!(
                "{} block views were still alive after the plugins finalized",
                leaked.len()
            ));
        }
        drop(leaked);
        dead.sort_unstable();
        Ok(self.shared.report(dead, self.views.stats().peak))
    }

    /// Check one message of client `rank` and hand it to the state
    /// machine as the events a thread client would have posted. Nothing
    /// of a rejected message takes effect.
    fn dispatch(&self, msg: &[u64], rank: usize) -> DamarisResult<()> {
        let source = rank - 1;
        let registry = self.shared.cfg.registry();
        match *msg {
            [KIND_BATCH, iteration, writes, skipped, ref descs @ ..]
                if descs.len() as u64 == writes.saturating_mul(3) =>
            {
                let lease = Arc::new(Lease {
                    acks: self.acks.clone(),
                    rank,
                    iteration,
                });
                let (lo, hi) = ((source * self.slice) as u64, (rank * self.slice) as u64);
                let mut blocks = Vec::with_capacity(descs.len() / 3);
                for desc in descs.chunks_exact(3) {
                    let (var_raw, offset, len) = (desc[0], desc[1], desc[2]);
                    let reject = |why: String| {
                        DamarisError::InvalidState(format!(
                            "rank {rank}, iteration {iteration}: descriptor (variable \
                             {var_raw}, offset {offset}, length {len}) {why}"
                        ))
                    };
                    let variable = u32::try_from(var_raw)
                        .ok()
                        .map(VarId::from_raw)
                        .filter(|&v| registry.get(v).is_some())
                        .ok_or_else(|| reject("names no declared variable".into()))?;
                    if offset < lo || offset.checked_add(len).is_none_or(|end| end > hi) {
                        return Err(reject(format!("leaves the sender's slice [{lo}, {hi})")));
                    }
                    check_layout(&self.shared.cfg, variable, len as usize)
                        .map_err(|e| reject(e.to_string()))?;
                    // SAFETY: the range lies in the sender's slice, which no
                    // other rank allocates from, and a client announces a
                    // block only after freezing it and keeps it allocated
                    // until the `TAG_ACK` of its iteration — which
                    // `Lease::drop` sends, after the release hook ran for
                    // the last view sharing the lease.
                    let view = unsafe { self.views.view(offset as usize, len as usize) }
                        .map_err(|e| reject(e.to_string()))?;
                    self.leases.lock().insert(offset as usize, lease.clone());
                    blocks.push((variable, view));
                }
                for (variable, block) in blocks {
                    self.shared.handle(Event::Write {
                        variable,
                        iteration,
                        source,
                        block,
                    });
                }
                self.shared.handle(Event::EndIteration {
                    source,
                    iteration,
                    writes,
                    skipped: skipped != 0,
                });
            }
            [KIND_SIGNAL, event, iteration] if event < registry.event_count() as u64 => {
                self.shared.handle(Event::Signal {
                    event: EventId::from_raw(event as u32),
                    source,
                    iteration,
                });
            }
            [KIND_FIN] => self.shared.handle(Event::ClientFinalize { source }),
            _ => {
                return Err(DamarisError::InvalidState(format!(
                    "rank {rank}: malformed or unknown message of {} words starting {:?}",
                    msg.len(),
                    &msg[..msg.len().min(BATCH_HEADER)]
                )));
            }
        }
        Ok(())
    }
}

/// An in-place block being filled by the simulation in process mode (the
/// zero-copy path over the shared mapping). Obtained from
/// [`SimHandle::alloc`] on a [`ProcessClient`], published with
/// [`SimHandle::commit`].
pub struct ProcessBlockWriter {
    var: VarId,
    iteration: u64,
    /// `None` when the skip policy dropped the iteration.
    block: Option<Block>,
    /// Started at `alloc`, so the recorded write time covers allocation
    /// and in-place fill — same clock placement as the thread-mode
    /// [`crate::client::BlockWriter`].
    t0: Instant,
}

impl SimWriter for ProcessBlockWriter {
    fn is_skipped(&self) -> bool {
        self.block.is_none()
    }

    fn as_mut_slice(&mut self) -> &mut [u8] {
        match &mut self.block {
            Some(b) => b.as_mut_slice(),
            None => &mut [],
        }
    }

    fn fill_pod<T: damaris_shm::segment::Pod>(&mut self, data: &[T]) {
        if let Some(b) = &mut self.block {
            b.write_pod(data);
        }
    }
}

/// The client role: a private allocator over this rank's slice of the
/// shared file, plus the descriptor protocol to the dedicated core — the
/// process-mode implementation of [`SimHandle`]. It holds the rank's
/// communicator, so simulation code carries one handle and never threads a
/// [`Comm`] through its calls.
pub struct ProcessClient<'a> {
    cfg: Arc<Configuration>,
    seg: SharedSegment,
    /// File offset of this client's slice inside the mapping.
    base: usize,
    /// The world communicator: envelopes, signals and FIN to rank 0.
    comm: &'a Comm,
    /// This rank's end of the acknowledgement channel (see [`TAG_ACK`]).
    acks: Comm,
    /// Blocks alive until the server acknowledges their iteration.
    pending: HashMap<u64, Vec<BlockRef>>,
    /// The open iteration's coalesced [`KIND_BATCH`] envelope:
    /// [`BATCH_HEADER`] placeholder words followed by one `(var, offset,
    /// len)` triple per publish, flushed by `end_iteration` as a single
    /// message. Cut back to the header but never shrunk, so steady-state
    /// publishing stops allocating once it reaches the working-set size.
    batch: Vec<u64>,
    /// Writes published for the currently open iteration.
    writes_this_iteration: u64,
    /// Backpressure admission, identical policy engine to thread mode.
    policy: SkipPolicy,
    /// Lock-free write-latency recorder, identical to thread mode.
    stats: StatsRecorder,
    /// Whether `finalize` already ran (it is idempotent).
    finalized: bool,
}

impl<'a> ProcessClient<'a> {
    /// Join the node as client rank `comm.rank()` (≥ 1): wait for the
    /// server to create the segment file, map it, and carve this rank's
    /// slice. Every rank must enter its constructor at the same time
    /// (internal barrier).
    pub fn new(comm: &'a Comm, cfg: Configuration, dir: &std::path::Path) -> DamarisResult<Self> {
        assert_ne!(comm.rank(), DEDICATED_RANK, "rank 0 is the dedicated core");
        let clients = comm.size() - 1;
        let slice = slice_bytes(&cfg, clients)?;
        let acks = comm.dup();
        comm.barrier(); // server created the file before this returns
        let shm = Arc::new(ShmFile::open(segment_path(dir))?);
        let base = (comm.rank() - 1) * slice;
        let classes = cfg.registry().distinct_byte_sizes();
        let seg = SharedSegment::over_mapping(&shm, base, slice, &classes)?;
        let policy = SkipPolicy::new(cfg.architecture.skip);
        Ok(ProcessClient {
            cfg: Arc::new(cfg),
            seg,
            base,
            comm,
            acks,
            pending: HashMap::new(),
            batch: vec![0; BATCH_HEADER],
            writes_this_iteration: 0,
            policy,
            stats: StatsRecorder::new(),
            finalized: false,
        })
    }

    /// Occupancy of this client's slice in `[0, 1]`.
    pub fn slice_occupancy(&self) -> f64 {
        self.seg.occupancy()
    }

    /// Lifetime allocator counters of this client's slice.
    pub fn slice_stats(&self) -> damaris_shm::SegmentStats {
        self.seg.stats()
    }

    /// Admission plus allocation: `None` means the skip policy dropped
    /// the iteration (either at its first write or on mid-iteration
    /// slice exhaustion in drop mode).
    fn acquire(
        &mut self,
        var: VarId,
        iteration: u64,
        bytes: usize,
    ) -> DamarisResult<Option<Block>> {
        // Opportunistically retire acknowledged iterations so the slice
        // recycles without blocking.
        self.drain_acks();
        // The slice's occupancy is the only pressure signal: everything
        // the dedicated core has not let go of is still allocated here.
        if !self.policy.admit(iteration, &self.seg, || 0.0) {
            self.stats.record_skip();
            return Ok(None);
        }
        loop {
            match self.seg.allocate(bytes) {
                Ok(b) => return Ok(Some(b)),
                Err(damaris_shm::ShmError::OutOfMemory { .. }) => {
                    if self.policy.mode() == SkipMode::DropIteration {
                        // §V.C.1: never stall the simulation. One
                        // non-blocking ack drain; if it retired a staged
                        // iteration, retry — otherwise lose this
                        // iteration's remaining data, exactly like the
                        // thread-mode client on segment exhaustion.
                        let before = self.pending.len();
                        self.drain_acks();
                        if self.pending.len() < before {
                            continue;
                        }
                        self.policy.drop_current(iteration);
                        self.stats.record_skip();
                        return Ok(None);
                    }
                    // Block mode waits on *acknowledgements*, not on the
                    // segment condvar: in process mode every free of this
                    // slice happens on this very thread (ack retirement),
                    // so blocking inside the allocator could never be
                    // woken. Acks only ever retire iterations whose END
                    // was sent; if nothing older than the current
                    // iteration is staged, no ack can come and the slice
                    // genuinely cannot hold this iteration's working set.
                    if !self.pending.keys().any(|&k| k != iteration) {
                        return Err(DamarisError::InvalidState(format!(
                            "client slice of {} bytes cannot hold one iteration's blocks \
                             (writing '{}', {bytes} bytes): grow <buffer size> or \
                             reduce per-iteration data",
                            self.seg.capacity(),
                            self.cfg.var_name(var),
                        )));
                    }
                    self.wait_ack();
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// [`ProcessClient::acquire`] as a writer whose clock started at `t0`.
    fn writer(
        &mut self,
        var: VarId,
        iteration: u64,
        bytes: usize,
        t0: Instant,
    ) -> DamarisResult<ProcessBlockWriter> {
        Ok(ProcessBlockWriter {
            var,
            iteration,
            block: self.acquire(var, iteration, bytes)?,
            t0,
        })
    }

    /// The dedicated core holds no view of `iteration`'s blocks any more.
    /// Dropping the BlockRefs frees the ranges back into this slice's
    /// allocator (class queues first — the zero-lock recycle path).
    fn retire(&mut self, ack: &[u64]) {
        self.pending.remove(&ack[0]);
    }

    fn drain_acks(&mut self) {
        while let Some((ack, _)) = self
            .acks
            .try_recv::<u64>(Source::Rank(DEDICATED_RANK), TAG_ACK)
        {
            self.retire(&ack);
        }
    }

    fn wait_ack(&mut self) {
        let ack = self.acks.recv::<u64>(Source::Rank(DEDICATED_RANK), TAG_ACK);
        self.retire(&ack);
    }
}

impl std::fmt::Debug for ProcessClient<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcessClient")
            .field("base", &self.base)
            .field("pending_iterations", &self.pending.len())
            .finish()
    }
}

impl SimHandle for ProcessClient<'_> {
    type Writer = ProcessBlockWriter;

    fn id(&self) -> usize {
        self.comm.rank() - 1
    }

    fn config(&self) -> &Configuration {
        &self.cfg
    }

    fn var_id(&self, variable: &str) -> DamarisResult<VarId> {
        resolve_var(&self.cfg, variable)
    }

    /// Allocate in the shared mapping, one copy (streamed past the cache
    /// for blocks ≥ [`damaris_shm::STREAM_MIN`]), one descriptor in the
    /// iteration's envelope. Under [`SkipMode::DropIteration`] an iteration
    /// starting above the high-watermark (or exhausting the slice
    /// mid-iteration) is dropped and reported as [`WriteStatus::Skipped`]
    /// instead of stalling or erroring.
    fn write_id<T: damaris_shm::segment::Pod>(
        &mut self,
        var: VarId,
        iteration: u64,
        data: &[T],
    ) -> DamarisResult<WriteStatus> {
        let t0 = Instant::now();
        let bytes = std::mem::size_of_val(data);
        check_layout(&self.cfg, var, bytes)?;
        let mut writer = self.writer(var, iteration, bytes, t0)?;
        writer.fill_pod(data);
        self.commit(writer)
    }

    fn alloc(&mut self, variable: &str, iteration: u64) -> DamarisResult<Self::Writer> {
        let t0 = Instant::now();
        let var = self.var_id(variable)?;
        if self.cfg.registry().is_dynamic(var) {
            return Err(DamarisError::InvalidState(format!(
                "variable '{variable}' has a dynamic layout; use alloc_sized with this \
                 write's byte count"
            )));
        }
        self.writer(var, iteration, self.cfg.registry().byte_size(var), t0)
    }

    fn alloc_sized(
        &mut self,
        variable: &str,
        iteration: u64,
        bytes: usize,
    ) -> DamarisResult<Self::Writer> {
        let t0 = Instant::now();
        let var = self.var_id(variable)?;
        check_layout(&self.cfg, var, bytes)?;
        self.writer(var, iteration, bytes, t0)
    }

    /// The descriptor joins the iteration's coalesced envelope: no message
    /// until `end_iteration`.
    fn commit(&mut self, writer: Self::Writer) -> DamarisResult<WriteStatus> {
        let Some(block) = writer.block else {
            return Ok(WriteStatus::Skipped);
        };
        let bytes = block.len() as u64;
        self.batch.extend_from_slice(&[
            u64::from(writer.var.raw()),
            (self.base + block.offset()) as u64,
            bytes,
        ]);
        self.pending
            .entry(writer.iteration)
            .or_default()
            .push(block.freeze());
        self.writes_this_iteration += 1;
        self.stats
            .record_write(writer.t0.elapsed().as_nanos() as u64, bytes);
        Ok(WriteStatus::Written)
    }

    fn signal(&mut self, name: &str, iteration: u64) -> DamarisResult<()> {
        let Some(event) = self.cfg.registry().event_id(name) else {
            return Ok(());
        };
        self.comm.send(
            DEDICATED_RANK,
            TAG_MSG,
            &[KIND_SIGNAL, u64::from(event.raw()), iteration],
        );
        Ok(())
    }

    /// Flush the iteration's envelope (all of its write descriptors plus
    /// the end-of-iteration marker in one message). Never waits:
    /// un-acknowledged iterations cost slice space, which the next write's
    /// admission sees.
    fn end_iteration(&mut self, iteration: u64) -> DamarisResult<()> {
        let skipped = self.policy.was_dropped(iteration);
        self.batch[..BATCH_HEADER].copy_from_slice(&[
            KIND_BATCH,
            iteration,
            self.writes_this_iteration,
            u64::from(skipped),
        ]);
        self.comm.send(DEDICATED_RANK, TAG_MSG, &self.batch);
        self.batch.truncate(BATCH_HEADER);
        self.writes_this_iteration = 0;
        self.drain_acks();
        Ok(())
    }

    /// Announce that this client is done, then wait for every staged
    /// iteration to be acknowledged (so the slice reads empty). In that
    /// order: iterations the dedicated core retains — the `<serve retain>`
    /// window, a storage hand-off in flight — are released once *every*
    /// client is done, so waiting first could wait forever. Idempotent.
    fn finalize(&mut self) -> DamarisResult<()> {
        if self.finalized {
            return Ok(());
        }
        self.comm.send(DEDICATED_RANK, TAG_MSG, &[KIND_FIN]);
        self.finalized = true;
        while !self.pending.is_empty() {
            self.wait_ack();
        }
        Ok(())
    }

    fn stats(&self) -> ClientStats {
        self.stats.snapshot()
    }

    fn skipped_iterations(&self) -> u64 {
        self.policy.dropped_iterations()
    }
}
