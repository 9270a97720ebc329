//! **The one Damaris client API** — a facade that hides where the
//! dedicated core lives.
//!
//! The paper's usability claim rests on a *single* simulation-side
//! surface (`damaris_write`, `damaris_alloc`/`damaris_commit`,
//! `damaris_signal`, `damaris_end_iteration`, `damaris_finalize`) that is
//! identical whether the dedicated core is a thread of the simulation
//! process or a separate MPI process on the same node. This module is
//! that seam:
//!
//! * [`SimHandle`] — the paper-shaped trait, implemented by the
//!   thread-mode [`DamarisClient`] and the process-mode
//!   [`ProcessClient`];
//! * [`Damaris`] — the enum-dispatched handle applications hold, so a
//!   simulation is written exactly once as
//!   `fn simulate<H: SimHandle>(h: &mut H)` (or directly against
//!   `&mut Damaris`) and runs unmodified on either world;
//! * [`Damaris::launch`] — the one construction point: it reads
//!   `<world kind="threads|processes"/>` and `<clients count="…"/>` from
//!   the configuration, stands up the matching world (an in-process
//!   [`DamarisNode`] or a spawned [`mini_mpi::World`] with a
//!   [`ProcessServer`] on rank 0), runs
//!   the simulation function once per client, and returns a
//!   world-independent [`SimReport`].
//!
//! The report carries an order-independent digest of every block the
//! dedicated core consumed, so tests can assert that both worlds received
//! byte-identical data without poking world-specific internals.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use damaris_xml::schema::Configuration;
use damaris_xml::VarId;
use mini_mpi::World;

use crate::client::{ClientStats, DamarisClient, WriteStatus};
use crate::error::{DamarisError, DamarisResult};
use crate::node::{DamarisNode, NodeReport};
use crate::plugins::{FnPlugin, Plugin};
use crate::process::{ProcessClient, ProcessServer, DEDICATED_RANK};

// ---------------------------------------------------------------------------
// Shared validation (used by both backends)
// ---------------------------------------------------------------------------

/// Resolve a variable name against the configuration's interned registry.
///
/// The single construction point of [`DamarisError::UnknownVariable`]:
/// both the thread-mode client and the process-mode client route name
/// lookups through here, so the two backends cannot drift in how they
/// reject undeclared variables.
pub(crate) fn resolve_var(cfg: &Configuration, variable: &str) -> DamarisResult<VarId> {
    cfg.registry()
        .var_id(variable)
        .ok_or_else(|| DamarisError::UnknownVariable(variable.to_string()))
}

/// Check that `got` bytes match the declared layout of `var`.
///
/// Fixed layouts require the exact precomputed byte size. **Dynamic**
/// layouts (`dimensions="dynamic"`) accept any caller-supplied extent
/// that is non-zero, a whole number of elements, and within the layout's
/// declared `max_size` — the AMR contract, where every write carries its
/// own block length.
///
/// The single construction point of [`DamarisError::LayoutMismatch`],
/// shared by both backends (see [`resolve_var`]).
pub(crate) fn check_layout(cfg: &Configuration, var: VarId, got: usize) -> DamarisResult<()> {
    let reg = cfg.registry();
    if reg.is_dynamic(var) {
        let elem = reg.entry(var).elem_type.size_bytes();
        let max = reg.max_byte_size(var);
        if got == 0 || !got.is_multiple_of(elem) {
            // expected = 0 selects the dynamic-specific error message
            // ("not a valid size for its dynamic layout"), not the
            // fixed-layout "layout holds N bytes" wording.
            return Err(DamarisError::LayoutMismatch {
                variable: cfg.var_name(var).to_string(),
                expected: 0,
                got,
            });
        }
        if let Some(m) = max {
            if got > m {
                return Err(DamarisError::LayoutMismatch {
                    variable: cfg.var_name(var).to_string(),
                    expected: m,
                    got,
                });
            }
        }
        return Ok(());
    }
    let expected = reg.byte_size(var);
    if got != expected {
        return Err(DamarisError::LayoutMismatch {
            variable: cfg.var_name(var).to_string(),
            expected,
            got,
        });
    }
    Ok(())
}

/// Hash of one published block: variable, iteration, 0-based client
/// index, payload length and every payload byte, each at its position.
/// Blocks arrive at the dedicated core in a scheduling-dependent order,
/// so world-level digests combine per-block hashes with a wrapping sum —
/// order-independent, identical across worlds when and only when the same
/// blocks arrived.
///
/// The dedicated core pays this for every byte it receives, so the payload
/// is read a `u64` at a time into four independent multiply-rotate lanes
/// (word `i` goes to lane `i % 4`; the multiplies of different lanes
/// overlap) that are folded together at the end. Every step is a bijection
/// of the lane for a fixed word and of the word for a fixed lane, so
/// changing any one field or any one word always changes the result; the
/// rotate moves a difference in a word's top bit to where the next
/// multiply spreads it, so two such flips do not cancel. The value is
/// defined by this function alone and is comparable only between runs of
/// the same build.
pub(crate) fn block_digest(var: u64, iteration: u64, client: u64, data: &[u8]) -> u64 {
    const MUL: u64 = 0x9e37_79b9_7f4a_7c15;
    const SEEDS: [u64; 4] = [
        0x243f_6a88_85a3_08d3,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    fn mix(lane: u64, word: u64) -> u64 {
        (lane ^ word).wrapping_mul(MUL).rotate_left(29)
    }
    fn word(bytes: &[u8]) -> u64 {
        let mut w = [0u8; 8];
        w[..bytes.len()].copy_from_slice(bytes);
        u64::from_le_bytes(w)
    }

    let header = [var, iteration, client, data.len() as u64];
    let mut lanes: [u64; 4] = std::array::from_fn(|k| mix(SEEDS[k], header[k]));
    let mut stripes = data.chunks_exact(32);
    for stripe in &mut stripes {
        for (lane, bytes) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
            *lane = mix(*lane, word(bytes));
        }
    }
    // At most three whole words and one partial word, zero-padded: the
    // length in the header tells padding from payload.
    for (lane, bytes) in lanes.iter_mut().zip(stripes.remainder().chunks(8)) {
        *lane = mix(*lane, word(bytes));
    }
    let mut h = lanes.into_iter().fold(0, mix);
    // Final avalanche, so that the wrapping sum over blocks mixes bits of
    // every position.
    h ^= h >> 32;
    h = h.wrapping_mul(MUL);
    h ^ (h >> 29)
}

// ---------------------------------------------------------------------------
// The facade traits
// ---------------------------------------------------------------------------

/// A shared-memory block being filled in place by the simulation (the
/// zero-copy path), independent of which backend allocated it.
pub trait SimWriter {
    /// Whether the skip policy dropped this iteration (the writer is
    /// inert: filling it is a no-op and committing reports
    /// [`WriteStatus::Skipped`]).
    fn is_skipped(&self) -> bool;

    /// Mutable view of the shared-memory block (empty slice when
    /// skipped).
    fn as_mut_slice(&mut self) -> &mut [u8];

    /// Fill from a typed slice (convenience over
    /// [`SimWriter::as_mut_slice`]).
    fn fill_pod<T: damaris_shm::segment::Pod>(&mut self, data: &[T]);
}

/// The paper-shaped simulation-side API, identical over both worlds.
///
/// Each method corresponds to one function of the original middleware's C
/// API; simulation code written against this trait (or the
/// enum-dispatched [`Damaris`]) runs unmodified whether the dedicated
/// core is a thread ([`DamarisClient`]) or a separate OS process
/// ([`ProcessClient`]).
pub trait SimHandle {
    /// Backend-specific zero-copy writer returned by [`SimHandle::alloc`].
    type Writer: SimWriter;

    /// This client's 0-based index among the node's compute cores (the
    /// paper's client rank within the node).
    fn id(&self) -> usize;

    /// The loaded configuration.
    fn config(&self) -> &Configuration;

    /// Resolve a variable name to its interned id once, so repeated
    /// writes can skip the hash lookup (paper: the variable handle
    /// `damaris_parameter_get`-style lookups cache).
    fn var_id(&self, variable: &str) -> DamarisResult<VarId>;

    /// Publish one variable for one iteration — the paper's
    /// `damaris_write`, the single instrumentation line its usability
    /// comparison counts (§V.C.2).
    fn write<T: damaris_shm::segment::Pod>(
        &mut self,
        variable: &str,
        iteration: u64,
        data: &[T],
    ) -> DamarisResult<WriteStatus> {
        let var = self.var_id(variable)?;
        self.write_id(var, iteration, data)
    }

    /// [`SimHandle::write`] with a pre-resolved [`VarId`].
    fn write_id<T: damaris_shm::segment::Pod>(
        &mut self,
        var: VarId,
        iteration: u64,
        data: &[T],
    ) -> DamarisResult<WriteStatus>;

    /// Allocate the variable's block in shared memory for in-place
    /// filling — the paper's `damaris_alloc` ("functions to directly
    /// access the shared memory segment", §III.B). The write-timing
    /// clock starts here, so [`SimHandle::stats`] covers allocation and
    /// fill, not just the final publish.
    ///
    /// Only for fixed layouts (the size is the declared one); a
    /// `dimensions="dynamic"` variable needs [`SimHandle::alloc_sized`].
    fn alloc(&mut self, variable: &str, iteration: u64) -> DamarisResult<Self::Writer>;

    /// [`SimHandle::alloc`] with a caller-supplied block length in bytes
    /// — the zero-copy path for variable-size (AMR refinement,
    /// per-step particle counts) workloads on `dimensions="dynamic"`
    /// layouts. Every write carries its own extent; both backends
    /// validate it against the element size and the layout's `max_size`.
    fn alloc_sized(
        &mut self,
        variable: &str,
        iteration: u64,
        bytes: usize,
    ) -> DamarisResult<Self::Writer>;

    /// Publish a block obtained from [`SimHandle::alloc`] — the paper's
    /// `damaris_commit`.
    fn commit(&mut self, writer: Self::Writer) -> DamarisResult<WriteStatus>;

    /// Raise a user event — the paper's `damaris_signal`; actions
    /// declared with `event="name"` fire on the dedicated core. Names no
    /// `<action>` references are silently dropped at this edge on both
    /// backends (nothing could match them).
    fn signal(&mut self, name: &str, iteration: u64) -> DamarisResult<()>;

    /// Mark the iteration finished for this client — the paper's
    /// `damaris_end_iteration`. When every client of the node has ended
    /// iteration `k` and all its blocks arrived, the dedicated core
    /// fires the end-of-iteration actions.
    fn end_iteration(&mut self, iteration: u64) -> DamarisResult<()>;

    /// Announce that this client will send nothing further — the
    /// paper's `damaris_finalize`.
    fn finalize(&mut self) -> DamarisResult<()>;

    /// Snapshot of this client's timing statistics (writes, bytes,
    /// latency histogram) — uniform per-rank instrumentation regardless
    /// of backend.
    fn stats(&self) -> ClientStats;

    /// Iterations dropped by the skip policy so far.
    fn skipped_iterations(&self) -> u64;
}

// ---------------------------------------------------------------------------
// Trait impl for the thread-mode client
// ---------------------------------------------------------------------------

impl SimWriter for crate::client::BlockWriter {
    fn is_skipped(&self) -> bool {
        crate::client::BlockWriter::is_skipped(self)
    }

    fn as_mut_slice(&mut self) -> &mut [u8] {
        crate::client::BlockWriter::as_mut_slice(self)
    }

    fn fill_pod<T: damaris_shm::segment::Pod>(&mut self, data: &[T]) {
        crate::client::BlockWriter::fill_pod(self, data)
    }
}

impl SimHandle for DamarisClient {
    type Writer = crate::client::BlockWriter;

    fn id(&self) -> usize {
        DamarisClient::id(self)
    }

    fn config(&self) -> &Configuration {
        DamarisClient::config(self)
    }

    fn var_id(&self, variable: &str) -> DamarisResult<VarId> {
        DamarisClient::var_id(self, variable)
    }

    fn write_id<T: damaris_shm::segment::Pod>(
        &mut self,
        var: VarId,
        iteration: u64,
        data: &[T],
    ) -> DamarisResult<WriteStatus> {
        DamarisClient::write_id(self, var, iteration, data)
    }

    fn alloc(&mut self, variable: &str, iteration: u64) -> DamarisResult<Self::Writer> {
        DamarisClient::alloc(self, variable, iteration)
    }

    fn alloc_sized(
        &mut self,
        variable: &str,
        iteration: u64,
        bytes: usize,
    ) -> DamarisResult<Self::Writer> {
        DamarisClient::alloc_sized(self, variable, iteration, bytes)
    }

    fn commit(&mut self, writer: Self::Writer) -> DamarisResult<WriteStatus> {
        DamarisClient::commit(self, writer)
    }

    fn signal(&mut self, name: &str, iteration: u64) -> DamarisResult<()> {
        DamarisClient::signal(self, name, iteration)
    }

    fn end_iteration(&mut self, iteration: u64) -> DamarisResult<()> {
        DamarisClient::end_iteration(self, iteration)
    }

    fn finalize(&mut self) -> DamarisResult<()> {
        DamarisClient::finalize(self)
    }

    fn stats(&self) -> ClientStats {
        DamarisClient::stats(self)
    }

    fn skipped_iterations(&self) -> u64 {
        DamarisClient::skipped_iterations(self)
    }
}

// ---------------------------------------------------------------------------
// The enum-dispatched handle and launcher
// ---------------------------------------------------------------------------

/// A zero-copy writer from either backend (see [`SimHandle::alloc`] on
/// [`Damaris`]).
pub enum DamarisWriter {
    /// Writer over the thread-mode node's shared segment.
    Threads(crate::client::BlockWriter),
    /// Writer over the process-mode client's slice of the shared mapping.
    Processes(crate::process::ProcessBlockWriter),
}

impl SimWriter for DamarisWriter {
    fn is_skipped(&self) -> bool {
        match self {
            DamarisWriter::Threads(w) => SimWriter::is_skipped(w),
            DamarisWriter::Processes(w) => SimWriter::is_skipped(w),
        }
    }

    fn as_mut_slice(&mut self) -> &mut [u8] {
        match self {
            DamarisWriter::Threads(w) => SimWriter::as_mut_slice(w),
            DamarisWriter::Processes(w) => SimWriter::as_mut_slice(w),
        }
    }

    fn fill_pod<T: damaris_shm::segment::Pod>(&mut self, data: &[T]) {
        match self {
            DamarisWriter::Threads(w) => SimWriter::fill_pod(w, data),
            DamarisWriter::Processes(w) => SimWriter::fill_pod(w, data),
        }
    }
}

enum DamarisInner<'a> {
    Threads(DamarisClient),
    // Boxed: the process client embeds its stats histogram (~700 bytes),
    // which would bloat every thread-mode handle.
    Processes(Box<ProcessClient<'a>>),
}

/// The unified client handle applications hold: one of the two backends
/// behind one [`SimHandle`] surface.
///
/// Constructed by [`Damaris::launch`] (which picks the backend from
/// `<world kind="…"/>`), or directly via [`Damaris::threads`] /
/// [`Damaris::processes`] when embedding into an existing node or world.
///
/// [`SimHandle::finalize`] is idempotent on this handle (the launcher
/// calls it defensively after the simulation function returns).
pub struct Damaris<'a> {
    inner: DamarisInner<'a>,
    finalized: bool,
}

impl<'a> Damaris<'a> {
    /// Wrap a thread-mode client of an existing [`DamarisNode`].
    pub fn threads(client: DamarisClient) -> Self {
        Damaris {
            inner: DamarisInner::Threads(client),
            finalized: false,
        }
    }

    /// Wrap a process-mode client rank of an existing socket world.
    pub fn processes(client: ProcessClient<'a>) -> Self {
        Damaris {
            inner: DamarisInner::Processes(Box::new(client)),
            finalized: false,
        }
    }

    /// Stand up whichever world `cfg` names and run `sim` once per
    /// client — the facade's `damaris_initialize`-through-`finalize`
    /// lifecycle in one call.
    ///
    /// * `<world kind="threads"/>`: builds an in-process [`DamarisNode`]
    ///   with `<clients count="…"/>` compute threads; actions fire
    ///   plugins as usual.
    /// * `<world kind="processes"/>`: spawns `<clients count> + 1` OS
    ///   processes by re-executing the current binary
    ///   ([`World::run_spawned`]); rank 0 serves as the dedicated core.
    ///   `program` must uniquely identify this call site across
    ///   re-execution (any constant string for a plain binary; inside a
    ///   `#[test]`, use [`Damaris::launch_test`] with the test's path).
    ///
    /// `sim` receives the unified handle plus `input`, and must derive
    /// all rank behaviour from those two arguments alone — in process
    /// mode it runs in a re-executed child where captured state from the
    /// spawning scope may differ (the configuration itself travels to
    /// the children alongside `input`, so it is always consistent).
    /// `sim` should end with [`SimHandle::finalize`]; the launcher also
    /// finalizes defensively.
    pub fn launch<F>(
        cfg: Configuration,
        program: &str,
        input: &[u8],
        sim: F,
    ) -> DamarisResult<SimReport>
    where
        F: Fn(&mut Damaris<'_>, &[u8]) -> Vec<u8> + Send + Sync,
    {
        Damaris::launcher(cfg, program).input(input).launch(sim)
    }

    /// [`Damaris::launch`] for call sites inside `#[test]` functions:
    /// process-mode children are re-executed through the libtest harness
    /// (`--exact <program>`), so `program` must be the test's full path
    /// within its binary.
    pub fn launch_test<F>(
        cfg: Configuration,
        program: &str,
        input: &[u8],
        sim: F,
    ) -> DamarisResult<SimReport>
    where
        F: Fn(&mut Damaris<'_>, &[u8]) -> Vec<u8> + Send + Sync,
    {
        Damaris::launcher(cfg, program)
            .input(input)
            .test_harness()
            .launch(sim)
    }

    /// Start configuring a launch: attach custom plugins before running
    /// the simulation. See [`Launcher`].
    pub fn launcher(cfg: Configuration, program: &str) -> Launcher {
        Launcher {
            cfg,
            program: program.to_string(),
            input: Vec::new(),
            test_harness: false,
            plugins: Vec::new(),
        }
    }
}

/// Configured [`Damaris::launch`]: the one construction point extended
/// with custom data-management services.
///
/// [`Launcher::with_plugin`] registers a [`Plugin`] on the dedicated core
/// of whichever world `<world kind="…"/>` names — a thread of this process,
/// or rank 0 of the spawned process world. A process world re-executes
/// this binary once per rank, and every rank rebuilds this `Launcher` (and
/// with it the plugin instance) from the same call site; only rank 0's
/// instance is registered and called, so whatever a plugin learns lives in
/// that process — hand results out through files or the plugin's own
/// channel, not through state the launching process reads back. A declared
/// `<store>` or `<serve>` wires the storage pipeline or the streaming tier
/// automatically in both worlds — no builder call needed.
///
/// ```no_run
/// use damaris_core::prelude::*;
/// use std::sync::Arc;
///
/// let cfg = Configuration::from_str("<simulation name=\"s\"/>").unwrap();
/// let report = Damaris::launcher(cfg, "my-sim")
///     .with_plugin(Arc::new(StatsPlugin::new()))
///     .launch(|h, _| {
///         h.finalize().unwrap();
///         Vec::new()
///     })
///     .unwrap();
/// assert_eq!(report.signals_delivered, 0);
/// ```
pub struct Launcher {
    cfg: Configuration,
    program: String,
    input: Vec<u8>,
    test_harness: bool,
    plugins: Vec<Arc<dyn Plugin>>,
}

impl Launcher {
    /// Opaque bytes handed to every client's simulation function (travel
    /// to process-mode children alongside the configuration).
    pub fn input(mut self, input: &[u8]) -> Self {
        self.input = input.to_vec();
        self
    }

    /// Re-execute process-mode children through the libtest harness; the
    /// program string must then be the `#[test]` function's full path
    /// (see [`Damaris::launch_test`]).
    pub fn test_harness(mut self) -> Self {
        self.test_harness = true;
        self
    }

    /// Register a data-management plugin on the dedicated core, in either
    /// world (replaces any auto-registered built-in of the same name).
    pub fn with_plugin(mut self, plugin: Arc<dyn Plugin>) -> Self {
        self.plugins.push(plugin);
        self
    }

    /// Stand up whichever world the configuration names and run `sim`
    /// once per client (see [`Damaris::launch`] for the lifecycle).
    pub fn launch<F>(self, sim: F) -> DamarisResult<SimReport>
    where
        F: Fn(&mut Damaris<'_>, &[u8]) -> Vec<u8> + Send + Sync,
    {
        match self.cfg.architecture.world {
            damaris_xml::schema::WorldKind::Threads => {
                launch_threads(self.cfg, &self.input, &self.plugins, sim)
            }
            damaris_xml::schema::WorldKind::Processes => launch_processes(
                self.cfg,
                &self.program,
                &self.input,
                self.test_harness,
                &self.plugins,
                sim,
            ),
        }
    }
}

impl SimHandle for Damaris<'_> {
    type Writer = DamarisWriter;

    fn id(&self) -> usize {
        match &self.inner {
            DamarisInner::Threads(c) => SimHandle::id(c),
            DamarisInner::Processes(h) => SimHandle::id(h.as_ref()),
        }
    }

    fn config(&self) -> &Configuration {
        match &self.inner {
            DamarisInner::Threads(c) => SimHandle::config(c),
            DamarisInner::Processes(h) => SimHandle::config(h.as_ref()),
        }
    }

    fn var_id(&self, variable: &str) -> DamarisResult<VarId> {
        match &self.inner {
            DamarisInner::Threads(c) => SimHandle::var_id(c, variable),
            DamarisInner::Processes(h) => SimHandle::var_id(h.as_ref(), variable),
        }
    }

    fn write_id<T: damaris_shm::segment::Pod>(
        &mut self,
        var: VarId,
        iteration: u64,
        data: &[T],
    ) -> DamarisResult<WriteStatus> {
        match &mut self.inner {
            DamarisInner::Threads(c) => SimHandle::write_id(c, var, iteration, data),
            DamarisInner::Processes(h) => SimHandle::write_id(h.as_mut(), var, iteration, data),
        }
    }

    fn alloc(&mut self, variable: &str, iteration: u64) -> DamarisResult<Self::Writer> {
        match &mut self.inner {
            DamarisInner::Threads(c) => {
                SimHandle::alloc(c, variable, iteration).map(DamarisWriter::Threads)
            }
            DamarisInner::Processes(h) => {
                SimHandle::alloc(h.as_mut(), variable, iteration).map(DamarisWriter::Processes)
            }
        }
    }

    fn alloc_sized(
        &mut self,
        variable: &str,
        iteration: u64,
        bytes: usize,
    ) -> DamarisResult<Self::Writer> {
        match &mut self.inner {
            DamarisInner::Threads(c) => {
                SimHandle::alloc_sized(c, variable, iteration, bytes).map(DamarisWriter::Threads)
            }
            DamarisInner::Processes(h) => {
                SimHandle::alloc_sized(h.as_mut(), variable, iteration, bytes)
                    .map(DamarisWriter::Processes)
            }
        }
    }

    fn commit(&mut self, writer: Self::Writer) -> DamarisResult<WriteStatus> {
        match (&mut self.inner, writer) {
            (DamarisInner::Threads(c), DamarisWriter::Threads(w)) => SimHandle::commit(c, w),
            (DamarisInner::Processes(h), DamarisWriter::Processes(w)) => {
                SimHandle::commit(h.as_mut(), w)
            }
            _ => Err(DamarisError::InvalidState(
                "writer committed through a handle of the other backend".into(),
            )),
        }
    }

    fn signal(&mut self, name: &str, iteration: u64) -> DamarisResult<()> {
        match &mut self.inner {
            DamarisInner::Threads(c) => SimHandle::signal(c, name, iteration),
            DamarisInner::Processes(h) => SimHandle::signal(h.as_mut(), name, iteration),
        }
    }

    fn end_iteration(&mut self, iteration: u64) -> DamarisResult<()> {
        match &mut self.inner {
            DamarisInner::Threads(c) => SimHandle::end_iteration(c, iteration),
            DamarisInner::Processes(h) => SimHandle::end_iteration(h.as_mut(), iteration),
        }
    }

    fn finalize(&mut self) -> DamarisResult<()> {
        if self.finalized {
            return Ok(());
        }
        match &mut self.inner {
            DamarisInner::Threads(c) => SimHandle::finalize(c),
            DamarisInner::Processes(h) => SimHandle::finalize(h.as_mut()),
        }?;
        self.finalized = true;
        Ok(())
    }

    fn stats(&self) -> ClientStats {
        match &self.inner {
            DamarisInner::Threads(c) => SimHandle::stats(c),
            DamarisInner::Processes(h) => SimHandle::stats(h.as_ref()),
        }
    }

    fn skipped_iterations(&self) -> u64 {
        match &self.inner {
            DamarisInner::Threads(c) => SimHandle::skipped_iterations(c),
            DamarisInner::Processes(h) => SimHandle::skipped_iterations(h.as_ref()),
        }
    }
}

/// World-independent outcome of a [`Damaris::launch`] session: what the
/// simulation produced and what the dedicated core saw, with identical
/// meaning over both backends (the transport-equivalence tests compare
/// these structs field by field across worlds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimReport {
    /// Each client's bytes returned from the simulation function, in
    /// client order.
    pub outputs: Vec<Vec<u8>>,
    /// Iterations the dedicated core completed (all clients, all
    /// announced blocks).
    pub iterations_completed: u64,
    /// Client-iterations the skip policy dropped.
    pub skipped_client_iterations: u64,
    /// User signals that reached the dedicated core (names without a
    /// declared `<action>` are filtered at the client edge and never
    /// counted).
    pub signals_delivered: u64,
    /// Blocks the dedicated core consumed.
    pub blocks_received: u64,
    /// Payload bytes the dedicated core consumed out of shared memory.
    pub bytes_received: u64,
    /// Order-independent digest of every block belonging to a
    /// *completed* iteration (variable, iteration, client, payload) —
    /// byte-identical data across worlds produces equal digests. Blocks
    /// of iterations that never complete (a client skips
    /// `end_iteration`) are excluded on both backends. The hash function
    /// is internal: compare the value only between runs (or worlds) of the
    /// same build, never against a stored constant.
    pub data_digest: u64,
    /// World ranks of clients that died mid-run and were survived in
    /// degraded mode (ascending; process world only). Always empty for
    /// the thread world.
    /// A dead client's entry in [`SimReport::outputs`] is empty.
    pub dead_ranks: Vec<usize>,
    /// Whether the run completed in degraded mode (at least one client
    /// died and the dedicated core closed its staged iterations).
    pub degraded: bool,
    /// Error messages of plugins that failed during the run, storage and
    /// streaming included (collected on the dedicated core, never fatal to
    /// the launch) — empty on a clean run, in both worlds.
    pub plugin_errors: Vec<String>,
}

impl SimReport {
    /// What the dedicated side of either world reports, plus the launch's
    /// own digest; `outputs` are filled in by whoever collects them.
    fn new(report: NodeReport, data_digest: u64) -> Self {
        SimReport {
            outputs: Vec::new(),
            iterations_completed: report.iterations_completed,
            skipped_client_iterations: report.skipped_client_iterations,
            signals_delivered: report.signals_delivered,
            blocks_received: report.blocks_received,
            bytes_received: report.bytes_received,
            data_digest,
            degraded: !report.dead_ranks.is_empty(),
            dead_ranks: report.dead_ranks,
            plugin_errors: report.plugin_errors,
        }
    }
}

fn encode_wire(cfg: &Configuration, input: &[u8]) -> Vec<u8> {
    let xml = cfg.to_xml();
    let mut wire = Vec::with_capacity(8 + xml.len() + input.len());
    wire.extend((xml.len() as u64).to_le_bytes());
    wire.extend(xml.as_bytes());
    wire.extend(input);
    wire
}

fn decode_wire(wire: &[u8]) -> (Configuration, &[u8]) {
    let len = u64::from_le_bytes(wire[..8].try_into().expect("wire header")) as usize;
    let xml = std::str::from_utf8(&wire[8..8 + len]).expect("wire config is utf-8");
    let cfg = Configuration::from_str(xml).expect("wire config re-parses");
    (cfg, &wire[8 + len..])
}

/// Register a launch's plugins through `register` — the caller's, then
/// the launcher's own `__launch-digest`, which folds every block of a
/// completed iteration into the returned cell ([`SimReport::data_digest`]).
/// Both worlds go through here, so they register the same set in the same
/// order.
fn register_launch_plugins(
    plugins: &[Arc<dyn Plugin>],
    register: impl Fn(Arc<dyn Plugin>),
) -> Arc<AtomicU64> {
    for plugin in plugins {
        register(plugin.clone());
    }
    let digest = Arc::new(AtomicU64::new(0));
    let d = digest.clone();
    register(Arc::new(FnPlugin::new("__launch-digest", move |ctx| {
        let mut sum = 0u64;
        for b in ctx.blocks {
            sum = sum.wrapping_add(block_digest(
                b.variable.index() as u64,
                b.iteration,
                b.source as u64,
                b.data.as_slice(),
            ));
        }
        d.fetch_add(sum, Ordering::Relaxed);
        Ok(())
    })));
    digest
}

fn launch_threads<F>(
    cfg: Configuration,
    input: &[u8],
    plugins: &[Arc<dyn Plugin>],
    sim: F,
) -> DamarisResult<SimReport>
where
    F: Fn(&mut Damaris<'_>, &[u8]) -> Vec<u8> + Send + Sync,
{
    let node = DamarisNode::builder().config(cfg).build()?;
    let digest = register_launch_plugins(plugins, |p| node.register_plugin(p));
    let sim = &sim;
    let outputs: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = node
            .clients()
            .map(|client| {
                scope.spawn(move || {
                    let mut h = Damaris::threads(client);
                    let out = sim(&mut h, input);
                    let _ = SimHandle::finalize(&mut h);
                    out
                })
            })
            .collect();
        // Join *every* handle before inspecting results: a short-circuit
        // on the first panic would leave later panicked handles
        // un-observed, and `thread::scope` re-raises those at scope exit —
        // escaping as a panic instead of the mapped error below.
        let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        joined.into_iter().collect::<Result<_, _>>()
    })
    .map_err(|_| DamarisError::InvalidState("a simulation client thread panicked".into()))?;
    let report = node.shutdown()?;
    Ok(SimReport {
        outputs,
        ..SimReport::new(report, digest.load(Ordering::Relaxed))
    })
}

/// A [`SimReport`] without its `outputs`, as the dedicated rank's result
/// bytes: the counters, the digest and the dead ranks as `u64` words, then
/// the plugin errors as length-prefixed UTF-8.
fn encode_report(report: &SimReport) -> Vec<u8> {
    let mut words = vec![
        report.iterations_completed,
        report.skipped_client_iterations,
        report.signals_delivered,
        report.blocks_received,
        report.bytes_received,
        report.data_digest,
        report.dead_ranks.len() as u64,
    ];
    words.extend(report.dead_ranks.iter().map(|&r| r as u64));
    words.push(report.plugin_errors.len() as u64);
    let mut bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    for error in &report.plugin_errors {
        bytes.extend((error.len() as u64).to_le_bytes());
        bytes.extend(error.as_bytes());
    }
    bytes
}

/// Inverse of [`encode_report`]; `None` when the bytes are not one.
fn decode_report(mut bytes: &[u8]) -> Option<SimReport> {
    fn take<'a>(bytes: &mut &'a [u8], n: u64) -> Option<&'a [u8]> {
        let (head, rest) = bytes.split_at_checked(usize::try_from(n).ok()?)?;
        *bytes = rest;
        Some(head)
    }
    fn word(bytes: &mut &[u8]) -> Option<u64> {
        Some(u64::from_le_bytes(take(bytes, 8)?.try_into().ok()?))
    }
    let b = &mut bytes;
    let [iterations_completed, skipped_client_iterations, signals_delivered, blocks_received, bytes_received, data_digest] =
        [word(b)?, word(b)?, word(b)?, word(b)?, word(b)?, word(b)?];
    let mut dead_ranks = Vec::new();
    for _ in 0..word(b)? {
        dead_ranks.push(usize::try_from(word(b)?).ok()?);
    }
    let mut plugin_errors = Vec::new();
    for _ in 0..word(b)? {
        let len = word(b)?;
        plugin_errors.push(String::from_utf8(take(b, len)?.to_vec()).ok()?);
    }
    bytes.is_empty().then_some(SimReport {
        outputs: Vec::new(),
        iterations_completed,
        skipped_client_iterations,
        signals_delivered,
        blocks_received,
        bytes_received,
        data_digest,
        degraded: !dead_ranks.is_empty(),
        dead_ranks,
        plugin_errors,
    })
}

fn launch_processes<F>(
    cfg: Configuration,
    program: &str,
    input: &[u8],
    test_harness: bool,
    plugins: &[Arc<dyn Plugin>],
    sim: F,
) -> DamarisResult<SimReport>
where
    F: Fn(&mut Damaris<'_>, &[u8]) -> Vec<u8> + Send + Sync,
{
    let size = cfg.architecture.clients + 1;
    let wire = encode_wire(&cfg, input);
    let rank_program = |comm: &mut mini_mpi::Comm, wire: &[u8]| -> Vec<u8> {
        // All rank behaviour derives from the wire bytes: in a
        // re-executed child the surrounding scope's captures (cfg,
        // input) may belong to a *different* invocation of the caller.
        // (The plugins are safe to use: the child re-executes the same
        // call site, reconstructing an identical `Launcher`.)
        let (cfg, input) = decode_wire(wire);
        let dir = World::spawn_dir().expect("rank runs inside a spawned world");
        if comm.rank() == DEDICATED_RANK {
            // The thread world's node, on a rank of its own: the same
            // built-ins for the same configuration (node id 0; files land
            // in the spawn dir unless <store path> says otherwise), then
            // the same launch plugins.
            let server = ProcessServer::new(comm, cfg, &dir).expect("dedicated core starts");
            let digest = register_launch_plugins(plugins, |p| server.register_plugin(p));
            let report = server.serve(comm).expect("dedicated core serves");
            encode_report(&SimReport::new(report, digest.load(Ordering::Relaxed)))
        } else {
            let client = ProcessClient::new(comm, cfg, &dir).expect("client joins the node");
            let mut h = Damaris::processes(client);
            let out = sim(&mut h, input);
            let _ = SimHandle::finalize(&mut h);
            out
        }
    };
    // Seed-list rendezvous and the heartbeat timeout come straight from
    // the configuration (`<world seeds="…" heartbeat_timeout_ms="…"/>`).
    let defaults = mini_mpi::SpawnOptions::default();
    let opts = mini_mpi::SpawnOptions {
        harness_args: test_harness,
        seeds: cfg.architecture.seeds.clone(),
        heartbeat_timeout_ms: cfg
            .architecture
            .heartbeat_timeout_ms
            .unwrap_or(defaults.heartbeat_timeout_ms),
        ..defaults
    };
    let outcome = World::run_spawned_outcome(size, program, &wire, opts, rank_program)
        .map_err(|e| DamarisError::InvalidState(format!("process world failed: {e}")))?;
    let mut results = outcome.results;
    let server = results.remove(DEDICATED_RANK).ok_or_else(|| {
        DamarisError::InvalidState(format!(
            "process world failed: dedicated core died ({})",
            outcome.failures.join("; ")
        ))
    })?;
    let report = decode_report(&server)
        .ok_or_else(|| DamarisError::InvalidState("malformed dedicated-core report".into()))?;
    let dead_ranks = &report.dead_ranks;
    // A failed rank is tolerable only when the dedicated core itself
    // declared it dead and finished degraded; anything else (a client
    // that panicked but said goodbye, a failure the server never saw)
    // still fails the launch.
    let unexplained: Vec<&String> = outcome
        .failures
        .iter()
        .filter(|line| {
            !dead_ranks
                .iter()
                .any(|r| line.starts_with(&format!("rank {r}:")))
        })
        .collect();
    if !unexplained.is_empty() {
        return Err(DamarisError::InvalidState(format!(
            "process world failed: {}",
            unexplained
                .into_iter()
                .cloned()
                .collect::<Vec<_>>()
                .join("; ")
        )));
    }
    // Dead clients have no output; keep client order with empty slots.
    let outputs: Vec<Vec<u8>> = results.into_iter().map(Option::unwrap_or_default).collect();
    Ok(SimReport { outputs, ..report })
}

#[cfg(test)]
mod tests {
    use super::*;

    const XML: &str = r#"
      <simulation name="facade-test">
        <architecture>
          <dedicated cores="1"/>
          <clients count="2"/>
          <buffer size="262144"/>
          <queue capacity="64"/>
        </architecture>
        <data>
          <layout name="row" type="f64" dimensions="64"/>
          <variable name="u" layout="row"/>
        </data>
        <actions>
          <action name="snap" plugin="stats" event="take-snapshot"/>
        </actions>
      </simulation>"#;

    #[test]
    fn resolve_var_rejects_undeclared_names() {
        let cfg = Configuration::from_str(XML).unwrap();
        assert!(resolve_var(&cfg, "u").is_ok());
        let err = resolve_var(&cfg, "ghost").unwrap_err();
        assert!(matches!(err, DamarisError::UnknownVariable(ref v) if v == "ghost"));
    }

    #[test]
    fn check_layout_rejects_wrong_byte_counts() {
        let cfg = Configuration::from_str(XML).unwrap();
        let u = cfg.registry().var_id("u").unwrap();
        assert!(check_layout(&cfg, u, 64 * 8).is_ok());
        let err = check_layout(&cfg, u, 24).unwrap_err();
        match err {
            DamarisError::LayoutMismatch {
                variable,
                expected,
                got,
            } => {
                assert_eq!(variable, "u");
                assert_eq!(expected, 512);
                assert_eq!(got, 24);
            }
            other => panic!("expected LayoutMismatch, got {other}"),
        }
    }

    #[test]
    fn check_layout_dynamic_accepts_caller_extents() {
        let xml = r#"
          <simulation name="amr">
            <architecture><buffer size="1048576"/></architecture>
            <data>
              <layout name="patch" type="f64" dimensions="dynamic" max_size="8192"/>
              <layout name="free" type="f32" dimensions="dynamic"/>
              <variable name="density" layout="patch"/>
              <variable name="tracer" layout="free"/>
            </data>
          </simulation>"#;
        let cfg = Configuration::from_str(xml).unwrap();
        let density = cfg.registry().var_id("density").unwrap();
        let tracer = cfg.registry().var_id("tracer").unwrap();
        // Any whole-element size within the bound passes.
        assert!(check_layout(&cfg, density, 8).is_ok());
        assert!(check_layout(&cfg, density, 8192).is_ok());
        assert!(check_layout(&cfg, tracer, 4 * 12345).is_ok());
        // Zero, fractional elements and over-max are all layout errors.
        for bad in [0usize, 12, 8200] {
            match check_layout(&cfg, density, bad) {
                Err(DamarisError::LayoutMismatch { variable, got, .. }) => {
                    assert_eq!(variable, "density");
                    assert_eq!(got, bad);
                }
                other => panic!("size {bad}: expected LayoutMismatch, got {other:?}"),
            }
        }
        assert!(check_layout(&cfg, tracer, 6).is_err(), "not whole f32s");
    }

    #[test]
    fn block_digest_is_order_independent_by_sum_and_content_sensitive() {
        let a = block_digest(0, 1, 0, &[1, 2, 3]);
        let b = block_digest(1, 1, 1, &[4, 5, 6]);
        assert_eq!(
            a.wrapping_add(b),
            b.wrapping_add(a),
            "wrapping sum commutes"
        );
        assert_ne!(a, block_digest(0, 1, 0, &[1, 2, 4]), "payload matters");
        assert_ne!(a, block_digest(0, 2, 0, &[1, 2, 3]), "iteration matters");
        assert_ne!(a, block_digest(0, 1, 1, &[1, 2, 3]), "client matters");
        assert_ne!(a, block_digest(1, 1, 0, &[1, 2, 3]), "variable matters");
    }

    #[test]
    fn block_digest_sees_every_bit_at_its_position() {
        // Two 32-byte stripes, three whole words and a 5-byte tail.
        let data: Vec<u8> = (0..93u32).map(|i| (i * 37 + 11) as u8).collect();
        let base = block_digest(2, 7, 1, &data);
        let mut seen = std::collections::HashSet::from([base]);
        // Head, middle of a stripe, last whole word, tail bytes.
        for byte in [0, 1, 7, 8, 31, 32, 45, 63, 64, 80, 87, 88, 90, 92] {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert!(
                    seen.insert(block_digest(2, 7, 1, &flipped)),
                    "flip of bit {bit} in byte {byte} collides"
                );
            }
        }
        // The same two words in the other order: within a lane (words 0
        // and 4), across lanes (0 and 1), and a stripe word with a
        // remainder word (1 and 9).
        for (a, b) in [(0, 4), (0, 1), (1, 9)] {
            let mut swapped = data.clone();
            for k in 0..8 {
                swapped.swap(8 * a + k, 8 * b + k);
            }
            assert!(
                seen.insert(block_digest(2, 7, 1, &swapped)),
                "swap of words {a} and {b} collides"
            );
        }
        // Top-bit flips of two words of one lane must not cancel.
        let mut signs = data.clone();
        signs[7] ^= 0x80;
        signs[39] ^= 0x80;
        assert!(seen.insert(block_digest(2, 7, 1, &signs)));
    }

    #[test]
    fn block_digest_tells_zero_payloads_apart_by_length() {
        let zeros = [0u8; 40];
        let digests: std::collections::HashSet<u64> = (0..=40)
            .map(|n| block_digest(0, 0, 0, &zeros[..n]))
            .collect();
        assert_eq!(digests.len(), 41);
    }

    #[test]
    fn wire_roundtrips_config_and_input() {
        let cfg = Configuration::from_str(XML).unwrap();
        let wire = encode_wire(&cfg, &[7, 8, 9]);
        let (back, input) = decode_wire(&wire);
        assert_eq!(back, cfg);
        assert_eq!(input, &[7, 8, 9]);
    }

    #[test]
    fn report_roundtrips_and_rejects_anything_else() {
        let report = SimReport {
            outputs: Vec::new(),
            iterations_completed: 7,
            skipped_client_iterations: 2,
            signals_delivered: 3,
            blocks_received: 21,
            bytes_received: 21 * 512,
            data_digest: 0xfeed,
            dead_ranks: vec![2, 5],
            degraded: true,
            plugin_errors: vec!["plugin 'storage' at finalize: disk full".into(), "é".into()],
        };
        let bytes = encode_report(&report);
        assert_eq!(decode_report(&bytes), Some(report));
        for cut in 0..bytes.len() {
            assert_eq!(decode_report(&bytes[..cut]), None, "truncated at {cut}");
        }
        assert_eq!(
            decode_report(&[&bytes[..], &[0]].concat()),
            None,
            "trailing bytes"
        );
        // A count no input could hold must fail, not allocate.
        let mut huge = bytes.clone();
        huge[6 * 8..7 * 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode_report(&huge), None);
    }

    #[test]
    fn launch_runs_a_threads_world_from_the_config_alone() {
        let cfg = Configuration::from_str(XML).unwrap();
        let report = Damaris::launch(cfg, "unused-for-threads", &[3], |h, input| {
            let iterations = u64::from(input[0]);
            let data = vec![h.id() as f64 + 1.0; 64];
            for it in 0..iterations {
                assert_eq!(h.write("u", it, &data).unwrap(), WriteStatus::Written);
                h.signal("take-snapshot", it).unwrap();
                h.signal("undeclared-event", it).unwrap();
                h.end_iteration(it).unwrap();
            }
            h.finalize().unwrap();
            h.stats().writes.to_le_bytes().to_vec()
        })
        .unwrap();
        assert_eq!(report.iterations_completed, 3);
        assert_eq!(report.outputs.len(), 2, "<clients count=\"2\"/> clients");
        for out in &report.outputs {
            assert_eq!(u64::from_le_bytes(out[..8].try_into().unwrap()), 3);
        }
        assert_eq!(report.blocks_received, 6);
        assert_eq!(report.bytes_received, 6 * 512);
        assert_eq!(
            report.signals_delivered, 6,
            "undeclared names filtered at the edge"
        );
        assert_ne!(report.data_digest, 0);
        assert!(report.plugin_errors.is_empty());
    }

    #[test]
    fn mismatched_writer_is_rejected() {
        let cfg = Configuration::from_str(XML).unwrap();
        let node = DamarisNode::builder().config(cfg).build().unwrap();
        let mut a = Damaris::threads(node.client(0).unwrap());
        let mut b = Damaris::threads(node.client(1).unwrap());
        let mut w = SimHandle::alloc(&mut a, "u", 0).unwrap();
        w.fill_pod(&[1.0f64; 64]);
        // Same backend, different handle: committing through another
        // *threads* handle is fine (the writer carries its own client) —
        // the mismatch arm guards cross-backend confusion, which we can
        // only provoke cheaply by committing a skipped process writer.
        assert_eq!(SimHandle::commit(&mut b, w).unwrap(), WriteStatus::Written);
        for c in node.clients() {
            c.finalize().unwrap();
        }
        node.shutdown().unwrap();
    }
}
