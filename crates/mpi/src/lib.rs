//! # mini-mpi
//!
//! An MPI-like message-passing runtime with two transports: **thread
//! ranks** inside one process ([`World::run`]) and **process ranks** over
//! Unix-domain sockets with a TCP loopback fallback
//! ([`World::run_spawned`]). The API mirrors the subset of MPI that the
//! Damaris middleware and its baselines actually use:
//!
//! * point-to-point: [`Comm::send`] / [`Comm::recv`] with tag matching and
//!   any-source receives (eager, buffered semantics — sends never block),
//! * collectives: [`Comm::barrier`], [`Comm::bcast`], [`Comm::reduce`],
//!   [`Comm::allreduce`], [`Comm::gather`], [`Comm::all_gather`],
//!   [`Comm::scatter`], [`Comm::alltoall`],
//! * communicator management: [`Comm::split`] — exactly what Damaris does
//!   with `MPI_Comm_split` to separate dedicated cores from compute cores —
//!   and [`Comm::dup`],
//! * per-communicator **traffic accounting** ([`Comm::traffic`]): the
//!   evaluation uses it to show how much data two-phase collective I/O
//!   shuffles between processes versus Damaris' zero inter-node
//!   communication.
//!
//! ## Why not real MPI?
//!
//! The paper ran on Kraken's Cray MPT. Offline, the `rsmpi` bindings require
//! a system MPI that does not exist here; more importantly, the experiments
//! at 9216 ranks are replayed by the `cluster-sim` discrete-event simulator
//! anyway. What the *middleware* needs from MPI — identity, grouping, and
//! collective data movement with the right volumes — is preserved exactly.
//! The socket world closes the remaining credibility gap for single-node
//! claims: Damaris clients and dedicated cores are separate MPI *processes*
//! sharing a memory segment, and [`World::run_spawned`] reproduces exactly
//! that boundary (see `damaris_core::process`).
//!
//! ## Example
//!
//! ```
//! use mini_mpi::World;
//!
//! let sums = World::run(4, |comm| {
//!     let contribution = vec![comm.rank() as u64 + 1];
//!     let total = comm.allreduce(&contribution, |a, b| *a += b);
//!     total[0]
//! });
//! assert_eq!(sums, vec![10, 10, 10, 10]);
//! ```

// Every operation inside an `unsafe fn` must state its own `unsafe {}`
// block (with its SAFETY comment — enforced by scripts/unsafe_audit.py).
#![deny(unsafe_op_in_unsafe_fn)]

pub mod comm;
pub mod datatype;
pub mod socket;
// The poll(2)/eventfd(2) shim: `damaris_serve`'s file, compiled here too.
#[path = "../../serve/src/sys.rs"]
mod sys;
pub mod testutil;
pub mod world;

pub use comm::{Comm, Traffic};
pub use datatype::MpiData;
pub use world::{SpawnOutcome, World};

/// Knobs for [`World::run_spawned_with`].
#[derive(Clone)]
pub struct SpawnOptions {
    /// Re-execute children with `--exact <program> --nocapture` so a
    /// libtest harness runs only the calling test (use
    /// [`World::run_spawned_test`]).
    pub harness_args: bool,
    /// How long the parent waits for all ranks before killing stragglers
    /// and reporting [`SpawnError::Timeout`].
    pub timeout: std::time::Duration,
    /// Seed-list rendezvous: a comma-separated `host:port,…` list. When
    /// set, the launching parent binds its registry as a TCP listener at
    /// the first seed (a port of `0` becomes the port it got), ranks
    /// register by dialing that seed, and the mesh runs over TCP. `None`
    /// keeps the registry on a Unix socket in the spawn directory (TCP
    /// loopback when its path is too long) and the mesh on Unix sockets.
    pub seeds: Option<String>,
    /// Where the parent's registry actually binds when it differs from the
    /// first seed, which ranks still dial (e.g. a fault-injection proxy
    /// fronts the seed address). Defaults to the first seed.
    pub registry_bind: Option<String>,
    /// How long a peer link may go without any inbound frame before the
    /// peer is declared dead (default 10 s). Every link is reliable: it
    /// pings each tenth of this timeout (clamped to 5–200 ms), retransmits
    /// unacknowledged frames after a bounded redial, and a death is
    /// broadcast and marks the rank dead instead of failing the world
    /// (see `Comm::dead_ranks`).
    pub heartbeat_timeout_ms: u64,
    /// Called with `(rank, pid)` as each child process spawns; lets test
    /// harnesses (e.g. the fault-injection proxy) address rank processes
    /// by pid for kill/stop schedules.
    pub on_spawn: Option<std::sync::Arc<dyn Fn(usize, u32) + Send + Sync>>,
}

impl std::fmt::Debug for SpawnOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpawnOptions")
            .field("harness_args", &self.harness_args)
            .field("timeout", &self.timeout)
            .field("seeds", &self.seeds)
            .field("registry_bind", &self.registry_bind)
            .field("heartbeat_timeout_ms", &self.heartbeat_timeout_ms)
            .field("on_spawn", &self.on_spawn.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

impl Default for SpawnOptions {
    fn default() -> Self {
        SpawnOptions {
            harness_args: false,
            timeout: std::time::Duration::from_secs(120),
            seeds: None,
            registry_bind: None,
            heartbeat_timeout_ms: 10_000,
            on_spawn: None,
        }
    }
}

/// Failures of a spawned (multi-process) world.
#[derive(Debug)]
pub enum SpawnError {
    /// Process management or rendezvous I/O failed.
    Io(std::io::Error),
    /// One or more ranks exited abnormally or without reporting a result
    /// (e.g. a rank died and the survivors aborted instead of
    /// deadlocking). One human-readable line per failed rank.
    RanksFailed(Vec<String>),
    /// Not all ranks finished within [`SpawnOptions::timeout`]; stragglers
    /// were killed.
    Timeout {
        /// How long the parent waited.
        waited: std::time::Duration,
        /// Per-rank failure descriptions collected so far.
        failed: Vec<String>,
    },
    /// This process is a spawned rank of a *different* `run_spawned` call
    /// site (the re-executed binary reached the wrong program first).
    ProgramMismatch {
        /// The program this process was spawned for.
        expected: String,
        /// The program of the call site that was actually reached.
        found: String,
    },
}

impl std::fmt::Display for SpawnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpawnError::Io(e) => write!(f, "spawn I/O error: {e}"),
            SpawnError::RanksFailed(ranks) => {
                write!(f, "ranks failed: {}", ranks.join("; "))
            }
            SpawnError::Timeout { waited, failed } => write!(
                f,
                "spawned world timed out after {waited:?} ({})",
                if failed.is_empty() {
                    "no rank failures recorded".to_string()
                } else {
                    failed.join("; ")
                }
            ),
            SpawnError::ProgramMismatch { expected, found } => write!(
                f,
                "spawned child for program '{expected}' reached call site '{found}'"
            ),
        }
    }
}

impl std::error::Error for SpawnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpawnError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Receive matcher: either a specific source rank or any source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Match only messages from this rank (communicator-relative).
    Rank(usize),
    /// Match a message from any rank.
    Any,
}

impl From<usize> for Source {
    fn from(r: usize) -> Self {
        Source::Rank(r)
    }
}
