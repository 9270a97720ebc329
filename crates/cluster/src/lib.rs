//! # cluster-sim
//!
//! A virtual-time simulator of large HPC clusters that replays the Damaris
//! paper's evaluation (§IV, §V.C.1) at its original scales — up to 9216
//! cores on a Kraken-class Cray XT5 and 800 cores on a Grid'5000-class
//! cluster — on one laptop.
//!
//! The real middleware in `damaris-core` runs with threads, real shared
//! memory and real files; this crate models *the same strategy logic*
//! (dedicated cores, shm staging cost, skip policy), plans the dedicated
//! cores' node-file writes with the [`sched`] strategies of §IV.D, and
//! replaces wall-clock execution with a calibrated model:
//!
//! * compute phases advance virtual time by the workload's per-step cost
//!   (CM1's compute is famously predictable — §IV.B);
//! * I/O phases go through [`pfs_sim`]'s Lustre-like queueing model (MDS
//!   storms, stream interference, shared-file extent locks, log-normal
//!   jitter, background traffic);
//! * collective I/O additionally pays two-phase aggregation over the
//!   interconnect model.
//!
//! The three strategies of the paper are implemented side by side:
//!
//! | strategy | files per dump | sim-visible I/O cost |
//! |---|---|---|
//! | [`Strategy::FilePerProcess`] | one per rank | full write latency |
//! | [`Strategy::Collective`] | one shared | aggregation + shared write |
//! | [`Strategy::Damaris`] | one per node | one shm memcpy (~0.1 s) |
//!
//! [`experiments`] packages the parameter sweeps behind every table and
//! figure (E1–E7); the `damaris-bench` crate prints them.
//!
//! ```
//! use cluster_sim::{run, Platform, Strategy, Workload};
//!
//! let platform = Platform::kraken();
//! let workload = Workload::cm1(2); // 2 dumps, weak-scaled CM1
//! let ranks = 1152;
//! let damaris = run(&platform, &workload, ranks, Strategy::damaris_greedy(), 7);
//! let collective = run(&platform, &workload, ranks, Strategy::Collective, 7);
//! assert!(damaris.wall_seconds < collective.wall_seconds,
//!         "dedicated cores must beat collective I/O");
//! ```

pub mod experiments;
pub mod metrics;
pub mod platform;
pub mod run;
pub mod sched;
pub mod strategy;
pub mod workload;

pub use metrics::RunMetrics;
pub use platform::Platform;
pub use run::run;
pub use strategy::{DamarisOptions, Scheduler, Strategy, WorldKind};
pub use workload::Workload;
