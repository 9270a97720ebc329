//! # Damaris-RS
//!
//! A Rust reproduction of **Damaris** — the dedicated-core I/O middleware for
//! large-scale HPC simulations described in *"Efficient I/O using Dedicated
//! Cores in Large-Scale HPC Simulations"* (Matthieu Dorier, IPDPS 2013 PhD
//! Forum) and the underlying IEEE Cluster 2012 paper.
//!
//! The headline idea: instead of having every core of an SMP node write its
//! own output synchronously (file-per-process) or participate in collective
//! two-phase I/O, **dedicate one core per node** to data management. Compute
//! cores publish variables into a node-local shared-memory segment (a single
//! memcpy, ~0.1 s) and post an event to a shared message queue; the dedicated
//! core drains the queue asynchronously, compresses and aggregates the
//! node's blocks into one file per node (`<store>`), and runs user analysis
//! (a plugin on the dedicated core, or a live `<serve>` subscriber) fully
//! overlapped with the next compute phase.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`shm`] — shared-memory segment, block allocator, message queue.
//! * [`mpi`] — `mini-mpi`, an MPI-like runtime: thread ranks in one
//!   process, or OS-process ranks over a socket mesh.
//! * [`xml`] — minimal XML parser + the Damaris configuration schema.
//! * [`codec`] — compression codecs behind each variable's `codec=`.
//! * [`h5`] — `h5lite`, an HDF5-like hierarchical file format.
//! * [`core`] — the middleware itself: client API, dedicated-core server,
//!   plugins, storage engine, iteration-skip policy, synchronous baselines.
//! * [`serve`] — the subscriber streaming tier: completed iterations served
//!   live over TCP to many concurrent consumers (`<serve listen="…"/>`).
//! * [`apps`] — CM1-like and Nek5000-like proxy applications.
//! * [`pfs`] — a queueing model of a Lustre-like parallel file system.
//! * [`cluster`] — a discrete-event simulator that replays the paper's
//!   evaluation at 576–9216 cores, with its I/O schedulers.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; the short version:
//!
//! ```
//! use damaris::core::prelude::*;
//!
//! let xml = r#"
//!   <simulation name="quickstart">
//!     <architecture>
//!       <dedicated cores="1"/>
//!       <buffer size="8388608"/>
//!       <queue capacity="256"/>
//!     </architecture>
//!     <data>
//!       <layout name="grid" type="f64" dimensions="16,16"/>
//!       <variable name="temperature" layout="grid"/>
//!     </data>
//!   </simulation>"#;
//!
//! let node = DamarisNode::builder()
//!     .config_str(xml).unwrap()
//!     .clients(3)
//!     .build().unwrap();
//!
//! let stats = std::sync::Arc::new(damaris::core::plugins::StatsPlugin::new());
//! node.register_plugin(stats.clone());
//!
//! let handles: Vec<_> = node.clients().map(|client| {
//!     std::thread::spawn(move || {
//!         let field = vec![300.15_f64; 16 * 16];
//!         for it in 0..4 {
//!             client.write("temperature", it, &field).unwrap();
//!             client.end_iteration(it).unwrap();
//!         }
//!         client.finalize().unwrap();
//!     })
//! }).collect();
//! for h in handles { h.join().unwrap(); }
//! node.shutdown().unwrap();
//! assert_eq!(stats.iterations_seen(), 4);
//! ```

pub use cluster_sim as cluster;
pub use codec;
pub use damaris_core as core;
pub use damaris_serve as serve;
pub use damaris_shm as shm;
pub use damaris_xml as xml;
pub use h5lite as h5;
pub use mini_mpi as mpi;
pub use pfs_sim as pfs;
pub use sim_apps as apps;
