//! # damaris-core
//!
//! The **Damaris middleware**: dedicated-core I/O and data management for
//! multicore SMP nodes, as described in *"Efficient I/O using Dedicated
//! Cores in Large-Scale HPC Simulations"* (M. Dorier, IPDPS 2013 PhD Forum)
//! and the underlying IEEE Cluster 2012 paper.
//!
//! ## The approach
//!
//! > "Its main idea consists of dedicating one or a few cores to I/O and
//! > data processing tasks in each SMP node. These cores do not run the
//! > simulation's code, but handle asynchronous I/O operations on behalf of
//! > the other cores, which in turn hides the performance impact of these
//! > operations." (§III)
//!
//! Concretely, per node:
//!
//! * compute cores hold a [`client::DamarisClient`]; a *write* is one copy
//!   into the node's shared-memory segment, streamed past the cache for
//!   blocks ≥ [`damaris_shm::STREAM_MIN`], plus one event post — ~0.1 s for
//!   typical per-core output, independent of scale (§IV.B);
//! * events travel over a pluggable **transport**
//!   ([`damaris_shm::EventChannel`]), selected by the XML
//!   `<queue kind="mutex|sharded">` attribute (or
//!   [`node::NodeBuilder::transport`]): `mutex` is the classic bounded
//!   MPMC queue, `sharded` gives every client its own lock-free SPSC ring
//!   drained by work-stealing dedicated cores, keeping the post cost flat
//!   as clients scale;
//! * one or a few dedicated cores run [`server::server_loop`] event loops
//!   over their transport consumer handle: they index incoming blocks in a
//!   [`store::VariableStore`], detect iteration completion, and fire user
//!   [`plugins`] (per-node storage, streaming, statistics, user analysis)
//!   — all overlapped with the simulation's next compute phase; the state
//!   machine behind the loop ([`server::ServerShared`]) is the one a
//!   process world's dedicated rank feeds, so a plugin is written once;
//! * when plugins cannot keep up and memory pressure rises, the
//!   [`policy::SkipPolicy`] drops whole iterations instead of blocking the
//!   simulation (§V.C.1);
//! * [`baseline`] implements the two state-of-the-art approaches Damaris is
//!   evaluated against — file-per-process and collective (two-phase) I/O —
//!   over `mini-mpi` and `h5lite`.
//!
//! Everything is configured from the external XML description of the data
//! ([`damaris_xml::schema::Configuration`]), so instrumenting a simulation
//! takes one line per variable (§V.C.2).
//!
//! ## One API over two worlds
//!
//! The middleware runs in two realizations of the paper's architecture —
//! dedicated cores as **threads** of the simulation process
//! ([`DamarisNode`]) or as separate OS **processes** over sockets and a
//! file-backed segment ([`process`]) — and both sit behind one facade:
//! the [`facade::SimHandle`] trait and the enum-dispatched
//! [`facade::Damaris`] handle. Simulation code is written exactly once
//! (`fn simulate<H: SimHandle>(h: &mut H)`) and
//! [`facade::Damaris::launch`] stands up whichever world the XML
//! `<world kind="threads|processes"/>` names.
//!
//! ## Quickstart
//!
//! ```
//! use damaris_core::prelude::*;
//!
//! let xml = r#"
//!   <simulation name="demo">
//!     <architecture>
//!       <dedicated cores="1"/>
//!       <clients count="2"/>
//!       <buffer size="1048576"/>
//!       <queue capacity="64"/>
//!       <world kind="threads"/>
//!     </architecture>
//!     <data>
//!       <layout name="row" type="f64" dimensions="128"/>
//!       <variable name="temperature" layout="row"/>
//!     </data>
//!   </simulation>"#;
//!
//! let cfg = Configuration::from_str(xml).unwrap();
//! let report = Damaris::launch(cfg, "demo", &[], |h, _input| {
//!     let field = vec![300.0_f64; 128];
//!     for it in 0..3 {
//!         h.write("temperature", it, &field).unwrap();
//!         h.end_iteration(it).unwrap();
//!     }
//!     h.finalize().unwrap();
//!     Vec::new()
//! })
//! .unwrap();
//! assert_eq!(report.iterations_completed, 3);
//! assert_eq!(report.blocks_received, 6);
//! // Flip <world kind> to "processes" and the same closure runs with one
//! // OS process per rank. For custom plugins or finer control, embed the
//! // node directly (see `DamarisNode::builder`) and wrap its clients in
//! // `Damaris::threads`.
//! ```

pub mod baseline;
pub mod client;
pub mod error;
pub mod event;
pub mod facade;
pub mod node;
pub mod plugins;
pub mod policy;
pub mod process;
pub mod server;
pub mod store;

pub use client::{DamarisClient, WriteStatus};
pub use error::{DamarisError, DamarisResult};
pub use facade::{Damaris, DamarisWriter, Launcher, SimHandle, SimReport, SimWriter};
pub use node::{DamarisNode, NodeBuilder};
pub use plugins::{Plugin, ServePlugin, StorageEngine, StoragePlugin, StorageStats};
pub use process::{ProcessClient, ProcessServer};

/// One-stop imports for applications embedding Damaris.
pub mod prelude {
    pub use crate::client::{ClientStats, DamarisClient, WriteStatus};
    pub use crate::error::{DamarisError, DamarisResult};
    pub use crate::facade::{Damaris, DamarisWriter, Launcher, SimHandle, SimReport, SimWriter};
    pub use crate::node::{DamarisNode, NodeBuilder};
    pub use crate::plugins::{
        FnPlugin, Plugin, ServePlugin, StatsPlugin, StorageEngine, StoragePlugin, StorageStats,
    };
    pub use crate::process::{ProcessClient, ProcessServer};
    pub use damaris_xml::schema::Configuration;
    pub use damaris_xml::{EventId, VarId};
}
