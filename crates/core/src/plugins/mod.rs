//! The plugin system.
//!
//! Paper §III.A: "The second strength of Damaris consists in a plugin
//! system which makes the design of custom data management services
//! straightforward. Plugins can be written in C or C++ as dynamic
//! libraries, or even in Python scripts […] This plugin system may simply
//! be used to forward I/O operations to the HDF5 library, but it can also
//! be (and has been) used to integrate statistical analysis […] and
//! visualization tasks."
//!
//! In this Rust reproduction a plugin is any `Send + Sync` implementor of
//! [`Plugin`]; closures are supported through [`FnPlugin`]. It is the one
//! consumer interface of both worlds: the dedicated core of a thread-world
//! [`crate::DamarisNode`] and rank 0 of a process world
//! ([`crate::ProcessServer`]) run the same completion state machine and
//! call the same plugins with the same [`IterationCtx`] — blocks ordered
//! by `(variable, source)`, sources 0-based, bytes read **in place** in
//! shared memory (the node segment, or the process world's segment file
//! mapping).
//!
//! A plugin may keep clones of the blocks it is shown
//! ([`damaris_shm::BlockRef`] is refcounted) for as long as it needs them,
//! on any thread. The memory goes back to its writer when the last clone
//! drops: to the segment's allocator in the thread world; in the process
//! world the client rank is sent the iteration's acknowledgement then, and
//! not before. Either way a block that is held is space the simulation
//! cannot write to, so the price of holding is back-pressure (a fuller
//! segment or slice, hence skipped iterations or waiting writes), never a
//! copy and never an overwritten view. Everything must be dropped by the
//! time [`Plugin::on_finalize`] returns.
//!
//! [`crate::Launcher::with_plugin`] registers an instance for either
//! world. A process world re-executes the binary once per rank, so the
//! instance is *constructed* in every rank and *used* on rank 0 only.
//!
//! Built-ins (registered from the configuration by one function, whichever
//! world runs them):
//!
//! * [`StatsPlugin`] (`plugin="stats"`) — streaming min/max/mean/σ per
//!   variable, the "statistical analysis" plugin class;
//! * [`StoragePlugin`] — the storage pipeline behind `<store>`, the one
//!   writer on the dedicated core: it aggregates every client's blocks
//!   into **one chunked h5lite file per node** (the
//!   aggregation-without-communication at the heart of §IV.C), compressing
//!   each variable with its `codec=` pipeline in the core's spare time
//!   (§IV.D) and fsyncing off the hot path (see
//!   [`storage`](self::StorageEngine));
//! * [`ServePlugin`] (`plugin="serve"`) — the subscriber streaming tier
//!   behind `<serve listen="…">`: every completed iteration is published
//!   to concurrent TCP subscribers with bounded per-subscriber queues
//!   (see `damaris_serve`); the frames are views of the blocks, released
//!   after the last subscriber write or, for a same-host subscriber that
//!   reads them from the segment file, its release.

mod serve;
mod stats;
mod storage;

pub use serve::ServePlugin;
pub use stats::{StatsPlugin, VariableSummary};
pub use storage::{StorageEngine, StoragePlugin, StorageStats};

use std::path::Path;

use damaris_xml::schema::{Action, Configuration};

use crate::store::StoredBlock;

/// Everything a plugin sees when an iteration completes on this node.
pub struct IterationCtx<'a> {
    /// The completed simulation time step.
    pub iteration: u64,
    /// This node's id.
    pub node_id: usize,
    /// Simulation name from the configuration.
    pub simulation: &'a str,
    /// Every block published for this iteration (all variables, all
    /// clients), ordered by `(variable, source)`, sources 0-based in both
    /// worlds. Zero-copy views into shared memory; resolve names and
    /// layouts through [`Configuration::var_name`] /
    /// [`Configuration::layout_of_id`].
    pub blocks: &'a [StoredBlock],
    /// The full data description.
    pub config: &'a Configuration,
    /// Directory plugins should write artifacts into.
    pub output_dir: &'a Path,
    /// The action that triggered this invocation (parameters live here).
    pub action: &'a Action,
}

/// Context for a user signal ([`crate::client::DamarisClient::signal`]).
pub struct SignalCtx<'a> {
    /// Signal name.
    pub name: &'a str,
    /// Client that raised it.
    pub source: usize,
    /// Iteration during which it was raised.
    pub iteration: u64,
    /// Blocks currently indexed for that iteration (possibly incomplete).
    pub blocks: &'a [StoredBlock],
    /// The full data description.
    pub config: &'a Configuration,
    /// Directory plugins should write artifacts into.
    pub output_dir: &'a Path,
    /// The action that triggered this invocation.
    pub action: &'a Action,
}

/// A data-management service running on the dedicated core.
pub trait Plugin: Send + Sync {
    /// Identifier matched against `<action plugin="…">`.
    fn name(&self) -> &str;

    /// Called when every client of the node has finished an iteration and
    /// all of its blocks are indexed.
    fn on_iteration(&self, _ctx: &IterationCtx<'_>) -> Result<(), String> {
        Ok(())
    }

    /// Called when a client raises a matching user event.
    fn on_signal(&self, _ctx: &SignalCtx<'_>) -> Result<(), String> {
        Ok(())
    }

    /// Called once at shutdown, after every client finalized (or died) and
    /// the dedicated core drained — the place to close files and release
    /// long-lived resources (the storage pipeline finishes and syncs its
    /// per-node file here), every block clone included. Errors are
    /// collected into the report's plugin errors, never fatal.
    fn on_finalize(&self) -> Result<(), String> {
        Ok(())
    }
}

/// A plugin defined by a closure — the Rust equivalent of the paper's
/// "Python script" plugins: one-liner custom services.
///
/// ```
/// use damaris_core::plugins::{FnPlugin, Plugin};
/// let count = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
/// let c2 = count.clone();
/// let plugin = FnPlugin::new("counter", move |ctx| {
///     c2.fetch_add(ctx.blocks.len() as u64, std::sync::atomic::Ordering::Relaxed);
///     Ok(())
/// });
/// assert_eq!(plugin.name(), "counter");
/// ```
pub struct FnPlugin<F> {
    name: String,
    f: F,
}

impl<F> FnPlugin<F>
where
    F: Fn(&IterationCtx<'_>) -> Result<(), String> + Send + Sync,
{
    /// Wrap a closure as an end-of-iteration plugin.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnPlugin {
            name: name.into(),
            f,
        }
    }
}

impl<F> Plugin for FnPlugin<F>
where
    F: Fn(&IterationCtx<'_>) -> Result<(), String> + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn on_iteration(&self, ctx: &IterationCtx<'_>) -> Result<(), String> {
        (self.f)(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use damaris_xml::schema::Trigger;

    #[test]
    fn fn_plugin_invokes_closure() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        let p = FnPlugin::new("probe", move |ctx| {
            h.fetch_add(ctx.iteration, Ordering::Relaxed);
            Ok(())
        });
        let cfg = Configuration::default();
        let action = Action {
            name: "probe".into(),
            plugin: "probe".into(),
            trigger: Trigger::EndOfIteration { frequency: 1 },
            params: vec![],
        };
        let ctx = IterationCtx {
            iteration: 5,
            node_id: 0,
            simulation: "t",
            blocks: &[],
            config: &cfg,
            output_dir: Path::new("/tmp"),
            action: &action,
        };
        p.on_iteration(&ctx).unwrap();
        p.on_iteration(&ctx).unwrap();
        assert_eq!(hits.load(Ordering::Relaxed), 10);
        // Default signal handler is a no-op.
        let sctx = SignalCtx {
            name: "s",
            source: 0,
            iteration: 0,
            blocks: &[],
            config: &cfg,
            output_dir: Path::new("/tmp"),
            action: &action,
        };
        p.on_signal(&sctx).unwrap();
    }
}
