//! The dedicated-core state machine and its thread-world event loop.
//!
//! [`ServerShared`]'s event handler is the one place events become
//! indexed blocks, completed iterations and plugin calls, wherever the
//! dedicated core lives: it indexes blocks, detects iteration completion
//! (all clients ended the step *and* all announced blocks arrived —
//! necessary because several dedicated cores may drain events
//! concurrently, and because the transport keeps order only per client,
//! so events from different clients may arrive reordered), fires
//! plugins, and garbage-collects the iteration's shared memory. Two
//! event sources feed it: [`server_loop`], one per dedicated core of a
//! thread-world node, drains that core's work-stealing
//! [`StealingConsumer`] of the node's event transport;
//! [`crate::ProcessServer::serve`] decodes the envelopes of a process
//! world's client ranks into the same events.

use std::collections::{BTreeSet, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use damaris_shm::transport::{EventConsumer, StealingConsumer};
use damaris_xml::schema::{Action, Configuration, Trigger};
use damaris_xml::EventId;
use parking_lot::{Condvar, Mutex, RwLock};

use crate::error::{DamarisError, DamarisResult};
use crate::event::Event;
use crate::node::NodeReport;
use crate::plugins::{IterationCtx, Plugin, ServePlugin, SignalCtx, StatsPlugin, StoragePlugin};
use crate::store::{StoredBlock, VariableStore};

/// Progress bookkeeping for one in-flight iteration.
#[derive(Debug, Default)]
struct IterProgress {
    /// Clients that sent `EndIteration`.
    ended: BTreeSet<usize>,
    /// Blocks those clients announced.
    expected_blocks: u64,
}

/// Completion state: the in-flight iterations and the clients that will
/// never end another one.
#[derive(Debug, Default)]
struct Progress {
    iterations: HashMap<u64, IterProgress>,
    /// Clients declared dead ([`Event::ClientDied`]): each counts as having
    /// ended every staged and every future iteration.
    dead: BTreeSet<usize>,
}

/// The auto-registered plugins whose counters their owner exposes.
#[derive(Default)]
pub(crate) struct Builtins {
    /// The storage pipeline, when `<store>` is declared.
    pub(crate) storage: Option<Arc<StoragePlugin>>,
    /// The streaming server, when `<serve>` is declared.
    pub(crate) serve: Option<Arc<ServePlugin>>,
}

/// State shared between all dedicated cores of a node (and the node handle).
pub struct ServerShared {
    pub(crate) cfg: Arc<Configuration>,
    pub(crate) node_id: usize,
    pub(crate) n_clients: usize,
    pub(crate) output_dir: PathBuf,
    pub(crate) store: Mutex<VariableStore>,
    /// Completed iterations kept in the store for subscriber catch-up
    /// (`<serve retain>`); 0 without a serving tier — reclaim at once.
    retain_window: usize,
    progress: Mutex<Progress>,
    /// Actions per interned user event, precomputed so a signal dispatch
    /// is an index instead of a scan over every declared action.
    signal_actions: Vec<Vec<Action>>,
    pub(crate) plugins: RwLock<Vec<Arc<dyn Plugin>>>,
    /// Clients that finalized or died, with a condvar for shutdown waits.
    departed: Mutex<BTreeSet<usize>>,
    pub(crate) all_finalized: Condvar,
    /// Plugin failures (collected, never fatal to the service).
    pub(crate) errors: Mutex<Vec<String>>,
    /// Completed iterations (actions fired, memory reclaimed).
    pub(crate) iterations_completed: AtomicU64,
    /// Skipped client-iterations observed.
    pub(crate) skipped_client_iterations: AtomicU64,
    /// User signals processed (undeclared names never arrive — the
    /// client edge filters them).
    pub(crate) signals_delivered: AtomicU64,
    /// Blocks consumed off the transport.
    pub(crate) blocks_received: AtomicU64,
    /// Payload bytes of those blocks.
    pub(crate) bytes_received: AtomicU64,
    /// Nanoseconds the dedicated cores spent doing work.
    pub(crate) busy_nanos: AtomicU64,
    /// Nanoseconds the dedicated cores spent idle (waiting for events) —
    /// the §IV.D "idle 92–99 % of the time" measurement at node scale.
    pub(crate) idle_nanos: AtomicU64,
}

impl ServerShared {
    pub(crate) fn new(
        cfg: Arc<Configuration>,
        node_id: usize,
        n_clients: usize,
        output_dir: PathBuf,
    ) -> Self {
        let registry = cfg.registry();
        let mut signal_actions = vec![Vec::new(); registry.event_count()];
        for action in &cfg.actions {
            if let Trigger::Event(name) = &action.trigger {
                if let Some(id) = registry.event_id(name) {
                    signal_actions[id.index()].push(action.clone());
                }
            }
        }
        let retain_window = cfg
            .architecture
            .serve
            .as_ref()
            .map(|s| s.retain as usize)
            .unwrap_or(0);
        ServerShared {
            cfg,
            node_id,
            n_clients,
            output_dir,
            store: Mutex::new(VariableStore::new()),
            retain_window,
            progress: Mutex::new(Progress::default()),
            signal_actions,
            plugins: RwLock::new(Vec::new()),
            departed: Mutex::new(BTreeSet::new()),
            all_finalized: Condvar::new(),
            errors: Mutex::new(Vec::new()),
            iterations_completed: AtomicU64::new(0),
            skipped_client_iterations: AtomicU64::new(0),
            signals_delivered: AtomicU64::new(0),
            blocks_received: AtomicU64::new(0),
            bytes_received: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            idle_nanos: AtomicU64::new(0),
        }
    }

    /// Register the built-in plugins the configuration asks for — the one
    /// function behind [`crate::NodeBuilder::build`] and
    /// [`crate::ProcessServer::new`], so both worlds run the same services.
    /// A declared `<store>` / `<serve>` drives the storage pipeline / the
    /// streaming tier regardless of `<action>` blocks (returned so the
    /// owner can expose their counters; an `<action>` naming them only
    /// thins their firing frequency); `stats` is pulled in by an action
    /// referencing it. Any other plugin name must be registered by the
    /// caller, or its actions are ignored. `segment` is the process
    /// world's segment file, which the streaming tier advertises to
    /// same-host subscribers.
    pub(crate) fn register_builtins(
        &self,
        segment: Option<&Arc<damaris_shm::ShmFile>>,
    ) -> DamarisResult<Builtins> {
        let mut plugins = self.plugins.write();
        let mut builtins = Builtins::default();
        if self.cfg.architecture.store.is_some() {
            let plugin = Arc::new(
                StoragePlugin::new(&self.cfg, self.node_id, &self.output_dir)
                    .map_err(DamarisError::InvalidState)?,
            );
            builtins.storage = Some(plugin.clone());
            plugins.push(plugin);
        }
        if self.cfg.architecture.serve.is_some() {
            let plugin = Arc::new(
                ServePlugin::new(&self.cfg, &self.output_dir, segment.cloned())
                    .map_err(DamarisError::InvalidState)?,
            );
            builtins.serve = Some(plugin.clone());
            plugins.push(plugin);
        }
        let stats_wanted = self.cfg.actions.iter().any(|a| a.plugin == "stats");
        if stats_wanted && !plugins.iter().any(|p| p.name() == "stats") {
            plugins.push(Arc::new(StatsPlugin::new()));
        }
        Ok(builtins)
    }

    /// Register a plugin, replacing any registered one of the same name
    /// (auto-registered built-ins included).
    pub(crate) fn register_plugin(&self, plugin: Arc<dyn Plugin>) {
        let mut plugins = self.plugins.write();
        plugins.retain(|p| p.name() != plugin.name());
        plugins.push(plugin);
    }

    /// Let plugins close their long-lived resources (the storage pipeline
    /// finishes and syncs its per-node file here). Call once, after every
    /// client departed and every event was handled.
    pub(crate) fn finalize_plugins(&self) {
        for plugin in self.plugins.read().iter() {
            if let Err(msg) = plugin.on_finalize() {
                self.errors
                    .lock()
                    .push(format!("plugin '{}' at finalize: {msg}", plugin.name()));
            }
        }
    }

    /// Whether every client has finalized or died.
    pub(crate) fn all_departed(&self) -> bool {
        self.departed.lock().len() >= self.n_clients
    }

    /// Block until every client has finalized (returns false on timeout).
    pub(crate) fn wait_all_finalized(&self, timeout: std::time::Duration) -> bool {
        let mut departed = self.departed.lock();
        while departed.len() < self.n_clients {
            if self
                .all_finalized
                .wait_for(&mut departed, timeout)
                .timed_out()
            {
                return false;
            }
        }
        true
    }

    /// The run so far, as the report both worlds return: the counters of
    /// this state machine plus what only its owner knows.
    pub(crate) fn report(&self, dead_ranks: Vec<usize>, peak_segment_bytes: usize) -> NodeReport {
        let count = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        NodeReport {
            iterations_completed: count(&self.iterations_completed),
            skipped_client_iterations: count(&self.skipped_client_iterations),
            signals_delivered: count(&self.signals_delivered),
            blocks_received: count(&self.blocks_received),
            bytes_received: count(&self.bytes_received),
            plugin_errors: self.errors.lock().clone(),
            dedicated_idle_fraction: self.idle_fraction(),
            peak_segment_bytes,
            dead_ranks,
        }
    }

    /// Run `work` on an event that was waited for since `wait_start`,
    /// booking the wait as idle and the work as busy time.
    pub(crate) fn timed<T>(&self, wait_start: Instant, work: impl FnOnce() -> T) -> T {
        let busy_start = Instant::now();
        let waited = (busy_start - wait_start).as_nanos() as u64;
        self.idle_nanos.fetch_add(waited, Ordering::Relaxed);
        let out = work();
        let worked = busy_start.elapsed().as_nanos() as u64;
        self.busy_nanos.fetch_add(worked, Ordering::Relaxed);
        out
    }

    /// Fraction of time the dedicated cores sat idle so far.
    pub fn idle_fraction(&self) -> f64 {
        let busy = self.busy_nanos.load(Ordering::Relaxed) as f64;
        let idle = self.idle_nanos.load(Ordering::Relaxed) as f64;
        if busy + idle == 0.0 {
            return 1.0;
        }
        idle / (busy + idle)
    }

    fn actions_for_iteration(&self, iteration: u64) -> Vec<Action> {
        let mut out = Vec::new();
        for action in &self.cfg.actions {
            if let Trigger::EndOfIteration { frequency } = action.trigger {
                if iteration.is_multiple_of(frequency) {
                    out.push(action.clone());
                }
            }
        }
        out
    }

    /// Fire plugins for a completed iteration (blocks already removed from
    /// the store by the caller, so other server threads keep running).
    fn fire_iteration(&self, iteration: u64, blocks: &[StoredBlock]) {
        let plugins = self.plugins.read();
        let actions = self.actions_for_iteration(iteration);
        for plugin in plugins.iter() {
            // Actions referencing the plugin configure its invocation; a
            // plugin with no matching action fires with defaults.
            let matched: Vec<&Action> = actions
                .iter()
                .filter(|a| a.plugin == plugin.name())
                .collect();
            let default_action = Action {
                name: plugin.name().to_string(),
                plugin: plugin.name().to_string(),
                trigger: Trigger::EndOfIteration { frequency: 1 },
                params: vec![],
            };
            let declared_anywhere = self.cfg.actions.iter().any(|a| a.plugin == plugin.name());
            let invocations: Vec<&Action> = if matched.is_empty() {
                if declared_anywhere {
                    // Declared with a frequency that excludes this step.
                    continue;
                }
                vec![&default_action]
            } else {
                matched
            };
            for action in invocations {
                let ctx = IterationCtx {
                    iteration,
                    node_id: self.node_id,
                    simulation: &self.cfg.name,
                    blocks,
                    config: &self.cfg,
                    output_dir: &self.output_dir,
                    action,
                };
                if let Err(msg) = plugin.on_iteration(&ctx) {
                    self.errors.lock().push(format!(
                        "plugin '{}' at iteration {iteration}: {msg}",
                        plugin.name()
                    ));
                }
            }
        }
        self.iterations_completed.fetch_add(1, Ordering::Relaxed);
    }

    fn fire_signal(&self, event: EventId, source: usize, iteration: u64) {
        let name = self.cfg.registry().event_name(event);
        let plugins = self.plugins.read();
        let store = self.store.lock();
        let blocks: Vec<StoredBlock> = store.iteration_blocks(iteration).cloned().collect();
        drop(store);
        for action in &self.signal_actions[event.index()] {
            for plugin in plugins.iter().filter(|p| p.name() == action.plugin) {
                let ctx = SignalCtx {
                    name,
                    source,
                    iteration,
                    blocks: &blocks,
                    config: &self.cfg,
                    output_dir: &self.output_dir,
                    action,
                };
                if let Err(msg) = plugin.on_signal(&ctx) {
                    self.errors.lock().push(format!(
                        "plugin '{}' on signal '{name}': {msg}",
                        plugin.name()
                    ));
                }
            }
        }
    }

    /// Fire-and-collect if iteration `it` became complete. Returns true if
    /// this call fired it.
    fn maybe_complete(&self, it: u64) -> bool {
        let (blocks, expired) = {
            let mut progress = self.progress.lock();
            let mut store = self.store.lock();
            let Progress { iterations, dead } = &mut *progress;
            let Some(p) = iterations.get(&it) else {
                return false;
            };
            // Every client ended the step or died before it could.
            let accounted = p.ended.len() + dead.iter().filter(|c| !p.ended.contains(c)).count();
            if accounted < self.n_clients || (store.count(it) as u64) < p.expected_blocks {
                return false;
            }
            // Removing the entry under the lock is what keeps two racing
            // server threads from both firing the iteration.
            iterations.remove(&it);
            // Completed iterations stay indexed for the retain window so a
            // late subscriber's snapshot catch-up cannot race collection;
            // with no serving tier the window is 0 and this degenerates to
            // the old remove-on-completion behavior.
            store.mark_complete(it);
            let blocks = store.snapshot(it);
            (blocks, store.gc_completed(self.retain_window))
        };
        drop(expired);
        self.fire_iteration(it, &blocks);
        // `blocks` dropped here: with retain 0 the shared memory is
        // reclaimed now; otherwise when the iteration leaves the window.
        true
    }

    fn note_departed(&self, client: usize) {
        let mut departed = self.departed.lock();
        departed.insert(client);
        if departed.len() >= self.n_clients {
            self.all_finalized.notify_all();
        }
    }

    /// Apply one client event: the single completion-detection and
    /// dispatch path of both worlds.
    pub(crate) fn handle(&self, event: Event) {
        match event {
            Event::Write {
                variable,
                iteration,
                source,
                block,
            } => {
                self.blocks_received.fetch_add(1, Ordering::Relaxed);
                self.bytes_received
                    .fetch_add(block.len() as u64, Ordering::Relaxed);
                self.store.lock().insert(StoredBlock {
                    variable,
                    source,
                    iteration,
                    data: block,
                });
                self.maybe_complete(iteration);
            }
            Event::EndIteration {
                source,
                iteration,
                writes,
                skipped,
            } => {
                {
                    let mut progress = self.progress.lock();
                    let p = progress.iterations.entry(iteration).or_default();
                    p.ended.insert(source);
                    p.expected_blocks += writes;
                    if skipped {
                        self.skipped_client_iterations
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
                self.maybe_complete(iteration);
            }
            Event::Signal {
                event,
                source,
                iteration,
            } => {
                self.signals_delivered.fetch_add(1, Ordering::Relaxed);
                self.fire_signal(event, source, iteration);
            }
            Event::ClientFinalize { source } => self.note_departed(source),
            Event::ClientDied { source } => {
                // Degraded mode: close the iterations that were waiting
                // for the dead client and keep serving the survivors.
                let mut staged: Vec<u64> = {
                    let mut progress = self.progress.lock();
                    progress.dead.insert(source);
                    progress.iterations.keys().copied().collect()
                };
                staged.sort_unstable();
                for iteration in staged {
                    self.maybe_complete(iteration);
                }
                self.note_departed(source);
            }
        }
    }
}

/// Run one dedicated core until the transport is closed and drained.
pub fn server_loop(shared: Arc<ServerShared>, mut events: StealingConsumer<Event>) {
    loop {
        let wait_start = Instant::now();
        let event = match events.recv() {
            Ok(ev) => ev,
            Err(_) => break, // closed and drained
        };
        shared.timed(wait_start, || shared.handle(event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugins::FnPlugin;
    use damaris_shm::transport::{EventChannel, EventProducer, ShardedChannel};
    use damaris_shm::SharedSegment;
    use std::sync::atomic::AtomicUsize;

    fn config(actions: &str) -> Arc<Configuration> {
        Arc::new(
            Configuration::from_str(&format!(
                r#"<simulation name="t">
                     <data>
                       <layout name="l" type="f64" dimensions="2"/>
                       <variable name="u" layout="l"/>
                     </data>
                     {actions}
                   </simulation>"#
            ))
            .unwrap(),
        )
    }

    fn write_event(seg: &SharedSegment, it: u64, source: usize) -> Event {
        let mut b = seg.allocate(16).unwrap();
        b.write_pod(&[source as f64, it as f64]);
        Event::Write {
            variable: damaris_xml::VarId::from_raw(0), // "u" in `config()`
            iteration: it,
            source,
            block: b.freeze(),
        }
    }

    /// Drive a server loop synchronously: post each event to its
    /// source's shard, close the channel, then drain it with one
    /// stealing consumer.
    fn run_events(shared: &Arc<ServerShared>, events: Vec<Event>) {
        let shards = events.iter().map(Event::source).max().map_or(1, |s| s + 1);
        let ch: ShardedChannel<Event> = ShardedChannel::new(shards, events.len().max(1));
        for e in events {
            ch.producer(e.source()).send(e).unwrap();
        }
        ch.close();
        server_loop(shared.clone(), ch.consumer(0, 1));
    }

    #[test]
    fn iteration_fires_once_all_clients_and_blocks_arrive() {
        let cfg = config("");
        let shared = Arc::new(ServerShared::new(cfg, 0, 2, std::env::temp_dir()));
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        shared
            .plugins
            .write()
            .push(Arc::new(FnPlugin::new("probe", move |ctx| {
                assert_eq!(ctx.blocks.len(), 2);
                f.fetch_add(1, Ordering::SeqCst);
                Ok(())
            })));
        let seg = SharedSegment::new(4096).unwrap();
        run_events(
            &shared,
            vec![
                write_event(&seg, 0, 0),
                Event::EndIteration {
                    source: 0,
                    iteration: 0,
                    writes: 1,
                    skipped: false,
                },
                write_event(&seg, 0, 1),
                Event::EndIteration {
                    source: 1,
                    iteration: 0,
                    writes: 1,
                    skipped: false,
                },
            ],
        );
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert_eq!(shared.iterations_completed.load(Ordering::Relaxed), 1);
        assert_eq!(seg.used_bytes(), 0, "iteration memory reclaimed");
    }

    #[test]
    fn out_of_order_block_after_end_iteration_still_completes() {
        // Mimics two dedicated cores racing: EndIteration processed before
        // the matching Write. The expected-block count holds firing back.
        let cfg = config("");
        let shared = Arc::new(ServerShared::new(cfg, 0, 1, std::env::temp_dir()));
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        shared
            .plugins
            .write()
            .push(Arc::new(FnPlugin::new("probe", move |_| {
                f.fetch_add(1, Ordering::SeqCst);
                Ok(())
            })));
        let seg = SharedSegment::new(4096).unwrap();
        run_events(
            &shared,
            vec![
                Event::EndIteration {
                    source: 0,
                    iteration: 0,
                    writes: 1,
                    skipped: false,
                },
                write_event(&seg, 0, 0),
            ],
        );
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn action_frequency_respected() {
        let cfg = config(
            r#"<actions>
                 <action name="dump" plugin="probe" event="end-of-iteration" frequency="2"/>
               </actions>"#,
        );
        let shared = Arc::new(ServerShared::new(cfg, 0, 1, std::env::temp_dir()));
        let fired = Arc::new(Mutex::new(Vec::new()));
        let f = fired.clone();
        shared
            .plugins
            .write()
            .push(Arc::new(FnPlugin::new("probe", move |ctx| {
                f.lock().push(ctx.iteration);
                Ok(())
            })));
        let seg = SharedSegment::new(8192).unwrap();
        let mut events = Vec::new();
        for it in 0..5 {
            events.push(write_event(&seg, it, 0));
            events.push(Event::EndIteration {
                source: 0,
                iteration: it,
                writes: 1,
                skipped: false,
            });
        }
        run_events(&shared, events);
        assert_eq!(
            *fired.lock(),
            vec![0, 2, 4],
            "frequency=2 fires on even steps"
        );
        assert_eq!(shared.iterations_completed.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn signals_fire_matching_actions() {
        let cfg = config(
            r#"<actions>
                 <action name="snap" plugin="viz" event="user-snapshot"/>
                 <action name="other" plugin="someone-else" event="unrelated"/>
               </actions>"#,
        );
        let snapshot = cfg.registry().event_id("user-snapshot").unwrap();
        let unrelated = cfg.registry().event_id("unrelated").unwrap();
        let shared = Arc::new(ServerShared::new(cfg, 0, 1, std::env::temp_dir()));
        let fired = Arc::new(AtomicUsize::new(0));
        let f = fired.clone();
        struct SignalProbe(Arc<AtomicUsize>);
        impl Plugin for SignalProbe {
            fn name(&self) -> &str {
                "viz"
            }
            fn on_signal(&self, ctx: &SignalCtx<'_>) -> Result<(), String> {
                assert_eq!(ctx.name, "user-snapshot");
                self.0.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
        }
        shared.plugins.write().push(Arc::new(SignalProbe(f)));
        run_events(
            &shared,
            vec![
                Event::Signal {
                    event: snapshot,
                    source: 0,
                    iteration: 0,
                },
                Event::Signal {
                    event: unrelated,
                    source: 0,
                    iteration: 0,
                },
            ],
        );
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn plugin_errors_collected_not_fatal() {
        let cfg = config("");
        let shared = Arc::new(ServerShared::new(cfg, 0, 1, std::env::temp_dir()));
        shared
            .plugins
            .write()
            .push(Arc::new(FnPlugin::new("bad", |_| Err("kaboom".into()))));
        let seg = SharedSegment::new(4096).unwrap();
        run_events(
            &shared,
            vec![
                write_event(&seg, 0, 0),
                Event::EndIteration {
                    source: 0,
                    iteration: 0,
                    writes: 1,
                    skipped: false,
                },
                write_event(&seg, 1, 0),
                Event::EndIteration {
                    source: 0,
                    iteration: 1,
                    writes: 1,
                    skipped: false,
                },
            ],
        );
        let errors = shared.errors.lock();
        assert_eq!(
            errors.len(),
            2,
            "one error per iteration, service kept going"
        );
        assert!(errors[0].contains("kaboom"));
    }

    #[test]
    fn skipped_iterations_fire_with_partial_blocks() {
        let cfg = config("");
        let shared = Arc::new(ServerShared::new(cfg, 0, 2, std::env::temp_dir()));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = seen.clone();
        shared
            .plugins
            .write()
            .push(Arc::new(FnPlugin::new("probe", move |ctx| {
                s.lock().push(ctx.blocks.len());
                Ok(())
            })));
        let seg = SharedSegment::new(4096).unwrap();
        run_events(
            &shared,
            vec![
                write_event(&seg, 0, 0),
                Event::EndIteration {
                    source: 0,
                    iteration: 0,
                    writes: 1,
                    skipped: false,
                },
                // Client 1 skipped the whole iteration.
                Event::EndIteration {
                    source: 1,
                    iteration: 0,
                    writes: 0,
                    skipped: true,
                },
            ],
        );
        assert_eq!(*seen.lock(), vec![1], "fires with one client's blocks");
        assert_eq!(shared.skipped_client_iterations.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn dead_client_counts_as_ended_for_staged_and_future_iterations() {
        let cfg = config("");
        let shared = Arc::new(ServerShared::new(cfg, 0, 3, std::env::temp_dir()));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = seen.clone();
        shared
            .plugins
            .write()
            .push(Arc::new(FnPlugin::new("probe", move |ctx| {
                s.lock().push((ctx.iteration, ctx.blocks.len()));
                Ok(())
            })));
        let seg = SharedSegment::new(4096).unwrap();
        let end = |source, iteration, writes| Event::EndIteration {
            source,
            iteration,
            writes,
            skipped: false,
        };
        run_events(
            &shared,
            vec![
                // Iteration 0: everyone but client 1 ended; client 2 is
                // still missing from iteration 1, which client 1 did end.
                write_event(&seg, 0, 0),
                end(0, 0, 1),
                end(2, 0, 0),
                write_event(&seg, 1, 1),
                end(1, 1, 1),
                end(0, 1, 0),
            ],
        );
        assert!(seen.lock().is_empty(), "both iterations wait for a client");
        // Client 1 dies: iteration 0 closes without it; iteration 1, which
        // it had ended, still waits for client 2 — a dead client is not
        // counted twice. The later iteration 2 never waits for it.
        run_events(
            &shared,
            vec![Event::ClientDied { source: 1 }, end(0, 2, 0), end(2, 2, 0)],
        );
        assert_eq!(*seen.lock(), vec![(0, 1), (2, 0)]);
        run_events(&shared, vec![end(2, 1, 0)]);
        assert_eq!(*seen.lock(), vec![(0, 1), (2, 0), (1, 1)]);
        assert_eq!(shared.iterations_completed.load(Ordering::Relaxed), 3);
        assert_eq!(seg.used_bytes(), 0, "iteration memory reclaimed");
        // A death is a departure: with the other two finalized, waiters go.
        assert!(!shared.all_departed());
        run_events(
            &shared,
            vec![
                Event::ClientFinalize { source: 0 },
                Event::ClientFinalize { source: 2 },
                Event::ClientFinalize { source: 2 },
            ],
        );
        assert!(shared.all_departed());
    }

    #[test]
    fn finalize_notifies_waiters() {
        let cfg = config("");
        let shared = Arc::new(ServerShared::new(cfg, 0, 2, std::env::temp_dir()));
        let ch: ShardedChannel<Event> = ShardedChannel::new(2, 8);
        let s2 = shared.clone();
        let consumer = ch.consumer(0, 1);
        let server = std::thread::spawn(move || server_loop(s2, consumer));
        ch.producer(0)
            .send(Event::ClientFinalize { source: 0 })
            .unwrap();
        ch.producer(1)
            .send(Event::ClientFinalize { source: 1 })
            .unwrap();
        assert!(shared.wait_all_finalized(std::time::Duration::from_secs(5)));
        ch.close();
        server.join().unwrap();
        assert!(shared.idle_fraction() > 0.0);
    }
}
