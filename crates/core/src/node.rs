//! Node lifecycle: wiring the segment, event transport, clients and
//! dedicated cores.
//!
//! The transport is one [`ShardedChannel`]: a ring per client, sized so
//! the rings together hold the XML `<queue capacity="…">` events.

use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

use damaris_shm::transport::{EventChannel, ShardedChannel};
use damaris_shm::SharedSegment;
use damaris_xml::schema::Configuration;
use parking_lot::Mutex;

use crate::client::{DamarisClient, StatsRecorder};
use crate::error::{DamarisError, DamarisResult};
use crate::event::Event;
use crate::plugins::{Plugin, ServePlugin, StoragePlugin};
use crate::policy::SkipPolicy;
use crate::server::{server_loop, ServerShared};

/// Builder for a [`DamarisNode`].
pub struct NodeBuilder {
    cfg: Option<Configuration>,
    clients: Option<usize>,
    node_id: usize,
    output_dir: Option<PathBuf>,
}

impl NodeBuilder {
    fn new() -> Self {
        NodeBuilder {
            cfg: None,
            clients: None,
            node_id: 0,
            output_dir: None,
        }
    }

    /// Load configuration from XML text.
    pub fn config_str(mut self, xml: &str) -> DamarisResult<Self> {
        self.cfg = Some(Configuration::from_str(xml)?);
        Ok(self)
    }

    /// Load configuration from a file.
    pub fn config_file(mut self, path: impl AsRef<std::path::Path>) -> DamarisResult<Self> {
        self.cfg = Some(Configuration::from_file(path)?);
        Ok(self)
    }

    /// Use an already-built configuration.
    pub fn config(mut self, cfg: Configuration) -> Self {
        self.cfg = Some(cfg);
        self
    }

    /// Number of simulation clients (compute cores) on this node
    /// (default: the XML `<clients count="…"/>` attribute).
    pub fn clients(mut self, n: usize) -> Self {
        self.clients = Some(n);
        self
    }

    /// This node's id (used in output file names).
    pub fn node_id(mut self, id: usize) -> Self {
        self.node_id = id;
        self
    }

    /// Directory plugins write into (default: a temp subdirectory).
    pub fn output_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.output_dir = Some(dir.into());
        self
    }

    /// Construct the node: allocate the segment and queue, spawn the
    /// dedicated-core threads, pre-create the client handles.
    pub fn build(self) -> DamarisResult<DamarisNode> {
        let cfg = Arc::new(self.cfg.ok_or_else(|| {
            DamarisError::InvalidState("NodeBuilder needs a configuration".into())
        })?);
        let n_clients = self.clients.unwrap_or(cfg.architecture.clients);
        if n_clients == 0 {
            return Err(DamarisError::InvalidState(
                "a node needs at least one client".into(),
            ));
        }
        if cfg.architecture.dedicated_cores == 0 {
            return Err(DamarisError::InvalidState(
                "dedicated cores = 0 selects the synchronous baselines; use damaris_core::baseline"
                    .into(),
            ));
        }
        let output_dir = self.output_dir.unwrap_or_else(|| {
            std::env::temp_dir().join(format!("damaris-{}-{}", cfg.name, std::process::id()))
        });
        // Size classes come from the declared variable layouts: the block
        // sizes every iteration reallocates. `dimensions="dynamic"`
        // variables (whose sizes arrive per write) go to the first-fit list.
        let segment = SharedSegment::with_classes(
            cfg.architecture.buffer_size,
            &cfg.registry().distinct_byte_sizes(),
        )?;
        // The queue capacity is split evenly across the clients' rings
        // (each rounded up to a power of two, at least 8), so aggregate
        // back-pressure engages at about the configured depth.
        let per_shard = cfg.architecture.queue_capacity.div_ceil(n_clients).max(8);
        let transport: ShardedChannel<Event> = ShardedChannel::new(n_clients, per_shard);

        let shared = Arc::new(ServerShared::new(
            cfg.clone(),
            self.node_id,
            n_clients,
            output_dir.clone(),
        ));
        let builtins = shared.register_builtins(None)?;

        let n_cores = cfg.architecture.dedicated_cores;
        let mut server_handles = Vec::new();
        for core in 0..n_cores {
            let shared = shared.clone();
            // Each dedicated core gets its own consumer handle owning a
            // disjoint shard set (it steals from the rest when idle).
            let consumer = transport.consumer(core, n_cores);
            server_handles.push(
                std::thread::Builder::new()
                    .name(format!("damaris-dedicated-{core}"))
                    .spawn(move || server_loop(shared, consumer))
                    .expect("failed to spawn dedicated core"),
            );
        }

        let clients: Vec<DamarisClient> = (0..n_clients)
            .map(|id| DamarisClient {
                id,
                cfg: cfg.clone(),
                segment: segment.clone(),
                producer: transport.producer(id),
                policy: Arc::new(SkipPolicy::new(cfg.architecture.skip)),
                stats: Arc::new(StatsRecorder::new()),
                writes_this_iteration: Arc::new(AtomicU64::new(0)),
                finalized: Arc::new(std::sync::atomic::AtomicBool::new(false)),
            })
            .collect();

        Ok(DamarisNode {
            cfg,
            segment,
            transport,
            shared,
            server_handles: Mutex::new(server_handles),
            clients,
            output_dir,
            storage: builtins.storage,
            serve: builtins.serve,
        })
    }
}

/// Summary returned by [`DamarisNode::shutdown`] and by
/// [`crate::ProcessServer::serve`]: what the dedicated side of a node saw,
/// read off the one state machine both worlds run.
#[derive(Debug, Clone)]
pub struct NodeReport {
    /// Iterations whose actions fired.
    pub iterations_completed: u64,
    /// Client-iterations dropped by the skip policy.
    pub skipped_client_iterations: u64,
    /// User signals processed by the dedicated cores.
    pub signals_delivered: u64,
    /// Blocks the dedicated cores consumed.
    pub blocks_received: u64,
    /// Payload bytes of those blocks.
    pub bytes_received: u64,
    /// Plugin error messages collected during the run.
    pub plugin_errors: Vec<String>,
    /// Fraction of time the dedicated cores were idle (§IV.D).
    pub dedicated_idle_fraction: f64,
    /// Peak shared-memory occupancy in bytes (of a process world's
    /// dedicated rank: the most it held views of at once).
    pub peak_segment_bytes: usize,
    /// World ranks of clients that died mid-run and were survived in
    /// degraded mode — each counted as "ended" for every staged and future
    /// iteration, so the survivors kept completing; ascending. Filled by
    /// the process world's heartbeat mesh
    /// ([`mini_mpi::SpawnOptions::heartbeat_timeout_ms`]); always empty in
    /// the thread world.
    pub dead_ranks: Vec<usize>,
}

/// One SMP node running Damaris: `clients` compute cores plus
/// `dedicated_cores` data-management cores sharing a memory segment and an
/// event transport.
pub struct DamarisNode {
    cfg: Arc<Configuration>,
    segment: SharedSegment,
    transport: ShardedChannel<Event>,
    shared: Arc<ServerShared>,
    server_handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    clients: Vec<DamarisClient>,
    output_dir: PathBuf,
    /// The auto-registered storage plugin, when `<store>` is declared —
    /// kept so callers can observe the pipeline without digging through
    /// the plugin list.
    storage: Option<Arc<StoragePlugin>>,
    /// The auto-registered streaming server, when `<serve>` is declared.
    serve: Option<Arc<ServePlugin>>,
}

impl DamarisNode {
    /// Start building a node.
    pub fn builder() -> NodeBuilder {
        NodeBuilder::new()
    }

    /// The loaded configuration.
    pub fn config(&self) -> &Configuration {
        &self.cfg
    }

    /// Directory plugins write into.
    pub fn output_dir(&self) -> &std::path::Path {
        &self.output_dir
    }

    /// Owned handles for every client, in id order (move each into its
    /// compute thread).
    pub fn clients(&self) -> impl Iterator<Item = DamarisClient> + '_ {
        self.clients.iter().cloned()
    }

    /// Handle for one client.
    pub fn client(&self, id: usize) -> Option<DamarisClient> {
        self.clients.get(id).cloned()
    }

    /// Register a data-management plugin (replaces a previous plugin with
    /// the same name, including auto-registered built-ins).
    pub fn register_plugin(&self, plugin: Arc<dyn Plugin>) {
        self.shared.register_plugin(plugin);
    }

    /// Current shared-segment occupancy in `[0, 1]`.
    pub fn segment_occupancy(&self) -> f64 {
        self.segment.occupancy()
    }

    /// Counter snapshot of the auto-registered storage pipeline — the
    /// per-stage timings ([`crate::plugins::StorageStats`]) that make the
    /// encode/write overlap observable. `None` when the configuration
    /// declares no `<store>`.
    pub fn storage_stats(&self) -> Option<crate::plugins::StorageStats> {
        self.storage.as_ref().map(|s| s.stats())
    }

    /// Counter snapshot of the auto-registered streaming server
    /// (subscribers, frames, lag events, publish-path timings). `None`
    /// when the configuration declares no `<serve>`.
    pub fn serve_stats(&self) -> Option<damaris_serve::ServeStats> {
        self.serve.as_ref().map(|s| s.stats())
    }

    /// Bound address of the streaming server (resolves an ephemeral
    /// `listen="…:0"` port). `None` without a `<serve>` element.
    pub fn serve_addr(&self) -> Option<std::net::SocketAddr> {
        self.serve.as_ref().map(|s| s.local_addr())
    }

    /// Lifetime counters of the shared segment (allocations, class hits,
    /// peak occupancy, …).
    pub fn segment_stats(&self) -> damaris_shm::SegmentStats {
        self.segment.stats()
    }

    /// Iterations whose end-of-iteration actions have fired so far — the
    /// dedicated cores' progress through the pipeline (useful for pacing
    /// producers against the analysis side without sampling occupancy).
    pub fn iterations_completed(&self) -> u64 {
        self.shared
            .iterations_completed
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Current event-transport pressure (aggregate occupancy) in `[0, 1]`.
    pub fn queue_pressure(&self) -> f64 {
        self.transport.pressure()
    }

    /// Fraction of time the dedicated cores have been idle so far.
    pub fn dedicated_idle_fraction(&self) -> f64 {
        self.shared.idle_fraction()
    }

    /// Wait for all clients to finalize, then stop the dedicated cores.
    pub fn shutdown(&self) -> DamarisResult<NodeReport> {
        let mut handles = self.server_handles.lock();
        if handles.is_empty() {
            return Err(DamarisError::InvalidState("node already shut down".into()));
        }
        if !self.shared.wait_all_finalized(Duration::from_secs(120)) {
            return Err(DamarisError::InvalidState(
                "timed out waiting for clients to finalize".into(),
            ));
        }
        self.transport.close();
        for h in handles.drain(..) {
            h.join()
                .map_err(|_| DamarisError::InvalidState("dedicated core thread panicked".into()))?;
        }
        self.shared.finalize_plugins();
        Ok(self.shared.report(Vec::new(), self.segment.stats().peak))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::WriteStatus;
    use crate::plugins::StatsPlugin;

    const XML: &str = r#"
      <simulation name="node-test">
        <architecture>
          <dedicated cores="1"/>
          <buffer size="262144"/>
          <queue capacity="64"/>
        </architecture>
        <data>
          <layout name="row" type="f64" dimensions="64"/>
          <variable name="u" layout="row"/>
          <variable name="v" layout="row"/>
        </data>
      </simulation>"#;

    fn run_session(clients: usize, iterations: u64) -> (NodeReport, Arc<StatsPlugin>) {
        let node = DamarisNode::builder()
            .config_str(XML)
            .unwrap()
            .clients(clients)
            .build()
            .unwrap();
        let stats = Arc::new(StatsPlugin::new());
        node.register_plugin(stats.clone());
        let handles: Vec<_> = node
            .clients()
            .map(|client| {
                std::thread::spawn(move || {
                    for it in 0..iterations {
                        let data = vec![client.id() as f64; 64];
                        assert_eq!(client.write("u", it, &data).unwrap(), WriteStatus::Written);
                        assert_eq!(client.write("v", it, &data).unwrap(), WriteStatus::Written);
                        client.end_iteration(it).unwrap();
                    }
                    client.finalize().unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let report = node.shutdown().unwrap();
        (report, stats)
    }

    #[test]
    fn end_to_end_session() {
        let (report, stats) = run_session(3, 5);
        assert_eq!(report.iterations_completed, 5);
        assert_eq!(report.skipped_client_iterations, 0);
        assert!(
            report.plugin_errors.is_empty(),
            "{:?}",
            report.plugin_errors
        );
        assert_eq!(stats.iterations_seen(), 5);
        // Variable u at iteration 4: 3 clients × 64 values of client-id.
        let s = stats.summary(4, "u").unwrap();
        assert_eq!(s.count, 192);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 2.0);
    }

    #[test]
    fn memory_reclaimed_across_iterations() {
        let node = DamarisNode::builder()
            .config_str(XML)
            .unwrap()
            .clients(2)
            .build()
            .unwrap();
        // Lockstep clients, as an MPI timestep keeps them: the dedicated
        // core holds an iteration's blocks until every client has ended
        // it, so without the barrier a starved client lets the other's
        // whole run pile up in the segment.
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let handles: Vec<_> = node
            .clients()
            .map(|client| {
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    for it in 0..200 {
                        barrier.wait();
                        client.write("u", it, &vec![1.0f64; 64]).unwrap();
                        client.end_iteration(it).unwrap();
                    }
                    client.finalize().unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let report = node.shutdown().unwrap();
        assert_eq!(report.iterations_completed, 200);
        let stats = node.segment_stats();
        assert_eq!(stats.allocations, 400);
        assert_eq!(stats.frees, stats.allocations, "every block came back");
        assert_eq!(stats.used, 0);
        assert_eq!(node.segment.largest_free_block(), stats.capacity);
        // Live blocks are bounded by the in-flight window: one per queued
        // event (64 slots), one per client being written, and the two
        // iterations the lockstep clients can have open at the server.
        let window = 64 + 2 + 2 * 2;
        assert!(
            report.peak_segment_bytes <= window * 512,
            "peak {} exceeds the {window}-block in-flight window",
            report.peak_segment_bytes
        );
    }

    #[test]
    fn unknown_variable_and_layout_mismatch() {
        let node = DamarisNode::builder()
            .config_str(XML)
            .unwrap()
            .clients(1)
            .build()
            .unwrap();
        let client = node.client(0).unwrap();
        assert!(matches!(
            client.write("nope", 0, &[0.0f64; 64]),
            Err(DamarisError::UnknownVariable(_))
        ));
        assert!(matches!(
            client.write("u", 0, &[0.0f64; 32]),
            Err(DamarisError::LayoutMismatch { .. })
        ));
        client.finalize().unwrap();
        node.shutdown().unwrap();
    }

    #[test]
    fn zero_copy_alloc_commit_path() {
        let node = DamarisNode::builder()
            .config_str(XML)
            .unwrap()
            .clients(1)
            .build()
            .unwrap();
        let stats = Arc::new(StatsPlugin::new());
        node.register_plugin(stats.clone());
        let client = node.client(0).unwrap();
        let mut w = client.alloc("u", 0).unwrap();
        assert!(!w.is_skipped());
        w.fill_pod(&[2.5f64; 64]);
        assert_eq!(w.commit().unwrap(), WriteStatus::Written);
        client.end_iteration(0).unwrap();
        client.finalize().unwrap();
        node.shutdown().unwrap();
        assert_eq!(stats.summary(0, "u").unwrap().mean, 2.5);
    }

    #[test]
    fn dynamic_layouts_share_the_segment_with_fixed_classes() {
        // A dynamic layout beside a fixed one: the fixed layout keeps its
        // exact class, the per-write sizes are served by the first-fit list.
        let xml = r#"
          <simulation name="amr-default">
            <architecture>
              <dedicated cores="1"/>
              <buffer size="1048576"/>
              <queue capacity="64"/>
            </architecture>
            <data>
              <layout name="row" type="f64" dimensions="64"/>
              <layout name="patch" type="f64" dimensions="dynamic" max_size="65536"/>
              <variable name="u" layout="row"/>
              <variable name="p" layout="patch"/>
            </data>
          </simulation>"#;
        let node = DamarisNode::builder()
            .config_str(xml)
            .unwrap()
            .clients(1)
            .build()
            .unwrap();
        let client = node.client(0).unwrap();
        for it in 0..3 {
            assert_eq!(
                client.write("u", it, &[1.0f64; 64]).unwrap(),
                WriteStatus::Written
            );
            let cells = 100 + it as usize * 37;
            assert_eq!(
                client.write("p", it, &vec![2.0f64; cells]).unwrap(),
                WriteStatus::Written
            );
            client.end_iteration(it).unwrap();
        }
        client.finalize().unwrap();
        node.shutdown().unwrap();
        let stats = node.segment_stats();
        assert_eq!((stats.allocations, stats.failures), (6, 0));
        // Only a repeat `u` can have found its class filled (when the
        // dedicated core had already released the previous one); the
        // three patch sizes match no class, so the list served them.
        assert!(stats.class_hits <= 2, "{stats:?}");
        // The dedicated core is joined, so every `u` block is parked in
        // its class by now and the next allocation of that size pops one.
        let recycled = node.segment.allocate(512).unwrap();
        assert_eq!(node.segment_stats().class_hits, stats.class_hits + 1);
        drop(recycled);
        assert_eq!(node.segment.largest_free_block(), stats.capacity);
    }

    #[test]
    fn builder_validation() {
        assert!(DamarisNode::builder().build().is_err(), "missing config");
        assert!(
            DamarisNode::builder()
                .config_str(XML)
                .unwrap()
                .clients(0)
                .build()
                .is_err(),
            "zero clients"
        );
        let sync_xml = XML.replace("cores=\"1\"", "cores=\"0\"");
        assert!(
            DamarisNode::builder()
                .config_str(&sync_xml)
                .unwrap()
                .build()
                .is_err(),
            "dedicated=0 must point at baselines"
        );
    }

    #[test]
    fn double_shutdown_rejected() {
        let node = DamarisNode::builder()
            .config_str(XML)
            .unwrap()
            .clients(1)
            .build()
            .unwrap();
        node.client(0).unwrap().finalize().unwrap();
        node.shutdown().unwrap();
        assert!(node.shutdown().is_err());
    }

    #[test]
    fn multiple_dedicated_cores() {
        // 3 stealing consumers over 4 client shards; completion logic
        // must hold under cross-core racing and stealing.
        let xml = XML.replace("cores=\"1\"", "cores=\"3\"");
        let node = DamarisNode::builder()
            .config_str(&xml)
            .unwrap()
            .clients(4)
            .build()
            .unwrap();
        let stats = Arc::new(StatsPlugin::new());
        node.register_plugin(stats.clone());
        let handles: Vec<_> = node
            .clients()
            .map(|client| {
                std::thread::spawn(move || {
                    for it in 0..20 {
                        client.write("u", it, &vec![1.0f64; 64]).unwrap();
                        client.end_iteration(it).unwrap();
                    }
                    client.finalize().unwrap();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let report = node.shutdown().unwrap();
        assert_eq!(report.iterations_completed, 20);
        assert_eq!(stats.iterations_seen(), 20);
    }

    #[test]
    fn user_signals_reach_matching_plugins() {
        use crate::plugins::{Plugin, SignalCtx};
        use std::sync::atomic::{AtomicUsize, Ordering};

        let xml = XML.replace(
            "</simulation>",
            r#"<actions>
                 <action name="snap" plugin="snapshotter" event="take-snapshot"/>
               </actions></simulation>"#,
        );
        struct Snapshotter {
            hits: Arc<AtomicUsize>,
            blocks_seen: Arc<AtomicUsize>,
        }
        impl Plugin for Snapshotter {
            fn name(&self) -> &str {
                "snapshotter"
            }
            fn on_signal(&self, ctx: &SignalCtx<'_>) -> Result<(), String> {
                assert_eq!(ctx.name, "take-snapshot");
                self.hits.fetch_add(1, Ordering::SeqCst);
                self.blocks_seen
                    .fetch_add(ctx.blocks.len(), Ordering::SeqCst);
                Ok(())
            }
        }
        let hits = Arc::new(AtomicUsize::new(0));
        let blocks_seen = Arc::new(AtomicUsize::new(0));
        let node = DamarisNode::builder()
            .config_str(&xml)
            .unwrap()
            .clients(1)
            .build()
            .unwrap();
        node.register_plugin(Arc::new(Snapshotter {
            hits: hits.clone(),
            blocks_seen: blocks_seen.clone(),
        }));
        let client = node.client(0).unwrap();
        // Publish a block, then raise the signal while the iteration is
        // still open: the plugin sees the in-flight data.
        client.write("u", 0, &[4.0f64; 64]).unwrap();
        client.signal("take-snapshot", 0).unwrap();
        client.signal("unrelated-event", 0).unwrap();
        client.end_iteration(0).unwrap();
        client.finalize().unwrap();
        node.shutdown().unwrap();
        assert_eq!(
            hits.load(Ordering::SeqCst),
            1,
            "only the matching event fires"
        );
        assert_eq!(
            blocks_seen.load(Ordering::SeqCst),
            1,
            "in-flight block visible"
        );
    }

    #[test]
    fn action_frequency_thins_plugin_invocations() {
        let xml = XML.replace(
            "</simulation>",
            r#"<actions>
                 <action name="s" plugin="stats" event="end-of-iteration" frequency="3"/>
               </actions></simulation>"#,
        );
        let node = DamarisNode::builder()
            .config_str(&xml)
            .unwrap()
            .clients(1)
            .build()
            .unwrap();
        let stats = Arc::new(StatsPlugin::new());
        node.register_plugin(stats.clone());
        let client = node.client(0).unwrap();
        for it in 0..7 {
            client.write("u", it, &[1.0f64; 64]).unwrap();
            client.end_iteration(it).unwrap();
        }
        client.finalize().unwrap();
        let report = node.shutdown().unwrap();
        assert_eq!(report.iterations_completed, 7, "all iterations complete");
        assert_eq!(stats.iterations_seen(), 3, "plugin fired at 0, 3, 6 only");
        assert!(stats.summary(3, "u").is_some());
        assert!(stats.summary(4, "u").is_none());
    }

    #[test]
    fn register_plugin_replaces_same_name() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let node = DamarisNode::builder()
            .config_str(XML)
            .unwrap()
            .clients(1)
            .build()
            .unwrap();
        let first = Arc::new(AtomicUsize::new(0));
        let second = Arc::new(AtomicUsize::new(0));
        let f1 = first.clone();
        let f2 = second.clone();
        node.register_plugin(Arc::new(crate::plugins::FnPlugin::new(
            "probe",
            move |_| {
                f1.fetch_add(1, Ordering::SeqCst);
                Ok(())
            },
        )));
        node.register_plugin(Arc::new(crate::plugins::FnPlugin::new(
            "probe",
            move |_| {
                f2.fetch_add(1, Ordering::SeqCst);
                Ok(())
            },
        )));
        let client = node.client(0).unwrap();
        client.write("u", 0, &[0.0f64; 64]).unwrap();
        client.end_iteration(0).unwrap();
        client.finalize().unwrap();
        node.shutdown().unwrap();
        assert_eq!(
            first.load(Ordering::SeqCst),
            0,
            "replaced plugin never fires"
        );
        assert_eq!(second.load(Ordering::SeqCst), 1);
    }
}
