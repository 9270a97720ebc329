//! The simulation-side API.
//!
//! Paper §III.B: "Its simulation-side API includes functions to directly
//! access the shared memory segment and copy or allocate blocks of data."
//! §V.C.2: "Damaris only requires one line per data object that has to be
//! shared with dedicated cores" — that line is [`DamarisClient::write`].
//!
//! The steady-state write path performs **zero heap allocations and takes
//! no global lock**: the variable name resolves to an interned
//! [`VarId`] through one hash lookup, the block comes from the
//! segment's lock-free size-class queues (one CAS pop), freezing keeps
//! the reference count in the segment's slot table, the event moves into
//! the client's own ring, and timing lands in atomic histogram buckets.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use damaris_shm::transport::{EventProducer, ShardProducer};
use damaris_shm::{Block, SharedSegment};
use damaris_xml::schema::{Configuration, SkipMode};
use damaris_xml::VarId;

use crate::error::{DamarisError, DamarisResult};
use crate::event::Event;
use crate::facade::{check_layout, resolve_var};
use crate::policy::SkipPolicy;

/// What happened to a write call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteStatus {
    /// The block was published to the dedicated core.
    Written,
    /// The skip policy dropped the iteration (memory pressure).
    Skipped,
}

/// Number of log-scale latency buckets (bucket `i` holds writes that took
/// `[2^i, 2^(i+1))` nanoseconds; bucket 0 also absorbs 0 ns).
const NS_BUCKETS: usize = 64;

fn bucket_of(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        63 - ns.leading_zeros() as usize
    }
}

/// Geometric midpoint of a bucket, in seconds.
fn bucket_mid_seconds(bucket: usize) -> f64 {
    // Bucket i covers [2^i, 2^(i+1)) ns; 1.5 * 2^i is its midpoint.
    1.5 * (bucket as f64).exp2() * 1e-9
}

/// Lock-free recorder behind [`DamarisClient::stats`]: plain atomic
/// counters plus a fixed-size log-scale latency histogram. Unlike the
/// previous `Mutex<Vec<f64>>`, recording a write is a handful of relaxed
/// atomic adds — no lock, no allocation, and bounded memory over runs of
/// any length.
#[derive(Debug)]
pub(crate) struct StatsRecorder {
    writes: AtomicU64,
    skipped_writes: AtomicU64,
    bytes_written: AtomicU64,
    write_ns_total: AtomicU64,
    write_ns_max: AtomicU64,
    buckets: [AtomicU64; NS_BUCKETS],
}

impl StatsRecorder {
    pub(crate) fn new() -> Self {
        StatsRecorder {
            writes: AtomicU64::new(0),
            skipped_writes: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            write_ns_total: AtomicU64::new(0),
            write_ns_max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    pub(crate) fn record_write(&self, ns: u64, bytes: u64) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        self.write_ns_total.fetch_add(ns, Ordering::Relaxed);
        self.write_ns_max.fetch_max(ns, Ordering::Relaxed);
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_skip(&self) {
        self.skipped_writes.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> ClientStats {
        ClientStats {
            writes: self.writes.load(Ordering::Relaxed),
            skipped_writes: self.skipped_writes.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            total_write_seconds: self.write_ns_total.load(Ordering::Relaxed) as f64 * 1e-9,
            max_write_seconds: self.write_ns_max.load(Ordering::Relaxed) as f64 * 1e-9,
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Timing snapshot of the simulation-facing cost of Damaris calls.
///
/// The headline §IV.B claim — "the time to write from the point of view of
/// the simulation is cut down to the time required to write in
/// shared-memory, which is in the order of 0.1 seconds" — is measured here.
/// Latencies live in a log-scale histogram (factor-of-two resolution), so
/// quantiles are available without per-call storage.
#[derive(Debug, Clone)]
pub struct ClientStats {
    /// Successful write calls.
    pub writes: u64,
    /// Number of write calls that were skipped.
    pub skipped_writes: u64,
    /// Bytes published.
    pub bytes_written: u64,
    /// Total seconds spent inside successful writes.
    pub total_write_seconds: f64,
    /// Slowest single write, in seconds.
    pub max_write_seconds: f64,
    /// Log-scale latency histogram (bucket `i` = `[2^i, 2^(i+1))` ns).
    buckets: [u64; NS_BUCKETS],
}

impl Default for ClientStats {
    fn default() -> Self {
        ClientStats {
            writes: 0,
            skipped_writes: 0,
            bytes_written: 0,
            total_write_seconds: 0.0,
            max_write_seconds: 0.0,
            buckets: [0; NS_BUCKETS],
        }
    }
}

impl ClientStats {
    /// Mean seconds per successful write (0 when none happened).
    pub fn mean_write_seconds(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.total_write_seconds / self.writes as f64
        }
    }

    /// Latency quantile in seconds from the log-scale histogram
    /// (`q` in `[0, 1]`; factor-of-two resolution).
    pub fn quantile_write_seconds(&self, q: f64) -> f64 {
        if self.writes == 0 {
            return 0.0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.writes as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                return bucket_mid_seconds(i);
            }
        }
        self.max_write_seconds
    }

    /// Median write latency in seconds.
    pub fn p50_write_seconds(&self) -> f64 {
        self.quantile_write_seconds(0.50)
    }

    /// 99th-percentile write latency in seconds.
    pub fn p99_write_seconds(&self) -> f64 {
        self.quantile_write_seconds(0.99)
    }

    /// Raw histogram counts (bucket `i` = `[2^i, 2^(i+1))` ns).
    pub fn bucket_counts(&self) -> &[u64; NS_BUCKETS] {
        &self.buckets
    }
}

/// Handle held by one compute core.
///
/// The client's producer handle posts into the client's own lock-free
/// ring of the node's [`damaris_shm::ShardedChannel`].
///
/// Cloning shares the identity and statistics of the same
/// logical client — clients are usually moved into their compute thread
/// instead. (Clones serialize their posts on a per-client guard, so
/// sharing a clone across threads is safe but momentarily spins.)
///
/// Clients of one node are not kept in step with each other: only the
/// segment's capacity bounds how far one client can run ahead of another,
/// since an iteration's blocks stay in the segment until every client has
/// ended it. This is intended. A simulation's own halo exchange already
/// keeps its ranks within a step or two of each other, and a second bound
/// here would only stall the leaders earlier. Free-running clients under
/// `<skip mode="block">` can exhaust the segment; see the liveness caveat
/// on [`SkipMode::Block`].
pub struct DamarisClient {
    pub(crate) id: usize,
    pub(crate) cfg: Arc<Configuration>,
    /// The node's shared segment.
    pub(crate) segment: SharedSegment,
    pub(crate) producer: ShardProducer<Event>,
    pub(crate) policy: Arc<SkipPolicy>,
    pub(crate) stats: Arc<StatsRecorder>,
    /// Blocks published for the current iteration (reported at
    /// end-of-iteration so the server knows when the step's data is whole).
    pub(crate) writes_this_iteration: Arc<AtomicU64>,
    /// Whether this logical client already finalized (shared by clones;
    /// makes [`DamarisClient::finalize`] idempotent, like process mode).
    pub(crate) finalized: Arc<AtomicBool>,
}

impl Clone for DamarisClient {
    fn clone(&self) -> Self {
        DamarisClient {
            id: self.id,
            cfg: self.cfg.clone(),
            segment: self.segment.clone(),
            producer: self.producer.clone(),
            policy: self.policy.clone(),
            stats: self.stats.clone(),
            writes_this_iteration: self.writes_this_iteration.clone(),
            finalized: self.finalized.clone(),
        }
    }
}

impl std::fmt::Debug for DamarisClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DamarisClient")
            .field("id", &self.id)
            .finish()
    }
}

impl DamarisClient {
    /// This client's id (its rank within the node).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The loaded configuration.
    pub fn config(&self) -> &Configuration {
        &self.cfg
    }

    /// Resolve a variable name to its interned id once, so repeated
    /// writes can skip even the hash lookup
    /// (see [`DamarisClient::write_id`]).
    pub fn var_id(&self, variable: &str) -> DamarisResult<VarId> {
        resolve_var(&self.cfg, variable)
    }

    /// Publish one variable for one iteration — the single instrumentation
    /// line the paper's usability comparison counts.
    ///
    /// Cost to the simulation: one shared-memory allocation, one copy
    /// (streamed past the cache for blocks ≥ [`damaris_shm::STREAM_MIN`]),
    /// one queue event — no heap allocation, no global lock.
    pub fn write<T: damaris_shm::segment::Pod>(
        &self,
        variable: &str,
        iteration: u64,
        data: &[T],
    ) -> DamarisResult<WriteStatus> {
        let var = self.var_id(variable)?;
        self.write_id(var, iteration, data)
    }

    /// [`DamarisClient::write`] with a pre-resolved [`VarId`].
    pub fn write_id<T: damaris_shm::segment::Pod>(
        &self,
        var: VarId,
        iteration: u64,
        data: &[T],
    ) -> DamarisResult<WriteStatus> {
        let t0 = Instant::now();
        let bytes = std::mem::size_of_val(data);
        check_layout(&self.cfg, var, bytes)?;
        if !self
            .policy
            .admit(iteration, &self.segment, || self.producer.pressure())
        {
            self.stats.record_skip();
            return Ok(WriteStatus::Skipped);
        }
        let Some(mut block) = self.allocate_admitted(iteration, bytes)? else {
            return Ok(WriteStatus::Skipped);
        };
        block.write_pod(data);
        self.publish(var, iteration, block)?;
        self.stats
            .record_write(t0.elapsed().as_nanos() as u64, bytes as u64);
        Ok(WriteStatus::Written)
    }

    /// Zero-copy variant: allocate the block, let the caller fill it in
    /// place (e.g. the simulation computes directly into shared memory —
    /// "functions to directly access the shared memory segment"), then
    /// [`DamarisClient::commit`] it.
    ///
    /// The write-timing clock starts here, so the §IV.B "time to write"
    /// statistic covers allocation and in-place fill, not just the final
    /// publish.
    ///
    /// Variables on a `dimensions="dynamic"` layout have no fixed size —
    /// use [`DamarisClient::alloc_sized`] with this write's byte count.
    pub fn alloc(&self, variable: &str, iteration: u64) -> DamarisResult<BlockWriter> {
        let t0 = Instant::now();
        let var = self.var_id(variable)?;
        if self.cfg.registry().is_dynamic(var) {
            return Err(DamarisError::InvalidState(format!(
                "variable '{variable}' has a dynamic layout; use alloc_sized with this \
                 write's byte count"
            )));
        }
        self.alloc_inner(var, iteration, self.cfg.registry().byte_size(var), t0)
    }

    /// [`DamarisClient::alloc`] with a caller-supplied block length — the
    /// zero-copy path for variable-size (AMR) workloads on
    /// `dimensions="dynamic"` layouts. `bytes` must be a whole number of
    /// elements (and within the layout's `max_size`); fixed layouts
    /// accept exactly their declared size.
    pub fn alloc_sized(
        &self,
        variable: &str,
        iteration: u64,
        bytes: usize,
    ) -> DamarisResult<BlockWriter> {
        let t0 = Instant::now();
        let var = self.var_id(variable)?;
        check_layout(&self.cfg, var, bytes)?;
        self.alloc_inner(var, iteration, bytes, t0)
    }

    fn alloc_inner(
        &self,
        var: VarId,
        iteration: u64,
        bytes: usize,
        t0: Instant,
    ) -> DamarisResult<BlockWriter> {
        if !self
            .policy
            .admit(iteration, &self.segment, || self.producer.pressure())
        {
            self.stats.record_skip();
            return Ok(BlockWriter {
                client: self.clone(),
                var,
                iteration,
                block: None,
                t0,
            });
        }
        let block = self.allocate_admitted(iteration, bytes)?;
        Ok(BlockWriter {
            client: self.clone(),
            var,
            iteration,
            block,
            t0,
        })
    }

    /// Commit a block obtained from [`DamarisClient::alloc`].
    pub fn commit(&self, writer: BlockWriter) -> DamarisResult<WriteStatus> {
        writer.commit()
    }

    /// Raise a user event; actions declared with `event="name"` fire on the
    /// dedicated core.
    ///
    /// A name no `<action>` references resolves to nothing and is silently
    /// dropped at this edge — no action could match it on the server side.
    pub fn signal(&self, name: &str, iteration: u64) -> DamarisResult<()> {
        let Some(event) = self.cfg.registry().event_id(name) else {
            return Ok(());
        };
        self.producer
            .send(Event::Signal {
                event,
                source: self.id,
                iteration,
            })
            .map_err(|_| DamarisError::QueueClosed)
    }

    /// Mark the iteration finished for this client. When every client of
    /// the node has ended iteration `k` (and all its blocks arrived), the
    /// dedicated core fires the end-of-iteration actions.
    pub fn end_iteration(&self, iteration: u64) -> DamarisResult<()> {
        let writes = self.writes_this_iteration.swap(0, Ordering::AcqRel);
        let skipped = self.policy.was_dropped(iteration);
        self.producer
            .send(Event::EndIteration {
                source: self.id,
                iteration,
                writes,
                skipped,
            })
            .map_err(|_| DamarisError::QueueClosed)
    }

    /// Announce that this client will send nothing further. Idempotent
    /// (shared across clones of the same logical client): repeated calls
    /// are no-ops, so the dedicated core's finalize count can never
    /// overshoot and release shutdown while another client still runs —
    /// the same contract process mode gives [`crate::facade::SimHandle`].
    pub fn finalize(&self) -> DamarisResult<()> {
        if self.finalized.swap(true, Ordering::AcqRel) {
            return Ok(());
        }
        self.producer
            .send(Event::ClientFinalize { source: self.id })
            .map_err(|_| {
                self.finalized.store(false, Ordering::Release);
                DamarisError::QueueClosed
            })
    }

    /// Snapshot of this client's timing statistics.
    pub fn stats(&self) -> ClientStats {
        self.stats.snapshot()
    }

    /// Iterations dropped by the skip policy so far.
    pub fn skipped_iterations(&self) -> u64 {
        self.policy.dropped_iterations()
    }

    /// Allocate for an already-admitted iteration. `Ok(None)` means the
    /// segment ran out *after* admission in drop mode and the rest of the
    /// iteration was dropped (§V.C.1: lose data rather than stall or
    /// error) — the same semantics process mode applies on slice
    /// exhaustion, so the facade behaves identically on both backends.
    fn allocate_admitted(&self, iteration: u64, bytes: usize) -> DamarisResult<Option<Block>> {
        match self.policy.mode() {
            // Block mode: wait for plugins to free memory.
            SkipMode::Block => self
                .segment
                .allocate_blocking(bytes, Some(std::time::Duration::from_secs(60)))
                .map(Some)
                .map_err(DamarisError::from),
            // Drop mode: never stall the simulation.
            SkipMode::DropIteration => match self.segment.allocate(bytes) {
                Ok(b) => Ok(Some(b)),
                Err(damaris_shm::ShmError::OutOfMemory { .. }) => {
                    self.policy.drop_current(iteration);
                    self.stats.record_skip();
                    Ok(None)
                }
                Err(e) => Err(e.into()),
            },
        }
    }

    fn publish(&self, variable: VarId, iteration: u64, block: Block) -> DamarisResult<()> {
        let event = Event::Write {
            variable,
            iteration,
            source: self.id,
            block: block.freeze(),
        };
        self.producer
            .send(event)
            .map_err(|_| DamarisError::QueueClosed)?;
        self.writes_this_iteration.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }
}

/// An in-place block being filled by the simulation (zero-copy path).
pub struct BlockWriter {
    client: DamarisClient,
    var: VarId,
    iteration: u64,
    /// `None` when the skip policy dropped the iteration.
    block: Option<Block>,
    /// Started in [`DamarisClient::alloc`], so the recorded write time
    /// includes allocation and fill — previously the clock only started
    /// at commit, under-reporting most of the zero-copy path's cost.
    t0: Instant,
}

impl BlockWriter {
    /// Whether the skip policy dropped this iteration (the writer is inert).
    pub fn is_skipped(&self) -> bool {
        self.block.is_none()
    }

    /// Mutable view of the shared-memory block (empty slice when skipped).
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        match &mut self.block {
            Some(b) => b.as_mut_slice(),
            None => &mut [],
        }
    }

    /// Fill from a typed slice (convenience over `as_mut_slice`).
    pub fn fill_pod<T: damaris_shm::segment::Pod>(&mut self, data: &[T]) {
        if let Some(b) = &mut self.block {
            b.write_pod(data);
        }
    }

    /// Publish the block to the dedicated core.
    pub fn commit(self) -> DamarisResult<WriteStatus> {
        match self.block {
            None => Ok(WriteStatus::Skipped),
            Some(block) => {
                let bytes = block.len();
                self.client.publish(self.var, self.iteration, block)?;
                self.client
                    .stats
                    .record_write(self.t0.elapsed().as_nanos() as u64, bytes as u64);
                Ok(WriteStatus::Written)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let rec = StatsRecorder::new();
        // 90 fast writes (~1 µs) and 10 slow ones (~1 ms).
        for _ in 0..90 {
            rec.record_write(1_000, 8);
        }
        for _ in 0..10 {
            rec.record_write(1_000_000, 8);
        }
        let s = rec.snapshot();
        assert_eq!(s.writes, 100);
        assert_eq!(s.bytes_written, 800);
        // p50 lands in the microsecond bucket, p99 in the millisecond one.
        let p50 = s.p50_write_seconds();
        let p99 = s.p99_write_seconds();
        assert!((5e-7..4e-6).contains(&p50), "p50 {p50}");
        assert!((5e-4..4e-3).contains(&p99), "p99 {p99}");
        assert!(s.max_write_seconds >= 1e-3);
        assert!((s.mean_write_seconds() - 1.009e-4).abs() < 2e-5);
        assert_eq!(s.bucket_counts().iter().sum::<u64>(), 100);
    }

    #[test]
    fn zero_and_extreme_ns_bucket_safely() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(u64::MAX), 63);
        let rec = StatsRecorder::new();
        rec.record_write(0, 1);
        rec.record_write(u64::MAX, 1);
        let s = rec.snapshot();
        assert_eq!(s.writes, 2);
        assert!(s.quantile_write_seconds(1.0) > 0.0);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = ClientStats::default();
        assert_eq!(s.mean_write_seconds(), 0.0);
        assert_eq!(s.p50_write_seconds(), 0.0);
        assert_eq!(s.p99_write_seconds(), 0.0);
    }
}
