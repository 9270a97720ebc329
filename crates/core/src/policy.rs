//! Backpressure: what happens when data is produced faster than the
//! dedicated core can drain it.
//!
//! Paper §V.C.1: "A challenging problem arises when the analysis tasks take
//! more than the duration of a simulation's time step to complete. In this
//! case it may happen that the shared memory becomes full and blocks the
//! simulation. Discussions with visualization specialists led us to the
//! choice of accepting potential loss of data rather than blocking the
//! simulation. We thus implemented in Damaris a way to automatically skip
//! some iterations of data in order to keep up with the simulation's output
//! rate."

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

use damaris_shm::SharedSegment;
use damaris_xml::schema::{SkipConfig, SkipMode};
use parking_lot::Mutex;

/// Dropped iterations older than this many steps behind the newest drop
/// are pruned from the log (bounds memory over arbitrarily long runs;
/// `end_iteration` never lags the write front anywhere near this far).
const DROP_LOG_HORIZON: u64 = 1024;

/// Per-client skip-policy engine.
///
/// At the first write of each iteration the policy inspects segment
/// occupancy and event-transport pressure; in [`SkipMode::DropIteration`]
/// mode an iteration that begins above the high-watermark is dropped
/// *wholesale* (partial iterations would be useless to plugins).
/// [`SkipMode::Block`] preserves every iteration at the cost of stalling
/// the simulation.
///
/// The transport signal arrives as a plain occupancy fraction
/// ([`damaris_shm::EventProducer::pressure`]): the *aggregate* occupancy
/// across every client's shard, floored by this client's own shard so a
/// full ring engages the policy even while the others are idle.
#[derive(Debug)]
pub struct SkipPolicy {
    cfg: SkipConfig,
    /// Iteration currently being evaluated (u64::MAX = none yet).
    current_iteration: AtomicU64,
    /// Whether `current_iteration` was dropped.
    current_dropped: std::sync::atomic::AtomicBool,
    /// Total iterations dropped by this client.
    dropped_total: AtomicU64,
    /// Every dropped iteration within [`DROP_LOG_HORIZON`], so
    /// [`SkipPolicy::was_dropped`] stays correct for pipelined apps that
    /// open iteration N+1 before ending iteration N (the current-slot
    /// atomics alone would forget N's verdict at N+1's first write).
    /// Touched only on drops and end-of-iteration — never on the
    /// admitted write fast path.
    dropped_log: Mutex<BTreeSet<u64>>,
}

impl SkipPolicy {
    /// Create the engine for one client.
    pub fn new(cfg: SkipConfig) -> Self {
        SkipPolicy {
            cfg,
            current_iteration: AtomicU64::new(u64::MAX),
            current_dropped: std::sync::atomic::AtomicBool::new(false),
            dropped_total: AtomicU64::new(0),
            dropped_log: Mutex::new(BTreeSet::new()),
        }
    }

    fn note_drop(&self, iteration: u64) {
        let mut log = self.dropped_log.lock();
        log.insert(iteration);
        let horizon = iteration.saturating_sub(DROP_LOG_HORIZON);
        while let Some(&oldest) = log.iter().next() {
            if oldest >= horizon {
                break;
            }
            log.remove(&oldest);
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> SkipMode {
        self.cfg.mode
    }

    /// Decide whether a write belonging to `iteration` may proceed.
    ///
    /// `transport_pressure` yields the event-transport occupancy in
    /// `[0, 1]`; it is taken lazily because computing it costs a scan over
    /// every shard's hot counters on the sharded transport, and the value
    /// only matters at the first write of a new iteration in drop mode.
    /// Returns `true` if the write should be published, `false` if the
    /// whole iteration is being dropped. The decision is made once per
    /// iteration (at its first write) and then sticks.
    pub fn admit(
        &self,
        iteration: u64,
        segment: &SharedSegment,
        transport_pressure: impl FnOnce() -> f64,
    ) -> bool {
        if self.cfg.mode == SkipMode::Block {
            return true;
        }
        let prev = self.current_iteration.swap(iteration, Ordering::AcqRel);
        if prev != iteration {
            // First write of a new iteration: evaluate pressure now.
            let pressured = segment.occupancy() >= self.cfg.high_watermark
                || transport_pressure() >= self.cfg.high_watermark;
            self.current_dropped.store(pressured, Ordering::Release);
            if pressured {
                self.dropped_total.fetch_add(1, Ordering::Relaxed);
                self.note_drop(iteration);
            }
        }
        !self.current_dropped.load(Ordering::Acquire)
    }

    /// Force-drop `iteration` after it was already admitted — the
    /// mid-iteration escape hatch for allocation exhaustion in drop mode
    /// (process-mode slices can run out *after* admission, since admission
    /// samples occupancy only at the iteration's first write). Subsequent
    /// writes of the iteration are skipped; no-op in [`SkipMode::Block`].
    pub fn drop_current(&self, iteration: u64) {
        if self.cfg.mode == SkipMode::Block {
            return;
        }
        let prev = self.current_iteration.swap(iteration, Ordering::AcqRel);
        let already = prev == iteration && self.current_dropped.load(Ordering::Acquire);
        self.current_dropped.store(true, Ordering::Release);
        if !already {
            self.dropped_total.fetch_add(1, Ordering::Relaxed);
        }
        self.note_drop(iteration);
    }

    /// Whether the given iteration was dropped. Correct even for
    /// pipelined apps that have already opened a later iteration by the
    /// time they end this one (within `DROP_LOG_HORIZON` = 1024 steps).
    pub fn was_dropped(&self, iteration: u64) -> bool {
        self.dropped_log.lock().contains(&iteration)
    }

    /// Total iterations dropped so far.
    pub fn dropped_iterations(&self) -> u64 {
        self.dropped_total.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use damaris_xml::schema::{SkipConfig, SkipMode};

    fn setup(hw: f64, mode: SkipMode) -> (SkipPolicy, SharedSegment) {
        let policy = SkipPolicy::new(SkipConfig {
            mode,
            high_watermark: hw,
        });
        let seg = SharedSegment::new(1024).unwrap();
        (policy, seg)
    }

    #[test]
    fn block_mode_always_admits() {
        let (policy, seg) = setup(0.5, SkipMode::Block);
        let _hog = seg.allocate(1024).unwrap(); // 100 % occupancy
        assert!(policy.admit(0, &seg, || 0.0));
        assert_eq!(policy.dropped_iterations(), 0);
    }

    #[test]
    fn drop_mode_admits_when_quiet() {
        let (policy, seg) = setup(0.5, SkipMode::DropIteration);
        assert!(policy.admit(0, &seg, || 0.0));
        assert!(
            policy.admit(0, &seg, || 0.0),
            "same iteration stays admitted"
        );
        assert!(!policy.was_dropped(0));
    }

    #[test]
    fn drop_mode_drops_whole_iteration_under_pressure() {
        let (policy, seg) = setup(0.5, SkipMode::DropIteration);
        let hog = seg.allocate(768).unwrap(); // 75 % occupancy
        assert!(!policy.admit(1, &seg, || 0.0), "first write rejected");
        assert!(
            !policy.admit(1, &seg, || 0.0),
            "whole iteration stays rejected"
        );
        assert!(policy.was_dropped(1));
        assert_eq!(policy.dropped_iterations(), 1);
        // Pressure recedes: the *next* iteration is admitted again.
        drop(hog);
        assert!(policy.admit(2, &seg, || 0.0));
        assert_eq!(policy.dropped_iterations(), 1);
    }

    #[test]
    fn decision_sticks_even_if_pressure_changes_mid_iteration() {
        let (policy, seg) = setup(0.5, SkipMode::DropIteration);
        assert!(policy.admit(3, &seg, || 0.0), "admitted while quiet");
        let _hog = seg.allocate(1024).unwrap();
        assert!(
            policy.admit(3, &seg, || 0.0),
            "iteration already admitted; later writes of it pass too"
        );
    }

    #[test]
    fn drop_current_rejects_rest_of_iteration_once() {
        let (policy, seg) = setup(0.9, SkipMode::DropIteration);
        assert!(policy.admit(0, &seg, || 0.0), "quiet iteration admitted");
        policy.drop_current(0);
        assert!(!policy.admit(0, &seg, || 0.0), "later writes now rejected");
        assert!(policy.was_dropped(0));
        policy.drop_current(0); // idempotent
        assert_eq!(policy.dropped_iterations(), 1);
        // Block mode ignores the escape hatch entirely.
        let (policy, seg) = setup(0.9, SkipMode::Block);
        policy.drop_current(0);
        assert!(policy.admit(0, &seg, || 1.0));
        assert_eq!(policy.dropped_iterations(), 0);
    }

    #[test]
    fn dropped_verdict_survives_opening_the_next_iteration() {
        // Pipelined apps open iteration N+1 before ending N; the END of a
        // dropped N must still carry skipped=true.
        let (policy, seg) = setup(0.5, SkipMode::DropIteration);
        let hog = seg.allocate(768).unwrap(); // 75 % occupancy
        assert!(!policy.admit(5, &seg, || 0.0), "iteration 5 dropped");
        drop(hog);
        assert!(policy.admit(6, &seg, || 0.0), "iteration 6 admitted");
        assert!(policy.was_dropped(5), "5's verdict not forgotten");
        assert!(!policy.was_dropped(6));
        assert_eq!(policy.dropped_iterations(), 1);
    }

    #[test]
    fn transport_pressure_also_triggers() {
        let (policy, seg) = setup(0.5, SkipMode::DropIteration);
        assert!(
            !policy.admit(0, &seg, || 1.0),
            "full transport counts as pressure"
        );
        assert!(policy.admit(1, &seg, || 0.49), "below the watermark admits");
    }
}
