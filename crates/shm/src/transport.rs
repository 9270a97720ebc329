//! The event transport: how client events reach dedicated cores.
//!
//! Paper §III.B: "A shared message queue is used for the simulation
//! processes to send events to the dedicated cores. These events activate
//! the user-provided plugins. The message queue is also used for sending
//! events that inform dedicated cores of the state of the simulation, and
//! help Damaris adapting its behavior."
//!
//! [`ShardedChannel`] is that queue, built so that one client's post never
//! waits on another's: one cache-line-padded lock-free SPSC ring per
//! client plus consumer-side work stealing. Each dedicated core owns a
//! disjoint shard set (`shard % n_cores == core`), drains it first, and
//! steals from lagging shards when its own set runs dry. A post touches
//! only the client's own ring (one slot write, one release store) and one
//! `SeqCst` fence before the doorbell check.
//!
//! It keeps the semantics the middleware relies on: per-client FIFO, no
//! loss, no duplication, explicit [`EventChannel::close`] with
//! drain-then-error on the consumer side, and blocking/timed/non-blocking
//! variants on both ends. Order *across* clients is not kept; the server
//! layer does not need it (it tolerates cross-client reordering via
//! expected-block accounting).
//!
//! The bound matters: aggregate occupancy is the second backpressure
//! signal (after segment occupancy) consumed by the iteration-skip policy.
//!
//! ## Sleeping
//!
//! A consumer with nothing to drain, and a producer whose shard is full,
//! sleep on a condvar until a doorbell wakes them or their caller's
//! deadline passes; there is no timed nap. The sleeper takes the sleep
//! lock, registers in a sleeper count, issues a `SeqCst` fence and
//! re-checks for work *under the lock* before waiting. The waker makes its
//! change (push, pop, close, orphan hand-off), issues a `SeqCst` fence,
//! and notifies under the lock only when the sleeper count is non-zero.
//! The two fences make the store/load pairs Dekker-ordered: either the
//! sleeper's re-check sees the change, or the waker sees the sleeper, and
//! then its notify cannot land before the sleeper waits because the
//! re-check and the wait happen under the lock it must take. Model-checked
//! by `transport_doorbell_no_lost_wakeup` (crates/check/tests/models.rs);
//! moving the re-check before the lock is caught as a deadlock by
//! `transport_doorbell_recheck_outside_lock_is_caught`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use damaris_sync::{fence, AtomicBool, AtomicUsize, Condvar, Mutex, Ordering};

use crate::error::{RecvError, SendError, TryRecvError, TrySendError};
use crate::spsc::{CachePadded, SpscRing};

/// A transport carrying events from per-client producers to one or more
/// dedicated-core consumers.
pub trait EventChannel<T: Send>: Clone + Send + Sync + 'static {
    /// Client-side handle; cheap to clone, owned per client.
    type Producer: EventProducer<T>;
    /// Dedicated-core-side handle.
    type Consumer: EventConsumer<T>;

    /// Handle for client `client` (its rank within the node).
    fn producer(&self, client: usize) -> Self::Producer;

    /// Handle for dedicated core `core` of `n_cores` total. The pair
    /// partitions shard ownership; every consumer can still reach all
    /// events (by stealing), so any single consumer fully drains the
    /// channel.
    fn consumer(&self, core: usize, n_cores: usize) -> Self::Consumer;

    /// Close the channel: subsequent sends fail, consumers drain what
    /// remains and then see `Closed`/`RecvError`.
    fn close(&self);

    /// Whether [`close`](EventChannel::close) has been called.
    fn is_closed(&self) -> bool;

    /// Events currently queued across the whole channel.
    fn len(&self) -> usize;

    /// Whether no events are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total event capacity across the whole channel.
    fn capacity(&self) -> usize;

    /// Aggregate occupancy in `[0, 1]` — the backpressure signal consumed
    /// by the iteration-skip policy. For the sharded transport this is
    /// the occupancy summed over every client's shard.
    fn pressure(&self) -> f64 {
        self.len() as f64 / self.capacity() as f64
    }
}

/// Client-side sending handle.
pub trait EventProducer<T: Send>: Clone + Send + 'static {
    /// Send, blocking while the transport is full.
    fn send(&self, msg: T) -> Result<(), SendError<T>>;
    /// Send without blocking.
    fn try_send(&self, msg: T) -> Result<(), TrySendError<T>>;
    /// Send, blocking at most `timeout`.
    fn send_timeout(&self, msg: T, timeout: Duration) -> Result<(), TrySendError<T>>;
    /// Aggregate channel occupancy in `[0, 1]` (same scale as
    /// [`EventChannel::pressure`]).
    fn pressure(&self) -> f64;
}

/// Dedicated-core receiving handle.
pub trait EventConsumer<T: Send>: Send + 'static {
    /// Receive, blocking while empty; `Err` once closed *and* drained.
    fn recv(&mut self) -> Result<T, RecvError>;
    /// Receive without blocking.
    fn try_recv(&mut self) -> Result<T, TryRecvError>;
    /// Receive, blocking at most `timeout`.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<T, TryRecvError>;
}

// ---- the sharded transport -----------------------------------------------

/// One client's shard: its ring plus the two access guards.
struct Shard<T> {
    ring: SpscRing<T>,
    /// Serializes pushes from clones of the same client handle. Held for
    /// one ring push — an uncontended CAS in the common one-handle case.
    push_guard: CachePadded<AtomicBool>,
    /// Serializes pops between the owning consumer and thieves, keeping
    /// the ring's single-consumer contract while allowing work stealing.
    drain_guard: CachePadded<AtomicBool>,
}

struct ShardedInner<T> {
    shards: Box<[Shard<T>]>,
    closed: AtomicBool,
    /// Events a dropped consumer had batch-popped but not yet delivered;
    /// surviving consumers adopt them (see `StealingConsumer::drop`).
    orphans: Mutex<std::collections::VecDeque<T>>,
    /// Cheap emptiness signal for `orphans`, read on every sweep.
    orphan_count: AtomicUsize,
    /// Consumers currently asleep waiting for events.
    sleeping_consumers: AtomicUsize,
    /// Producers currently asleep waiting for space.
    sleeping_producers: AtomicUsize,
    /// Wakeup channel for sleeping consumers (and producers). The mutex
    /// guards no data: it makes a sleeper's re-check and wait one step
    /// for the wakers, and the hot send path never takes it unless a
    /// consumer is actually asleep.
    sleep_lock: Mutex<()>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// Sharded lock-free event transport: per-client SPSC rings with
/// work-stealing consumers. See the module docs for the design.
pub struct ShardedChannel<T> {
    inner: Arc<ShardedInner<T>>,
}

impl<T> Clone for ShardedChannel<T> {
    fn clone(&self) -> Self {
        ShardedChannel {
            inner: self.inner.clone(),
        }
    }
}

impl<T: Send> std::fmt::Debug for ShardedChannel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedChannel")
            .field("shards", &self.inner.shards.len())
            .field("shard_capacity", &self.shard_capacity())
            .field("len", &self.total_len())
            .field("closed", &self.inner.closed.load(Ordering::Relaxed))
            .finish()
    }
}

impl<T: Send> ShardedChannel<T> {
    /// Create a channel with `shards` rings (one per client) of
    /// `shard_capacity` events each (rounded up to a power of two).
    pub fn new(shards: usize, shard_capacity: usize) -> Self {
        assert!(shards > 0, "sharded channel needs at least one shard");
        assert!(shard_capacity > 0, "shard capacity must be positive");
        let shards = (0..shards)
            .map(|_| Shard {
                ring: SpscRing::with_capacity(shard_capacity),
                push_guard: CachePadded(AtomicBool::new(false)),
                drain_guard: CachePadded(AtomicBool::new(false)),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ShardedChannel {
            inner: Arc::new(ShardedInner {
                shards,
                closed: AtomicBool::new(false),
                orphans: Mutex::new(std::collections::VecDeque::new()),
                orphan_count: AtomicUsize::new(0),
                sleeping_consumers: AtomicUsize::new(0),
                sleeping_producers: AtomicUsize::new(0),
                sleep_lock: Mutex::new(()),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
            }),
        }
    }

    /// Number of shards (= clients).
    pub fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    /// Per-shard event capacity.
    pub fn shard_capacity(&self) -> usize {
        self.inner.shards[0].ring.capacity()
    }

    /// Occupancy of one shard, in events.
    pub fn shard_len(&self, shard: usize) -> usize {
        self.inner.shards[shard].ring.len()
    }

    fn total_len(&self) -> usize {
        // Diagnostic snapshot only — never feeds the drained verdict, so
        // Relaxed suffices (the verdict path in `all_drained` keeps its
        // SeqCst load; see `push_guard_send_vs_close` in
        // crates/check/tests/models.rs).
        let queued: usize = self.inner.shards.iter().map(|s| s.ring.len()).sum();
        queued + self.inner.orphan_count.load(Ordering::Relaxed)
    }
}

impl<T> ShardedInner<T> {
    /// Wake sleeping consumers after a push. Cheap when nobody sleeps:
    /// one fence and one load of a counter only sleepers write.
    fn ring_doorbell(&self) {
        self.doorbell(&self.sleeping_consumers, &self.not_empty);
    }

    /// Wake sleeping producers after a pop freed a slot.
    fn space_doorbell(&self) {
        self.doorbell(&self.sleeping_producers, &self.not_full);
    }

    /// The waker's half of the sleep hand-off (see the module docs): the
    /// fence orders the caller's push or pop before the sleeper-count
    /// load, pairing with the fence in [`Self::sleep`].
    fn doorbell(&self, sleepers: &AtomicUsize, cv: &Condvar) {
        fence(Ordering::SeqCst);
        if sleepers.load(Ordering::SeqCst) > 0 {
            let _g = self.sleep_lock.lock();
            cv.notify_all();
        }
    }

    /// The sleeper's half: register in `sleepers`, then re-check `ready`
    /// and wait on `cv` without letting go of the sleep lock in between,
    /// so a doorbell that misses the re-check still finds the sleeper
    /// waiting. Waits until notified, or until `deadline` when one is
    /// given; the caller re-sweeps either way.
    fn sleep(
        &self,
        sleepers: &AtomicUsize,
        cv: &Condvar,
        deadline: Option<Instant>,
        ready: impl FnOnce() -> bool,
    ) {
        let mut g = self.sleep_lock.lock();
        sleepers.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if !ready() {
            match deadline {
                Some(d) => {
                    cv.wait_until(&mut g, d);
                }
                None => cv.wait(&mut g),
            }
        }
        sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Close and hand-off notify under the lock, so a sleeper between its
    /// re-check and its wait cannot miss them.
    fn wake_everyone(&self) {
        let _g = self.sleep_lock.lock();
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

impl<T: Send + 'static> EventChannel<T> for ShardedChannel<T> {
    type Producer = ShardProducer<T>;
    type Consumer = StealingConsumer<T>;

    /// Clients beyond the shard count share the last shards
    /// (`client % shards`); correctness is preserved by the push guard,
    /// only the lock-free property of the extra clients degrades.
    fn producer(&self, client: usize) -> ShardProducer<T> {
        ShardProducer {
            inner: self.inner.clone(),
            shard: client % self.inner.shards.len(),
        }
    }

    fn consumer(&self, core: usize, n_cores: usize) -> StealingConsumer<T> {
        assert!(n_cores > 0 && core < n_cores, "consumer index out of range");
        StealingConsumer {
            inner: self.inner.clone(),
            core,
            n_cores,
            next_owned: 0,
            next_steal: 0,
            pending: std::collections::VecDeque::with_capacity(DRAIN_BATCH),
        }
    }

    fn close(&self) {
        self.inner.closed.store(true, Ordering::SeqCst);
        self.inner.wake_everyone();
    }

    fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::SeqCst)
    }

    fn len(&self) -> usize {
        self.total_len()
    }

    fn capacity(&self) -> usize {
        self.shard_capacity() * self.shards()
    }
}

/// Producer half of a [`ShardedChannel`]: posts only to its own shard.
pub struct ShardProducer<T> {
    inner: Arc<ShardedInner<T>>,
    shard: usize,
}

impl<T> Clone for ShardProducer<T> {
    fn clone(&self) -> Self {
        ShardProducer {
            inner: self.inner.clone(),
            shard: self.shard,
        }
    }
}

impl<T: Send> ShardProducer<T> {
    /// The shard this producer posts to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// One guarded push attempt.
    ///
    /// The `closed` check happens *inside* the push guard: paired with the
    /// consumer's closed-verdict handshake (rings empty → all push guards
    /// free → rings empty again), this guarantees a send that returned
    /// `Ok` is always drained — either the closing consumer observes our
    /// held guard and rescans, or it observes the guard released, which
    /// happens-after the push landed.
    fn guarded_push(&self, value: T) -> Result<(), PushError<T>> {
        let shard = &self.inner.shards[self.shard];
        // Spin until the clone-guard is ours; uncontended unless the same
        // logical client sends from two cloned handles at once. SeqCst:
        // the guard store must precede the `closed` load in the single
        // total order, or `all_drained`'s guard scan could miss a
        // mid-push producer on weakly-ordered hardware. The handshake is
        // model-checked by `push_guard_send_vs_close`; weakening the
        // `closed` load below loses an accepted event, caught by
        // `push_guard_relaxed_closed_check_is_caught`
        // (crates/check/tests/models.rs).
        while shard.push_guard.swap(true, Ordering::SeqCst) {
            damaris_sync::hint::spin_loop();
        }
        if self.inner.closed.load(Ordering::SeqCst) {
            shard.push_guard.store(false, Ordering::Release);
            return Err(PushError::Closed(value));
        }
        let res = shard.ring.try_push(value).map_err(PushError::Full);
        shard.push_guard.store(false, Ordering::Release);
        if res.is_ok() {
            self.inner.ring_doorbell();
        }
        res
    }
}

/// Outcome of one guarded push attempt.
enum PushError<T> {
    Full(T),
    Closed(T),
}

impl<T: Send + 'static> EventProducer<T> for ShardProducer<T> {
    fn send(&self, msg: T) -> Result<(), SendError<T>> {
        match self.send_deadline(msg, None) {
            Ok(()) => Ok(()),
            Err(TrySendError::Closed(m)) => Err(SendError(m)),
            Err(TrySendError::Full(_)) => unreachable!("untimed send cannot time out"),
        }
    }

    fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
        match self.guarded_push(msg) {
            Ok(()) => Ok(()),
            Err(PushError::Full(m)) => Err(TrySendError::Full(m)),
            Err(PushError::Closed(m)) => Err(TrySendError::Closed(m)),
        }
    }

    fn send_timeout(&self, msg: T, timeout: Duration) -> Result<(), TrySendError<T>> {
        // Overflow-safe deadline: a huge timeout degrades to an untimed
        // blocking send instead of panicking on `Instant + Duration`.
        self.send_deadline(msg, Instant::now().checked_add(timeout))
    }

    /// Aggregate occupancy, floored by this producer's own shard: a full
    /// individual ring must engage the skip policy even while the other
    /// shards are idle, or `DropIteration` mode could stall in a blocking
    /// send — the one thing it promises never to do.
    fn pressure(&self) -> f64 {
        let total: usize = self.inner.shards.iter().map(|s| s.ring.len()).sum();
        let cap = self.inner.shards[0].ring.capacity() * self.inner.shards.len();
        let own = &self.inner.shards[self.shard].ring;
        let own_pressure = own.len() as f64 / own.capacity() as f64;
        (total as f64 / cap as f64).max(own_pressure)
    }
}

impl<T: Send> ShardProducer<T> {
    /// Blocking send with an optional deadline (`None` = wait forever).
    fn send_deadline(&self, msg: T, deadline: Option<Instant>) -> Result<(), TrySendError<T>> {
        let mut value = msg;
        let mut spins = 0u32;
        loop {
            match self.guarded_push(value) {
                Ok(()) => return Ok(()),
                Err(PushError::Closed(back)) => return Err(TrySendError::Closed(back)),
                Err(PushError::Full(back)) => value = back,
            }
            // Brief spin before sleeping: the consumer usually frees a
            // slot within microseconds.
            if spins < 64 {
                spins += 1;
                damaris_sync::hint::spin_loop();
                continue;
            }
            spins = 0;
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(TrySendError::Full(value));
            }
            let inner = &self.inner;
            let ring = &inner.shards[self.shard].ring;
            inner.sleep(&inner.sleeping_producers, &inner.not_full, deadline, || {
                ring.len() < ring.capacity() || inner.closed.load(Ordering::SeqCst)
            });
        }
    }
}

/// Consumer half of a [`ShardedChannel`]: drains its owned shard set
/// first, then steals from any other shard.
///
/// Pops are batched: acquiring a shard's drain guard pulls up to
/// `DRAIN_BATCH` events into a local buffer, amortizing the guard CAS
/// and the shard scan to a fraction of an atomic op per event.
pub struct StealingConsumer<T> {
    inner: Arc<ShardedInner<T>>,
    core: usize,
    n_cores: usize,
    /// Rotating start offset within the owned set (fairness).
    next_owned: usize,
    /// Rotating start offset for steal scans.
    next_steal: usize,
    /// Events already popped from a shard, not yet handed to the caller.
    pending: std::collections::VecDeque<T>,
}

/// Maximum events pulled from one shard per guard acquisition. Bounds how
/// stale the per-shard fairness rotation can get while keeping the
/// per-event cost O(1).
const DRAIN_BATCH: usize = 64;

impl<T: Send> StealingConsumer<T> {
    /// The closed-and-drained verdict, raceproof against in-flight
    /// pushes: rings empty, then every push guard observed free, then
    /// rings empty *again*. A producer that passed its in-guard closed
    /// check either still holds its guard (we rescan) or released it
    /// after its push landed (the second scan sees the event).
    fn all_drained(&self) -> bool {
        let shards = &self.inner.shards;
        self.inner.orphan_count.load(Ordering::SeqCst) == 0
            && shards.iter().all(|s| s.ring.is_empty())
            && shards.iter().all(|s| !s.push_guard.load(Ordering::SeqCst))
            && shards.iter().all(|s| s.ring.is_empty())
    }

    /// Batch-pop from `shard` into `pending` if its drain guard can be
    /// taken right now. Returns how many events were pulled.
    fn try_drain(&mut self, shard: usize) -> usize {
        let s = &self.inner.shards[shard];
        // Cheap pre-check without the guard: empty shards are skipped for
        // one Acquire load, keeping scans over many idle clients cheap.
        if s.ring.is_empty() {
            return 0;
        }
        if s.drain_guard.swap(true, Ordering::Acquire) {
            return 0; // another consumer holds this shard
        }
        let mut pulled = 0;
        while pulled < DRAIN_BATCH {
            match s.ring.try_pop() {
                Some(v) => {
                    self.pending.push_back(v);
                    pulled += 1;
                }
                None => break,
            }
        }
        s.drain_guard.store(false, Ordering::Release);
        if pulled > 0 {
            self.inner.space_doorbell();
        }
        pulled
    }

    /// One full sweep: own pending batch, orphaned batches of dropped
    /// consumers, then owned shards (starting at a rotating offset),
    /// then a steal pass over all remaining shards.
    fn sweep(&mut self) -> Option<T> {
        if let Some(v) = self.pending.pop_front() {
            return Some(v);
        }
        if self.inner.orphan_count.load(Ordering::SeqCst) > 0 {
            let mut orphans = self.inner.orphans.lock();
            let take = orphans.len().min(DRAIN_BATCH);
            self.pending.extend(orphans.drain(..take));
            drop(orphans);
            if take > 0 {
                self.inner.orphan_count.fetch_sub(take, Ordering::SeqCst);
                return self.pending.pop_front();
            }
        }
        let n = self.inner.shards.len();
        let stride = self.n_cores;
        let lane = self.core % stride;
        let owned_count = n / stride + usize::from(lane < n % stride);
        for i in 0..owned_count {
            let shard = ((self.next_owned + i) % owned_count) * stride + lane;
            if self.try_drain(shard) > 0 {
                self.next_owned = (self.next_owned + i + 1) % owned_count;
                return self.pending.pop_front();
            }
        }
        for i in 0..n {
            let shard = (self.next_steal + i) % n;
            if shard % stride == lane {
                continue; // already swept above
            }
            if self.try_drain(shard) > 0 {
                self.next_steal = (shard + 1) % n;
                return self.pending.pop_front();
            }
        }
        None
    }

    fn recv_deadline(&mut self, deadline: Option<Instant>) -> Result<T, TryRecvError> {
        let mut spins = 0u32;
        loop {
            if let Some(v) = self.sweep() {
                return Ok(v);
            }
            // Closed and the sweep found nothing: check emptiness under
            // SeqCst closed-read to decide Closed vs keep-draining.
            if self.inner.closed.load(Ordering::SeqCst) {
                if self.all_drained() {
                    return Err(TryRecvError::Closed);
                }
                // Items remain but another consumer holds the guards;
                // loop again rather than sleeping.
                damaris_sync::hint::spin_loop();
                continue;
            }
            if spins < 64 {
                spins += 1;
                damaris_sync::hint::spin_loop();
                continue;
            }
            spins = 0;
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(TryRecvError::Empty);
            }
            let inner = &self.inner;
            inner.sleep(
                &inner.sleeping_consumers,
                &inner.not_empty,
                deadline,
                || {
                    inner.shards.iter().any(|s| !s.ring.is_empty())
                        || inner.orphan_count.load(Ordering::SeqCst) > 0
                        || inner.closed.load(Ordering::SeqCst)
                },
            );
        }
    }
}

impl<T> Drop for StealingConsumer<T> {
    /// Hand any batch-popped but undelivered events to the surviving
    /// consumers. Without this, a consumer dropped mid-batch (e.g. a
    /// dedicated-core thread unwinding out of a panicking plugin) would
    /// silently destroy events the producers were told were delivered.
    fn drop(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let mut orphans = self.inner.orphans.lock();
        let moved = self.pending.len();
        orphans.extend(self.pending.drain(..));
        drop(orphans);
        self.inner.orphan_count.fetch_add(moved, Ordering::SeqCst);
        // Wake everyone: a sleeping consumer must adopt these even if no
        // new push ever rings the doorbell again.
        self.inner.wake_everyone();
    }
}

impl<T: Send + 'static> EventConsumer<T> for StealingConsumer<T> {
    fn recv(&mut self) -> Result<T, RecvError> {
        match self.recv_deadline(None) {
            Ok(v) => Ok(v),
            Err(TryRecvError::Closed) => Err(RecvError),
            Err(TryRecvError::Empty) => unreachable!("untimed recv cannot time out"),
        }
    }

    fn try_recv(&mut self) -> Result<T, TryRecvError> {
        if let Some(v) = self.sweep() {
            return Ok(v);
        }
        if self.inner.closed.load(Ordering::SeqCst) && self.all_drained() {
            Err(TryRecvError::Closed)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<T, TryRecvError> {
        // Overflow-safe: absurd timeouts become an untimed wait.
        self.recv_deadline(Instant::now().checked_add(timeout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn sharded_fifo_per_producer_single_consumer() {
        let ch: ShardedChannel<(usize, usize)> = ShardedChannel::new(3, 16);
        let producers: Vec<_> = (0..3).map(|p| ch.producer(p)).collect();
        for i in 0..5 {
            for (p, prod) in producers.iter().enumerate() {
                prod.send((p, i)).unwrap();
            }
        }
        ch.close();
        let mut consumer = ch.consumer(0, 1);
        let mut last = [None::<usize>; 3];
        let mut count = 0;
        while let Ok((p, i)) = consumer.recv() {
            if let Some(prev) = last[p] {
                assert!(i > prev, "per-producer FIFO violated: {prev} then {i}");
            }
            last[p] = Some(i);
            count += 1;
        }
        assert_eq!(count, 15);
        assert_eq!(consumer.try_recv(), Err(TryRecvError::Closed));
    }

    #[test]
    fn sharded_close_then_drain_then_error() {
        let ch: ShardedChannel<u32> = ShardedChannel::new(2, 8);
        let p = ch.producer(0);
        p.send(1).unwrap();
        p.send(2).unwrap();
        EventChannel::close(&ch);
        assert!(matches!(p.send(3), Err(SendError(3))));
        assert!(matches!(p.try_send(4), Err(TrySendError::Closed(4))));
        let mut c = ch.consumer(0, 1);
        assert_eq!(c.recv().unwrap(), 1);
        assert_eq!(c.recv().unwrap(), 2);
        assert_eq!(c.recv(), Err(RecvError));
    }

    #[test]
    fn sharded_full_shard_try_send() {
        let ch: ShardedChannel<u32> = ShardedChannel::new(1, 2);
        let p = ch.producer(0);
        p.try_send(1).unwrap();
        p.try_send(2).unwrap();
        assert_eq!(p.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(
            p.send_timeout(3, Duration::from_millis(5)),
            Err(TrySendError::Full(3))
        );
        assert_eq!(EventChannel::pressure(&ch), 1.0);
        let mut c = ch.consumer(0, 1);
        assert_eq!(c.try_recv(), Ok(1));
        assert_eq!(c.try_recv(), Ok(2));
        assert_eq!(c.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn sharded_zero_capacity_panics() {
        let _ = ShardedChannel::<u8>::new(1, 0);
    }

    #[test]
    fn sharded_recv_timeout_empty() {
        let ch: ShardedChannel<u32> = ShardedChannel::new(2, 4);
        let mut c = ch.consumer(0, 1);
        assert_eq!(
            c.recv_timeout(Duration::from_millis(5)),
            Err(TryRecvError::Empty)
        );
        // Degenerate huge timeouts must not panic (Instant overflow) and
        // still succeed when the channel can make progress at once.
        let p = ch.producer(1);
        p.send_timeout(7, Duration::MAX).unwrap();
        assert_eq!(c.recv_timeout(Duration::from_secs(u64::MAX)).unwrap(), 7);
        // And a huge-timeout waiter wakes on close rather than sleeping on.
        let ch2 = ch.clone();
        let waiter = thread::spawn(move || ch2.consumer(0, 1).recv_timeout(Duration::MAX));
        thread::sleep(Duration::from_millis(20));
        EventChannel::close(&ch);
        assert_eq!(waiter.join().unwrap(), Err(TryRecvError::Closed));
    }

    #[test]
    fn sharded_blocking_send_wakes_on_drain() {
        let ch: ShardedChannel<u32> = ShardedChannel::new(1, 2);
        let p = ch.producer(0);
        p.send(0).unwrap();
        p.send(1).unwrap();
        let p2 = p.clone();
        let sender = thread::spawn(move || p2.send(2));
        thread::sleep(Duration::from_millis(20));
        let mut c = ch.consumer(0, 1);
        assert_eq!(c.recv().unwrap(), 0);
        sender.join().unwrap().unwrap();
        assert_eq!(c.recv().unwrap(), 1);
        assert_eq!(c.recv().unwrap(), 2);
    }

    #[test]
    fn sharded_close_wakes_blocked_parties() {
        // Sender blocked on a full shard nobody drains.
        let full: ShardedChannel<u32> = ShardedChannel::new(1, 2);
        let p = full.producer(0);
        p.send(0).unwrap();
        p.send(1).unwrap();
        let p2 = p.clone();
        let blocked_sender = thread::spawn(move || p2.send(2));
        // Receiver blocked on a channel nobody feeds.
        let empty: ShardedChannel<u32> = ShardedChannel::new(1, 2);
        let e2 = empty.clone();
        let blocked_receiver = thread::spawn(move || e2.consumer(0, 1).recv());
        thread::sleep(Duration::from_millis(20));
        EventChannel::close(&full);
        EventChannel::close(&empty);
        assert_eq!(blocked_sender.join().unwrap(), Err(SendError(2)));
        assert_eq!(blocked_receiver.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn stealing_consumer_reaches_unowned_shards() {
        // 4 shards, 2 consumers: consumer 0 owns shards 0 and 2. Fill only
        // shard 1 (owned by consumer 1, which never runs) — consumer 0
        // must steal everything.
        let ch: ShardedChannel<u32> = ShardedChannel::new(4, 8);
        let p = ch.producer(1);
        for i in 0..6 {
            p.send(i).unwrap();
        }
        ch.close();
        let mut c0 = ch.consumer(0, 2);
        let drained: Vec<u32> = std::iter::from_fn(|| c0.recv().ok()).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn producer_overflow_maps_to_existing_shards() {
        let ch: ShardedChannel<u32> = ShardedChannel::new(2, 4);
        let p5 = ch.producer(5); // 5 % 2 == shard 1
        assert_eq!(p5.shard(), 1);
        p5.send(99).unwrap();
        assert_eq!(ch.shard_len(1), 1);
    }

    #[test]
    fn dropped_consumer_batch_is_adopted_not_lost() {
        // Consumer A batch-pops several events into its local buffer but
        // only delivers one, then dies (plugin panic unwinds the server
        // thread). Consumer B must still receive the rest.
        let ch: ShardedChannel<u32> = ShardedChannel::new(2, 16);
        let p = ch.producer(0);
        for i in 0..5 {
            p.send(i).unwrap();
        }
        let mut a = ch.consumer(0, 2);
        assert_eq!(a.try_recv().unwrap(), 0, "A delivers one of its batch");
        drop(a); // 1..=4 were already popped into A's pending buffer
        assert_eq!(EventChannel::len(&ch), 4, "orphans still count as queued");
        EventChannel::close(&ch);
        let mut b = ch.consumer(1, 2);
        let rest: Vec<u32> = std::iter::from_fn(|| b.recv().ok()).collect();
        assert_eq!(rest, vec![1, 2, 3, 4], "B adopts A's stranded batch");
    }

    #[test]
    fn mpmc_no_loss_no_duplication_sharded() {
        // 4 producers × 500 events, 3 stealing consumers, every event
        // seen exactly once.
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 3;
        const PER_PRODUCER: usize = 500;
        let ch: ShardedChannel<usize> = ShardedChannel::new(PRODUCERS, 16);
        let mut producers = Vec::new();
        for p in 0..PRODUCERS {
            let prod = ch.producer(p);
            producers.push(thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    prod.send(p * PER_PRODUCER + i).unwrap();
                }
            }));
        }
        let mut consumers = Vec::new();
        for core in 0..CONSUMERS {
            let mut cons = ch.consumer(core, CONSUMERS);
            consumers.push(thread::spawn(move || {
                let mut seen = Vec::new();
                while let Ok(v) = cons.recv() {
                    seen.push(v);
                }
                seen
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        EventChannel::close(&ch);
        let mut all: Vec<usize> = Vec::new();
        for c in consumers {
            all.extend(c.join().unwrap());
        }
        all.sort_unstable();
        let expected: Vec<usize> = (0..PRODUCERS * PER_PRODUCER).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn paced_sends_never_lose_a_wakeup() {
        // Each send waits for the previous event's ack, so the consumer
        // runs out of spins and goes to sleep before most sends: each of
        // them must wake it through the doorbell. The consumer waits
        // untimed; a lost wakeup parks it, and the watchdog on the acks
        // reports that instead of hanging the suite.
        const SENDS: u32 = 5_000;
        let ch: ShardedChannel<u32> = ShardedChannel::new(1, 8);
        let mut c = ch.consumer(0, 1);
        let (ack_tx, ack_rx) = std::sync::mpsc::channel();
        let consumer = thread::spawn(move || {
            while let Ok(v) = c.recv() {
                ack_tx.send(v).unwrap();
            }
        });
        let p = ch.producer(0);
        let watchdog = Instant::now() + Duration::from_secs(30);
        for i in 0..SENDS {
            p.send(i).unwrap();
            let got = ack_rx
                .recv_timeout(watchdog.saturating_duration_since(Instant::now()))
                .unwrap_or_else(|_| panic!("event {i} never arrived (lost wakeup?)"));
            assert_eq!(got, i);
        }
        EventChannel::close(&ch);
        consumer.join().unwrap();
    }
}
