//! The event transport: how client events reach the dedicated core.
//!
//! Paper §III.B: "A shared message queue is used for the simulation
//! processes to send events to the dedicated cores. These events activate
//! the user-provided plugins. The message queue is also used for sending
//! events that inform dedicated cores of the state of the simulation, and
//! help Damaris adapting its behavior."
//!
//! [`ShardedChannel`] is that queue, built so that one client's post never
//! waits on another's: one cache-line-padded lock-free SPSC ring per
//! client, drained by the node's one dedicated core. The consumer pops
//! straight from the rings, starting each scan one shard past the last one
//! it popped from, so a busy client cannot starve the others. A post
//! touches only the client's own ring (one slot write, one release store)
//! and one `SeqCst` fence before the doorbell check.
//!
//! It keeps the semantics the middleware relies on: per-client FIFO, no
//! loss, no duplication, explicit [`EventChannel::close`] with
//! drain-then-error on the consumer side, and blocking/timed/non-blocking
//! variants on both ends. Order *across* clients is not kept; the server
//! layer does not need it (it tolerates cross-client reordering via
//! expected-block accounting).
//!
//! One consumer at a time: the rings allow one popper each, so
//! [`EventChannel::consumer`] panics while another consumer of the same
//! channel is alive. A consumer that is dropped holds nothing back — every
//! undelivered event is still in its ring for the next consumer.
//!
//! The bound matters: aggregate occupancy is the second backpressure
//! signal (after segment occupancy) consumed by the iteration-skip policy.
//!
//! ## Sleeping
//!
//! The consumer with nothing to drain, and a producer whose shard is full,
//! sleep on a condvar until a doorbell wakes them or their caller's
//! deadline passes; there is no timed nap. The sleeper takes the sleep
//! lock, registers in a sleeper count, issues a `SeqCst` fence and
//! re-checks for work *under the lock* before waiting. The waker makes its
//! change (push, pop, close), issues a `SeqCst` fence, and notifies under
//! the lock only when the sleeper count is non-zero.
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

/// A transport carrying events from per-client producers to the node's
/// dedicated-core consumer.
pub trait EventChannel<T: Send>: Clone + Send + Sync + 'static {
    /// Client-side handle; cheap to clone, owned per client.
    type Producer: EventProducer<T>;
    /// Dedicated-core-side handle.
    type Consumer: EventConsumer<T>;

    /// Handle for client `client` (its rank within the node).
    fn producer(&self, client: usize) -> Self::Producer;

    /// The dedicated core's handle, which drains every client's events.
    /// A node has one dedicated core, so `(core, n_cores)` must be
    /// `(0, 1)`; both parameters stay only until the benchmark harness
    /// stops passing them.
    ///
    /// # Panics
    ///
    /// If `(core, n_cores)` is not `(0, 1)`, or while another consumer of
    /// this channel is alive.
    fn consumer(&self, core: usize, n_cores: usize) -> Self::Consumer;

    /// Close the channel: subsequent sends fail, the consumer drains what
    /// remains and then sees `Closed`/`RecvError`.
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

/// One client's shard: its ring plus the push guard.
struct Shard<T> {
    ring: SpscRing<T>,
    /// Serializes pushes from clones of the same client handle. Held for
    /// one ring push — an uncontended CAS in the common one-handle case.
    push_guard: CachePadded<AtomicBool>,
}

struct ShardedInner<T> {
    shards: Box<[Shard<T>]>,
    closed: AtomicBool,
    /// Whether a consumer is alive: the rings' one-popper contract. Taken
    /// by [`EventChannel::consumer`], given back by the consumer's `Drop`.
    consumer_live: AtomicBool,
    /// Consumers currently asleep waiting for events (zero or one).
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

/// Sharded lock-free event transport: per-client SPSC rings drained by
/// one consumer. See the module docs for the design.
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
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ShardedChannel {
            inner: Arc::new(ShardedInner {
                shards,
                closed: AtomicBool::new(false),
                consumer_live: AtomicBool::new(false),
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
        self.inner.shards.iter().map(|s| s.ring.len()).sum()
    }
}

impl<T> ShardedInner<T> {
    /// Wake a sleeping consumer after a push. Cheap when nobody sleeps:
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

    /// Close notifies under the lock, so a sleeper between its re-check
    /// and its wait cannot miss it.
    fn wake_everyone(&self) {
        let _g = self.sleep_lock.lock();
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

impl<T: Send + 'static> EventChannel<T> for ShardedChannel<T> {
    type Producer = ShardProducer<T>;
    type Consumer = ShardConsumer<T>;

    /// Clients beyond the shard count share the last shards
    /// (`client % shards`); correctness is preserved by the push guard,
    /// only the lock-free property of the extra clients degrades.
    fn producer(&self, client: usize) -> ShardProducer<T> {
        ShardProducer {
            inner: self.inner.clone(),
            shard: client % self.inner.shards.len(),
        }
    }

    fn consumer(&self, core: usize, n_cores: usize) -> ShardConsumer<T> {
        assert_eq!(
            (core, n_cores),
            (0, 1),
            "a node has one dedicated core: the consumer is core 0 of 1"
        );
        // Acquire pairs with the Release in `ShardConsumer::drop`: the
        // previous consumer's pops happen-before this one's.
        assert!(
            !self.inner.consumer_live.swap(true, Ordering::Acquire),
            "this channel already has a live consumer; its rings allow one popper"
        );
        ShardConsumer {
            inner: self.inner.clone(),
            next: 0,
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

/// Consumer half of a [`ShardedChannel`]: the one handle that pops from
/// every client's ring.
pub struct ShardConsumer<T> {
    inner: Arc<ShardedInner<T>>,
    /// The shard the next scan starts at: one past the last shard popped,
    /// so the scan rotates over the clients.
    next: usize,
}

impl<T: Send> ShardConsumer<T> {
    /// The closed-and-drained verdict, raceproof against in-flight
    /// pushes: rings empty, then every push guard observed free, then
    /// rings empty *again*. A producer that passed its in-guard closed
    /// check either still holds its guard (we rescan) or released it
    /// after its push landed (the second scan sees the event).
    fn all_drained(&self) -> bool {
        let shards = &self.inner.shards;
        shards.iter().all(|s| s.ring.is_empty())
            && shards.iter().all(|s| !s.push_guard.load(Ordering::SeqCst))
            && shards.iter().all(|s| s.ring.is_empty())
    }

    /// Pop one event from the first non-empty shard at or after `next`.
    fn sweep(&mut self) -> Option<T> {
        let n = self.inner.shards.len();
        for i in 0..n {
            let shard = (self.next + i) % n;
            if let Some(v) = self.inner.shards[shard].ring.try_pop() {
                self.next = (shard + 1) % n;
                self.inner.space_doorbell();
                return Some(v);
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
                // A producer still holds its push guard, or its event
                // landed after the sweep: sweep again rather than sleeping.
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
                        || inner.closed.load(Ordering::SeqCst)
                },
            );
        }
    }
}

impl<T> Drop for ShardConsumer<T> {
    /// Let the next consumer in. Nothing else to hand over: every event
    /// not yet returned is still in its ring.
    fn drop(&mut self) {
        self.inner.consumer_live.store(false, Ordering::Release);
    }
}

impl<T: Send + 'static> EventConsumer<T> for ShardConsumer<T> {
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
        drop(c);
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
    fn producer_overflow_maps_to_existing_shards() {
        let ch: ShardedChannel<u32> = ShardedChannel::new(2, 4);
        let p5 = ch.producer(5); // 5 % 2 == shard 1
        assert_eq!(p5.shard(), 1);
        p5.send(99).unwrap();
        assert_eq!(ch.shard_len(1), 1);
    }

    #[test]
    fn consumer_created_after_a_drop_receives_the_rest() {
        // Consumer A delivers one event, then dies (a plugin panic unwinds
        // the server thread). Consumer B, created afterwards, must still
        // receive every other event: nothing sat in A when it went.
        let ch: ShardedChannel<u32> = ShardedChannel::new(2, 16);
        for i in 0..6 {
            ch.producer(i as usize % 2).send(i).unwrap();
        }
        let mut a = ch.consumer(0, 1);
        let first = a.try_recv().unwrap();
        drop(a);
        assert_eq!(EventChannel::len(&ch), 5, "the rest is still queued");
        EventChannel::close(&ch);
        let mut b = ch.consumer(0, 1);
        let mut all: Vec<u32> = std::iter::from_fn(|| b.recv().ok()).collect();
        all.push(first);
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4, 5], "none lost, none duplicated");
    }

    #[test]
    #[should_panic(expected = "already has a live consumer")]
    fn second_live_consumer_panics() {
        let ch: ShardedChannel<u32> = ShardedChannel::new(2, 4);
        let _first = ch.consumer(0, 1);
        let _second = ch.consumer(0, 1);
    }

    #[test]
    #[should_panic(expected = "one dedicated core")]
    fn consumer_other_than_core_0_of_1_panics() {
        let _ = ShardedChannel::<u32>::new(2, 4).consumer(1, 2);
    }

    #[test]
    fn mpsc_no_loss_no_duplication_sharded() {
        // 4 producers × 500 events into one consumer: every event seen
        // exactly once, in order per producer.
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 500;
        let ch: ShardedChannel<usize> = ShardedChannel::new(PRODUCERS, 16);
        let mut cons = ch.consumer(0, 1);
        let consumer = thread::spawn(move || {
            let mut seen = Vec::new();
            while let Ok(v) = cons.recv() {
                seen.push(v);
            }
            seen
        });
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let prod = ch.producer(p);
                thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        prod.send(p * PER_PRODUCER + i).unwrap();
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        EventChannel::close(&ch);
        let seen = consumer.join().unwrap();
        for p in 0..PRODUCERS {
            let own: Vec<usize> = seen
                .iter()
                .copied()
                .filter(|v| v / PER_PRODUCER == p)
                .collect();
            assert!(own.windows(2).all(|w| w[0] < w[1]), "producer {p} FIFO");
        }
        let mut all = seen;
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
