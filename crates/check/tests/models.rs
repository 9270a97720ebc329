//! Bounded models of the five riskiest lock-free protocols in
//! `damaris_shm`, exhaustively explored by the in-tree model checker.
//!
//! Each model mirrors the *exact* memory orderings of the production
//! code it cites (same loads, stores, CASes, fences, locks in the same
//! program order) over a bounded instance — capacity 1–2, one to three
//! items, two to three threads — so the DFS explores every schedule
//! within the preemption bound, including stale relaxed/acquire reads.
//! The production sources cite these tests next to each ordering they
//! prove; weakening one of those orderings makes the paired
//! `*_is_caught` teeth test (or the model itself) fail.
//!
//! Run with `cargo check-models` (alias for
//! `cargo test -p damaris-check -- --nocapture`) to see the explored
//! schedule counts.

use damaris_sync::model::{
    self,
    sync::{fence, AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, Ordering},
    thread, Builder, FailureKind, Schedule,
};
use std::str::FromStr;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// 1. SPSC ring: no loss, no duplication, strict FIFO.
//    Mirrors `shm/spsc.rs` `SpscRing::{try_push, try_pop}`:
//    push = tail Relaxed load, head Acquire load, slot write,
//           tail Release store;
//    pop  = head Relaxed load, tail Acquire load, slot read,
//           head Release store.
// ---------------------------------------------------------------------------

/// Capacity-2 ring over model atomics; slot accesses are Relaxed so the
/// checker can observe a stale slot unless the tail/head Release/Acquire
/// pair actually publishes it.
struct ModelRing {
    slots: [AtomicUsize; 2],
    head: AtomicUsize,
    tail: AtomicUsize,
}

impl ModelRing {
    const CAP: usize = 2;

    fn new() -> Self {
        ModelRing {
            slots: [AtomicUsize::new(0), AtomicUsize::new(0)],
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    fn try_push(&self, value: usize) -> bool {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) >= Self::CAP {
            return false;
        }
        self.slots[tail % Self::CAP].store(value, Ordering::Relaxed);
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        true
    }

    /// `SpscRing::is_empty`: both indices Acquire, from any thread.
    fn is_empty(&self) -> bool {
        let tail = self.tail.load(Ordering::Acquire);
        let head = self.head.load(Ordering::Acquire);
        tail == head
    }

    fn try_pop(&self) -> Option<usize> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let value = self.slots[head % Self::CAP].load(Ordering::Relaxed);
        self.head.store(head.wrapping_add(1), Ordering::Release);
        Some(value)
    }
}

#[test]
fn spsc_no_loss_no_duplication() {
    const ITEMS: usize = 3; // > capacity, so the full/retry path runs
    let report = model::model(|| {
        let ring = Arc::new(ModelRing::new());
        let r2 = ring.clone();
        let producer = thread::spawn(move || {
            for v in 1..=ITEMS {
                while !r2.try_push(v) {
                    thread::yield_now();
                }
            }
        });
        let mut seen = Vec::new();
        while seen.len() < ITEMS {
            match ring.try_pop() {
                Some(v) => seen.push(v),
                None => thread::yield_now(),
            }
        }
        producer.join().unwrap();
        assert_eq!(seen, vec![1, 2, 3], "FIFO, no loss, no duplication");
        assert_eq!(ring.try_pop(), None, "no phantom items");
    });
    println!(
        "spsc_no_loss_no_duplication: {} schedules explored",
        report.executions
    );
    assert!(report.executions > 1);
}

/// Teeth: downgrade the producer's tail publication to Relaxed and the
/// checker must catch the consumer reading a stale slot — proof that the
/// Release in `SpscRing::try_push` is load-bearing.
#[test]
fn spsc_relaxed_tail_publication_is_caught() {
    let report = Builder::exhaustive().check(|| {
        let ring = Arc::new(ModelRing::new());
        let r2 = ring.clone();
        let producer = thread::spawn(move || {
            // try_push with the BUG: tail stored Relaxed, not Release.
            let tail = r2.tail.load(Ordering::Relaxed);
            let head = r2.head.load(Ordering::Acquire);
            assert!(tail.wrapping_sub(head) < ModelRing::CAP);
            r2.slots[tail % ModelRing::CAP].store(7, Ordering::Relaxed);
            r2.tail.store(tail.wrapping_add(1), Ordering::Relaxed);
        });
        if let Some(v) = ring.try_pop() {
            assert_eq!(v, 7, "stale slot read: publication not ordered");
        }
        producer.join().unwrap();
    });
    let failure = report.failure.expect("stale slot read must be found");
    assert!(matches!(failure.kind, FailureKind::Panic(_)));
    // The reported schedule replays to the same failure (replayable-seed
    // contract for every checker find).
    let replay = Builder::replay(failure.schedule).check(|| {
        let ring = Arc::new(ModelRing::new());
        let r2 = ring.clone();
        let producer = thread::spawn(move || {
            let tail = r2.tail.load(Ordering::Relaxed);
            let head = r2.head.load(Ordering::Acquire);
            assert!(tail.wrapping_sub(head) < ModelRing::CAP);
            r2.slots[tail % ModelRing::CAP].store(7, Ordering::Relaxed);
            r2.tail.store(tail.wrapping_add(1), Ordering::Relaxed);
        });
        if let Some(v) = ring.try_pop() {
            assert_eq!(v, 7, "stale slot read: publication not ordered");
        }
        producer.join().unwrap();
    });
    assert!(replay.failure.is_some());
}

// ---------------------------------------------------------------------------
// 2. Transport push-guard: send-vs-close handshake.
//    Mirrors `shm/transport.rs` `guarded_push` (guard SeqCst swap, closed
//    SeqCst load inside the guard, guard Release store) against
//    `close` + `all_drained` (closed SeqCst store; verdict = ring empty →
//    guard free (SeqCst load) → ring empty again). Dekker-style
//    store/load on two locations: both sides need SeqCst.
// ---------------------------------------------------------------------------

struct PushGuardModel {
    guard: AtomicBool,
    closed: AtomicBool,
    /// One-slot mailbox standing in for the SPSC ring (whose own
    /// internals model 1 covers): 0 = empty.
    ring: AtomicUsize,
}

impl PushGuardModel {
    fn new() -> Self {
        PushGuardModel {
            guard: AtomicBool::new(false),
            closed: AtomicBool::new(false),
            ring: AtomicUsize::new(0),
        }
    }

    /// `guarded_push` with a parameterized ordering for the closed load.
    fn guarded_push(&self, value: usize, closed_load: Ordering) -> bool {
        while self.guard.swap(true, Ordering::SeqCst) {
            thread::yield_now();
        }
        if self.closed.load(closed_load) {
            self.guard.store(false, Ordering::Release);
            return false;
        }
        self.ring.store(value, Ordering::Release);
        self.guard.store(false, Ordering::Release);
        true
    }

    /// `close` + the consumer's closed-and-drained verdict; returns the
    /// number of items drained.
    fn close_and_drain(&self) -> usize {
        self.closed.store(true, Ordering::SeqCst);
        let mut drained = 0;
        loop {
            if self.ring.swap(0, Ordering::Acquire) != 0 {
                drained += 1;
            }
            // all_drained: ring empty → guard free → ring empty again.
            if self.ring.load(Ordering::Acquire) == 0
                && !self.guard.load(Ordering::SeqCst)
                && self.ring.load(Ordering::Acquire) == 0
            {
                return drained;
            }
            thread::yield_now();
        }
    }
}

#[test]
fn push_guard_send_vs_close() {
    let report = model::model(|| {
        let ch = Arc::new(PushGuardModel::new());
        let c2 = ch.clone();
        let producer = thread::spawn(move || c2.guarded_push(42, Ordering::SeqCst));
        let drained = ch.close_and_drain();
        let accepted = producer.join().unwrap();
        // The protocol's whole point: an accepted send is never lost —
        // the closing consumer always drains it before its verdict.
        assert_eq!(
            drained, accepted as usize,
            "accepted sends drain; rejected sends leave nothing behind"
        );
        assert_eq!(ch.ring.load(Ordering::Acquire), 0, "nothing left behind");
    });
    println!(
        "push_guard_send_vs_close: {} schedules explored",
        report.executions
    );
    assert!(report.executions > 1);
}

/// Teeth: the `closed` check inside the guard downgraded to Relaxed lets
/// a producer miss the close and push an event the verdict never drains —
/// the checker finds the lost event, proving the SeqCst in
/// `guarded_push` is load-bearing.
#[test]
fn push_guard_relaxed_closed_check_is_caught() {
    let report = Builder::exhaustive().check(|| {
        let ch = Arc::new(PushGuardModel::new());
        let c2 = ch.clone();
        let producer = thread::spawn(move || c2.guarded_push(42, Ordering::Relaxed));
        let drained = ch.close_and_drain();
        let accepted = producer.join().unwrap();
        assert_eq!(drained, accepted as usize, "lost event");
    });
    assert!(
        report.failure.is_some(),
        "relaxed closed-check must lose an event in some schedule"
    );
}

// ---------------------------------------------------------------------------
// 3. Vyukov queue: pop-vs-pop claim arbitration.
//    Mirrors `shm/arena.rs` `OffsetQueue::{push, pop}`: per-slot seq
//    Acquire load / Release store, head/tail CAS Relaxed — two
//    concurrent poppers must claim distinct slots and see the values the
//    pushers published.
// ---------------------------------------------------------------------------

struct ModelVyukov {
    seq: [AtomicUsize; 2],
    /// Slot payloads, Relaxed: visibility rides the seq Release/Acquire.
    val: [AtomicUsize; 2],
    head: AtomicUsize,
    tail: AtomicUsize,
}

impl ModelVyukov {
    const MASK: usize = 1;

    fn new() -> Self {
        ModelVyukov {
            seq: [AtomicUsize::new(0), AtomicUsize::new(1)],
            val: [AtomicUsize::new(0), AtomicUsize::new(0)],
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    fn push(&self, value: usize) -> bool {
        let mut pos = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = pos & Self::MASK;
            let seq = self.seq[slot].load(Ordering::Acquire);
            match seq as isize - pos as isize {
                0 => {
                    match self.tail.compare_exchange_weak(
                        pos,
                        pos + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            self.val[slot].store(value, Ordering::Relaxed);
                            self.seq[slot].store(pos + 1, Ordering::Release);
                            return true;
                        }
                        Err(actual) => pos = actual,
                    }
                }
                d if d < 0 => return false,
                _ => pos = self.tail.load(Ordering::Relaxed),
            }
        }
    }

    fn pop(&self) -> Option<usize> {
        let mut pos = self.head.load(Ordering::Relaxed);
        loop {
            let slot = pos & Self::MASK;
            let seq = self.seq[slot].load(Ordering::Acquire);
            match seq as isize - (pos + 1) as isize {
                0 => {
                    match self.head.compare_exchange_weak(
                        pos,
                        pos + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            let value = self.val[slot].load(Ordering::Relaxed);
                            self.seq[slot].store(pos + Self::MASK + 1, Ordering::Release);
                            return Some(value);
                        }
                        Err(actual) => pos = actual,
                    }
                }
                d if d < 0 => return None,
                _ => pos = self.head.load(Ordering::Relaxed),
            }
        }
    }
}

#[test]
fn vyukov_pop_vs_pop_claim_arbitration() {
    let report = model::model(|| {
        let q = Arc::new(ModelVyukov::new());
        assert!(q.push(10) && q.push(20), "two pushes fit capacity 2");
        let (qa, qb) = (q.clone(), q.clone());
        let a = thread::spawn(move || qa.pop());
        let b = thread::spawn(move || qb.pop());
        let (ra, rb) = (a.join().unwrap(), b.join().unwrap());
        // Claim arbitration: the two poppers get the two distinct items
        // (FIFO says a's claim and b's claim cover {10, 20} exactly) —
        // no slot claimed twice, no value lost or torn.
        let mut got = vec![
            ra.expect("queue held 2 items"),
            rb.expect("queue held 2 items"),
        ];
        got.sort_unstable();
        assert_eq!(got, vec![10, 20], "distinct claims, published values");
        assert_eq!(q.pop(), None, "exactly two items existed");
    });
    println!(
        "vyukov_pop_vs_pop_claim_arbitration: {} schedules explored",
        report.executions
    );
    assert!(report.executions > 1);
}

/// Teeth: the slot-seq publication downgraded to Relaxed lets a popper
/// claim a slot and read a stale (unpublished) value.
#[test]
fn vyukov_relaxed_seq_publication_is_caught() {
    let report = Builder::exhaustive().check(|| {
        let q = Arc::new(ModelVyukov::new());
        let q2 = q.clone();
        let pusher = thread::spawn(move || {
            // push(10) with the BUG: seq published Relaxed.
            let pos = q2.tail.load(Ordering::Relaxed);
            if q2.seq[pos & ModelVyukov::MASK].load(Ordering::Acquire) == pos
                && q2
                    .tail
                    .compare_exchange(pos, pos + 1, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
            {
                q2.val[pos & ModelVyukov::MASK].store(10, Ordering::Relaxed);
                q2.seq[pos & ModelVyukov::MASK].store(pos + 1, Ordering::Relaxed);
            }
        });
        if let Some(v) = q.pop() {
            assert_eq!(v, 10, "claimed slot must carry the published value");
        }
        pusher.join().unwrap();
    });
    assert!(
        report.failure.is_some(),
        "relaxed seq publication must leak a stale slot value"
    );
}

// ---------------------------------------------------------------------------
// 4. Eventcount: sleep-vs-notify, no lost wakeup.
//    Mirrors `shm/segment.rs` `signal_release` (gen SeqCst bump, waiters
//    SeqCst load, lock-touch, notify_all) against the `allocate_blocking`
//    wait side (gen SeqCst read → re-check free lists → register waiter →
//    SeqCst gen re-read → conditional sleep). Both SeqCst sites are a
//    Dekker store/load pattern; the model deadlocks if a wakeup can be
//    lost, and the checker detects deadlock.
// ---------------------------------------------------------------------------

struct EventcountModel {
    state: Mutex<()>,
    space_freed: Condvar,
    waiters: AtomicUsize,
    release_gen: AtomicU64,
    /// The "tier" being waited for: 1 = a block is free for the taking.
    freed: AtomicUsize,
}

impl EventcountModel {
    fn new() -> Self {
        EventcountModel {
            state: Mutex::new(()),
            space_freed: Condvar::new(),
            waiters: AtomicUsize::new(0),
            release_gen: AtomicU64::new(0),
            freed: AtomicUsize::new(0),
        }
    }

    /// `signal_release`, verbatim.
    fn signal_release(&self) {
        self.release_gen.fetch_add(1, Ordering::SeqCst);
        if self.waiters.load(Ordering::SeqCst) > 0 {
            drop(self.state.lock());
            self.space_freed.notify_all();
        }
    }

    /// The `allocate_blocking` wait loop, with the gen re-read ordering
    /// parameterized so the teeth test can break it.
    fn allocate_blocking(&self, reread: Ordering) {
        let mut fl = self.state.lock();
        loop {
            let gen = self.release_gen.load(Ordering::SeqCst);
            if self.freed.swap(0, Ordering::Acquire) == 1 {
                return; // tier re-check hit
            }
            self.waiters.fetch_add(1, Ordering::SeqCst);
            if self.release_gen.load(reread) == gen {
                self.space_freed.wait(&mut fl);
            }
            self.waiters.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

#[test]
fn eventcount_no_lost_wakeup() {
    let report = model::model(|| {
        let ec = Arc::new(EventcountModel::new());
        let e2 = ec.clone();
        let releaser = thread::spawn(move || {
            e2.freed.store(1, Ordering::Release);
            e2.signal_release();
        });
        // Terminates in every schedule iff no wakeup can be lost; a lost
        // wakeup parks this thread forever and the checker reports
        // deadlock.
        ec.allocate_blocking(Ordering::SeqCst);
        releaser.join().unwrap();
    });
    println!(
        "eventcount_no_lost_wakeup: {} schedules explored",
        report.executions
    );
    assert!(report.executions > 1);
}

// ---------------------------------------------------------------------------
// 5. Transport doorbell: sleep-vs-push, no lost wakeup.
//    Mirrors `shm/transport.rs` `ShardedInner::{doorbell, sleep}` as
//    `ring_doorbell` and `ShardConsumer::recv_deadline(None)` use them:
//    push (tail Release store) → SeqCst fence → sleeper-count SeqCst load
//    → lock + notify_all when non-zero, against sweep → lock → register
//    (SeqCst fetch_add) → SeqCst fence → re-check under the lock →
//    untimed wait → deregister. The fences order each side's store before
//    its load of the other side's location (Dekker); the lock makes the
//    re-check and the wait one step for the notifier. The 64-spin before
//    sleeping is left out: it only delays the same sleep.
// ---------------------------------------------------------------------------

struct DoorbellModel {
    ring: ModelRing,
    sleeping_consumers: AtomicUsize,
    sleep_lock: Mutex<()>,
    not_empty: Condvar,
}

impl DoorbellModel {
    fn new() -> Self {
        DoorbellModel {
            ring: ModelRing::new(),
            sleeping_consumers: AtomicUsize::new(0),
            sleep_lock: Mutex::new(()),
            not_empty: Condvar::new(),
        }
    }

    /// The ring push of `guarded_push`, then `ring_doorbell`.
    fn post(&self, value: usize) {
        assert!(self.ring.try_push(value), "model ring sized for every post");
        fence(Ordering::SeqCst);
        if self.sleeping_consumers.load(Ordering::SeqCst) > 0 {
            let _g = self.sleep_lock.lock();
            self.not_empty.notify_all();
        }
    }

    /// `ShardedInner::sleep` with the consumer's readiness check.
    fn sleep(&self) {
        let mut g = self.sleep_lock.lock();
        self.sleeping_consumers.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if self.ring.is_empty() {
            self.not_empty.wait(&mut g);
        }
        self.sleeping_consumers.fetch_sub(1, Ordering::SeqCst);
    }

    /// The broken twin: the same steps, but the re-check runs before the
    /// lock is taken, so a push and its doorbell can land in between and
    /// notify nobody.
    fn sleep_recheck_outside_lock(&self) {
        self.sleeping_consumers.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        let empty = self.ring.is_empty();
        let mut g = self.sleep_lock.lock();
        if empty {
            self.not_empty.wait(&mut g);
        }
        self.sleeping_consumers.fetch_sub(1, Ordering::SeqCst);
    }

    /// `recv_deadline(None)`: sweep, else sleep, and sweep again.
    fn recv(&self, sleep: fn(&Self)) -> usize {
        loop {
            if let Some(v) = self.ring.try_pop() {
                return v;
            }
            sleep(self);
        }
    }
}

/// Two paced posts against an untimed consumer: it terminates in every
/// schedule iff no wakeup can be lost (a lost one parks the consumer
/// forever and the checker reports deadlock).
fn doorbell_session(sleep: fn(&DoorbellModel)) {
    let db = Arc::new(DoorbellModel::new());
    let d2 = db.clone();
    let producer = thread::spawn(move || {
        d2.post(1);
        d2.post(2);
    });
    assert_eq!(db.recv(sleep), 1);
    assert_eq!(db.recv(sleep), 2);
    producer.join().unwrap();
}

#[test]
fn transport_doorbell_no_lost_wakeup() {
    let report = model::model(|| doorbell_session(DoorbellModel::sleep));
    println!(
        "transport_doorbell_no_lost_wakeup: {} schedules explored",
        report.executions
    );
    assert!(report.executions > 1);
}

/// A failing schedule of the broken twin found by the DFS, pinned as a
/// regression: replaying it must keep reproducing the deadlock. (The
/// teeth test below re-discovers one dynamically too.)
const PINNED_DOORBELL_SCHEDULE: &str =
    "0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.0.1.0.0.0.0.0.0.0.0.0.0.0.0.0.1.0.0.0.0.0.0.0";

fn broken_doorbell() {
    doorbell_session(DoorbellModel::sleep_recheck_outside_lock);
}

#[test]
fn transport_doorbell_recheck_outside_lock_is_caught() {
    let report = Builder::exhaustive().check(broken_doorbell);
    let failure = report
        .failure
        .expect("a re-check outside the lock must lose a wakeup");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock(_)),
        "lost wakeup surfaces as deadlock, got: {failure}"
    );
    println!(
        "transport_doorbell_recheck_outside_lock_is_caught: deadlock after {} schedules; replay: {}",
        report.executions, failure.schedule
    );
    let replay = Builder::replay(failure.schedule).check(broken_doorbell);
    assert!(matches!(
        replay.failure.expect("schedule replays").kind,
        FailureKind::Deadlock(_)
    ));
}

#[test]
fn pinned_doorbell_schedule_replays() {
    let schedule = Schedule::from_str(PINNED_DOORBELL_SCHEDULE).unwrap();
    let replay = Builder::replay(schedule).check(broken_doorbell);
    assert!(
        matches!(
            replay.failure.as_ref().map(|f| &f.kind),
            Some(FailureKind::Deadlock(_))
        ),
        "pinned schedule no longer reproduces the lost wakeup: {:?}",
        replay.failure
    );
}

// ---------------------------------------------------------------------------
// Seeded-bug regression: the checker has teeth, and its failing schedules
// replay deterministically.
// ---------------------------------------------------------------------------

/// The deliberately-broken eventcount: the waiter's gen re-read
/// downgraded to Relaxed can observe a stale generation, conclude no
/// release happened, and sleep through the (skipped) notify — a lost
/// wakeup. The checker must find it and report it as deadlock.
fn broken_eventcount() {
    let ec = Arc::new(EventcountModel::new());
    let e2 = ec.clone();
    let releaser = thread::spawn(move || {
        e2.freed.store(1, Ordering::Release);
        e2.signal_release();
    });
    ec.allocate_blocking(Ordering::Relaxed); // BUG: must be SeqCst
    releaser.join().unwrap();
}

/// The failing schedule of `broken_eventcount` discovered by the DFS,
/// pinned as a regression: replaying it must keep reproducing the
/// deadlock byte-for-byte. (Re-discovered dynamically below too, so this
/// stays honest if the checker's decision encoding ever changes —
/// `seeded_relaxed_gen_bug_is_caught` would then mint the new string.)
const PINNED_LOST_WAKEUP_SCHEDULE: &str = "0.0.0.1.0.0.0.0.0.1.0";

#[test]
fn seeded_relaxed_gen_bug_is_caught() {
    let report = Builder::exhaustive().check(broken_eventcount);
    let failure = report
        .failure
        .expect("relaxed gen re-read must lose a wakeup");
    assert!(
        matches!(failure.kind, FailureKind::Deadlock(_)),
        "lost wakeup surfaces as deadlock, got: {failure}"
    );
    println!(
        "seeded_relaxed_gen_bug_is_caught: deadlock after {} schedules; replay: {}",
        report.executions, failure.schedule
    );
    // Every checker find is replayable: the schedule it printed
    // reproduces the same failure on the spot.
    let replay = Builder::replay(failure.schedule).check(broken_eventcount);
    assert!(matches!(
        replay.failure.expect("schedule replays").kind,
        FailureKind::Deadlock(_)
    ));
}

#[test]
fn pinned_lost_wakeup_schedule_replays() {
    let schedule = Schedule::from_str(PINNED_LOST_WAKEUP_SCHEDULE).unwrap();
    let replay = Builder::replay(schedule).check(broken_eventcount);
    assert!(
        matches!(
            replay.failure.as_ref().map(|f| &f.kind),
            Some(FailureKind::Deadlock(_))
        ),
        "pinned schedule no longer reproduces the lost wakeup: {:?}",
        replay.failure
    );
}

// ---------------------------------------------------------------------------
// The randomized scheduler handles a model larger than the DFS bounds:
// same SPSC protocol, more items, seeded and deterministic.
// ---------------------------------------------------------------------------

#[test]
fn spsc_randomized_large_model() {
    const ITEMS: usize = 8;
    let report = Builder::random(300, 0x0D0A_4A15).check(|| {
        let ring = Arc::new(ModelRing::new());
        let r2 = ring.clone();
        let producer = thread::spawn(move || {
            for v in 1..=ITEMS {
                while !r2.try_push(v) {
                    thread::yield_now();
                }
            }
        });
        let mut seen = Vec::new();
        while seen.len() < ITEMS {
            match ring.try_pop() {
                Some(v) => seen.push(v),
                None => thread::yield_now(),
            }
        }
        producer.join().unwrap();
        let expected: Vec<usize> = (1..=ITEMS).collect();
        assert_eq!(seen, expected);
    });
    assert!(report.complete, "no failure across 300 random schedules");
    println!(
        "spsc_randomized_large_model: {} random schedules explored",
        report.executions
    );
}
