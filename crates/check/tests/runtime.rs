//! Unit-level exercises of the checker runtime itself: that DFS actually
//! explores, that the weak-memory machinery admits stale reads exactly
//! where C11 would, and that every failure class is detected and
//! replayable. The protocol models live in `models.rs`.

use damaris_sync::model::{
    self,
    sync::{fence, AtomicBool, AtomicUsize, Condvar, Mutex, Ordering},
    thread, Builder, FailureKind, Schedule,
};
use std::str::FromStr;
use std::sync::Arc;

/// Two unsynchronized increments built from load+store (not RMW) must be
/// able to lose an update; the checker has to find the interleaving.
#[test]
fn detects_lost_update() {
    let report = Builder::exhaustive().check(|| {
        let c = Arc::new(AtomicUsize::new(0));
        let c2 = c.clone();
        let t = thread::spawn(move || {
            let v = c2.load(Ordering::Relaxed);
            c2.store(v + 1, Ordering::Relaxed);
        });
        let v = c.load(Ordering::Relaxed);
        c.store(v + 1, Ordering::Relaxed);
        t.join().unwrap();
        assert_eq!(c.load(Ordering::Relaxed), 2, "lost update");
    });
    let failure = report.failure.expect("lost update must be found");
    assert!(matches!(failure.kind, FailureKind::Panic(_)));
    // The failing schedule replays to the same failure.
    let replay = Builder::replay(failure.schedule.clone()).check(|| {
        let c = Arc::new(AtomicUsize::new(0));
        let c2 = c.clone();
        let t = thread::spawn(move || {
            let v = c2.load(Ordering::Relaxed);
            c2.store(v + 1, Ordering::Relaxed);
        });
        let v = c.load(Ordering::Relaxed);
        c.store(v + 1, Ordering::Relaxed);
        t.join().unwrap();
        assert_eq!(c.load(Ordering::Relaxed), 2, "lost update");
    });
    assert!(matches!(
        replay.failure.expect("replay reproduces").kind,
        FailureKind::Panic(_)
    ));
}

/// The same increments through fetch_add are atomic RMWs: no schedule
/// loses an update, and more than one schedule must have been explored.
#[test]
fn rmw_increments_never_lose_updates() {
    let report = model::model(|| {
        let c = Arc::new(AtomicUsize::new(0));
        let c2 = c.clone();
        let t = thread::spawn(move || {
            c2.fetch_add(1, Ordering::Relaxed);
        });
        c.fetch_add(1, Ordering::Relaxed);
        t.join().unwrap();
        assert_eq!(c.load(Ordering::Relaxed), 2);
    });
    assert!(report.complete);
    assert!(report.executions > 1, "DFS must branch");
}

/// Message passing through a Relaxed flag is broken (the reader may see
/// the flag but stale data); through a Release/Acquire flag it is proven.
#[test]
fn release_acquire_publishes_relaxed_does_not() {
    let broken = Builder::exhaustive().check(|| {
        let data = Arc::new(AtomicUsize::new(0));
        let flag = Arc::new(AtomicBool::new(false));
        let (d2, f2) = (data.clone(), flag.clone());
        let t = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(true, Ordering::Relaxed); // BUG: should be Release
        });
        if flag.load(Ordering::Acquire) {
            assert_eq!(data.load(Ordering::Relaxed), 42, "stale read");
        }
        t.join().unwrap();
    });
    assert!(
        broken.failure.is_some(),
        "relaxed publication must admit a stale read"
    );

    let fixed = model::model(|| {
        let data = Arc::new(AtomicUsize::new(0));
        let flag = Arc::new(AtomicBool::new(false));
        let (d2, f2) = (data.clone(), flag.clone());
        let t = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(true, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) {
            assert_eq!(data.load(Ordering::Relaxed), 42);
        }
        t.join().unwrap();
    });
    assert!(fixed.complete && fixed.executions > 1);
}

/// Fence-based publication: release fence + relaxed store publishes to
/// relaxed load + acquire fence.
#[test]
fn fence_publication() {
    let report = model::model(|| {
        let data = Arc::new(AtomicUsize::new(0));
        let flag = Arc::new(AtomicBool::new(false));
        let (d2, f2) = (data.clone(), flag.clone());
        let t = thread::spawn(move || {
            d2.store(7, Ordering::Relaxed);
            fence(Ordering::Release);
            f2.store(true, Ordering::Relaxed);
        });
        if flag.load(Ordering::Relaxed) {
            fence(Ordering::Acquire);
            assert_eq!(data.load(Ordering::Relaxed), 7);
        }
        t.join().unwrap();
    });
    assert!(report.complete);
}

/// Store buffering: each thread stores one flag, then loads the other's.
/// With a `SeqCst` fence between store and load, at least one thread
/// sees the other's store; with Release/Acquire alone both may read 0.
fn store_buffering(fenced: bool) -> model::Report {
    Builder::exhaustive().check(move || {
        let x = Arc::new(AtomicUsize::new(0));
        let y = Arc::new(AtomicUsize::new(0));
        let (x2, y2) = (x.clone(), y.clone());
        let t = thread::spawn(move || {
            x2.store(1, Ordering::Release);
            if fenced {
                fence(Ordering::SeqCst);
            }
            y2.load(Ordering::Acquire)
        });
        y.store(1, Ordering::Release);
        if fenced {
            fence(Ordering::SeqCst);
        }
        let seen_x = x.load(Ordering::Acquire);
        let seen_y = t.join().unwrap();
        assert!(seen_x + seen_y > 0, "both threads missed the other's store");
    })
}

#[test]
fn seqcst_fences_forbid_store_buffering() {
    let fenced = store_buffering(true);
    assert!(fenced.complete && fenced.executions > 1);
    let unfenced = store_buffering(false);
    assert!(
        matches!(
            unfenced.failure.map(|f| f.kind),
            Some(FailureKind::Panic(_))
        ),
        "release/acquire alone must allow both stale reads"
    );
}

/// Two threads blocking on each other's mutexes deadlock; the checker
/// reports it rather than hanging.
#[test]
fn detects_deadlock() {
    let report = Builder::exhaustive().check(|| {
        let a = Arc::new(Mutex::new(()));
        let b = Arc::new(Mutex::new(()));
        let (a2, b2) = (a.clone(), b.clone());
        let t = thread::spawn(move || {
            let _ga = a2.lock();
            let _gb = b2.lock();
        });
        let _gb = b.lock();
        let _ga = a.lock();
        drop((_ga, _gb));
        t.join().unwrap();
    });
    let failure = report.failure.expect("AB/BA deadlock must be found");
    assert!(
        matches!(&failure.kind, FailureKind::Deadlock(msg) if msg.contains("mutex")),
        "unexpected failure: {failure}"
    );
}

/// A condvar wait with no paired notify is a detected deadlock (this is
/// how lost wakeups surface: model timeouts never fire).
#[test]
fn detects_missed_notify_as_deadlock() {
    let report = Builder::exhaustive().check(|| {
        let m = Arc::new(Mutex::new(false));
        let cv = Arc::new(Condvar::new());
        let mut g = m.lock();
        while !*g {
            cv.wait(&mut g); // nobody will ever notify
        }
    });
    assert!(matches!(
        report.failure.expect("must deadlock").kind,
        FailureKind::Deadlock(_)
    ));
}

/// Plain mutex + condvar handoff works and explores multiple schedules.
#[test]
fn condvar_handoff_completes() {
    let report = model::model(|| {
        let m = Arc::new(Mutex::new(false));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (m.clone(), cv.clone());
        let t = thread::spawn(move || {
            *m2.lock() = true;
            cv2.notify_one();
        });
        let mut g = m.lock();
        while !*g {
            cv.wait(&mut g);
        }
        drop(g);
        t.join().unwrap();
    });
    assert!(report.complete && report.executions > 1);
}

/// An unbounded spin against a never-set flag trips the step budget and
/// is reported as a livelock, not a hang.
#[test]
fn detects_livelock_via_step_budget() {
    let report = Builder::exhaustive()
        .max_steps(200)
        .max_executions(10)
        .check(|| {
            let flag = Arc::new(AtomicBool::new(false));
            while !flag.load(Ordering::Relaxed) {
                thread::yield_now();
            }
        });
    assert!(matches!(
        report.failure.expect("spin must exhaust steps").kind,
        FailureKind::StepLimit
    ));
}

/// The randomized scheduler finds the same lost update and reports a
/// schedule that replays deterministically.
#[test]
fn random_scheduler_finds_and_replays() {
    let run = |b: Builder| {
        b.check(|| {
            let c = Arc::new(AtomicUsize::new(0));
            let c2 = c.clone();
            let t = thread::spawn(move || {
                let v = c2.load(Ordering::Relaxed);
                c2.store(v + 1, Ordering::Relaxed);
            });
            let v = c.load(Ordering::Relaxed);
            c.store(v + 1, Ordering::Relaxed);
            t.join().unwrap();
            assert_eq!(c.load(Ordering::Relaxed), 2, "lost update");
        })
    };
    let report = run(Builder::random(500, 0xDA3A));
    let failure = report.failure.expect("random exploration finds the bug");
    assert!(failure.seed.is_some());
    let replay = run(Builder::replay(failure.schedule.clone()));
    assert!(replay.failure.is_some(), "schedule replays to the failure");
}

/// Schedules round-trip through their string form (what a failure report
/// prints is exactly what a regression test can pin).
#[test]
fn schedule_string_round_trip() {
    let s = Schedule(vec![0, 3, 1, 0, 2]);
    assert_eq!(Schedule::from_str(&s.to_string()).unwrap(), s);
    assert_eq!(Schedule::from_str("").unwrap(), Schedule(vec![]));
}
