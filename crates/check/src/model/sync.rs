//! Model-mode replacements for `std::sync::atomic` and
//! `parking_lot::{Mutex, Condvar}`.
//!
//! ## Memory model (simplified C11)
//!
//! Each atomic location keeps a short suffix of its modification order
//! (`HISTORY_CAP` entries). A `Relaxed` or `Acquire` load may observe
//! *any* entry at or above the thread's per-location coherence floor —
//! which entry it reads is a scheduler decision, so DFS explores stale
//! reads exhaustively. An `Acquire` load that observes a `Release` store
//! joins the writer's view (happens-before); a `SeqCst` load additionally
//! may not observe anything older than the latest `SeqCst` store
//! (single-total-order approximation). RMWs always read the latest entry
//! in modification order, per C11. Fences are modeled with
//! pending-acquire / release-snapshot views.
//!
//! Deliberate simplifications (each is *stricter* than C11, so the
//! checker can miss bugs that need them but never reports false
//! failures): `compare_exchange_weak` never fails spuriously, `SeqCst`
//! fences are totally ordered by execution order and each one
//! synchronizes with every earlier one (C11 only forbids a read after the
//! later fence from missing a store before the earlier one; the model
//! also hands over the rest of the view), condvars never
//! wake spuriously or time out (a model must not rely on timeouts for
//! progress — a lost wakeup shows up as a detected deadlock), and each
//! thread may observe a non-latest value at a given location at most
//! `rt::STALE_BUDGET` times per execution (stores propagate
//! eventually, so spin loops terminate).

use crate::model::rt::{self, LocId, Status};
use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::time::{Duration, Instant};

pub use core::sync::atomic::Ordering;

fn has_acquire(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn has_release(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

/// Shared implementation: a typed shell over one model location.
struct AtomicCell {
    loc: LocId,
}

impl AtomicCell {
    fn new(init: u64) -> Self {
        AtomicCell {
            loc: rt::register_location(init),
        }
    }

    fn load(&self, ord: Ordering) -> u64 {
        assert!(
            !matches!(ord, Ordering::Release | Ordering::AcqRel),
            "invalid ordering for atomic load"
        );
        if rt::quiet() {
            return rt::peek(self.loc);
        }
        rt::schedule_point();
        rt::with_state(|st, tid| {
            let floor = st.threads[tid].view.floor(self.loc);
            let l = &st.locations[self.loc];
            let min_seq = if ord == Ordering::SeqCst {
                floor.max(l.last_sc)
            } else {
                floor
            };
            // Eligible entries, newest first: choice 0 is the latest
            // value, so stale reads live on backtracked branches.
            let elig: Vec<usize> = (0..l.history.len())
                .rev()
                .filter(|&i| l.history[i].seq >= min_seq)
                .collect();
            debug_assert!(!elig.is_empty(), "coherence floor above latest store");
            // Stores propagate eventually: once this thread has burned its
            // stale budget at this location, it reads the latest value
            // without branching (keeps spin loops finite, see STALE_BUDGET).
            let stale_left = st.threads[tid]
                .stale
                .get(self.loc)
                .is_none_or(|&n| n < rt::STALE_BUDGET);
            let pick = if elig.len() > 1 && stale_left {
                st.decide(elig.len())
            } else {
                0
            };
            if pick != 0 {
                let s = &mut st.threads[tid].stale;
                if s.len() <= self.loc {
                    s.resize(self.loc + 1, 0);
                }
                s[self.loc] += 1;
            }
            let e = &st.locations[self.loc].history[elig[pick]];
            let (value, seq, rel_view) = (e.value, e.seq, e.rel_view.clone());
            let me = &mut st.threads[tid];
            me.view.raise(self.loc, seq);
            if let Some(rv) = rel_view {
                if has_acquire(ord) {
                    me.view.join(&rv);
                } else {
                    // Claimed by a later acquire fence.
                    me.acq_pending.join(&rv);
                }
            }
            value
        })
    }

    fn store(&self, value: u64, ord: Ordering) {
        assert!(
            !matches!(ord, Ordering::Acquire | Ordering::AcqRel),
            "invalid ordering for atomic store"
        );
        if rt::quiet() {
            rt::with_state(|st, _tid| {
                let l = &mut st.locations[self.loc];
                let seq = l.next_seq;
                l.next_seq += 1;
                l.history.push(rt::StoreEntry {
                    seq,
                    value,
                    rel_view: None,
                });
            });
            return;
        }
        rt::schedule_point();
        rt::with_state(|st, tid| {
            let rel_view = if has_release(ord) {
                Some(st.threads[tid].view.clone())
            } else {
                st.threads[tid].rel_fence.clone()
            };
            let l = &mut st.locations[self.loc];
            let seq = l.next_seq;
            l.next_seq += 1;
            l.history.push(rt::StoreEntry {
                seq,
                value,
                rel_view,
            });
            if ord == Ordering::SeqCst {
                l.last_sc = seq;
            }
            if l.history.len() > rt::HISTORY_CAP {
                l.history.remove(0);
            }
            st.threads[tid].view.raise(self.loc, seq);
        });
    }

    /// Read-modify-write: reads the *latest* entry in modification order
    /// (C11 guarantees RMW atomicity), writes `f(old)` if `Some`.
    /// Returns `Ok(old)` on write, `Err(old)` when `f` declined
    /// (compare_exchange failure, which acts as a load with `fail_ord`).
    fn rmw(
        &self,
        f: impl FnOnce(u64) -> Option<u64>,
        ord: Ordering,
        fail_ord: Ordering,
    ) -> Result<u64, u64> {
        if rt::quiet() {
            let old = rt::peek(self.loc);
            if let Some(new) = f(old) {
                rt::with_state(|st, _tid| {
                    let l = &mut st.locations[self.loc];
                    let seq = l.next_seq;
                    l.next_seq += 1;
                    l.history.push(rt::StoreEntry {
                        seq,
                        value: new,
                        rel_view: None,
                    });
                });
                return Ok(old);
            }
            return Err(old);
        }
        rt::schedule_point();
        rt::with_state(|st, tid| {
            let l = &st.locations[self.loc];
            let latest = l.history.last().expect("location has an initial store");
            let (old, old_seq, old_rel) = (latest.value, latest.seq, latest.rel_view.clone());
            match f(old) {
                Some(new) => {
                    let me = &mut st.threads[tid];
                    if let Some(rv) = &old_rel {
                        if has_acquire(ord) {
                            me.view.join(rv);
                        } else {
                            me.acq_pending.join(rv);
                        }
                    }
                    let rel_view = if has_release(ord) {
                        Some(me.view.clone())
                    } else {
                        me.rel_fence.clone()
                    };
                    let l = &mut st.locations[self.loc];
                    let seq = l.next_seq;
                    l.next_seq += 1;
                    l.history.push(rt::StoreEntry {
                        seq,
                        value: new,
                        rel_view,
                    });
                    if ord == Ordering::SeqCst {
                        l.last_sc = seq;
                    }
                    if l.history.len() > rt::HISTORY_CAP {
                        l.history.remove(0);
                    }
                    st.threads[tid].view.raise(self.loc, seq);
                    Ok(old)
                }
                None => {
                    let me = &mut st.threads[tid];
                    me.view.raise(self.loc, old_seq);
                    if let Some(rv) = &old_rel {
                        if has_acquire(fail_ord) {
                            me.view.join(rv);
                        } else {
                            me.acq_pending.join(rv);
                        }
                    }
                    Err(old)
                }
            }
        })
    }

    fn peek(&self) -> u64 {
        rt::peek(self.loc)
    }
}

/// Memory fence with C11 fence semantics over the view machinery.
pub fn fence(ord: Ordering) {
    assert!(ord != Ordering::Relaxed, "fence(Relaxed) is not allowed");
    if rt::quiet() {
        return;
    }
    rt::schedule_point();
    rt::with_state(|st, tid| {
        let me = &mut st.threads[tid];
        if has_acquire(ord) {
            let pending = std::mem::take(&mut me.acq_pending);
            me.view.join(&pending);
        }
        if has_release(ord) {
            me.rel_fence = Some(me.view.clone());
        }
        if ord == Ordering::SeqCst {
            me.view.join(&st.sc_fence);
            st.sc_fence = me.view.clone();
        }
    });
}

macro_rules! model_atomic {
    ($(#[$doc:meta])* $name:ident, $ty:ty, $from:expr, $into:expr) => {
        $(#[$doc])*
        pub struct $name {
            cell: AtomicCell,
        }

        impl $name {
            /// Register a fresh model location holding `v`.
            #[allow(clippy::redundant_closure_call)]
            pub fn new(v: $ty) -> Self {
                $name { cell: AtomicCell::new(($into)(v)) }
            }

            /// Model load; which store it observes is a scheduler choice.
            #[allow(clippy::redundant_closure_call)]
            pub fn load(&self, ord: Ordering) -> $ty {
                ($from)(self.cell.load(ord))
            }

            /// Model store appended to the location's modification order.
            #[allow(clippy::redundant_closure_call)]
            pub fn store(&self, v: $ty, ord: Ordering) {
                self.cell.store(($into)(v), ord)
            }

            /// Atomic swap (reads latest, per C11 RMW).
            #[allow(clippy::redundant_closure_call)]
            pub fn swap(&self, v: $ty, ord: Ordering) -> $ty {
                let new = ($into)(v);
                ($from)(self.cell.rmw(|_| Some(new), ord, Ordering::Relaxed).unwrap())
            }

            /// Atomic compare-and-exchange against the latest value.
            #[allow(clippy::redundant_closure_call)]
            pub fn compare_exchange(
                &self,
                current: $ty,
                new: $ty,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$ty, $ty> {
                let cur = ($into)(current);
                let newv = ($into)(new);
                self.cell
                    .rmw(|old| if old == cur { Some(newv) } else { None }, success, failure)
                    .map($from)
                    .map_err($from)
            }

            /// Like [`Self::compare_exchange`]; the model never fails
            /// spuriously (a strictly-stronger behavior, documented in
            /// the module docs).
            pub fn compare_exchange_weak(
                &self,
                current: $ty,
                new: $ty,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$ty, $ty> {
                self.compare_exchange(current, new, success, failure)
            }

            /// Consume the atomic, returning the latest value.
            #[allow(clippy::redundant_closure_call)]
            pub fn into_inner(self) -> $ty {
                ($from)(self.cell.peek())
            }
        }

        impl std::fmt::Debug for $name {
            #[allow(clippy::redundant_closure_call)]
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_tuple(stringify!($name)).field(&($from)(self.cell.peek())).finish()
            }
        }
    };
}

model_atomic!(
    /// Model `AtomicUsize`.
    AtomicUsize, usize, |v: u64| v as usize, |v: usize| v as u64
);
model_atomic!(
    /// Model `AtomicU64`.
    AtomicU64, u64, |v: u64| v, |v: u64| v
);
model_atomic!(
    /// Model `AtomicU32`.
    AtomicU32, u32, |v: u64| v as u32, |v: u32| v as u64
);
model_atomic!(
    /// Model `AtomicBool`.
    AtomicBool, bool, |v: u64| v != 0, |v: bool| v as u64
);

macro_rules! model_fetch_ops {
    ($name:ident, $ty:ty, $from:expr, $into:expr) => {
        impl $name {
            /// Atomic wrapping add, returning the previous value.
            #[allow(clippy::redundant_closure_call)]
            pub fn fetch_add(&self, v: $ty, ord: Ordering) -> $ty {
                ($from)(
                    self.cell
                        .rmw(
                            |old| Some(($into)(($from)(old).wrapping_add(v))),
                            ord,
                            Ordering::Relaxed,
                        )
                        .unwrap(),
                )
            }

            /// Atomic wrapping subtract, returning the previous value.
            #[allow(clippy::redundant_closure_call)]
            pub fn fetch_sub(&self, v: $ty, ord: Ordering) -> $ty {
                ($from)(
                    self.cell
                        .rmw(
                            |old| Some(($into)(($from)(old).wrapping_sub(v))),
                            ord,
                            Ordering::Relaxed,
                        )
                        .unwrap(),
                )
            }

            /// Atomic maximum, returning the previous value.
            #[allow(clippy::redundant_closure_call)]
            pub fn fetch_max(&self, v: $ty, ord: Ordering) -> $ty {
                ($from)(
                    self.cell
                        .rmw(
                            |old| Some(($into)(($from)(old).max(v))),
                            ord,
                            Ordering::Relaxed,
                        )
                        .unwrap(),
                )
            }
        }
    };
}

model_fetch_ops!(AtomicUsize, usize, |v: u64| v as usize, |v: usize| v as u64);
model_fetch_ops!(AtomicU64, u64, |v: u64| v, |v: u64| v);
model_fetch_ops!(AtomicU32, u32, |v: u64| v as u32, |v: u32| v as u64);

impl AtomicBool {
    /// Atomic OR, returning the previous value.
    pub fn fetch_or(&self, v: bool, ord: Ordering) -> bool {
        self.cell
            .rmw(|old| Some(old | v as u64), ord, Ordering::Relaxed)
            .unwrap()
            != 0
    }

    /// Atomic AND, returning the previous value.
    pub fn fetch_and(&self, v: bool, ord: Ordering) -> bool {
        self.cell
            .rmw(|old| Some(old & v as u64), ord, Ordering::Relaxed)
            .unwrap()
            != 0
    }
}

/// Model mutex with `parking_lot`'s non-poisoning API. Lock acquisition
/// joins the views of past unlockers (unlock happens-before next lock);
/// contention and wake order are scheduler decisions.
pub struct Mutex<T: ?Sized> {
    id: usize,
    data: UnsafeCell<T>,
}

// SAFETY: the model runtime guarantees at most one thread holds the lock
// (and therefore touches `data`) at a time, mirroring std's Mutex.
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
// SAFETY: as above — `&Mutex<T>` only exposes `data` through the guard,
// which the runtime hands to one thread at a time.
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

/// Guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    mutex: &'a Mutex<T>,
    /// Guards are `!Send`, like std's.
    _not_send: PhantomData<*const ()>,
}

impl<T> Mutex<T> {
    /// Register a model mutex protecting `value`.
    pub fn new(value: T) -> Self {
        Mutex {
            id: rt::register_mutex(),
            data: UnsafeCell::new(value),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking (in model time) until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        lock_mutex(self.id);
        MutexGuard {
            mutex: self,
            _not_send: PhantomData,
        }
    }

    /// Acquire the lock if it is free at this scheduling point.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        if try_lock_mutex(self.id) {
            Some(MutexGuard {
                mutex: self,
                _not_send: PhantomData,
            })
        } else {
            None
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: std::fmt::Debug + ?Sized> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Mutex(<model>)")
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the runtime records this thread as the owner until the
        // guard drops, so no other thread dereferences `data`.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref` — exclusive ownership until drop.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        unlock_mutex(self.mutex.id);
    }
}

fn lock_mutex(id: usize) {
    if rt::quiet() {
        rt::with_state(|st, tid| st.mutexes[id].owner = Some(tid));
        return;
    }
    rt::schedule_point();
    let (exec, tid) = rt::exec_handle();
    loop {
        let acquired = rt::with_state(|st, tid| {
            if st.mutexes[id].owner.is_none() {
                st.mutexes[id].owner = Some(tid);
                let v = st.mutexes[id].view.clone();
                st.threads[tid].view.join(&v);
                true
            } else {
                false
            }
        });
        if acquired {
            return;
        }
        rt::block_current(&exec, tid, |st| {
            st.threads[tid].status = Status::BlockedMutex(id);
        });
    }
}

fn try_lock_mutex(id: usize) -> bool {
    if rt::quiet() {
        return rt::with_state(|st, tid| {
            if st.mutexes[id].owner.is_none() {
                st.mutexes[id].owner = Some(tid);
                true
            } else {
                false
            }
        });
    }
    rt::schedule_point();
    rt::with_state(|st, tid| {
        if st.mutexes[id].owner.is_none() {
            st.mutexes[id].owner = Some(tid);
            let v = st.mutexes[id].view.clone();
            st.threads[tid].view.join(&v);
            true
        } else {
            false
        }
    })
}

fn unlock_mutex(id: usize) {
    if rt::quiet() {
        // Unwinding (assertion failure or execution abort): release
        // without scheduling so guard drops never double-panic.
        rt::with_state(|st, _tid| st.mutexes[id].owner = None);
        return;
    }
    rt::schedule_point();
    rt::with_state(|st, tid| {
        debug_assert_eq!(st.mutexes[id].owner, Some(tid), "unlock by non-owner");
        let tv = st.threads[tid].view.clone();
        st.mutexes[id].view.join(&tv);
        st.mutexes[id].owner = None;
        // Wake every waiter; they re-race for the lock and the scheduler
        // decides who wins (modeling contention nondeterminism).
        for t in 0..st.threads.len() {
            if st.threads[t].status == Status::BlockedMutex(id) {
                st.threads[t].status = Status::Runnable;
            }
        }
    });
}

/// Result of a timed condvar wait; in model time waits never time out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(pub(crate) bool);

impl WaitTimeoutResult {
    /// Whether the wait ended because the timeout elapsed (never, in the
    /// model: timeouts are failsafes, and a model that *needs* one to
    /// make progress has a lost-wakeup bug the checker reports as
    /// deadlock).
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Model condvar with `parking_lot`'s `&mut guard` API.
#[derive(Debug)]
pub struct Condvar {
    id: usize,
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

impl Condvar {
    /// Register a model condvar.
    pub fn new() -> Self {
        Condvar {
            id: rt::register_condvar(),
        }
    }

    /// Wake the longest-waiting thread, if any.
    pub fn notify_one(&self) {
        notify(self.id, false);
    }

    /// Wake all waiting threads.
    pub fn notify_all(&self) {
        notify(self.id, true);
    }

    /// Atomically release the guard's mutex and wait to be notified,
    /// re-acquiring before returning.
    pub fn wait<T: ?Sized>(&self, guard: &mut MutexGuard<'_, T>) {
        wait_impl(self.id, guard.mutex.id);
    }

    /// Timed wait; model time never elapses, so this is [`Self::wait`].
    pub fn wait_for<T: ?Sized>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        _timeout: Duration,
    ) -> WaitTimeoutResult {
        wait_impl(self.id, guard.mutex.id);
        WaitTimeoutResult(false)
    }

    /// Timed wait; model time never elapses, so this is [`Self::wait`].
    pub fn wait_until<T: ?Sized>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        _until: Instant,
    ) -> WaitTimeoutResult {
        wait_impl(self.id, guard.mutex.id);
        WaitTimeoutResult(false)
    }
}

fn wait_impl(cv: usize, mutex: usize) {
    if rt::quiet() {
        return;
    }
    rt::schedule_point();
    let (exec, tid) = rt::exec_handle();
    rt::block_current(&exec, tid, |st| {
        // Atomically (in model time): publish our view through the
        // mutex, release it, wake its waiters, and park on the condvar.
        debug_assert_eq!(st.mutexes[mutex].owner, Some(tid), "wait without the lock");
        let tv = st.threads[tid].view.clone();
        st.mutexes[mutex].view.join(&tv);
        st.mutexes[mutex].owner = None;
        for t in 0..st.threads.len() {
            if st.threads[t].status == Status::BlockedMutex(mutex) {
                st.threads[t].status = Status::Runnable;
            }
        }
        st.condvars[cv].waiters.push(tid);
        st.threads[tid].status = Status::BlockedCondvar(cv);
    });
    // Notified: re-acquire the mutex before returning to the caller.
    lock_mutex(mutex);
}

fn notify(cv: usize, all: bool) {
    if rt::quiet() {
        return;
    }
    rt::schedule_point();
    rt::with_state(|st, _tid| {
        let n = if all {
            st.condvars[cv].waiters.len()
        } else {
            1
        };
        for _ in 0..n {
            if st.condvars[cv].waiters.is_empty() {
                break;
            }
            let w = st.condvars[cv].waiters.remove(0);
            debug_assert_eq!(st.threads[w].status, Status::BlockedCondvar(cv));
            st.threads[w].status = Status::Runnable;
        }
    });
}
