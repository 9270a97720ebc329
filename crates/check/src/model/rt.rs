//! Execution runtime: one model execution = real OS threads run one at a
//! time under a token-passing scheduler. Every source of nondeterminism
//! (which thread runs next, which store a weak load observes) flows
//! through [`ExecState::decide`], so an execution is fully determined by
//! its decision vector — which is what makes schedules replayable and DFS
//! backtracking possible.

use std::any::Any;
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar as OsCondvar, Mutex as OsMutex, PoisonError};

pub(crate) type Tid = usize;
pub(crate) type LocId = usize;

/// Entries of stale history kept per atomic location (latest + one stale
/// value). Bounds the arity of weak-read decisions.
pub(crate) const HISTORY_CAP: usize = 2;

/// How many times one thread may branch onto a *non-latest* value at one
/// location within a single execution. Real stores propagate eventually
/// (C11 forward-progress), so a spin loop re-reading a stale value forever
/// is not a real schedule; without this cap the DFS would explore it as an
/// infinite livelock. Exhausting the budget forces the latest value —
/// stricter than C11, never a false failure.
pub(crate) const STALE_BUDGET: u32 = 2;

/// Per-thread vector clock over atomic locations: `floors[loc]` is the
/// oldest modification-order position this thread may still observe.
#[derive(Clone, Debug, Default)]
pub(crate) struct View(Vec<u64>);

impl View {
    pub(crate) fn floor(&self, loc: LocId) -> u64 {
        self.0.get(loc).copied().unwrap_or(0)
    }

    pub(crate) fn raise(&mut self, loc: LocId, seq: u64) {
        if self.0.len() <= loc {
            self.0.resize(loc + 1, 0);
        }
        if self.0[loc] < seq {
            self.0[loc] = seq;
        }
    }

    pub(crate) fn join(&mut self, other: &View) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, &s) in other.0.iter().enumerate() {
            if self.0[i] < s {
                self.0[i] = s;
            }
        }
    }
}

/// One store in a location's modification order.
pub(crate) struct StoreEntry {
    pub seq: u64,
    pub value: u64,
    /// The writer's view at the store if it was a release operation (or
    /// follows a release fence): joined into the view of any acquire
    /// reader, establishing happens-before.
    pub rel_view: Option<View>,
}

pub(crate) struct Location {
    /// Oldest..newest suffix of the modification order, capped at
    /// [`HISTORY_CAP`].
    pub history: Vec<StoreEntry>,
    pub next_seq: u64,
    /// Seq of the most recent `SeqCst` store; `SeqCst` loads may not
    /// observe anything older (single-total-order approximation).
    pub last_sc: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Status {
    Runnable,
    BlockedMutex(usize),
    BlockedCondvar(usize),
    BlockedJoin(Tid),
    Finished,
}

/// One-shot turnstile a parked OS thread sleeps on until scheduled.
struct Gate {
    flag: OsMutex<bool>,
    cv: OsCondvar,
}

impl Gate {
    fn new() -> Self {
        Gate {
            flag: OsMutex::new(false),
            cv: OsCondvar::new(),
        }
    }

    fn open(&self) {
        let mut f = self.flag.lock().unwrap_or_else(PoisonError::into_inner);
        *f = true;
        drop(f);
        self.cv.notify_one();
    }

    fn wait(&self) {
        let mut f = self.flag.lock().unwrap_or_else(PoisonError::into_inner);
        while !*f {
            f = self.cv.wait(f).unwrap_or_else(PoisonError::into_inner);
        }
        *f = false;
    }
}

pub(crate) struct ThreadSlot {
    pub status: Status,
    /// Set by `yield_now`/`spin_loop`: the next scheduling decision must
    /// switch away if any other thread is runnable (consumed by one pick).
    pub yielded: bool,
    pub view: View,
    /// Release views observed by relaxed loads, claimed by a later
    /// acquire fence.
    pub acq_pending: View,
    /// View snapshot at the last release fence; attached to subsequent
    /// relaxed stores.
    pub rel_fence: Option<View>,
    /// Per-location count of non-latest (stale) read branches this thread
    /// has taken, capped at [`STALE_BUDGET`] — see the note there.
    pub stale: Vec<u32>,
    gate: Arc<Gate>,
    pub os: Option<std::thread::JoinHandle<()>>,
    pub result: Option<Box<dyn Any + Send>>,
}

impl ThreadSlot {
    fn new(view: View) -> Self {
        ThreadSlot {
            status: Status::Runnable,
            yielded: false,
            view,
            acq_pending: View::default(),
            rel_fence: None,
            stale: Vec::new(),
            gate: Arc::new(Gate::new()),
            os: None,
            result: None,
        }
    }
}

pub(crate) struct MutexSt {
    pub owner: Option<Tid>,
    /// Join of the views of all past unlockers: lock-acquire joins it,
    /// modeling the happens-before edge unlock -> next lock.
    pub view: View,
}

pub(crate) struct CondvarSt {
    /// FIFO wait queue.
    pub waiters: Vec<Tid>,
}

#[derive(Clone, Copy, Debug)]
pub(crate) struct Decision {
    pub arity: u32,
    pub chosen: u32,
}

/// Why an execution failed.
#[derive(Clone, Debug)]
pub enum FailureKind {
    /// A model thread panicked (assertion failure).
    Panic(String),
    /// Every live thread is blocked on a mutex, condvar, or join.
    Deadlock(String),
    /// The per-execution step budget was exhausted (livelock or an
    /// unbounded model).
    StepLimit,
}

#[derive(Clone)]
pub(crate) struct ExecCfg {
    pub max_preemptions: usize,
    pub max_steps: usize,
}

pub(crate) struct ExecState {
    pub threads: Vec<ThreadSlot>,
    pub locations: Vec<Location>,
    pub mutexes: Vec<MutexSt>,
    pub condvars: Vec<CondvarSt>,
    /// Join of the views of every `SeqCst` fence executed so far: the
    /// fences' single total order is their execution order, and each
    /// fence both joins and extends this view (see `sync::fence`).
    pub sc_fence: View,
    pub current: Tid,
    pub steps: usize,
    pub preemptions: usize,
    pub decisions: Vec<Decision>,
    prefix: Vec<u32>,
    cursor: usize,
    rng: Option<Rng64>,
    pub failure: Option<FailureKind>,
    pub aborting: bool,
    cfg: ExecCfg,
    done: Arc<Gate>,
}

impl ExecState {
    /// Resolve one nondeterministic choice among `arity` alternatives:
    /// forced by the replay prefix, drawn from the randomized scheduler's
    /// RNG, or defaulting to 0 (DFS explores the rest by backtracking).
    pub(crate) fn decide(&mut self, arity: usize) -> usize {
        debug_assert!(arity >= 1);
        let chosen = if self.cursor < self.prefix.len() {
            let c = self.prefix[self.cursor] as usize;
            self.cursor += 1;
            c.min(arity - 1)
        } else if let Some(rng) = &mut self.rng {
            (rng.next() % arity as u64) as usize
        } else {
            0
        };
        self.decisions.push(Decision {
            arity: arity as u32,
            chosen: chosen as u32,
        });
        chosen
    }

    fn runnable(&self) -> Vec<Tid> {
        (0..self.threads.len())
            .filter(|&t| self.threads[t].status == Status::Runnable)
            .collect()
    }

    /// Pick the next thread to run. Returns `None` when nothing is
    /// runnable (caller distinguishes completion from deadlock).
    ///
    /// Candidate 0 is always "keep running the current thread" when that
    /// is allowed, so the DFS default (choice 0 everywhere) is the
    /// non-preemptive schedule and preemptions only appear on backtracked
    /// branches — which is what makes the context-switch bound prune the
    /// tree instead of merely relabeling it.
    fn pick_next(&mut self, cur: Tid) -> Option<Tid> {
        let runnable = self.runnable();
        if runnable.is_empty() {
            return None;
        }
        let cur_ok = self.threads[cur].status == Status::Runnable;
        let cur_yielded = self.threads[cur].yielded;
        let cands: Vec<Tid> = if cur_ok && !cur_yielded {
            if self.preemptions >= self.cfg.max_preemptions {
                vec![cur]
            } else {
                let mut c = vec![cur];
                c.extend(runnable.iter().copied().filter(|&t| t != cur));
                c
            }
        } else {
            // The switch is free: current is blocked, finished, or asked
            // to yield. Prefer threads that did not themselves yield.
            let non_yielded: Vec<Tid> = runnable
                .iter()
                .copied()
                .filter(|&t| !self.threads[t].yielded)
                .collect();
            if non_yielded.is_empty() {
                runnable
            } else {
                non_yielded
            }
        };
        let next = cands[self.decide(cands.len())];
        if cur_ok && !cur_yielded && next != cur {
            self.preemptions += 1;
        }
        for t in &mut self.threads {
            t.yielded = false;
        }
        self.current = next;
        Some(next)
    }

    /// Record a failure (first one wins) and tear the execution down:
    /// wake every parked thread so it unwinds via [`AbortExecution`], and
    /// release the controller.
    pub(crate) fn fail(&mut self, kind: FailureKind) {
        if self.failure.is_none() {
            self.failure = Some(kind);
        }
        self.aborting = true;
        for t in &self.threads {
            if t.status != Status::Finished {
                t.gate.open();
            }
        }
        self.done.open();
    }

    fn deadlock_report(&self) -> String {
        let mut parts = Vec::new();
        for (i, t) in self.threads.iter().enumerate() {
            let what = match t.status {
                Status::BlockedMutex(m) => format!("thread {i} blocked on mutex {m}"),
                Status::BlockedCondvar(c) => format!("thread {i} waiting on condvar {c}"),
                Status::BlockedJoin(j) => format!("thread {i} joining thread {j}"),
                _ => continue,
            };
            parts.push(what);
        }
        parts.join("; ")
    }
}

pub(crate) struct Exec {
    pub st: OsMutex<ExecState>,
    done: Arc<Gate>,
}

/// Panic payload used to unwind model threads when an execution aborts;
/// recognized (and swallowed) by the thread wrapper.
pub(crate) struct AbortExecution;

fn abort_panic() -> ! {
    std::panic::panic_any(AbortExecution)
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Exec>, Tid)>> = const { RefCell::new(None) };
}

fn context() -> (Arc<Exec>, Tid) {
    CURRENT.with(|c| {
        c.borrow().as_ref().map(|(e, t)| (e.clone(), *t)).expect(
            "damaris_sync model primitive used outside a model run; \
                 construct model types only inside Builder::check / model()",
        )
    })
}

/// Ops performed while unwinding (e.g. atomics in destructors during an
/// abort) must not schedule, branch, or panic again: they run in "quiet"
/// mode against the latest state.
pub(crate) fn quiet() -> bool {
    std::thread::panicking()
}

fn lock(exec: &Exec) -> std::sync::MutexGuard<'_, ExecState> {
    exec.st.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A scheduling point: charge one step, then let the scheduler decide who
/// runs next; park until re-scheduled if the token moves away.
pub(crate) fn schedule_point() {
    if quiet() {
        return;
    }
    let (exec, tid) = context();
    let mut st = lock(&exec);
    if st.aborting {
        drop(st);
        abort_panic();
    }
    st.steps += 1;
    if st.steps > st.cfg.max_steps {
        st.fail(FailureKind::StepLimit);
        drop(st);
        abort_panic();
    }
    match st.pick_next(tid) {
        Some(next) if next == tid => {}
        Some(next) => {
            let g_next = st.threads[next].gate.clone();
            let g_me = st.threads[tid].gate.clone();
            drop(st);
            g_next.open();
            g_me.wait();
            let st = lock(&exec);
            if st.aborting {
                drop(st);
                abort_panic();
            }
        }
        // The caller is runnable, so the runnable set cannot be empty.
        None => unreachable!("schedule_point with no runnable thread"),
    }
}

/// Mark the current thread as yielding: the next scheduling decision must
/// prefer some other runnable thread. Spin loops in models terminate
/// because of this.
pub(crate) fn yield_now() {
    if quiet() {
        return;
    }
    let (exec, tid) = context();
    {
        let mut st = lock(&exec);
        if st.aborting {
            drop(st);
            abort_panic();
        }
        st.threads[tid].yielded = true;
    }
    schedule_point();
}

/// Block the current thread: `setup` registers it on whatever queue it is
/// waiting on and sets its `Blocked*` status; the scheduler then hands the
/// token to someone else (or declares deadlock). Returns once a waker has
/// made the thread runnable and the scheduler picked it again.
pub(crate) fn block_current(exec: &Exec, tid: Tid, setup: impl FnOnce(&mut ExecState)) {
    let mut st = lock(exec);
    if st.aborting {
        drop(st);
        abort_panic();
    }
    setup(&mut st);
    debug_assert_ne!(st.threads[tid].status, Status::Runnable);
    match st.pick_next(tid) {
        Some(next) => {
            debug_assert_ne!(next, tid);
            let g_next = st.threads[next].gate.clone();
            let g_me = st.threads[tid].gate.clone();
            drop(st);
            g_next.open();
            g_me.wait();
        }
        None => {
            // Everybody is blocked (the caller included): deadlock. A
            // fully-finished world is impossible here because the caller
            // is blocked, not finished.
            let report = st.deadlock_report();
            st.fail(FailureKind::Deadlock(report));
            drop(st);
            abort_panic();
        }
    }
    let st = lock(exec);
    if st.aborting {
        drop(st);
        abort_panic();
    }
    debug_assert_eq!(st.threads[tid].status, Status::Runnable);
}

/// Register a new atomic location with an initial store visible to every
/// thread.
pub(crate) fn register_location(init: u64) -> LocId {
    let (exec, _tid) = context();
    let mut st = lock(&exec);
    let id = st.locations.len();
    st.locations.push(Location {
        history: vec![StoreEntry {
            seq: 0,
            value: init,
            rel_view: None,
        }],
        next_seq: 1,
        last_sc: 0,
    });
    id
}

pub(crate) fn register_mutex() -> usize {
    let (exec, _tid) = context();
    let mut st = lock(&exec);
    let id = st.mutexes.len();
    st.mutexes.push(MutexSt {
        owner: None,
        view: View::default(),
    });
    id
}

pub(crate) fn register_condvar() -> usize {
    let (exec, _tid) = context();
    let mut st = lock(&exec);
    let id = st.condvars.len();
    st.condvars.push(CondvarSt {
        waiters: Vec::new(),
    });
    id
}

/// Read a location's latest value without scheduling (Debug impls).
pub(crate) fn peek(loc: LocId) -> u64 {
    let (exec, _tid) = context();
    let st = lock(&exec);
    st.locations[loc]
        .history
        .last()
        .map(|e| e.value)
        .unwrap_or(0)
}

pub(crate) fn with_state<R>(f: impl FnOnce(&mut ExecState, Tid) -> R) -> R {
    let (exec, tid) = context();
    let mut st = lock(&exec);
    f(&mut st, tid)
}

pub(crate) fn exec_handle() -> (Arc<Exec>, Tid) {
    context()
}

/// Spawn a model thread. The child inherits the parent's view (everything
/// the parent did happens-before the child's first step).
pub(crate) fn spawn_thread<F, T>(f: F) -> Tid
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let (exec, tid) = context();
    let child;
    {
        let mut st = lock(&exec);
        if st.aborting {
            drop(st);
            abort_panic();
        }
        child = st.threads.len();
        let parent_view = st.threads[tid].view.clone();
        st.threads.push(ThreadSlot::new(parent_view));
    }
    let exec2 = exec.clone();
    let os = std::thread::Builder::new()
        .name(format!("model-{child}"))
        .spawn(move || thread_main(exec2, child, f))
        .expect("spawn model OS thread");
    let mut st = lock(&exec);
    st.threads[child].os = Some(os);
    child
}

/// Join a model thread: block until it finishes, then join its final view
/// (everything it did happens-before the join returning) and take its
/// result.
pub(crate) fn join_thread(target: Tid) -> Option<Box<dyn Any + Send>> {
    schedule_point();
    let (exec, tid) = context();
    loop {
        let mut st = lock(&exec);
        if st.aborting {
            drop(st);
            abort_panic();
        }
        if st.threads[target].status == Status::Finished {
            let tv = st.threads[target].view.clone();
            st.threads[tid].view.join(&tv);
            return st.threads[target].result.take();
        }
        drop(st);
        block_current(&exec, tid, |st| {
            st.threads[tid].status = Status::BlockedJoin(target);
        });
    }
}

fn payload_to_string(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "model thread panicked with non-string payload".to_string()
    }
}

/// Body shared by the root closure and every spawned model thread.
fn thread_main<F, T>(exec: Arc<Exec>, tid: Tid, f: F)
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    CURRENT.with(|c| *c.borrow_mut() = Some((exec.clone(), tid)));
    let gate = {
        let st = lock(&exec);
        st.threads[tid].gate.clone()
    };
    gate.wait();
    let aborted_before_start = {
        let st = lock(&exec);
        st.aborting
    };
    if aborted_before_start {
        finish_quiet(&exec, tid);
    } else {
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(val) => finish_ok(&exec, tid, Box::new(val)),
            Err(payload) => {
                if payload.is::<AbortExecution>() {
                    finish_quiet(&exec, tid);
                } else {
                    let msg = payload_to_string(payload);
                    let mut st = lock(&exec);
                    st.threads[tid].status = Status::Finished;
                    st.fail(FailureKind::Panic(msg));
                }
            }
        }
    }
    CURRENT.with(|c| *c.borrow_mut() = None);
}

/// Normal completion: wake joiners, hand the token onward (or finish the
/// execution / flag a deadlock if nobody can run).
fn finish_ok(exec: &Exec, tid: Tid, result: Box<dyn Any + Send>) {
    let mut st = lock(exec);
    st.threads[tid].status = Status::Finished;
    st.threads[tid].result = Some(result);
    for t in 0..st.threads.len() {
        if st.threads[t].status == Status::BlockedJoin(tid) {
            st.threads[t].status = Status::Runnable;
        }
    }
    if st.aborting {
        return;
    }
    match st.pick_next(tid) {
        Some(next) => {
            let g = st.threads[next].gate.clone();
            drop(st);
            g.open();
        }
        None => {
            if st.threads.iter().all(|t| t.status == Status::Finished) {
                st.done.open();
            } else {
                let report = st.deadlock_report();
                st.fail(FailureKind::Deadlock(report));
            }
        }
    }
}

/// Teardown-path completion (abort unwind): just mark the slot finished.
fn finish_quiet(exec: &Exec, tid: Tid) {
    let mut st = lock(exec);
    st.threads[tid].status = Status::Finished;
}

/// Tiny splitmix64 for the randomized scheduler; good enough to diversify
/// schedules, and deterministic for a given seed.
#[derive(Clone)]
pub(crate) struct Rng64(u64);

impl Rng64 {
    pub(crate) fn new(seed: u64) -> Self {
        Rng64(seed)
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Run one execution of `f` to completion (or failure) under the given
/// forced decision prefix / RNG, returning the decision trace and the
/// failure, if any.
pub(crate) fn run_once<F>(
    f: &Arc<F>,
    prefix: &[u32],
    rng: Option<Rng64>,
    cfg: &ExecCfg,
) -> (Vec<Decision>, Option<FailureKind>)
where
    F: Fn() + Send + Sync + 'static,
{
    let done = Arc::new(Gate::new());
    let exec = Arc::new(Exec {
        st: OsMutex::new(ExecState {
            threads: vec![ThreadSlot::new(View::default())],
            locations: Vec::new(),
            mutexes: Vec::new(),
            condvars: Vec::new(),
            sc_fence: View::default(),
            current: 0,
            steps: 0,
            preemptions: 0,
            decisions: Vec::new(),
            prefix: prefix.to_vec(),
            cursor: 0,
            rng,
            failure: None,
            aborting: false,
            cfg: cfg.clone(),
            done: done.clone(),
        }),
        done,
    });
    let gate0 = {
        let st = lock(&exec);
        st.threads[0].gate.clone()
    };
    let exec2 = exec.clone();
    let f2 = f.clone();
    let h = std::thread::Builder::new()
        .name("model-0".into())
        .spawn(move || thread_main(exec2, 0, move || f2()))
        .expect("spawn model root thread");
    {
        let mut st = lock(&exec);
        st.threads[0].os = Some(h);
    }
    gate0.open();
    exec.done.wait();
    // Every live thread has been released (normal finish or abort); wait
    // for the OS threads to actually unwind before reading final state.
    let handles: Vec<_> = {
        let mut st = lock(&exec);
        st.threads.iter_mut().filter_map(|t| t.os.take()).collect()
    };
    for h in handles {
        let _ = h.join();
    }
    let mut st = lock(&exec);
    (std::mem::take(&mut st.decisions), st.failure.take())
}
