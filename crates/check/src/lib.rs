//! `parcsr-check`: a loom-lite deterministic schedule explorer with a
//! vector-clock happens-before race detector, sized for the chunk-parallel
//! kernels in this workspace.
//!
//! The paper's algorithms are correct only because of delicate chunk-boundary
//! handling: Algorithm 3's `globalTempDegree` side array exists precisely so
//! two processors whose chunks share a node never write the same degree slot,
//! and the TCSR build merges boundary frames for the same reason. This crate
//! makes those disjointness arguments *checkable*:
//!
//! * A model is a closure run under [`model`] / [`check`]. Inside it,
//!   [`spawn`]/[`JoinHandle::join`] create logical threads (each backed by a
//!   real OS thread, but only one ever runs at a time), and [`Slice`]/[`Cell`]
//!   provide instrumented shared memory.
//! * Every instrumented operation is a *schedule point*: the scheduler may
//!   switch to any runnable thread there. The driver explores **every**
//!   distinct interleaving at that granularity, depth-first, replaying a
//!   recorded decision prefix and branching on the last unexplored choice.
//! * Each access is checked against the location's history with vector
//!   clocks (fork and join are the happens-before edges). Two accesses to
//!   the same location, at least one a write, with no happens-before edge
//!   between them, are reported as a [`Race`] — in *whatever* interleaving
//!   the explorer happens to be running, which is why even one execution of
//!   a racy model is typically enough to catch it.
//!
//! ```
//! use parcsr_check as check;
//!
//! // Two threads writing disjoint slots: race-free, all schedules pass.
//! let report = check::model(|| {
//!     let s = check::Slice::new(vec![0u32; 2]).named("out");
//!     let a = { let s = s.clone(); check::spawn(move || s.write(0, 1)) };
//!     let b = { let s = s.clone(); check::spawn(move || s.write(1, 2)) };
//!     a.join();
//!     b.join();
//!     assert_eq!(s.snapshot(), [1, 2]);
//! });
//! assert!(report.executions >= 2);
//!
//! // Two threads writing the *same* slot: flagged as a write-write race.
//! let err = check::check(|| {
//!     let s = check::Slice::new(vec![0u32; 1]).named("shared");
//!     let a = { let s = s.clone(); check::spawn(move || s.write(0, 1)) };
//!     let b = { let s = s.clone(); check::spawn(move || s.write(0, 2)) };
//!     a.join();
//!     b.join();
//! });
//! assert!(err.is_err());
//! ```
//!
//! Scope and deliberate limits:
//!
//! * Fork/join is the only synchronization primitive — exactly what the
//!   paper's `sync()` barriers compile to in the rayon-phase kernels. Locks
//!   and condvars are out of scope.
//! * Relaxed atomic stores in shipped kernels are modeled as **plain**
//!   accesses on purpose: the kernels' correctness claim is
//!   disjointness-by-construction, and that is the claim being verified.
//! * A model body that panics mid-run (a failed assertion) propagates, but
//!   any still-unjoined logical threads leak their parked OS threads; write
//!   assertions after all joins.

mod sched;
mod shared;

use std::cell::RefCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

pub use sched::Race;
pub use shared::{Cell, Slice};

use sched::Exec;

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Exec>, usize)>> = const { RefCell::new(None) };
}

/// The current `(execution, logical thread id)`; panics outside a model.
fn current() -> (Arc<Exec>, usize) {
    CURRENT.with(|c| {
        c.borrow()
            .clone()
            .expect("parcsr-check primitives must be used inside parcsr_check::model / ::check")
    })
}

/// The current execution; panics outside a model.
fn current_exec() -> Arc<Exec> {
    current().0
}

/// Outcome of a completed (race-free) exploration.
#[derive(Debug, Clone)]
pub struct Report {
    /// Number of distinct schedules executed.
    pub executions: usize,
    /// One entry per execution that produced a non-empty [`trace`] log:
    /// the ordered `(thread id, tag)` pairs observed under that schedule.
    pub traces: Vec<Vec<(usize, u32)>>,
}

/// Exploration limits.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Abort (panic) if the schedule space exceeds this many executions.
    pub max_executions: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            max_executions: 200_000,
        }
    }
}

/// Handle to a logical thread created by [`spawn`].
#[derive(Debug)]
pub struct JoinHandle<T> {
    tid: usize,
    exec: Arc<Exec>,
    result: Arc<Mutex<Option<std::thread::Result<T>>>>,
    os: std::thread::JoinHandle<()>,
}

impl<T> JoinHandle<T> {
    /// The logical thread id (0 is the model body itself).
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Blocks (scheduler-visibly) until the thread finishes and returns its
    /// value, establishing the join happens-before edge. Panics from the
    /// thread propagate.
    pub fn join(self) -> T {
        let (exec, me) = current();
        assert!(
            Arc::ptr_eq(&exec, &self.exec),
            "parcsr-check: join from a different execution"
        );
        exec.join_logical(me, self.tid);
        self.os.join().expect("parcsr-check worker thread");
        match self.result.lock().unwrap().take() {
            Some(Ok(v)) => v,
            Some(Err(panic)) => resume_unwind(panic),
            None => unreachable!("joined thread stored no result"),
        }
    }
}

/// Spawns a logical thread inside a model. The closure runs under scheduler
/// control; every instrumented access in it is an interleaving point.
pub fn spawn<T, F>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let (exec, me) = current();
    let tid = exec.spawn_register(me);
    let result: Arc<Mutex<Option<std::thread::Result<T>>>> = Arc::new(Mutex::new(None));
    let worker_exec = Arc::clone(&exec);
    let worker_result = Arc::clone(&result);
    let os = std::thread::Builder::new()
        .name(format!("parcsr-check-{tid}"))
        .spawn(move || {
            CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&worker_exec), tid)));
            worker_exec.wait_first_grant(tid);
            let r = catch_unwind(AssertUnwindSafe(f));
            *worker_result.lock().unwrap() = Some(r);
            worker_exec.finish(tid);
        })
        .expect("spawn parcsr-check worker");
    JoinHandle {
        tid,
        exec,
        result,
        os,
    }
}

/// A pure schedule point: lets the scheduler switch threads here without
/// touching shared memory.
pub fn yield_point() {
    let (exec, me) = current();
    exec.schedule_point(me);
}

/// A schedule point that also appends `(thread id, tag)` to the execution's
/// trace log, collected per execution into [`Report::traces`]. Used by the
/// exhaustiveness tests to prove every interleaving of the trace points is
/// visited.
pub fn trace(tag: u32) {
    let (exec, me) = current();
    exec.schedule_point(me);
    exec.push_trace(me, tag);
}

/// Explores every schedule of `body`; returns the report, or the first
/// detected race (exploration stops at the first racy schedule).
pub fn check<F: Fn()>(body: F) -> Result<Report, Race> {
    check_with(Options::default(), body)
}

/// [`check`] with explicit limits.
pub fn check_with<F: Fn()>(opts: Options, body: F) -> Result<Report, Race> {
    let mut prefix: Vec<usize> = Vec::new();
    let mut executions = 0usize;
    let mut traces = Vec::new();
    loop {
        executions += 1;
        assert!(
            executions <= opts.max_executions,
            "parcsr-check: schedule space exceeds {} executions — shrink the model",
            opts.max_executions
        );
        let exec = Arc::new(Exec::new(prefix.clone()));
        CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(&exec), 0)));
        let run = catch_unwind(AssertUnwindSafe(&body));
        CURRENT.with(|c| *c.borrow_mut() = None);
        if let Err(panic) = run {
            resume_unwind(panic);
        }
        exec.assert_all_finished();
        let s = exec.sched.lock().unwrap();
        if let Some(race) = &s.race {
            return Err(race.clone());
        }
        if !s.trace.is_empty() {
            traces.push(s.trace.clone());
        }
        // Depth-first backtrack: advance the deepest pick that still has an
        // unexplored alternative; drop everything after it.
        let mut points = s.points.clone();
        drop(s);
        let next = loop {
            match points.pop() {
                None => break None,
                Some(p) if p.pick + 1 < p.n_enabled => {
                    let mut pre: Vec<usize> = points.iter().map(|q| q.pick).collect();
                    pre.push(p.pick + 1);
                    break Some(pre);
                }
                Some(_) => {}
            }
        };
        match next {
            Some(pre) => prefix = pre,
            None => {
                return Ok(Report { executions, traces });
            }
        }
    }
}

/// Explores every schedule of `body`, panicking on the first detected race.
pub fn model<F: Fn()>(body: F) -> Report {
    match check(body) {
        Ok(report) => report,
        Err(race) => panic!("parcsr-check: race detected: {race}"),
    }
}
