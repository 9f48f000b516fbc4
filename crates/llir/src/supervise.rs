//! Supervised kernel execution: deadlines, cooperative cancellation,
//! transactional outputs, and a progress report.
//!
//! A bare [`run_body`] (what [`Executable::run`](crate::Executable::run) is)
//! is fire-and-forget: a pathological input (a dense row that explodes a
//! Gustavson workspace, a corrupted `pos` array that drives a merge loop
//! forever) can run unbounded wall-clock, and a mid-flight error leaves
//! output arrays half-written. A [`Supervisor`] wraps a run of either
//! [`KernelBody`] — the interpreter or the native shared object — with
//!
//! * a **wall-clock deadline** and a cooperative [`CancelToken`], both
//!   checked at loop back-edges alongside the iteration fuse;
//! * a **transactional output guarantee** — writable parameter arrays are
//!   snapshotted before the run and restored on any error, cancel or
//!   deadline, so the caller-visible [`Binding`] is byte-identical to its
//!   pre-run state whenever [`Supervisor::run`] returns [`Aborted`];
//! * a **progress report** — the budget meter's counters at the end of the
//!   run, in the [`ExecReport`] of a commit or the [`Aborted`] of an abort.
//!
//! The state machine is `running → committed | aborted`: a run either
//! commits all its outputs (including scalar outputs) or none of them.

use crate::{
    run_body, Binding, BudgetResource, KernelBody, ParamKind, ResourceBudget, RunControls,
    RunError,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------------

/// A cooperative cancellation flag shared between a running kernel and any
/// number of controller threads.
///
/// Cloning the token shares the flag; calling [`CancelToken::cancel`] from
/// any clone makes the interpreter abort at the next loop back-edge with
/// [`RunError::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent and callable from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    fn flag(&self) -> &AtomicBool {
        &self.0
    }
}

// ---------------------------------------------------------------------------
// Progress
// ---------------------------------------------------------------------------

/// A point-in-time snapshot of how far a run has progressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Progress {
    /// Loop iterations executed so far (the same count the iteration fuse
    /// meters).
    pub iterations: u64,
    /// Bytes allocated by `Alloc`/`Realloc` so far.
    pub allocated_bytes: u64,
    /// Largest single array allocation charged so far (the high-water mark
    /// the static cost analysis must dominate).
    pub peak_single_bytes: u64,
    /// Largest map-workspace footprint (capacity × entry bytes, doubling
    /// included) charged so far.
    pub peak_map_bytes: u64,
    /// The row ranges a parallel kernel ran as (1 when it ran whole on one
    /// thread, 0 for a serial kernel).
    pub workers: u64,
}

impl Progress {
    /// The largest single resident allocation the run has needed so far —
    /// the maximum of the array and map high-water marks. This is the
    /// observable a [`crate::ResourceBudget::max_workspace_bytes`] limit
    /// polices and the one the static cost bound must be ≥ of.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_single_bytes.max(self.peak_map_bytes)
    }
}

impl std::fmt::Display for Progress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} iterations, {} bytes allocated", self.iterations, self.allocated_bytes)?;
        if self.workers > 0 {
            write!(f, ", {} workers", self.workers)?;
        }
        Ok(())
    }
}

/// What a committed run reports back: wall-clock time and final progress
/// counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecReport {
    /// Total wall-clock time of the run.
    pub elapsed: Duration,
    /// Final progress counters.
    pub progress: Progress,
}

impl ExecReport {
    /// A one-line human-readable account of the run, e.g. for examples and
    /// bench output.
    pub fn summary(&self) -> String {
        format!("committed in {:.3} ms ({})", self.elapsed.as_secs_f64() * 1e3, self.progress)
    }
}

// ---------------------------------------------------------------------------
// Abort
// ---------------------------------------------------------------------------

/// Why a supervised run was rolled back.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AbortReason {
    /// A [`CancelToken`] was triggered.
    Cancelled,
    /// The wall-clock deadline expired.
    DeadlineExceeded {
        /// The configured deadline.
        deadline: Duration,
        /// Elapsed wall-clock time when the overrun was detected.
        elapsed: Duration,
    },
    /// A [`ResourceBudget`] limit was exceeded mid-run.
    BudgetExceeded {
        /// Which limit was violated.
        resource: BudgetResource,
        /// The configured ceiling.
        limit: u64,
        /// What the kernel tried to use.
        requested: u64,
        /// The array involved, when the violation is tied to one.
        array: Option<String>,
    },
    /// Any other runtime failure (out-of-bounds access, missing binding,
    /// division by zero, ...).
    Failed(RunError),
}

impl AbortReason {
    /// True for aborts that a degraded schedule might avoid (deadline and
    /// budget overruns). Cancellation and genuine runtime failures are not
    /// retried.
    pub fn is_retryable(&self) -> bool {
        matches!(self, AbortReason::DeadlineExceeded { .. } | AbortReason::BudgetExceeded { .. })
    }

    /// Classifies a [`RunError`] as an abort reason.
    fn from_run_error(e: RunError) -> AbortReason {
        match e {
            RunError::Cancelled => AbortReason::Cancelled,
            RunError::DeadlineExceeded { deadline_ms, elapsed_ms } => {
                AbortReason::DeadlineExceeded {
                    deadline: Duration::from_millis(deadline_ms),
                    elapsed: Duration::from_millis(elapsed_ms),
                }
            }
            RunError::BudgetExceeded { resource, limit, requested, array } => {
                AbortReason::BudgetExceeded { resource, limit, requested, array }
            }
            other => AbortReason::Failed(other),
        }
    }
}

impl std::fmt::Display for AbortReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AbortReason::Cancelled => write!(f, "cancelled by caller"),
            AbortReason::DeadlineExceeded { deadline, elapsed } => write!(
                f,
                "deadline of {:.1} ms exceeded after {:.1} ms",
                deadline.as_secs_f64() * 1e3,
                elapsed.as_secs_f64() * 1e3
            ),
            AbortReason::BudgetExceeded { resource, limit, requested, array } => {
                write!(f, "{resource} budget exceeded: limit {limit}, needed {requested}")?;
                if let Some(name) = array {
                    write!(f, " (array `{name}`)")?;
                }
                Ok(())
            }
            AbortReason::Failed(e) => write!(f, "runtime failure: {e}"),
        }
    }
}

/// A supervised run that was rolled back. The binding the run was given is
/// byte-identical to its pre-run state.
#[derive(Debug, Clone, PartialEq)]
pub struct Aborted {
    /// Why the run was rolled back.
    pub reason: AbortReason,
    /// How far the run had progressed when it was stopped.
    pub progress: Progress,
    /// Wall-clock time spent before the rollback.
    pub elapsed: Duration,
}

impl std::fmt::Display for Aborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "aborted after {:.3} ms ({}): {}; outputs rolled back",
            self.elapsed.as_secs_f64() * 1e3,
            self.progress,
            self.reason
        )
    }
}

impl std::error::Error for Aborted {}

// ---------------------------------------------------------------------------
// Supervisor
// ---------------------------------------------------------------------------

/// Configuration for supervised execution: deadline, cancellation token
/// and resource budget.
///
/// # Example
///
/// ```
/// use std::time::Duration;
/// use taco_llir::{ArrayTy, Binding, Executable, Expr, Kernel, Param, Stmt, Supervisor};
///
/// let kernel = Kernel::new("scale")
///     .scalar_param("n")
///     .array_param(Param::input("x", ArrayTy::F64))
///     .array_param(Param::output("out", ArrayTy::F64))
///     .body(vec![Stmt::for_(
///         "i",
///         Expr::int(0),
///         Expr::var("n"),
///         vec![Stmt::store("out", Expr::var("i"), Expr::float(2.0) * Expr::load("x", Expr::var("i")))],
///     )]);
/// let exe = Executable::compile(&kernel)?;
/// let mut b = Binding::new();
/// b.set_scalar("n", 3);
/// b.set_f64("x", vec![1.0, 2.0, 3.0]);
/// b.set_f64("out", vec![0.0; 3]);
///
/// let supervisor = Supervisor::new().with_deadline(Duration::from_secs(5));
/// let report = supervisor.run(&exe, &mut b).expect("well within deadline");
/// assert_eq!(b.f64_array("out").unwrap(), &[2.0, 4.0, 6.0]);
/// assert!(report.elapsed < Duration::from_secs(5));
/// # Ok::<(), taco_llir::CompileError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Supervisor {
    deadline: Option<Duration>,
    deadline_at: Option<Instant>,
    budget: ResourceBudget,
    cancel: CancelToken,
}

impl Supervisor {
    /// A supervisor with no deadline, no budget, and a fresh cancel token.
    pub fn new() -> Supervisor {
        Supervisor::default()
    }

    /// Sets the wall-clock deadline for each supervised run.
    pub fn with_deadline(mut self, deadline: Duration) -> Supervisor {
        self.deadline = Some(deadline);
        self
    }

    /// Sets an *absolute* deadline instant, the form a deadline-scheduling
    /// server hands down: time a request spent queued counts against it,
    /// unlike [`Supervisor::with_deadline`] whose budget starts at run
    /// start. When both are set, whichever expires first wins. An instant
    /// already in the past aborts the run at the first supervision check.
    pub fn with_deadline_at(mut self, at: Instant) -> Supervisor {
        self.deadline_at = Some(at);
        self
    }

    /// Sets the resource budget enforced during each supervised run.
    pub fn with_budget(mut self, budget: ResourceBudget) -> Supervisor {
        self.budget = budget;
        self
    }

    /// Shares an externally controlled cancellation token.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Supervisor {
        self.cancel = token;
        self
    }

    /// The cancellation token runs under this supervisor observe.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The configured budget.
    pub fn budget(&self) -> ResourceBudget {
        self.budget
    }

    /// The allowance a run starting at `start` has: the tighter of the
    /// relative deadline and what remains of the absolute one. An instant
    /// already in the past is a zero allowance, aborting at the first
    /// supervision check.
    fn allowance(&self, start: Instant) -> Option<Duration> {
        let remaining = self.deadline_at.map(|at| at.saturating_duration_since(start));
        match (self.deadline, remaining) {
            (Some(rel), Some(abs)) => Some(rel.min(abs)),
            (rel, abs) => rel.or(abs),
        }
    }

    /// Runs `body` — the interpreter's [`Executable`](crate::Executable) or
    /// a native kernel — against `binding` transactionally: on success every
    /// output (arrays and scalar outputs) is committed to `binding` and an
    /// [`ExecReport`] is returned; on *any* failure — deadline,
    /// cancellation, budget, or runtime error — writable arrays are restored
    /// from their pre-run snapshot so `binding` is byte-identical to its
    /// pre-run state. Snapshot, deadline resolution, metering and rollback
    /// are this function on both backends; the body only executes.
    ///
    /// # Errors
    ///
    /// Returns [`Aborted`] carrying the typed reason and the budget meter's
    /// counters at the moment the run was stopped.
    pub fn run<B: KernelBody>(
        &self,
        body: &B,
        binding: &mut Binding,
    ) -> Result<ExecReport, Aborted> {
        // A kernel stores only into output and inout parameters: inputs are
        // read-only by check (`Executable::compile` refuses a write to one,
        // and every body is compiled through it), so snapshotting the
        // writable parameters is enough for byte-identical restoration.
        let writable = body
            .array_params()
            .filter(|(.., kind)| *kind != ParamKind::Input)
            .map(|(name, ..)| name);
        let snapshot = binding.snapshot(writable);

        let start = Instant::now();
        let (progress, result) = run_body(
            body,
            binding,
            &self.budget,
            RunControls {
                cancel: Some(self.cancel.flag()),
                deadline: self.allowance(start).map(|d| (start, d)),
            },
        );
        let elapsed = start.elapsed();

        match result {
            Ok(()) => Ok(ExecReport { elapsed, progress }),
            Err(e) => {
                // `run_body` has already moved the parameter arrays back
                // into the binding; overwrite the writable ones with their
                // snapshots.
                binding.restore(snapshot);
                Err(Aborted { reason: AbortReason::from_run_error(e), progress, elapsed })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrayTy, Executable, Expr, Kernel, Param, Stmt};

    /// out[0..n] = x[0..n] * 2, with a spin loop of `spin` iterations first.
    fn spin_then_scale() -> Kernel {
        Kernel::new("spin_scale")
            .scalar_param("n")
            .scalar_param("spin")
            .array_param(Param::input("x", ArrayTy::F64))
            .array_param(Param::output("out", ArrayTy::F64))
            .body(vec![
                Stmt::for_("s", Expr::int(0), Expr::var("spin"), vec![]),
                Stmt::for_(
                    "i",
                    Expr::int(0),
                    Expr::var("n"),
                    vec![Stmt::store(
                        "out",
                        Expr::var("i"),
                        Expr::float(2.0) * Expr::load("x", Expr::var("i")),
                    )],
                ),
            ])
    }

    fn binding(spin: i64) -> Binding {
        let mut b = Binding::new();
        b.set_scalar("n", 3).set_scalar("spin", spin);
        b.set_f64("x", vec![1.0, 2.0, 3.0]);
        b.set_f64("out", vec![-1.0, -2.0, -3.0]);
        b
    }

    #[test]
    fn commits_outputs_and_reports_progress() {
        let exe = Executable::compile(&spin_then_scale()).unwrap();
        let mut b = binding(10);
        let report = Supervisor::new().run(&exe, &mut b).expect("commits");
        assert_eq!(b.f64_array("out").unwrap(), &[2.0, 4.0, 6.0]);
        assert_eq!(report.progress.iterations, 13);
    }

    #[test]
    fn precancelled_token_rolls_back_before_any_visible_write() {
        let exe = Executable::compile(&spin_then_scale()).unwrap();
        let supervisor = Supervisor::new();
        supervisor.cancel_token().cancel();
        let mut b = binding(10);
        let before = b.clone();
        let err = supervisor.run(&exe, &mut b).unwrap_err();
        assert_eq!(err.reason, AbortReason::Cancelled);
        assert_eq!(b, before, "binding must be byte-identical after an abort");
    }

    #[test]
    fn cancel_from_another_thread_stops_a_long_run() {
        let exe = Executable::compile(&spin_then_scale()).unwrap();
        let supervisor = Supervisor::new();
        let token = supervisor.cancel_token();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            token.cancel();
        });
        let mut b = binding(i64::MAX);
        let before = b.clone();
        let err = supervisor.run(&exe, &mut b).unwrap_err();
        canceller.join().unwrap();
        assert_eq!(err.reason, AbortReason::Cancelled);
        assert_eq!(b, before);
        assert!(err.progress.iterations > 0, "made progress before the cancel");
    }

    #[test]
    fn deadline_aborts_and_rolls_back() {
        let exe = Executable::compile(&spin_then_scale()).unwrap();
        let supervisor = Supervisor::new().with_deadline(Duration::from_millis(30));
        let mut b = binding(i64::MAX);
        let before = b.clone();
        let err = supervisor.run(&exe, &mut b).unwrap_err();
        match err.reason {
            AbortReason::DeadlineExceeded { deadline, elapsed } => {
                assert_eq!(deadline, Duration::from_millis(30));
                assert!(elapsed >= deadline);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(b, before);
    }

    #[test]
    fn absolute_deadline_counts_time_spent_before_the_run() {
        let exe = Executable::compile(&spin_then_scale()).unwrap();
        // A deadline instant already behind us: the run must abort at the
        // first supervision check with the binding untouched, exactly as a
        // zero relative deadline would.
        let supervisor = Supervisor::new().with_deadline_at(Instant::now());
        let mut b = binding(i64::MAX);
        let before = b.clone();
        let err = supervisor.run(&exe, &mut b).unwrap_err();
        assert!(
            matches!(err.reason, AbortReason::DeadlineExceeded { .. }),
            "expected DeadlineExceeded, got {:?}",
            err.reason
        );
        assert_eq!(b, before);

        // A generous absolute deadline commits; the tighter of (relative,
        // absolute) governs, so pairing it with a tiny relative one aborts.
        let mut ok = binding(10);
        Supervisor::new()
            .with_deadline_at(Instant::now() + Duration::from_secs(60))
            .run(&exe, &mut ok)
            .expect("well within the absolute deadline");
        let mut both = binding(i64::MAX);
        let err = Supervisor::new()
            .with_deadline_at(Instant::now() + Duration::from_secs(60))
            .with_deadline(Duration::from_millis(20))
            .run(&exe, &mut both)
            .unwrap_err();
        assert!(matches!(err.reason, AbortReason::DeadlineExceeded { .. }));
    }

    #[test]
    fn budget_abort_is_transactional_too() {
        let exe = Executable::compile(&spin_then_scale()).unwrap();
        let supervisor = Supervisor::new()
            .with_budget(ResourceBudget::unlimited().with_max_loop_iterations(5));
        let mut b = binding(1000);
        let before = b.clone();
        let err = supervisor.run(&exe, &mut b).unwrap_err();
        assert!(matches!(err.reason, AbortReason::BudgetExceeded { .. }));
        assert!(err.reason.is_retryable());
        assert_eq!(b, before);
    }

    #[test]
    fn runtime_failure_rolls_back_partial_writes() {
        // Writes out[0] then faults on out[99]: the write to out[0] must not
        // be visible after the abort.
        let k = Kernel::new("partial")
            .array_param(Param::output("out", ArrayTy::F64))
            .body(vec![
                Stmt::store("out", Expr::int(0), Expr::float(7.0)),
                Stmt::store("out", Expr::int(99), Expr::float(8.0)),
            ]);
        let exe = Executable::compile(&k).unwrap();
        let mut b = Binding::new();
        b.set_f64("out", vec![0.0; 3]);
        let before = b.clone();
        let err = Supervisor::new().run(&exe, &mut b).unwrap_err();
        assert!(matches!(err.reason, AbortReason::Failed(RunError::OutOfBounds { .. })));
        assert!(!err.reason.is_retryable());
        assert_eq!(b, before, "partial store must be rolled back");
    }

    #[test]
    fn plain_run_still_exposes_partial_state() {
        // The unsupervised path intentionally keeps partial outputs for
        // debugging; the supervised path is the transactional one.
        let k = Kernel::new("partial")
            .array_param(Param::output("out", ArrayTy::F64))
            .body(vec![
                Stmt::store("out", Expr::int(0), Expr::float(7.0)),
                Stmt::store("out", Expr::int(99), Expr::float(8.0)),
            ]);
        let exe = Executable::compile(&k).unwrap();
        let mut b = Binding::new();
        b.set_f64("out", vec![0.0; 3]);
        assert!(exe.run(&mut b).is_err());
        assert_eq!(b.f64_array("out").unwrap(), &[7.0, 0.0, 0.0]);
    }

    #[test]
    fn report_summary_and_abort_display_are_human_readable() {
        let report = ExecReport {
            elapsed: Duration::from_millis(12),
            progress: Progress {
                iterations: 42,
                allocated_bytes: 1024,
                ..Progress::default()
            },
        };
        let s = report.summary();
        assert!(s.contains("42 iterations") && s.contains("1024 bytes"), "{s}");

        let aborted = Aborted {
            reason: AbortReason::DeadlineExceeded {
                deadline: Duration::from_millis(50),
                elapsed: Duration::from_millis(61),
            },
            progress: Progress { iterations: 9, ..Progress::default() },
            elapsed: Duration::from_millis(61),
        };
        let s = aborted.to_string();
        assert!(s.contains("deadline") && s.contains("rolled back"), "{s}");
        assert!(AbortReason::Cancelled.to_string().contains("cancel"));
    }
}
