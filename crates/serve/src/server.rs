//! The serving daemon: bounded admission queue with typed backpressure,
//! earliest-deadline-first dispatch, a supervised worker pool over one
//! shared [`Engine`], and graceful drain.
//!
//! Life of a request:
//!
//! ```text
//!              submit()                    worker pop (EDF)
//! Request ──▶ admission ──▶ bounded queue ──▶ dispatch check ──▶ supervised run
//!               │ typed                          │                   │
//!               ▼                                ▼                   ▼
//!           Rejected::{QueueFull,          Outcome::Aborted      Outcome::{Completed,
//!             QuotaExhausted,              (expired in queue)      Aborted, Failed}
//!             DeadlineInfeasible,
//!             BudgetInfeasible,
//!             ShuttingDown}
//! ```
//!
//! Admission is where overload is shed: when the queue is full, a tenant
//! quota is exhausted, the symbolic cost analyzer proves the request can
//! never fit its budget, or the estimated queue wait already makes the
//! deadline infeasible, the request is rejected with a typed
//! [`Rejected`] reason *before* it can waste a worker. Everything admitted
//! gets exactly one typed [`Outcome`] through its [`Ticket`], including
//! across [`Server::drain`] and [`Server::shutdown_now`].

use crate::admission;
use crate::policy::{fmt_ms, TenantPolicy, TokenBucket};
use crate::stats::{ServerStats, TenantCounters};
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use taco_core::{
    AbortReason, CancelToken, CoreError, DegradeRung, ExecReport, FallbackEvent, IndexStmt,
    Supervisor,
};
use taco_lower::LowerOptions;
use taco_runtime::{Engine, EngineError};
use taco_tensor::Tensor;

// ---------------------------------------------------------------------------
// Request / response types
// ---------------------------------------------------------------------------

/// Dispatch tiebreak between requests whose deadlines coincide. Deadlines
/// order the queue (EDF); priority only breaks ties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Served last among equal deadlines.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Served first among equal deadlines.
    High,
}

/// One unit of work submitted to the server: an expression, its operands,
/// and the tenant's service expectations.
#[derive(Debug, Clone)]
pub struct Request {
    /// Tenant the request is billed to (selects the [`TenantPolicy`]).
    pub tenant: String,
    /// The statement to compile (through the shared kernel cache) and run.
    pub stmt: IndexStmt,
    /// Lowering options for the statement.
    pub opts: LowerOptions,
    /// Named operand tensors. `Arc` so a load generator sharing one operand
    /// set across thousands of requests does not clone tensor storage.
    pub operands: Vec<(String, Arc<Tensor>)>,
    /// Pre-assembled output structure for compute kernels with sparse
    /// results, if the kernel needs one.
    pub output_structure: Option<Arc<Tensor>>,
    /// Relative deadline, measured from admission. Queue wait counts
    /// against it: the run is supervised with the *absolute* instant
    /// `admitted + deadline` ([`Supervisor::with_deadline_at`]).
    pub deadline: Duration,
    /// Tiebreak among equal deadlines.
    pub priority: Priority,
}

impl Request {
    /// A request with [`Priority::Normal`] and no output structure.
    pub fn new(
        tenant: impl Into<String>,
        stmt: IndexStmt,
        opts: LowerOptions,
        operands: Vec<(String, Arc<Tensor>)>,
        deadline: Duration,
    ) -> Request {
        Request {
            tenant: tenant.into(),
            stmt,
            opts,
            operands,
            output_structure: None,
            deadline,
            priority: Priority::Normal,
        }
    }

    /// Sets the dispatch priority.
    #[must_use]
    pub fn with_priority(mut self, priority: Priority) -> Request {
        self.priority = priority;
        self
    }

    /// Supplies a pre-assembled output structure.
    #[must_use]
    pub fn with_output_structure(mut self, structure: Arc<Tensor>) -> Request {
        self.output_structure = Some(structure);
        self
    }
}

/// Which admission quota a rejected request ran into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quota {
    /// The token-bucket rate limit ([`TenantPolicy::rate_per_sec`]).
    Rate,
    /// The in-flight cap ([`TenantPolicy::max_in_flight`]).
    InFlight,
}

/// Typed backpressure: why a request was refused *at admission*. Shed
/// requests never occupy a worker; the caller can retry, degrade its own
/// deadline, or back off.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Rejected {
    /// The bounded admission queue is at capacity.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// A per-tenant quota is exhausted.
    QuotaExhausted {
        /// The tenant whose quota ran out.
        tenant: String,
        /// Which quota.
        quota: Quota,
    },
    /// The estimated queue wait already exceeds the request's deadline, so
    /// admitting it would only waste a worker on a doomed run.
    DeadlineInfeasible {
        /// The deadline the request asked for.
        deadline: Duration,
        /// The server's queue-wait estimate at admission.
        estimated_wait: Duration,
    },
    /// The symbolic cost analyzer proved the request can never run under
    /// the budget it would face: the dense workspace bound exceeds the
    /// workspace-byte limit, no sparse fallback's initial footprint fits,
    /// and the direct-merge kernel is unrealizable. Shed before queuing or
    /// compiling anything.
    BudgetInfeasible {
        /// The tenant whose budget the request cannot fit.
        tenant: String,
        /// The workspace whose proven bound trips the limit.
        workspace: String,
        /// The analyzer's proven lower-resident requirement in bytes
        /// (`u64::MAX` when the bound is symbolic but unbounded).
        bound_bytes: u64,
        /// The effective workspace-byte limit (tenant policy min engine
        /// budget).
        budget_bytes: u64,
    },
    /// The server is draining and admits nothing new.
    ShuttingDown,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} requests)")
            }
            Rejected::QuotaExhausted { tenant, quota: Quota::Rate } => {
                write!(f, "tenant `{tenant}` over its request-rate quota")
            }
            Rejected::QuotaExhausted { tenant, quota: Quota::InFlight } => {
                write!(f, "tenant `{tenant}` at its in-flight request cap")
            }
            Rejected::DeadlineInfeasible { deadline, estimated_wait } => write!(
                f,
                "deadline {} infeasible: estimated queue wait {}",
                fmt_ms(*deadline),
                fmt_ms(*estimated_wait)
            ),
            Rejected::BudgetInfeasible { tenant, workspace, bound_bytes, budget_bytes } => write!(
                f,
                "tenant `{tenant}`: workspace `{workspace}` provably needs {bound_bytes} bytes, \
                 over the {budget_bytes}-byte budget, with no viable fallback"
            ),
            Rejected::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for Rejected {}

/// The typed, per-request end state of everything that was admitted. A
/// tenant's pathological request aborts *its own* outcome — never the
/// process, never another tenant's result.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Outcome {
    /// The run committed.
    Completed {
        /// The computed tensor.
        result: Tensor,
        /// The degradation-ladder rung that produced it
        /// ([`DegradeRung::AsScheduled`] when nothing degraded).
        rung: DegradeRung,
        /// Wall-clock and progress counters of the committing run.
        report: ExecReport,
        /// True when the first-rung kernel was served warm from the shared
        /// cache (hit or coalesced onto a concurrent compile).
        cache_hit: bool,
        /// Time spent queued before a worker picked the request up.
        queue_wait: Duration,
        /// Compile-time fallbacks and abandoned rungs, in order.
        fallbacks: Vec<FallbackEvent>,
        /// True when the committing run executed on a trusted native-compiled
        /// kernel rather than the interpreter.
        native: bool,
    },
    /// The run (or the wait for one) was aborted; any partial output was
    /// rolled back by the supervisor's transactional guarantee.
    Aborted {
        /// Why: deadline, cancellation (drain), budget, or runtime failure.
        reason: AbortReason,
        /// Time spent queued.
        queue_wait: Duration,
    },
    /// The request could never run: compile or bind error, or a
    /// verify-denied kernel under the tenant's policy.
    Failed {
        /// Rendered error.
        message: String,
    },
}

impl Outcome {
    /// The committed tensor, if the request completed.
    pub fn result(&self) -> Option<&Tensor> {
        match self {
            Outcome::Completed { result, .. } => Some(result),
            _ => None,
        }
    }

    /// True for [`Outcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, Outcome::Completed { .. })
    }
}

/// The caller's handle to an admitted request: blocks (or polls) for the
/// request's single [`Outcome`].
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    tenant: String,
    rx: mpsc::Receiver<Outcome>,
}

impl Ticket {
    /// The server-assigned request id (monotone per server).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The tenant the request was billed to.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Blocks until the outcome arrives. Every admitted request gets one,
    /// including through drain and shutdown.
    pub fn wait(self) -> Outcome {
        self.rx.recv().unwrap_or(Outcome::Failed {
            message: "server dropped the request without an outcome".to_string(),
        })
    }

    /// Waits up to `timeout`; `None` if the outcome has not arrived yet.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Outcome> {
        self.rx.recv_timeout(timeout).ok()
    }
}

// ---------------------------------------------------------------------------
// Scheduler state
// ---------------------------------------------------------------------------

/// A queued, admitted request. Ordered for the `BinaryHeap` so the
/// *earliest absolute deadline* pops first (EDF), priority then submission
/// order breaking ties.
struct QueueEntry {
    deadline_at: Instant,
    priority: Priority,
    seq: u64,
    job: Job,
}

struct Job {
    id: u64,
    tenant: String,
    stmt: IndexStmt,
    opts: LowerOptions,
    operands: Vec<(String, Arc<Tensor>)>,
    output_structure: Option<Arc<Tensor>>,
    requested_deadline: Duration,
    admitted_at: Instant,
    deadline_at: Instant,
    tx: mpsc::Sender<Outcome>,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &QueueEntry) -> bool {
        self.seq == other.seq
    }
}
impl Eq for QueueEntry {}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &QueueEntry) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry {
    fn cmp(&self, other: &QueueEntry) -> std::cmp::Ordering {
        // Max-heap: "greater" pops first. Earlier deadline > later deadline;
        // higher priority breaks deadline ties; earlier submission breaks
        // priority ties (FIFO within a class).
        other
            .deadline_at
            .cmp(&self.deadline_at)
            .then(self.priority.cmp(&other.priority))
            .then(other.seq.cmp(&self.seq))
    }
}

/// Per-tenant scheduler bookkeeping (quota side; counters live in
/// [`TenantCounters`]).
struct TenantSched {
    bucket: TokenBucket,
    /// Requests admitted and not yet finished (queued + running).
    active: usize,
}

/// Everything the admission path and workers coordinate on, under one lock.
struct SchedState {
    queue: BinaryHeap<QueueEntry>,
    draining: bool,
    /// When set (by [`Server::shutdown_now`]), workers complete queued
    /// entries as cancelled without running them.
    cancel_queued: bool,
    running: usize,
    in_flight: HashMap<u64, CancelToken>,
    tenants: HashMap<String, TenantSched>,
    /// Exponential moving average of recent service times, feeding the
    /// admission-time queue-wait estimate. Zero until the first completion.
    ema_service_nanos: u64,
    /// Cost-model service-time prior from the symbolic analyzer's iteration
    /// bound, standing in for the EMA until the first completion seeds it.
    /// Refreshed from the most recent admission that computed one.
    cost_prior_nanos: u64,
    totals: TenantCounters,
    per_tenant: HashMap<String, TenantCounters>,
}

/// Queue-wait estimate as a pure function of scheduler counters: zero while
/// a worker is idle, otherwise the backlog (queued + running, beyond the
/// workers already busy) served across `workers` lanes at the EMA service
/// time — or, before any completion has been observed, at the cost-model
/// prior. Deliberately a heuristic — shedding only needs the right order of
/// magnitude — but a *cold* heuristic of zero admitted everything under any
/// backlog, which is the bug the prior closes.
fn estimate_wait(
    queued: usize,
    running: usize,
    workers: usize,
    ema_nanos: u64,
    prior_nanos: u64,
) -> Duration {
    let service = if ema_nanos > 0 { ema_nanos } else { prior_nanos };
    let pending = queued + running;
    if pending < workers || service == 0 {
        return Duration::ZERO;
    }
    let waves = (queued / workers.max(1)) as u64 + 1;
    Duration::from_nanos(service.saturating_mul(waves))
}

impl SchedState {
    fn estimated_wait(&self, workers: usize) -> Duration {
        estimate_wait(
            self.queue.len(),
            self.running,
            workers,
            self.ema_service_nanos,
            self.cost_prior_nanos,
        )
    }

    fn note_service(&mut self, elapsed: Duration) {
        let nanos = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.ema_service_nanos = if self.ema_service_nanos == 0 {
            nanos
        } else {
            (3 * self.ema_service_nanos + nanos) / 4
        };
    }

    fn counters_mut(&mut self, tenant: &str) -> &mut TenantCounters {
        self.per_tenant.entry(tenant.to_string()).or_default()
    }
}

struct Shared {
    engine: Arc<Engine>,
    workers: usize,
    queue_capacity: usize,
    policies: HashMap<String, TenantPolicy>,
    default_policy: TenantPolicy,
    state: Mutex<SchedState>,
    work_ready: Condvar,
    seq: AtomicU64,
}

impl Shared {
    fn policy_for(&self, tenant: &str) -> &TenantPolicy {
        self.policies.get(tenant).unwrap_or(&self.default_policy)
    }

    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Fluent construction for [`Server`].
pub struct ServerBuilder {
    engine: Option<Arc<Engine>>,
    workers: usize,
    queue_capacity: usize,
    policies: HashMap<String, TenantPolicy>,
    default_policy: TenantPolicy,
}

impl Default for ServerBuilder {
    fn default() -> ServerBuilder {
        ServerBuilder {
            engine: None,
            workers: std::thread::available_parallelism().map_or(2, |n| n.get()).min(4),
            queue_capacity: 64,
            policies: HashMap::new(),
            default_policy: TenantPolicy::default(),
        }
    }
}

impl ServerBuilder {
    /// Serves through an existing (possibly shared) engine instead of a
    /// fresh default one.
    #[must_use]
    pub fn engine(mut self, engine: Arc<Engine>) -> ServerBuilder {
        self.engine = Some(engine);
        self
    }

    /// Sets the worker-pool size (default: `min(available_parallelism, 4)`).
    /// Clamped to at least one.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> ServerBuilder {
        self.workers = workers.max(1);
        self
    }

    /// Sets the bounded admission-queue capacity (default 64). Clamped to
    /// at least one.
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> ServerBuilder {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Registers a tenant's policy. Unregistered tenants get the default
    /// policy.
    #[must_use]
    pub fn tenant(mut self, name: impl Into<String>, policy: TenantPolicy) -> ServerBuilder {
        self.policies.insert(name.into(), policy);
        self
    }

    /// Sets the policy applied to tenants without a registered one
    /// (default: fully permissive).
    #[must_use]
    pub fn default_policy(mut self, policy: TenantPolicy) -> ServerBuilder {
        self.default_policy = policy;
        self
    }

    /// Starts the server: spawns the worker pool and begins admitting.
    #[must_use]
    pub fn build(self) -> Server {
        let shared = Arc::new(Shared {
            engine: self.engine.unwrap_or_else(|| Arc::new(Engine::new())),
            workers: self.workers,
            queue_capacity: self.queue_capacity,
            policies: self.policies,
            default_policy: self.default_policy,
            state: Mutex::new(SchedState {
                queue: BinaryHeap::new(),
                draining: false,
                cancel_queued: false,
                running: 0,
                in_flight: HashMap::new(),
                tenants: HashMap::new(),
                ema_service_nanos: 0,
                cost_prior_nanos: 0,
                totals: TenantCounters::default(),
                per_tenant: HashMap::new(),
            }),
            work_ready: Condvar::new(),
            seq: AtomicU64::new(0),
        });
        let handles = (0..self.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("taco-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Server { shared, handles: Mutex::new(handles) }
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// A long-running, thread-based multi-tenant front end over the kernel
/// [`Engine`]: bounded admission, per-tenant quotas, EDF dispatch,
/// supervised execution with the degrade-and-retry ladder, and graceful
/// drain.
///
/// # Example
///
/// Dropping the server without calling [`Server::drain`] cancels in-flight
/// work and joins the pool ([`Server::shutdown_now`] semantics).
pub struct Server {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Fluent construction.
    pub fn builder() -> ServerBuilder {
        ServerBuilder::default()
    }

    /// A server over a fresh default engine with default sizing.
    pub fn new() -> Server {
        ServerBuilder::default().build()
    }

    /// The shared engine (cache stats, event log, dropped-event counter).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// Admission: accept the request into the bounded EDF queue, or shed it
    /// with a typed reason. Checks, in order: drain state, queue bound,
    /// tenant in-flight cap, budget feasibility (the symbolic cost analyzer
    /// proving the request over-budget with no fallback), deadline
    /// feasibility against the estimated queue wait, and finally the
    /// tenant's rate token (consumed last so a request shed for another
    /// reason does not burn quota).
    ///
    /// # Errors
    ///
    /// [`Rejected`] with the first check that failed.
    pub fn submit(&self, request: Request) -> Result<Ticket, Rejected> {
        let now = Instant::now();
        let shared = &self.shared;
        let policy = shared.policy_for(&request.tenant).clone();
        // Static analysis runs before the scheduler lock: the infeasibility
        // proof against the tightest budget the job would face, and (only
        // while the service-time EMA is cold) the cost-model prior that
        // stands in for it.
        let effective_budget = policy.budget.min_with(&shared.engine.config().budget);
        let ema_cold = { shared.lock().ema_service_nanos == 0 };
        let front = admission::front_half(&request, &effective_budget, ema_cold);
        let infeasible = front
            .as_ref()
            .and_then(|front| admission::budget_infeasible(&request, front, &effective_budget));
        let prior = front.as_ref().filter(|_| ema_cold).and_then(admission::service_prior_nanos);
        let mut st = shared.lock();
        let verdict = (|| {
            if st.draining {
                return Err(Rejected::ShuttingDown);
            }
            if st.queue.len() >= shared.queue_capacity {
                return Err(Rejected::QueueFull { capacity: shared.queue_capacity });
            }
            let active = st.tenants.get(&request.tenant).map_or(0, |t| t.active);
            if active >= policy.max_in_flight {
                return Err(Rejected::QuotaExhausted {
                    tenant: request.tenant.clone(),
                    quota: Quota::InFlight,
                });
            }
            if let Some(rejected) = infeasible {
                return Err(rejected);
            }
            if let Some(prior) = prior {
                st.cost_prior_nanos = prior;
            }
            let estimated_wait = st.estimated_wait(shared.workers);
            if estimated_wait >= request.deadline {
                return Err(Rejected::DeadlineInfeasible {
                    deadline: request.deadline,
                    estimated_wait,
                });
            }
            let sched = st
                .tenants
                .entry(request.tenant.clone())
                .or_insert_with(|| TenantSched { bucket: TokenBucket::full(&policy, now), active: 0 });
            if !sched.bucket.try_take(&policy, now) {
                return Err(Rejected::QuotaExhausted {
                    tenant: request.tenant.clone(),
                    quota: Quota::Rate,
                });
            }
            Ok(())
        })();
        if let Err(rejected) = verdict {
            st.totals.note_rejected(&rejected);
            st.counters_mut(&request.tenant).note_rejected(&rejected);
            return Err(rejected);
        }

        let id = shared.seq.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        let deadline_at = now + request.deadline;
        let tenant = request.tenant.clone();
        st.tenants.get_mut(&tenant).expect("entry created above").active += 1;
        st.totals.admitted += 1;
        st.counters_mut(&tenant).admitted += 1;
        st.queue.push(QueueEntry {
            deadline_at,
            priority: request.priority,
            seq: id,
            job: Job {
                id,
                tenant: tenant.clone(),
                stmt: request.stmt,
                opts: request.opts,
                operands: request.operands,
                output_structure: request.output_structure,
                requested_deadline: request.deadline,
                admitted_at: now,
                deadline_at,
                tx,
            },
        });
        drop(st);
        shared.work_ready.notify_one();
        Ok(Ticket { id, tenant, rx })
    }

    /// Graceful drain: stop admitting (new submits get
    /// [`Rejected::ShuttingDown`]), let workers finish everything already
    /// queued and in flight, deliver every outstanding outcome, and join
    /// the pool. Idempotent; returns when no in-flight work remains.
    pub fn drain(&self) {
        {
            let mut st = self.shared.lock();
            st.draining = true;
        }
        self.shared.work_ready.notify_all();
        self.join_workers();
    }

    /// Hard shutdown: stop admitting, cancel in-flight runs through their
    /// [`CancelToken`]s (their outcomes become [`Outcome::Aborted`] with
    /// [`AbortReason::Cancelled`], outputs rolled back), complete queued
    /// requests as cancelled without running them, and join the pool.
    pub fn shutdown_now(&self) {
        {
            let mut st = self.shared.lock();
            st.draining = true;
            st.cancel_queued = true;
            for token in st.in_flight.values() {
                token.cancel();
            }
        }
        self.shared.work_ready.notify_all();
        self.join_workers();
    }

    /// Point-in-time serving counters: per-tenant and total admitted /
    /// shed / completed / degraded / deadline-aborted / cache-hit counts,
    /// queue depth, and the engine's cache and event-loss counters.
    pub fn stats(&self) -> ServerStats {
        let st = self.shared.lock();
        ServerStats {
            totals: st.totals.clone(),
            tenants: st.per_tenant.clone(),
            queued: st.queue.len(),
            running: st.running,
            workers: self.shared.workers,
            cache: self.shared.engine.cache_stats(),
            dropped_events: self.shared.engine.dropped_events(),
        }
    }

    fn join_workers(&self) {
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.handles.lock().unwrap_or_else(|p| p.into_inner()));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Default for Server {
    fn default() -> Server {
        Server::new()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_now();
    }
}

// ---------------------------------------------------------------------------
// Worker loop
// ---------------------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    loop {
        // Pop the earliest-deadline entry, or exit once draining and empty.
        let entry = {
            let mut st = shared.lock();
            loop {
                if let Some(entry) = st.queue.pop() {
                    break entry;
                }
                if st.draining {
                    return;
                }
                st = shared.work_ready.wait(st).unwrap_or_else(|p| p.into_inner());
            }
        };
        run_job(shared, entry.job);
    }
}

fn run_job(shared: &Shared, job: Job) {
    let policy = shared.policy_for(&job.tenant).clone();
    let picked_up = Instant::now();
    let queue_wait = picked_up.saturating_duration_since(job.admitted_at);

    // Dispatch check: a deadline that expired in the queue (admission's
    // estimate is only an estimate) or a hard shutdown never reaches the
    // engine.
    let expired = picked_up >= job.deadline_at;
    let cancelled = { shared.lock().cancel_queued };
    if expired || cancelled {
        let reason = if cancelled {
            AbortReason::Cancelled
        } else {
            AbortReason::DeadlineExceeded { deadline: job.requested_deadline, elapsed: queue_wait }
        };
        finish(shared, &job, queue_wait, Duration::ZERO, Outcome::Aborted { reason, queue_wait });
        return;
    }

    // Run under supervision: the tenant's budget, the request's *absolute*
    // deadline (queue wait already spent counts against it), and a cancel
    // token registered so shutdown can reach mid-flight runs.
    let token = CancelToken::new();
    {
        let mut st = shared.lock();
        st.in_flight.insert(job.id, token.clone());
        st.running += 1;
    }
    let supervisor = Supervisor::new()
        .with_budget(policy.budget)
        .with_deadline_at(job.deadline_at)
        .with_cancel_token(token);
    let operand_refs: Vec<(&str, &Tensor)> =
        job.operands.iter().map(|(name, t)| (name.as_str(), &**t)).collect();
    let outcome = match shared.engine.run_supervised(
        &job.stmt,
        job.opts.clone(),
        &supervisor,
        &operand_refs,
        job.output_structure.as_deref(),
        policy.verify,
        policy.backend,
    ) {
        Ok(run) => Outcome::Completed {
            result: run.outcome.result,
            rung: run.outcome.rung,
            report: run.outcome.report,
            cache_hit: run.cache_hit,
            queue_wait,
            fallbacks: run.outcome.fallbacks,
            native: run.native,
        },
        Err(EngineError::Core(CoreError::Aborted(aborted))) => {
            Outcome::Aborted { reason: aborted.reason, queue_wait }
        }
        Err(e) => Outcome::Failed { message: e.to_string() },
    };
    let service = picked_up.elapsed();
    finish(shared, &job, queue_wait, service, outcome);
}

/// Books the outcome into the scheduler state and delivers it. Exactly one
/// call per admitted job, on every path out of `run_job`.
fn finish(shared: &Shared, job: &Job, queue_wait: Duration, service: Duration, outcome: Outcome) {
    {
        let mut st = shared.lock();
        st.in_flight.remove(&job.id);
        if service > Duration::ZERO {
            st.running -= 1;
            st.note_service(service);
        }
        if let Some(t) = st.tenants.get_mut(&job.tenant) {
            t.active = t.active.saturating_sub(1);
        }
        st.totals.note_outcome(&outcome, queue_wait);
        st.counters_mut(&job.tenant).note_outcome(&outcome, queue_wait);
    }
    // A dropped ticket is fine: the work was already billed and recorded.
    let _ = job.tx.send(outcome);
}

#[cfg(test)]
mod tests {
    use super::estimate_wait;
    use std::time::Duration;

    /// The cold-start regression: with a saturated pool and a backlog but no
    /// completed request yet (EMA zero), the wait estimate must fall back to
    /// the cost-model prior instead of reporting zero and admitting every
    /// deadline.
    #[test]
    fn cold_ema_falls_back_to_cost_prior() {
        // Warm EMA wins regardless of the prior.
        assert_eq!(
            estimate_wait(4, 2, 2, 1_000_000, 9_000_000),
            Duration::from_nanos(3_000_000)
        );
        // Cold EMA, prior seeded: the prior drives the same formula.
        assert_eq!(estimate_wait(4, 2, 2, 0, 1_000_000), Duration::from_nanos(3_000_000));
        // Cold EMA and no prior: the legacy zero estimate (nothing better
        // is known).
        assert_eq!(estimate_wait(4, 2, 2, 0, 0), Duration::ZERO);
        // Idle worker: zero wait no matter the signals.
        assert_eq!(estimate_wait(0, 1, 2, 5_000, 5_000), Duration::ZERO);
    }
}
