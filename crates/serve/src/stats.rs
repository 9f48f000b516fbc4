//! Serving counters: per-tenant and aggregate admission / shedding /
//! completion statistics, plus the engine-side cache and event-loss
//! counters a capacity review needs alongside them.

use crate::server::{Outcome, Quota, Rejected};
use std::collections::HashMap;
use std::time::Duration;
use taco_core::{DegradeRung, RunError};
use taco_runtime::CacheStats;

/// Monotone counters for one tenant (or, in [`ServerStats::totals`], the
/// whole server). Every submitted request lands in exactly one admission
/// bucket (`admitted` or one of the `shed_*`), and every admitted request
/// in exactly one outcome bucket (`completed`, `deadline_aborted`,
/// `budget_aborted`, `cancelled`, or `failed`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct TenantCounters {
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests shed at admission because the queue was full.
    pub shed_queue_full: u64,
    /// Requests shed at admission by a tenant quota (rate or in-flight).
    pub shed_quota: u64,
    /// Requests shed at admission because the estimated queue wait already
    /// exceeded their deadline.
    pub shed_deadline: u64,
    /// Requests shed at admission because the symbolic cost analyzer proved
    /// them over their workspace-byte budget with no viable fallback.
    pub shed_budget: u64,
    /// Requests refused because the server was draining.
    pub shed_shutdown: u64,
    /// Admitted requests that committed a result.
    pub completed: u64,
    /// Completions that ran on a rung below
    /// [`AsScheduled`](DegradeRung::AsScheduled) (the degrade-and-retry
    /// ladder kicked in).
    pub degraded: u64,
    /// Completions whose first-rung kernel came warm from the shared cache
    /// (hit or coalesced onto a concurrent compile).
    pub cache_hits: u64,
    /// Completions whose committing run executed on a trusted
    /// native-compiled kernel rather than the interpreter. The gap between
    /// `completed` and `native_runs` is this tenant's interpreter share of
    /// the backend mix.
    pub native_runs: u64,
    /// Admitted requests aborted by their deadline — in the queue or
    /// mid-run (transactionally rolled back).
    pub deadline_aborted: u64,
    /// Admitted requests aborted by a resource-budget limit after the
    /// ladder was exhausted.
    pub budget_aborted: u64,
    /// Admitted requests cancelled (hard shutdown).
    pub cancelled: u64,
    /// Admitted requests that failed to compile, bind, or run.
    pub failed: u64,
    /// Summed queue wait of admitted requests, for averages.
    pub queue_wait_nanos: u64,
}

impl TenantCounters {
    /// Total requests shed at admission, all reasons.
    pub fn shed(&self) -> u64 {
        self.shed_queue_full
            + self.shed_quota
            + self.shed_deadline
            + self.shed_budget
            + self.shed_shutdown
    }

    /// Total requests submitted (admitted + shed).
    pub fn submitted(&self) -> u64 {
        self.admitted + self.shed()
    }

    pub(crate) fn note_rejected(&mut self, rejected: &Rejected) {
        match rejected {
            Rejected::QueueFull { .. } => self.shed_queue_full += 1,
            Rejected::QuotaExhausted { quota: Quota::Rate | Quota::InFlight, .. } => {
                self.shed_quota += 1;
            }
            Rejected::DeadlineInfeasible { .. } => self.shed_deadline += 1,
            Rejected::BudgetInfeasible { .. } => self.shed_budget += 1,
            Rejected::ShuttingDown => self.shed_shutdown += 1,
        }
    }

    pub(crate) fn note_outcome(&mut self, outcome: &Outcome, queue_wait: Duration) {
        self.queue_wait_nanos = self
            .queue_wait_nanos
            .saturating_add(queue_wait.as_nanos().min(u128::from(u64::MAX)) as u64);
        match outcome {
            Outcome::Completed { rung, cache_hit, native, .. } => {
                self.completed += 1;
                if *rung != DegradeRung::AsScheduled {
                    self.degraded += 1;
                }
                if *cache_hit {
                    self.cache_hits += 1;
                }
                if *native {
                    self.native_runs += 1;
                }
            }
            Outcome::Aborted { reason, .. } => match reason {
                RunError::DeadlineExceeded { .. } => self.deadline_aborted += 1,
                RunError::BudgetExceeded { .. } => self.budget_aborted += 1,
                RunError::Cancelled => self.cancelled += 1,
                _ => self.failed += 1,
            },
            Outcome::Failed { .. } => self.failed += 1,
        }
    }
}

/// A point-in-time snapshot of the server: aggregate and per-tenant
/// counters, live queue depth, and the shared engine's cache and
/// event-loss state.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServerStats {
    /// Counters summed over every tenant.
    pub totals: TenantCounters,
    /// Counters per tenant name.
    pub tenants: HashMap<String, TenantCounters>,
    /// Requests admitted and waiting for a worker right now.
    pub queued: usize,
    /// Requests running on a worker right now.
    pub running: usize,
    /// Worker-pool size.
    pub workers: usize,
    /// The shared engine's kernel-cache counters (hits, misses, coalesced
    /// compiles, evictions).
    pub cache: CacheStats,
    /// Engine events lost to the bounded event ring since the engine was
    /// built. Nonzero means [`Engine::last_events`](taco_runtime::Engine::last_events)
    /// is an incomplete record of this serving window.
    pub dropped_events: u64,
}

impl ServerStats {
    /// Fraction of submitted requests shed at admission, `0.0` when nothing
    /// was submitted.
    pub fn shed_rate(&self) -> f64 {
        let submitted = self.totals.submitted();
        if submitted == 0 {
            0.0
        } else {
            self.totals.shed() as f64 / submitted as f64
        }
    }

    /// Fraction of completed requests served by a warm kernel (cache hit or
    /// single-flight coalesce), `0.0` when nothing completed.
    pub fn coalesce_rate(&self) -> f64 {
        if self.totals.completed == 0 {
            0.0
        } else {
            self.totals.cache_hits as f64 / self.totals.completed as f64
        }
    }

    /// Mean queue wait across admitted requests that reached an outcome.
    pub fn mean_queue_wait(&self) -> Duration {
        let finished = self.totals.completed
            + self.totals.deadline_aborted
            + self.totals.budget_aborted
            + self.totals.cancelled
            + self.totals.failed;
        self.totals
            .queue_wait_nanos
            .checked_div(finished)
            .map_or(Duration::ZERO, Duration::from_nanos)
    }
}

impl std::fmt::Display for ServerStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "serve: {} submitted | {} admitted, {} shed ({:.0}%) | {} completed \
             ({} degraded, {} warm, {} native) | {} deadline-aborted, \
             {} budget-aborted, {} cancelled, {} failed",
            self.totals.submitted(),
            self.totals.admitted,
            self.totals.shed(),
            self.shed_rate() * 100.0,
            self.totals.completed,
            self.totals.degraded,
            self.totals.cache_hits,
            self.totals.native_runs,
            self.totals.deadline_aborted,
            self.totals.budget_aborted,
            self.totals.cancelled,
            self.totals.failed,
        )?;
        writeln!(
            f,
            "queue: {} queued, {} running on {} workers | mean wait {:.2} ms",
            self.queued,
            self.running,
            self.workers,
            self.mean_queue_wait().as_secs_f64() * 1e3,
        )?;
        write!(
            f,
            "engine: cache {} hits / {} misses / {} coalesced | {} events dropped",
            self.cache.hits, self.cache.misses, self.cache.coalesced, self.dropped_events,
        )?;
        let mut names: Vec<&String> = self.tenants.keys().collect();
        names.sort();
        for name in names {
            let t = &self.tenants[name];
            write!(
                f,
                "\n  tenant {name}: {} admitted, {} shed, {} completed, {} degraded, \
                 {} deadline-aborted, {} warm, {} native",
                t.admitted,
                t.shed(),
                t.completed,
                t.degraded,
                t.deadline_aborted,
                t.cache_hits,
                t.native_runs,
            )?;
        }
        Ok(())
    }
}
