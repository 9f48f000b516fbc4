//! The degradation policy, written once: which kernel each ladder rung
//! asks for ([`DegradeRung::request`]), how a supervised run descends the
//! rungs on retryable aborts ([`descend`]), and how an over-budget dense
//! workspace is arbitrated at compile time ([`arbitrate_workspaces`]).
//!
//! The ladder walks the paper's Section V-C heuristics and Section VI
//! unsorted-assembly trade-off in reverse; the sparse-workspace rungs follow
//! Zhang et al., *Compilation of Modular and General Sparse Workspaces*.
//! [`IndexStmt::run_supervised`], the runtime engine's supervised path and
//! the serving daemon's admission check are all instantiations of the
//! functions here — none re-derives a rung or the budget chain.

use crate::cost::stmt_workspaces;
use crate::passes::FrontHalf;
use crate::schedule::{CompiledKernel, FallbackEvent, IndexStmt, SupervisedOutcome};
use crate::{CoreError, Result};
use std::borrow::{Borrow, Cow};
use taco_llir::{BudgetResource, ExecReport, WorkspaceKind};
use taco_lower::{KernelKind, LowerError, LowerOptions};
use taco_tensor::Tensor;
use taco_verify::{Bound, CostEnv, WorkspaceCost};

/// One rung of the degradation ladder [`descend`] walks on retryable
/// aborts: faster schedules first, the plain merge kernel last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradeRung {
    /// The statement exactly as scheduled.
    AsScheduled,
    /// The schedule with every workspace stored as a hash map.
    HashWorkspace,
    /// The schedule with every workspace stored as a coordinate list.
    CoordListWorkspace,
    /// The schedule with the output-sort pass dropped.
    UnsortedAssembly,
    /// All transformations dropped: the direct merge kernel.
    DirectMerge,
}

impl DegradeRung {
    /// The full ladder, fastest schedule first — the descent order of
    /// [`descend`].
    pub const LADDER: [DegradeRung; 5] = [
        DegradeRung::AsScheduled,
        DegradeRung::HashWorkspace,
        DegradeRung::CoordListWorkspace,
        DegradeRung::UnsortedAssembly,
        DegradeRung::DirectMerge,
    ];

    /// The sparse workspace backend this rung swaps in, if it is one of the
    /// workspace-downgrade rungs. Hash comes first on the ladder (O(1)
    /// scatter), coordinate list second; [`arbitrate_workspaces`] tries
    /// them in the same order.
    fn sparse_backend(self) -> Option<WorkspaceKind> {
        match self {
            DegradeRung::HashWorkspace => Some(WorkspaceKind::Hash),
            DegradeRung::CoordListWorkspace => Some(WorkspaceKind::CoordList),
            _ => None,
        }
    }

    /// The compile request this rung stands for — the statement and options
    /// to hand to the ordinary compile path — or `None` when the rung would
    /// not produce a different kernel from one already tried. `fallbacks`
    /// is the trail so far: the compile-time events of the as-scheduled
    /// kernel say which rungs the budget chain already took.
    ///
    /// Every rung is expressed through `LowerOptions` or a re-concretized
    /// statement, so each rung's kernel has its own fingerprint and is
    /// cacheable.
    pub fn request<'s>(
        self,
        stmt: &'s IndexStmt,
        opts: &LowerOptions,
        fallbacks: &[FallbackEvent],
    ) -> Option<(Cow<'s, IndexStmt>, LowerOptions)> {
        match self {
            DegradeRung::AsScheduled => Some((Cow::Borrowed(stmt), opts.clone())),
            DegradeRung::HashWorkspace | DegradeRung::CoordListWorkspace => {
                let kind = self.sparse_backend()?;
                // Nothing to downgrade when the schedule has no workspaces,
                // the caller already asked for this backend, or the
                // compile-time budget chain already chose it for the
                // as-scheduled rung.
                let already = opts.workspace_kind == kind
                    || stmt_workspaces(stmt.concrete()).is_empty()
                    || fallbacks.iter().any(|f| {
                        matches!(f, FallbackEvent::WorkspaceDowngraded { to, .. } if *to == kind)
                    });
                (!already).then(|| (Cow::Borrowed(stmt), opts.clone().with_workspace_kind(kind)))
            }
            // The sort pass only exists in kernels that assemble; a compute
            // kernel is unchanged by `unsorted()`.
            DegradeRung::UnsortedAssembly => (opts.sort_output && opts.kind != KernelKind::Compute)
                .then(|| (Cow::Borrowed(stmt), opts.clone().unsorted())),
            DegradeRung::DirectMerge => {
                // If the compile-time workspace bound already forced the
                // direct kernel, the as-scheduled rung was this one.
                if fallbacks.iter().any(|f| matches!(f, FallbackEvent::WorkspaceOverBudget { .. }))
                {
                    return None;
                }
                let direct = IndexStmt::new(stmt.source().clone()).ok()?;
                (direct.concrete() != stmt.concrete()).then(|| (Cow::Owned(direct), opts.clone()))
            }
        }
    }
}

impl std::fmt::Display for DegradeRung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DegradeRung::AsScheduled => write!(f, "as scheduled"),
            DegradeRung::HashWorkspace => write!(f, "hash workspace"),
            DegradeRung::CoordListWorkspace => write!(f, "coord-list workspace"),
            DegradeRung::UnsortedAssembly => write!(f, "unsorted assembly"),
            DegradeRung::DirectMerge => write!(f, "direct merge"),
        }
    }
}

/// Runs `stmt` down the degradation ladder: each applicable rung is
/// compiled with `compile` and run with `run`; a *retryable* abort (missed
/// deadline, exhausted budget) records a [`FallbackEvent::DegradedRetry`]
/// (also reported to `on_retry` as it happens) and moves one rung down.
/// The first rung to commit wins.
///
/// The caller chooses how a kernel is obtained (a fresh compile, a kernel
/// cache) and how it is executed (interpreter, native); the rung order, the
/// skip rules and the error bookkeeping are the same for every caller.
///
/// # Errors
///
/// A rung `compile` refuses is skipped, remembering the *earliest* such
/// reason; a retryable abort replaces it. When no rung commits the
/// remembered error is returned. Cancellation, runtime failures and bind
/// errors are not fixed by a degraded schedule and return immediately.
pub fn descend<K, E>(
    stmt: &IndexStmt,
    opts: &LowerOptions,
    mut compile: impl FnMut(&IndexStmt, LowerOptions) -> std::result::Result<K, E>,
    mut run: impl FnMut(&K) -> Result<(Tensor, ExecReport)>,
    mut on_retry: impl FnMut(&FallbackEvent),
) -> std::result::Result<SupervisedOutcome, E>
where
    K: Borrow<CompiledKernel>,
    E: From<CoreError>,
{
    let mut fallbacks: Vec<FallbackEvent> = Vec::new();
    let mut last_err: Option<E> = None;
    for rung in DegradeRung::LADDER {
        let Some((rung_stmt, rung_opts)) = rung.request(stmt, opts, &fallbacks) else { continue };
        let kernel = match compile(&rung_stmt, rung_opts) {
            Ok(k) => k,
            // Rung not realizable (e.g. direct sparse scatter): try the next
            // one, but remember why in case nothing works.
            Err(e) => {
                last_err.get_or_insert(e);
                continue;
            }
        };
        if rung == DegradeRung::AsScheduled {
            fallbacks.extend(kernel.borrow().fallback_events().iter().cloned());
        }
        match run(&kernel) {
            Ok((result, report)) => return Ok(SupervisedOutcome { result, report, rung, fallbacks }),
            Err(CoreError::Aborted(aborted)) if aborted.reason.is_retryable() => {
                let event = FallbackEvent::DegradedRetry { rung, reason: aborted.reason.clone() };
                on_retry(&event);
                fallbacks.push(event);
                last_err = Some(CoreError::Aborted(aborted).into());
            }
            Err(other) => return Err(other.into()),
        }
    }
    // The as-scheduled rung always has a request, so an exhausted ladder has
    // recorded an error; the fallback only keeps this total without a panic.
    Err(last_err.unwrap_or_else(|| {
        let none_applies = "no degradation-ladder rung applies to this statement";
        CoreError::Lower(LowerError::Unsupported(none_applies.to_string())).into()
    }))
}

/// The single walk over the compile-time budget chain: proven dense bound →
/// each sparse backend's proven initial footprint (hash, then coordinate
/// list) → direct merge. `front` is the front half of a statement as
/// scheduled; `None` says it stands — there is no `limit`, nothing to
/// arbitrate (only dense-workspace requests are; one that already names a
/// sparse backend is charged at run time) or the dense footprint fits.
/// Otherwise the unverified product of the first rung that fits replaces
/// it, with one [`FallbackEvent`] per workspace saying why.
///
/// The footprints are *proven* by the symbolic cost analyzer over the
/// lowered kernel. Dense workspace bounds close over declared dimensions
/// alone, so they are concrete at compile time; a bound the analyzer cannot
/// derive or evaluate trips the budget.
///
/// # Errors
///
/// [`CoreError::BudgetExceeded`] (naming the first workspace in `context`)
/// when nothing fits and the direct kernel does not lower — a workspace is
/// what makes sparse scatter lowerable, so that is a budget failure, not a
/// lowering bug.
pub fn arbitrate_workspaces(
    front: &FrontHalf,
    limit: Option<u64>,
) -> Result<Option<(FrontHalf, Vec<FallbackEvent>)>> {
    let Some(limit) = limit else { return Ok(None) };
    let ws_vars = stmt_workspaces(front.stmt.concrete());
    if front.opts.workspace_kind != WorkspaceKind::Dense || ws_vars.is_empty() {
        return Ok(None);
    }
    // Per-workspace footprints of one product, in `ws_vars` order.
    let footprints = |front: &FrontHalf, pick: fn(&WorkspaceCost) -> &Bound| {
        let env = CostEnv::from_shapes(&front.lowered);
        ws_vars
            .iter()
            .map(|ws| {
                let w = front.cost.workspaces.iter().find(|w| w.name == ws.name())?;
                pick(w).concrete(&env)
            })
            .collect::<Vec<Option<u64>>>()
    };
    let total = |bytes: &[u64]| bytes.iter().fold(0u64, |a, b| a.saturating_add(*b));

    let bounds: Vec<u64> =
        footprints(front, |w| &w.bytes).into_iter().map(|b| b.unwrap_or(u64::MAX)).collect();
    if total(&bounds) <= limit {
        return Ok(None);
    }

    for kind in DegradeRung::LADDER.into_iter().filter_map(DegradeRung::sparse_backend) {
        let opts = front.opts.clone().with_workspace_kind(kind);
        let Ok(sparse) = FrontHalf::unverified(&front.stmt, opts) else { continue };
        let Some(inits) =
            footprints(&sparse, |w| &w.init_bytes).into_iter().collect::<Option<Vec<u64>>>()
        else {
            continue;
        };
        if total(&inits) > limit {
            continue;
        }
        let events = ws_vars
            .iter()
            .zip(bounds.iter().zip(&inits))
            .map(|(ws, (bound, init))| FallbackEvent::WorkspaceDowngraded {
                workspace: ws.name().to_string(),
                from: WorkspaceKind::Dense,
                to: kind,
                estimated_bytes: *bound,
                downgraded_bytes: *init,
                budget_bytes: limit,
            })
            .collect();
        return Ok(Some((sparse, events)));
    }

    let direct = IndexStmt::new(front.stmt.source().clone())?;
    let Ok(direct) = FrontHalf::unverified(&direct, front.opts.clone()) else {
        return Err(CoreError::BudgetExceeded {
            resource: BudgetResource::WorkspaceBytes,
            limit,
            requested: bounds.first().copied().unwrap_or(u64::MAX),
            context: ws_vars.first().map(|ws| ws.name().to_string()),
        });
    };
    let events = ws_vars
        .iter()
        .zip(&bounds)
        .map(|(ws, bound)| FallbackEvent::WorkspaceOverBudget {
            workspace: ws.name().to_string(),
            dims: ws.shape().to_vec(),
            estimated_bytes: *bound,
            budget_bytes: limit,
            fallback: DegradeRung::DirectMerge,
        })
        .collect();
    Ok(Some((direct, events)))
}
