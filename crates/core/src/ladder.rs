//! The degradation policy, written once: which kernel each ladder rung
//! asks for ([`DegradeRung::request`]) and how an over-budget dense
//! workspace is arbitrated at compile time ([`arbitrate_workspaces`]).
//!
//! The ladder walks the paper's Section V-C heuristics in reverse; its
//! sparse-workspace rung follows Zhang et al., *Compilation of Modular and
//! General Sparse Workspaces*. Its one sparse kind is the coordinate list:
//! a hash workspace is the same store charged 3/2 as much per entry, so a
//! budget a hash rung would fit, the coordinate-list rung fits too.
//! The runtime engine's `run_supervised` is the one function that walks
//! [`DegradeRung::LADDER`] on retryable aborts; the compile path
//! ([`IndexStmt::compile_checked`]) and the serving daemon's admission
//! check share [`arbitrate_workspaces`]. None re-derives a rung or the
//! budget chain.

use crate::cost::stmt_workspaces;
use crate::passes::FrontHalf;
use crate::schedule::{FallbackEvent, IndexStmt};
use crate::{CoreError, Result};
use std::borrow::Cow;
use taco_llir::{BudgetResource, WorkspaceKind};
use taco_lower::LowerOptions;
use taco_verify::{Bound, CostEnv, WorkspaceCost};

/// One rung of the degradation ladder a supervised run walks on retryable
/// aborts: faster schedules first, the plain merge kernel last. Each rung
/// can change the outcome of the one above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradeRung {
    /// The statement exactly as scheduled.
    AsScheduled,
    /// The schedule with every workspace stored as a coordinate list.
    CoordListWorkspace,
    /// All transformations dropped: the direct merge kernel.
    DirectMerge,
}

impl DegradeRung {
    /// The full ladder, fastest schedule first — the descent order.
    pub const LADDER: [DegradeRung; 3] =
        [DegradeRung::AsScheduled, DegradeRung::CoordListWorkspace, DegradeRung::DirectMerge];

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
            DegradeRung::CoordListWorkspace => {
                let kind = WorkspaceKind::CoordList;
                // Nothing to downgrade when the schedule has no workspaces,
                // the caller already asked for this kind, or the
                // compile-time budget chain already chose it for the
                // as-scheduled rung.
                let already = opts.workspace_kind == kind
                    || stmt_workspaces(stmt.concrete()).is_empty()
                    || fallbacks.iter().any(|f| {
                        matches!(f, FallbackEvent::WorkspaceDowngraded { to, .. } if *to == kind)
                    });
                (!already).then(|| (Cow::Borrowed(stmt), opts.clone().with_workspace_kind(kind)))
            }
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
            DegradeRung::CoordListWorkspace => write!(f, "coord-list workspace"),
            DegradeRung::DirectMerge => write!(f, "direct merge"),
        }
    }
}

/// The single walk over the compile-time budget chain: proven dense bound →
/// the coordinate-list store's proven initial footprint → direct merge.
/// `front` is the front half of a statement as scheduled; `None` says it
/// stands — there is no `limit`, nothing to arbitrate (only dense-workspace
/// requests are; one that already names a map kind is charged at run time)
/// or the dense footprint fits. Otherwise the unverified product of the
/// first rung that fits replaces it, with one [`FallbackEvent`] per
/// workspace saying why.
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

    let kind = WorkspaceKind::CoordList;
    if let Ok(sparse) =
        FrontHalf::unverified(&front.stmt, front.opts.clone().with_workspace_kind(kind))
    {
        let inits =
            footprints(&sparse, |w| &w.init_bytes).into_iter().collect::<Option<Vec<u64>>>();
        if let Some(inits) = inits.filter(|inits| total(inits) <= limit) {
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
