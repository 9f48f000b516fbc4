//! The degradation policy, written once: which kernel each ladder rung
//! asks for ([`DegradeRung::request`]), which requests a workspace budget
//! arbitrates ([`arbitrated`]) and the compile-time walk down the same
//! rungs ([`arbitrate_workspaces`]).
//!
//! The ladder walks the paper's Section V-C heuristics in reverse; its
//! sparse-workspace rung follows Zhang et al., *Compilation of Modular and
//! General Sparse Workspaces*. Its one sparse kind is the coordinate list:
//! a hash workspace is the same store charged 3/2 as much per entry, so a
//! budget a hash rung would fit, the coordinate-list rung fits too.
//! Two drivers climb [`DegradeRung::LADDER`], both through
//! [`DegradeRung::request`]: the compile-time walk, which keeps the first
//! rung whose proven initial workspace footprint fits the budget (shared by
//! [`IndexStmt::compile_checked`] and the serving daemon's admission
//! check), and the runtime engine's `run_supervised`, which moves down on
//! retryable aborts. A kernel the walk degraded stands for the rung it
//! compiled ([`CompiledKernel::rung`](crate::CompiledKernel::rung)).

use crate::passes::FrontHalf;
use crate::schedule::{FallbackEvent, IndexStmt};
use crate::{CoreError, Result};
use std::borrow::Cow;
use taco_ir::concrete::ConcreteStmt;
use taco_ir::expr::TensorVar;
use taco_llir::{BudgetResource, WorkspaceKind};
use taco_lower::LowerOptions;
use taco_verify::CostEnv;

/// One rung of the degradation ladder, faster schedules first, the plain
/// merge kernel last. Each rung can change the outcome of the one above
/// it; the order of the variants is the descent order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
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
    /// to hand to the ordinary compile path — or `None` when it would ask
    /// for the as-scheduled kernel again: the schedule has no workspace or
    /// already asks for the coordinate list, or the statement is
    /// unscheduled.
    ///
    /// Every rung is expressed through `LowerOptions` or a re-concretized
    /// statement, so each rung's kernel has its own fingerprint and is
    /// cacheable.
    pub fn request<'s>(
        self,
        stmt: &'s IndexStmt,
        opts: &LowerOptions,
    ) -> Option<(Cow<'s, IndexStmt>, LowerOptions)> {
        match self {
            DegradeRung::AsScheduled => Some((Cow::Borrowed(stmt), opts.clone())),
            DegradeRung::CoordListWorkspace => {
                let kind = WorkspaceKind::CoordList;
                let same =
                    opts.workspace_kind == kind || stmt_workspaces(stmt.concrete()).is_empty();
                (!same).then(|| (Cow::Borrowed(stmt), opts.clone().with_workspace_kind(kind)))
            }
            DegradeRung::DirectMerge => {
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

/// The workspace tensors a schedule's `where` statements introduce: rank ≥ 1
/// producer results read back by the consumer, in occurrence order, each
/// listed once. Scalar (rank-0) temporaries cost one accumulator, not an
/// array, and are excluded. Their sizes come from
/// [`taco_verify::analyze_cost`] over the lowered kernel.
#[must_use]
pub fn stmt_workspaces(stmt: &ConcreteStmt) -> Vec<TensorVar> {
    let mut out = Vec::new();
    workspaces_walk(stmt, &mut out);
    out
}

fn workspaces_walk(stmt: &ConcreteStmt, out: &mut Vec<TensorVar>) {
    match stmt {
        ConcreteStmt::Assign { .. } => {}
        ConcreteStmt::Forall { body, .. } => workspaces_walk(body, out),
        ConcreteStmt::Where { consumer, producer } => {
            for s in producer.assignments() {
                let ConcreteStmt::Assign { lhs, .. } = s else { continue };
                let ws = lhs.tensor();
                if ws.rank() == 0
                    || !consumer.reads_tensor(ws.name())
                    || out.iter().any(|t| t.name() == ws.name())
                {
                    continue;
                }
                out.push(ws.clone());
            }
            workspaces_walk(producer, out);
            workspaces_walk(consumer, out);
        }
        ConcreteStmt::Sequence { first, second } => {
            workspaces_walk(first, out);
            workspaces_walk(second, out);
        }
    }
}

/// Whether a workspace budget of `limit` bytes arbitrates the request: a
/// limit is set and the schedule has dense workspaces. A request that
/// already names a map kind is charged at run time instead.
pub fn arbitrated(stmt: &IndexStmt, opts: &LowerOptions, limit: Option<u64>) -> bool {
    limit.is_some()
        && opts.workspace_kind == WorkspaceKind::Dense
        && !stmt_workspaces(stmt.concrete()).is_empty()
}

/// The compile-time walk down [`DegradeRung::LADDER`]. `front` is the front
/// half of a statement as scheduled; `None` says it stands — the request is
/// not [`arbitrated`] or its workspaces fit. Otherwise the product of the
/// first lower rung that lowers and fits replaces it, with one
/// [`FallbackEvent::OverBudget`] per as-scheduled workspace naming that
/// rung. Nothing here reads a verdict, so no product is verified.
///
/// A product fits when its proven initial workspace footprint
/// ([`CostReport::workspace_init_bytes`](taco_verify::CostReport::workspace_init_bytes))
/// is within `limit`: a dense workspace is allocated up front, so its
/// initial footprint is its whole footprint, and a map workspace's growth
/// is charged at run time. The footprints close over declared dimensions
/// alone, so they are concrete at compile time; a bound the analyzer cannot
/// derive or evaluate does not fit.
///
/// # Errors
///
/// [`CoreError::BudgetExceeded`] (naming the first workspace in `context`)
/// when no rung fits — a workspace is what makes sparse scatter lowerable,
/// so that is a budget failure, not a lowering bug.
pub fn arbitrate_workspaces(
    front: &FrontHalf,
    limit: Option<u64>,
) -> Result<Option<(FrontHalf, Vec<FallbackEvent>)>> {
    let (true, Some(limit)) = (arbitrated(&front.stmt, &front.opts, limit), limit) else {
        return Ok(None);
    };
    let fits = |product: &FrontHalf| {
        let env = CostEnv::from_shapes(product.lowered());
        product.cost_report().workspace_init_bytes(&env).is_some_and(|bytes| bytes <= limit)
    };
    if fits(front) {
        return Ok(None);
    }
    let env = CostEnv::from_shapes(front.lowered());
    let bounds: Vec<(&str, u64)> = front
        .cost_report()
        .workspaces
        .iter()
        .map(|w| (w.name.as_str(), w.init_bytes.concrete(&env).unwrap_or(u64::MAX)))
        .collect();
    for rung in &DegradeRung::LADDER[1..] {
        let Some((stmt, opts)) = rung.request(&front.stmt, &front.opts) else { continue };
        let Ok(product) = FrontHalf::new(&stmt, opts) else { continue };
        if fits(&product) {
            let events = bounds
                .iter()
                .map(|&(workspace, estimated_bytes)| FallbackEvent::OverBudget {
                    workspace: workspace.to_string(),
                    estimated_bytes,
                    budget_bytes: limit,
                    rung: *rung,
                })
                .collect();
            return Ok(Some((product, events)));
        }
    }
    Err(CoreError::BudgetExceeded {
        resource: BudgetResource::WorkspaceBytes,
        limit,
        requested: bounds.first().map_or(u64::MAX, |&(_, bytes)| bytes),
        context: bounds.first().map(|&(workspace, _)| workspace.to_string()),
    })
}
