//! Static cost-model admission checks.
//!
//! Both checks read one unverified front half of the request
//! ([`FrontHalf`], `lower → cost`), built by [`front_half`] *before* the
//! request is queued or compiled and only when one of them will read it:
//!
//! * [`budget_infeasible`] proves a request can never run under its
//!   tenant's workspace-byte budget — the decision `compile_with_budget`
//!   reaches with a `BudgetExceeded` error, from the same
//!   `taco_core::ladder` walk, made at the front door so the doomed
//!   request sheds instead of occupying queue and compile capacity;
//! * [`service_prior_nanos`] turns the analyzer's iteration bound into a
//!   service-time prior that seeds the queue-wait estimate before any
//!   completion has been observed (the EMA cold start).

use crate::server::{Rejected, Request};
use taco_core::ladder::arbitrate_workspaces;
use taco_core::{stmt_workspaces, CoreError, CostEnv, FrontHalf, ResourceBudget};
use taco_llir::WorkspaceKind;
use taco_lower::params::{crd_name, level_extent, pos_name};
use taco_lower::LoweredKernel;

/// The request's front half, unverified (admission only reads costs), for
/// both checks. `None` when neither would read it — the service-time EMA is
/// warm and `budget` has nothing to arbitrate — or the statement does not
/// lower, which is the worker's to report, not admission's.
pub(crate) fn front_half(req: &Request, budget: &ResourceBudget, ema_cold: bool) -> Option<FrontHalf> {
    let arbitrated = budget.max_workspace_bytes.is_some()
        && req.opts.workspace_kind == WorkspaceKind::Dense
        && !stmt_workspaces(req.stmt.concrete()).is_empty();
    (ema_cold || arbitrated).then(|| FrontHalf::unverified(&req.stmt, req.opts.clone()).ok()).flatten()
}

/// Nanoseconds charged per bounded loop iteration in the cold-start prior.
/// Interpreter dispatch costs tens of nanoseconds per statement; one
/// iteration executes a handful. The estimate only needs the right order
/// of magnitude — shedding decisions compare it against deadlines that are
/// milliseconds and up.
const NANOS_PER_ITERATION: u64 = 10;

/// Clamp range of the prior: never below one microsecond (a degenerate
/// bound must not read as "instant"), never above one second (a loose
/// polynomial over big dimensions must not shed everything).
const PRIOR_MIN_NANOS: u64 = 1_000;
const PRIOR_MAX_NANOS: u64 = 1_000_000_000;

/// Proves a request infeasible under `budget`, or returns `None` when it
/// might run. `Some(Rejected::BudgetInfeasible)` means compiling this
/// request is guaranteed to fail with a budget error: the compile-time
/// budget chain ([`arbitrate_workspaces`] — the very walk
/// `IndexStmt::compile_with_budget` makes) finds the proven dense workspace
/// bound over `max_workspace_bytes`, no sparse backend's initial footprint
/// under it, and the direct merge kernel unrealizable. Arbitration lowers
/// and analyses; nothing is compiled, verified or queued.
pub(crate) fn budget_infeasible(
    req: &Request,
    front: &FrontHalf,
    budget: &ResourceBudget,
) -> Option<Rejected> {
    match arbitrate_workspaces(front, budget.max_workspace_bytes).err()? {
        CoreError::BudgetExceeded { limit, requested, context, .. } => {
            Some(Rejected::BudgetInfeasible {
                tenant: req.tenant.clone(),
                workspace: context.unwrap_or_default(),
                bound_bytes: requested,
                budget_bytes: limit,
            })
        }
        _ => None,
    }
}

/// A service-time prior for the request, from the analyzer's iteration
/// bound: `iterations × NANOS_PER_ITERATION`, clamped to a sane range.
/// `None` when the bound cannot be evaluated even pessimistically.
pub(crate) fn service_prior_nanos(front: &FrontHalf) -> Option<u64> {
    let iterations = front.cost_report().iterations.concrete(&pessimistic_env(front.lowered()))?;
    Some(
        iterations
            .saturating_mul(NANOS_PER_ITERATION)
            .clamp(PRIOR_MIN_NANOS, PRIOR_MAX_NANOS),
    )
}

/// The shape-derived environment, with `len(...)` atoms valued
/// pessimistically from the *dense* size of the tensor each array belongs
/// to (a sparse array is never longer than its dense dimension product,
/// plus one for `pos`) and `seg(...)` atoms from the level's extent (a
/// segment stores each coordinate at most once). Good enough for a prior;
/// the sound bind-time environment uses real array contents instead.
fn pessimistic_env(lk: &LoweredKernel) -> CostEnv {
    let mut env = CostEnv::from_shapes(lk);
    for t in lk.tensors() {
        let len = dense_size(t.shape()).saturating_add(1);
        env.lens.insert(t.name().to_string(), len);
        for l in 0..t.rank() {
            let lt = t.format().mode(l);
            if lt.has_pos_array() {
                env.lens.insert(pos_name(t.name(), l), len);
                env.segs.insert(pos_name(t.name(), l), level_extent(t, l) as u64);
            }
            if lt.has_crd_array() {
                env.lens.insert(crd_name(t.name(), l), len);
            }
        }
    }
    env
}

fn dense_size(shape: &[usize]) -> u64 {
    shape.iter().try_fold(1u64, |acc, &d| acc.checked_mul(d as u64)).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use taco_core::IndexStmt;
    use taco_ir::expr::{sum, IndexVar, TensorVar};
    use taco_ir::notation::IndexAssignment;
    use taco_lower::LowerOptions;
    use taco_tensor::Format;

    /// The Fig. 2 SpGEMM over `n`×`n` CSR matrices, as a request of tenant `t`.
    fn spgemm_request(n: usize) -> Request {
        let a = TensorVar::new("A", vec![n, n], Format::csr());
        let b = TensorVar::new("B", vec![n, n], Format::csr());
        let c = TensorVar::new("C", vec![n, n], Format::csr());
        let (i, j, k) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"));
        let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
        let source = IndexAssignment::assign(a.access([i, j.clone()]), sum(k.clone(), mul.clone()));
        let mut stmt = IndexStmt::new(source).unwrap();
        stmt.reorder(&k, &j).unwrap();
        let w = TensorVar::new("w", vec![n], Format::dvec());
        stmt.precompute(&mul, &[(j.clone(), j.clone(), j)], &w).unwrap();
        Request::new("t", stmt, LowerOptions::fused("k"), Vec::new(), Duration::from_secs(1))
    }

    #[test]
    fn the_prior_of_a_segment_loop_kernel_is_valued_and_says_something() {
        // Every loop of the kernel but the outermost walks a `pos` segment,
        // so an unvalued `seg(...)` would leave the request without a prior.
        // Valued by the level's extent the bound is 2n + 2n³ + n² + 1 loop
        // iterations at worst: 0.34 s at n = 256, under the ceiling that the
        // product of whole-array lengths (n · n² · n² · 2) sat at.
        let unlimited = ResourceBudget::unlimited();
        let front = front_half(&spgemm_request(256), &unlimited, true).expect("lowers");
        let prior = service_prior_nanos(&front).expect("every atom of the bound is valued");
        assert!((PRIOR_MIN_NANOS..PRIOR_MAX_NANOS).contains(&prior), "{prior}");
        assert_eq!(prior, (256 + 2 * 256u64.pow(3) + 256 * 256 + 1 + 256) * NANOS_PER_ITERATION);
        // At the benchmark's n = 512 the same polynomial is 2.7 s of
        // interpreter time and still clamps: the prior is pessimistic by the
        // operands' density, which admission does not look at.
        let front = front_half(&spgemm_request(512), &unlimited, true).expect("lowers");
        assert_eq!(service_prior_nanos(&front), Some(PRIOR_MAX_NANOS));
    }

    #[test]
    fn budget_verdicts_do_not_depend_on_segment_lengths() {
        // The budget chain reads dimension-valued workspace bounds only: the
        // dense row workspace of the n = 16 SpGEMM is 17n bytes, a hash one
        // starts at 384, and the direct kernel does not lower.
        let req = spgemm_request(16);
        let verdict = |bytes: u64| {
            let budget = ResourceBudget::unlimited().with_max_workspace_bytes(bytes);
            let front = front_half(&req, &budget, false).expect("arbitrated");
            budget_infeasible(&req, &front, &budget)
        };
        assert!(matches!(
            verdict(100),
            Some(Rejected::BudgetInfeasible { bound_bytes: 272, budget_bytes: 100, .. })
        ));
        assert!(verdict(1024).is_none(), "the hash workspace fits");
        assert!(verdict(272).is_none(), "the dense workspace fits exactly");
    }
}
