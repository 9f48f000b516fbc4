//! Compile- and bind-time consumers of the symbolic cost analyzer.
//!
//! The analyzer itself lives in `taco-verify` ([`taco_verify::analyze_cost`])
//! and works on lowered LLIR. This module answers the two questions the
//! compile path asks around it:
//!
//! * *which* workspaces a schedule introduces, before lowering — the
//!   structural question the budget fallback, the degrade ladder, and the
//!   candidate enumerator all share ([`stmt_workspaces`]); and
//! * how to *evaluate* the symbolic bounds once real operands are bound
//!   ([`binding_env`]).

use taco_ir::concrete::ConcreteStmt;
use taco_ir::expr::TensorVar;
use taco_llir::Binding;
use taco_lower::params::is_pos_name;
use taco_verify::CostEnv;

/// The workspace tensors a schedule's `where` statements introduce: rank ≥ 1
/// producer results read back by the consumer, in occurrence order, each
/// listed once. Scalar (rank-0) temporaries cost one accumulator, not an
/// array, and are excluded.
///
/// This is the *structural* half of the old heuristic estimator; the sizes
/// now come from [`taco_verify::analyze_cost`] over the lowered kernel.
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

/// Builds the bind-time evaluation environment for a compiled kernel's
/// symbolic cost bounds: every bound integer scalar (the dimension
/// parameters) values the matching `Var` atom, every bound array's length
/// values its `len(...)` atom, and every bound `pos` array's longest segment
/// (one pass over it) values its `seg(...)` atom. With a complete binding,
/// every bound the analyzer derives becomes a concrete byte or iteration
/// ceiling.
#[must_use]
pub fn binding_env(binding: &Binding) -> CostEnv {
    let mut env = CostEnv::default();
    for (name, v) in binding.scalar_entries() {
        env.vars.insert(name.to_string(), u64::try_from(v).unwrap_or(0));
    }
    for (name, len) in binding.array_len_entries() {
        env.lens.insert(name.to_string(), len as u64);
        if !is_pos_name(name) {
            continue;
        }
        if let Some(pos) = binding.int_array(name) {
            let longest = pos.windows(2).map(|w| w[1].saturating_sub(w[0])).max().unwrap_or(0);
            env.segs.insert(name.to_string(), u64::try_from(longest).unwrap_or(0));
        }
    }
    env
}
