//! Candidate-schedule enumeration for the autotuner.
//!
//! The Section V-C heuristics ([`IndexStmt::suggestions`]) say *where* a
//! workspace is likely to pay off, but the paper is explicit that the best
//! placement depends on formats and sparsity, and that the transformation
//! "should therefore be applied judiciously" (Section VII). This module
//! turns the heuristics into a concrete search space: the direct-merge
//! baseline, every loop reorder of the outer forall chain, and every legal
//! workspace placement the heuristics propose on each of those loop orders.
//! The runtime engine's autotuner ranks the candidates by their iteration
//! bounds on the real operands and replies with the best.
//!
//! The space holds schedules and operand conversions, not storage: every
//! candidate lowers under the caller's options as given, so a workspace's
//! data structure is the caller's choice, or the budget's
//! ([`crate::ladder`]), never the tuner's.

use crate::fingerprint::fingerprint_kernel;
use crate::passes::FrontHalf;
use crate::IndexStmt;
use std::collections::HashSet;
use taco_ir::concrete::ConcreteStmt;
use taco_ir::expr::{IndexVar, TensorVar};
use taco_ir::transform;
use taco_lower::LowerOptions;
use taco_tensor::Format;
use taco_verify::VerifyMode;

/// One point in the schedule search space, and what an autotune decision
/// remembers: replaying a candidate needs nothing but the candidate.
#[derive(Debug, Clone)]
pub struct ScheduleCandidate {
    /// Human-readable schedule description, e.g.
    /// `"reorder(k,j) + precompute(j)"`. Stable across runs for a given
    /// statement, so autotune decisions can be logged and compared by name.
    pub name: String,
    /// The scheduled statement.
    pub stmt: IndexStmt,
    /// Operand format conversions this candidate requires at run time:
    /// `(operand name, target format)`. The statement is already rewritten
    /// to the target format; the runtime converts the bound tensors to match
    /// before executing, on every request, so the tuner counts the conversion
    /// into the candidate's predicted cost and into its measured time.
    pub conversions: Vec<(String, Format)>,
}

/// Name of the candidate that applies no transformation at all.
pub const DIRECT_MERGE: &str = "direct-merge";

/// [`enumerate_candidates_for`] under the canonical `fused` options, without
/// the products.
pub fn enumerate_candidates(stmt: &IndexStmt) -> Vec<ScheduleCandidate> {
    let canonical = LowerOptions::fused("candidate");
    enumerate_candidates_for(stmt, &canonical).into_iter().map(|(c, _)| c).collect()
}

/// Enumerates the candidate schedules of a statement that compile under
/// `opts`, each with the [`FrontHalf`] that proves it.
///
/// A candidate is a point of the space below that lowers under the caller's
/// options, unchanged, and that the static verifier accepts; the front half
/// that showed it is kept, so whoever compiles the candidate
/// ([`FrontHalf::finish`]) does not lower or verify it again. A point that
/// does not lower — a loop order that needs random access into compressed
/// storage, direct sparse scatter (the direct baseline of SpGEMM into CSR), a
/// format the kernel kind cannot append to — is not a candidate. Candidates are deduplicated by [`fingerprint_kernel`] of the
/// verified LLIR, so schedules that are spelled differently but lower to
/// identical kernels occupy one slot.
///
/// 1. the statement **as currently scheduled** (so a user schedule always
///    competes);
/// 2. the **direct-merge baseline** — the source statement with every
///    transformation dropped;
/// 3. each **pairwise loop reorder** of the direct baseline's outer forall
///    chain;
/// 4. for each loop order from (2)–(3), every **workspace placement** the
///    Section V-C heuristics suggest for it, applied with a fresh dense
///    workspace sized from the precomputed variables' ranges;
/// 5. for each loop order, every sparse rank-2 operand **converted** to each
///    other standard rank-2 format.
///
/// The space is serial: a parallel loop enters it only in the statement the
/// caller scheduled, (1). A parallel twin of a serial schedule does the same
/// iterations, so the ranking could not tell the two apart, and the native
/// backend does not emit it.
pub fn enumerate_candidates_for(
    stmt: &IndexStmt,
    opts: &LowerOptions,
) -> Vec<(ScheduleCandidate, FrontHalf)> {
    let mut out: Vec<(ScheduleCandidate, FrontHalf)> = Vec::new();
    let mut seen: HashSet<u64> = HashSet::new();
    let mut push = |name: String, s: IndexStmt, conversions: Vec<(String, Format)>| {
        let front =
            FrontHalf::unverified(&s, opts.clone()).and_then(|f| f.verified(VerifyMode::Deny));
        let Ok(front) = front else { return };
        if seen.insert(fingerprint_kernel(&front.lowered().kernel)) {
            let cand = ScheduleCandidate { name, stmt: s, conversions };
            out.push((cand, front));
        }
    };

    // Base loop orders: the direct concretization plus every pairwise
    // reorder of its outer forall chain.
    let Ok(direct) = IndexStmt::new(stmt.source().clone()) else {
        push("as-scheduled".to_string(), stmt.clone(), Vec::new());
        return out;
    };
    // An unscheduled statement *is* the direct baseline; only list
    // "as-scheduled" separately when a schedule has actually been applied.
    if stmt.concrete() != direct.concrete() {
        push("as-scheduled".to_string(), stmt.clone(), Vec::new());
    }
    let chain = forall_chain(direct.concrete());
    let mut bases: Vec<(String, IndexStmt)> = vec![(DIRECT_MERGE.to_string(), direct.clone())];
    for a in 0..chain.len() {
        for b in (a + 1)..chain.len() {
            if let Ok(r) = transform::reorder(direct.concrete(), &chain[a], &chain[b]) {
                bases.push((
                    format!("reorder({},{})", chain[a], chain[b]),
                    IndexStmt::from_parts(stmt.source().clone(), r),
                ));
            }
        }
    }

    // Workspace placements on every base loop order.
    for (base_name, base) in &bases {
        push(base_name.clone(), base.clone(), Vec::new());
        for (n, sugg) in base.suggestions().into_iter().enumerate() {
            let Some(ws) = workspace_for(base.concrete(), &sugg.over, n) else {
                continue;
            };
            let splits: Vec<(IndexVar, IndexVar, IndexVar)> =
                sugg.over.iter().map(|v| (v.clone(), v.clone(), v.clone())).collect();
            if let Ok(t) = transform::precompute(base.concrete(), &sugg.expr, &splits, &ws) {
                let over: Vec<String> = sugg.over.iter().map(|v| v.to_string()).collect();
                let name = if *base_name == DIRECT_MERGE {
                    format!("precompute({})", over.join(","))
                } else {
                    format!("{} + precompute({})", base_name, over.join(","))
                };
                push(name, IndexStmt::from_parts(stmt.source().clone(), t), Vec::new());
            }
        }
    }

    // Format conversions: the statement is rewritten to the target format
    // and the runtime converts the operand before executing. A combination
    // that does not lower (COO feeding a fused sparse append) is dropped
    // inside `push`, like an unlowerable loop order.
    for (base_name, base) in &bases {
        for (op_name, op_var) in operand_tensors(base.concrete()) {
            if op_var.rank() != 2 || op_var.format().is_all_dense() {
                continue;
            }
            for alt in
                [Format::csr(), Format::dcsr(), Format::csc(), Format::dcsc(), Format::coo(2)]
            {
                if *op_var.format() == alt {
                    continue;
                }
                let Ok(t) = transform::with_format(base.concrete(), &op_name, &alt) else {
                    continue;
                };
                let conv = format!("convert({op_name}:{alt})");
                let name = if *base_name == DIRECT_MERGE {
                    conv
                } else {
                    format!("{base_name} + {conv}")
                };
                push(
                    name,
                    IndexStmt::from_parts(stmt.source().clone(), t),
                    vec![(op_name.clone(), alt)],
                );
            }
        }
    }
    out
}

/// A fresh dense workspace tensor over the suggestion's index set, sized
/// from the variables' inferred ranges. Returns `None` when a range cannot
/// be inferred (the suggestion is then skipped).
fn workspace_for(stmt: &ConcreteStmt, over: &[IndexVar], n: usize) -> Option<TensorVar> {
    let dims: Option<Vec<usize>> = over.iter().map(|v| stmt.var_dimension(v)).collect();
    let dims = dims?;
    if dims.is_empty() {
        return None;
    }
    Some(TensorVar::new(format!("w_tune{n}"), dims.clone(), Format::dense(dims.len())))
}

/// Tensors the statement reads but never writes (the kernel's operands),
/// in first-access order.
fn operand_tensors(stmt: &ConcreteStmt) -> Vec<(String, TensorVar)> {
    let written = stmt.written_tensors();
    let mut out: Vec<(String, TensorVar)> = Vec::new();
    stmt.visit(&mut |s| {
        if let ConcreteStmt::Assign { rhs, .. } = s {
            for a in rhs.accesses() {
                let name = a.tensor().name();
                if !written.iter().any(|w| w == name)
                    && !out.iter().any(|(n, _)| n == name)
                {
                    out.push((name.to_string(), a.tensor().clone()));
                }
            }
        }
    });
    out
}

/// The index variables of the outermost forall chain, outermost first.
fn forall_chain(stmt: &ConcreteStmt) -> Vec<IndexVar> {
    let mut vars = Vec::new();
    let mut cur = stmt;
    while let ConcreteStmt::Forall { var, body, .. } = cur {
        vars.push(var.clone());
        cur = body;
    }
    vars
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_ir::expr::{sum, IndexVar, TensorVar};
    use taco_ir::notation::IndexAssignment;

    fn spgemm_unscheduled() -> IndexStmt {
        let n = 16;
        let a = TensorVar::new("A", vec![n, n], Format::csr());
        let b = TensorVar::new("B", vec![n, n], Format::csr());
        let c = TensorVar::new("C", vec![n, n], Format::csr());
        let (i, j, k) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"));
        IndexStmt::new(IndexAssignment::assign(
            a.access([i.clone(), j.clone()]),
            sum(k.clone(), b.access([i, k.clone()]) * c.access([k, j])),
        ))
        .unwrap()
    }

    #[test]
    fn spgemm_space_is_the_figure2_schedule_and_its_variants() {
        let cands = enumerate_candidates(&spgemm_unscheduled());
        let names: Vec<&str> = cands.iter().map(|c| c.name.as_str()).collect();
        // SpGEMM into CSR is unrealizable without a workspace: the direct
        // baseline does not lower, so it is not a candidate.
        assert!(!names.contains(&DIRECT_MERGE), "{names:?}");
        assert!(names.contains(&"reorder(j,k) + precompute(j)"), "{names:?}");
        // Storage is not a point of the space: no candidate names a backend.
        assert!(names.iter().all(|name| !name.contains("workspace(")), "{names:?}");
    }

    #[test]
    fn the_canonical_enumeration_is_the_fused_one_without_products() {
        let stmt = spgemm_unscheduled();
        let canonical: Vec<String> =
            enumerate_candidates(&stmt).into_iter().map(|c| c.name).collect();
        let fused: Vec<String> = enumerate_candidates_for(&stmt, &LowerOptions::fused("k"))
            .into_iter()
            .map(|(c, _)| c.name)
            .collect();
        assert_eq!(canonical, fused);
    }

    #[test]
    fn as_scheduled_statement_is_first_candidate() {
        // The Figure 2 schedule, applied by hand, competes under the name
        // "as-scheduled".
        let mut s = spgemm_unscheduled();
        let (i, j, k) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"));
        let b = TensorVar::new("B", vec![16, 16], Format::csr());
        let c = TensorVar::new("C", vec![16, 16], Format::csr());
        s.reorder(&k, &j).unwrap();
        let w = TensorVar::new("w", vec![16], Format::dvec());
        let mul = b.access([i, k.clone()]) * c.access([k, j.clone()]);
        s.precompute(&mul, &[(j.clone(), j.clone(), j)], &w).unwrap();
        let cands = enumerate_candidates(&s);
        assert_eq!(cands[0].name, "as-scheduled");
        assert_eq!(cands[0].stmt.concrete(), s.concrete());
    }
}
