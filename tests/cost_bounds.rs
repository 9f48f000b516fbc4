//! Adversarial checks on the symbolic cost analyzer's bounds: exact values
//! where the arithmetic is pinned down, conservative-but-sound degradation
//! where it is not, and the compile-time consumers that act on them.

use taco_core::{default_verify_mode, CostEnv, IndexStmt, ResourceBudget, Supervisor};
use taco_ir::expr::{sum, IndexVar, TensorVar};
use taco_ir::notation::IndexAssignment;
use taco_llir::WorkspaceKind;
use taco_lower::LowerOptions;
use taco_tensor::gen::random_csr;
use taco_tensor::{Format, Tensor};

fn spgemm(n: usize) -> IndexStmt {
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j, k) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"));
    let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
    let mut stmt = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(k.clone(), mul.clone()),
    ))
    .unwrap();
    stmt.reorder(&k, &j).unwrap();
    let w = TensorVar::new("w", vec![n], Format::dvec());
    stmt.precompute(&mul, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
    stmt
}

/// The dense row workspace of the Figure 2 SpGEMM is fully shape-determined:
/// vals (8n) + the assembly index list (8n) + membership set (1n) = 17n
/// bytes, provable from declared dimensions alone — no operands needed.
#[test]
fn dense_workspace_bound_is_finite_and_exact_from_shapes() {
    let n = 16;
    let kernel = spgemm(n).compile(LowerOptions::fused("bounds")).unwrap();
    let cost = kernel.cost_report();
    let env = CostEnv::from_shapes(kernel.lowered());

    let ws = &cost.workspaces[0];
    assert_eq!(ws.name, "w");
    assert_eq!(kernel.lowered().workspaces[0].kind, WorkspaceKind::Dense);
    // Dense workspaces are resident from allocation: the initial footprint
    // IS the full footprint.
    let seventeen_n = Some(17 * n as u64);
    assert_eq!(ws.init_bytes.concrete(&env), seventeen_n, "17n for an assembling dense row");
    // Iteration and peak bounds reference `len(...)` atoms, so they close
    // symbolically at compile time and concretely once operands are bound.
    assert!(cost.iterations.is_finite(), "iteration bound must be symbolically finite");
    let bt = random_csr(n, n, 0.3, 3).to_tensor();
    let ct = random_csr(n, n, 0.3, 4).to_tensor();
    let inputs: [(&str, &Tensor); 2] = [("B", &bt), ("C", &ct)];
    let binding = kernel.bind(&inputs, None).unwrap();
    assert!(kernel.static_peak_bytes(&binding).is_some(), "peak bound closes at bind time");
}

/// A hash workspace's footprint is data-dependent (it grows with distinct
/// scatter keys), so the analyzer degrades *conservatively*: the bound
/// stays finite — capacity plus the scatter-count ceiling, never `Unknown`
/// — and still dominates what a real run allocates.
#[test]
fn hash_workspace_bound_degrades_conservatively_but_stays_sound() {
    let n = 16;
    let kernel = spgemm(n)
        .compile(LowerOptions::fused("bounds_hash").with_workspace_kind(WorkspaceKind::Hash))
        .unwrap();
    let ws = &kernel.cost_report().workspaces[0];
    assert_eq!(kernel.lowered().workspaces[0].kind, WorkspaceKind::Hash);

    let env = CostEnv::from_shapes(kernel.lowered());
    // Initial footprint: 16-entry capacity at 24 bytes per hash entry.
    assert_eq!(ws.init_bytes.concrete(&env), Some(384));

    // Soundness against a real run, and conservatism: the proven ceiling
    // must cover the observed peak, and (being a growth-doubling ceiling)
    // must sit at or above the initial allocation.
    let bt = random_csr(n, n, 0.4, 5).to_tensor();
    let ct = random_csr(n, n, 0.4, 6).to_tensor();
    let inputs: [(&str, &Tensor); 2] = [("B", &bt), ("C", &ct)];
    let mut binding = kernel.bind(&inputs, None).unwrap();
    let bound = kernel
        .static_peak_bytes(&binding)
        .expect("hash footprint must degrade to a finite ceiling, not Unknown");
    let report = kernel.run_bound_supervised(&mut binding, &Supervisor::new()).unwrap();
    assert!(
        bound >= report.progress.peak_bytes(),
        "static {} < observed {}",
        bound,
        report.progress.peak_bytes()
    );
    assert!(bound >= 384, "peak ceiling cannot undercut the initial allocation");
}

/// The compile-time budget fallback acts on the proven bound: a limit just
/// under the dense 17n footprint forces the coordinate-list downgrade, whose
/// *initial* footprint fits, and the downgraded kernel's own report reflects
/// the chosen kind — the decision chain is analyzer-driven end to end.
#[test]
fn budget_fallback_decisions_match_the_reported_bounds() {
    let n = 64; // dense 17n = 1088; coord-list init 256 fits under 1000
    let kernel = spgemm(n)
        .compile_checked(
            LowerOptions::fused("bounds_budget"),
            ResourceBudget::unlimited().with_max_workspace_bytes(1000),
            default_verify_mode(),
        )
        .unwrap();
    let kind = kernel.lowered().workspaces[0].kind;
    assert_eq!(kind, WorkspaceKind::CoordList, "downgrade must pick the sparse rung");
    let env = CostEnv::from_shapes(kernel.lowered());
    assert!(
        kernel.cost_report().workspace_init_bytes(&env).unwrap() <= 1000,
        "chosen rung's initial footprint must fit the budget that forced it"
    );
}
