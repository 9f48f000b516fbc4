//! The degrade ladder and the compile-time budget chain have three
//! consumers — `IndexStmt::run_supervised`, `Engine::run_supervised` and
//! the serving daemon's admission check. This suite pins that they reach
//! the same decision on every request of a small matrix:
//!
//! {SpGEMM CSR, SpGEMM DCSR×CSR, sparse add, MTTKRP}
//!   × {fused sorted, fused unsorted, compute}
//!   × workspace budget {unlimited, fits dense, fits only hash init,
//!     fits only coord-list init, fits nothing}
//!   × {no iteration fuse, a 1-iteration fuse that aborts every rung},
//!
//! plus cumulative-allocation limits sized to each workspace backend, which
//! abort the rungs above it at run time so the ladder commits mid-descent.

use std::sync::Arc;
use std::time::Duration;
use taco_workspaces::lower::lower;
use taco_workspaces::prelude::*;
use taco_workspaces::tensor::gen::{random_csf3, random_csr, random_dense};

fn iv(n: &str) -> IndexVar {
    IndexVar::new(n)
}

/// Figure 2 SpGEMM (reorder + row workspace); `bf` is B's format.
fn spgemm(n: usize, bf: Format) -> IndexStmt {
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let b = TensorVar::new("B", vec![n, n], bf);
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j, k) = (iv("i"), iv("j"), iv("k"));
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

/// Sparse addition `A = B + C` through a row workspace (Figure 13's
/// workspace variant); its direct merge kernel lowers, unlike SpGEMM's.
fn sparse_add(n: usize) -> IndexStmt {
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j) = (iv("i"), iv("j"));
    let bij: IndexExpr = b.access([i.clone(), j.clone()]).into();
    let cij: IndexExpr = c.access([i.clone(), j.clone()]).into();
    let mut stmt =
        IndexStmt::new(IndexAssignment::assign(a.access([i, j.clone()]), bij.clone() + cij.clone()))
            .unwrap();
    let w = TensorVar::new("w", vec![n], Format::dvec());
    stmt.precompute(&(bij + cij), &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
    stmt
}

/// Section V MTTKRP over a CSF 3-tensor with the rank-`r` workspace.
fn mttkrp(d: usize, r: usize) -> IndexStmt {
    let a = TensorVar::new("A", vec![d, r], Format::dense(2));
    let b = TensorVar::new("B", vec![d, d, d], Format::csf3());
    let c = TensorVar::new("C", vec![d, r], Format::dense(2));
    let dd = TensorVar::new("D", vec![d, r], Format::dense(2));
    let (i, j, k, l) = (iv("i"), iv("j"), iv("k"), iv("l"));
    let bc = b.access([i.clone(), k.clone(), l.clone()]) * c.access([l.clone(), j.clone()]);
    let mut stmt = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(k.clone(), sum(l.clone(), bc.clone() * dd.access([k.clone(), j.clone()]))),
    ))
    .unwrap();
    stmt.reorder(&j, &k).unwrap();
    stmt.reorder(&j, &l).unwrap();
    let w = TensorVar::new("w", vec![r], Format::dvec());
    stmt.precompute(&bc, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
    stmt
}

struct Case {
    name: &'static str,
    stmt: IndexStmt,
    operands: Vec<(String, Arc<Tensor>)>,
}

fn cases() -> Vec<Case> {
    let n = 64;
    let b = random_csr(n, n, 0.08, 11).to_tensor();
    let c = random_csr(n, n, 0.08, 12).to_tensor();
    let named = |pairs: Vec<(&str, Tensor)>| -> Vec<(String, Arc<Tensor>)> {
        pairs.into_iter().map(|(name, t)| (name.to_string(), Arc::new(t))).collect()
    };
    let (d, r) = (12, 64);
    let dense = |seed| Tensor::from_dense(&random_dense(d, r, seed), Format::dense(2)).unwrap();
    vec![
        Case {
            name: "spgemm-csr",
            stmt: spgemm(n, Format::csr()),
            operands: named(vec![("B", b.clone()), ("C", c.clone())]),
        },
        Case {
            name: "spgemm-dcsr",
            stmt: spgemm(n, Format::dcsr()),
            operands: named(vec![("B", b.convert(Format::dcsr()).unwrap()), ("C", c.clone())]),
        },
        Case { name: "sparse-add", stmt: sparse_add(n), operands: named(vec![("B", b), ("C", c)]) },
        Case {
            name: "mttkrp",
            stmt: mttkrp(d, r),
            operands: named(vec![
                ("B", random_csf3([d, d, d], 80, 13).to_tensor()),
                ("C", dense(14)),
                ("D", dense(15)),
            ]),
        },
    ]
}

fn option_sets() -> Vec<(&'static str, LowerOptions)> {
    vec![
        ("fused-sorted", LowerOptions::fused("k")),
        ("fused-unsorted", LowerOptions::fused("k").unsorted()),
        ("compute", LowerOptions::compute("k")),
    ]
}

/// Total initial footprint of the scheduled workspaces under `kind`, as the
/// cost analyzer proves it — only used to *place* the budget limits; every
/// assertion below is about agreement, not about these numbers. A compute
/// kernel with a sparse result cannot drain a map workspace, so where
/// `opts` does not lower under `kind` the fused kernel's footprint places
/// the limit instead.
fn init_bytes(stmt: &IndexStmt, opts: &LowerOptions, kind: WorkspaceKind) -> u64 {
    let lk = lower(stmt.concrete(), &opts.clone().with_workspace_kind(kind))
        .or_else(|_| lower(stmt.concrete(), &LowerOptions::fused("k").with_workspace_kind(kind)))
        .unwrap();
    let cost = analyze_cost(&lk);
    let env = CostEnv::from_shapes(&lk);
    stmt_workspaces(stmt.concrete())
        .iter()
        .map(|ws| {
            let w = cost.workspaces.iter().find(|w| w.name == ws.name()).unwrap();
            w.init_bytes.concrete(&env).unwrap()
        })
        .sum()
}

/// The five workspace-byte limits of the matrix for one (statement,
/// options) pair.
fn workspace_limits(stmt: &IndexStmt, opts: &LowerOptions) -> Vec<(&'static str, Option<u64>)> {
    let dense = init_bytes(stmt, opts, WorkspaceKind::Dense);
    let hash = init_bytes(stmt, opts, WorkspaceKind::Hash);
    let coord = init_bytes(stmt, opts, WorkspaceKind::CoordList);
    assert!(coord < hash && hash < dense, "sizes must separate the rungs: {coord} {hash} {dense}");
    vec![
        ("unlimited", None),
        ("fits-dense", Some(dense)),
        ("fits-hash", Some(hash)),
        ("fits-coord", Some(coord)),
        ("fits-nothing", Some(1)),
    ]
}

fn budget(limit: Option<u64>, fuse: bool) -> ResourceBudget {
    let mut b = ResourceBudget::unlimited();
    if let Some(bytes) = limit {
        b = b.with_max_workspace_bytes(bytes);
    }
    if fuse {
        b = b.with_max_loop_iterations(1);
    }
    b
}

/// What a supervised run committed, or how it failed, reduced to the parts
/// the two runners must agree on.
#[derive(Debug, PartialEq)]
enum Verdict {
    Committed { rung: DegradeRung, fallbacks: Vec<FallbackEvent>, result: Tensor, bits: Vec<u64> },
    Failed(String),
}

fn verdict(outcome: Result<SupervisedOutcome, CoreError>) -> Verdict {
    match outcome {
        Ok(o) => Verdict::Committed {
            rung: o.rung,
            fallbacks: o.fallbacks,
            bits: o.result.vals().iter().map(|v| v.to_bits()).collect(),
            result: o.result,
        },
        // Same variant, and for aborts the same reason; wall-clock payloads
        // (elapsed, progress at abort) are not part of the contract.
        Err(CoreError::Aborted(a)) => Verdict::Failed(format!("Aborted({})", a.reason)),
        Err(CoreError::BudgetExceeded { resource, limit, context, .. }) => {
            Verdict::Failed(format!("BudgetExceeded({resource}, {limit}, {context:?})"))
        }
        Err(other) => Verdict::Failed(format!("{:?}", std::mem::discriminant(&other))),
    }
}

/// A pre-assembled output structure for compute kernels with a sparse
/// result: the fused kernel's answer.
fn output_structure(case: &Case, inputs: &[(&str, &Tensor)]) -> Option<Tensor> {
    let sparse_result = !case.stmt.source().lhs().tensor().format().is_all_dense();
    sparse_result.then(|| case.stmt.compile(LowerOptions::fused("pre")).unwrap().run(inputs).unwrap())
}

/// Cumulative-allocation limits that make the ladder genuinely descend:
/// each workspace backend's measured allocation total, so the limit fits
/// that backend's kernel exactly and aborts (retryably, at run time) every
/// rung that allocates more.
fn total_byte_limits(
    stmt: &IndexStmt,
    opts: &LowerOptions,
    inputs: &[(&str, &Tensor)],
    structure: Option<&Tensor>,
) -> Vec<(String, ResourceBudget)> {
    let mut limits = Vec::new();
    for kind in [WorkspaceKind::Dense, WorkspaceKind::Hash, WorkspaceKind::CoordList] {
        let Ok(kernel) = stmt.compile(opts.clone().with_workspace_kind(kind)) else { continue };
        let (_, report) = kernel.run_supervised(inputs, structure, &Supervisor::new()).unwrap();
        let total = report.progress.allocated_bytes;
        limits.push((
            format!("total-fits-{kind}"),
            ResourceBudget::unlimited().with_max_total_bytes(total),
        ));
    }
    limits
}

#[test]
fn stmt_and_engine_ladders_commit_the_same_rung_trail_and_bytes() {
    let mut committed_rungs = std::collections::HashSet::new();
    for case in cases() {
        let inputs: Vec<(&str, &Tensor)> =
            case.operands.iter().map(|(n, t)| (n.as_str(), &**t)).collect();
        let structure = output_structure(&case, &inputs);
        for (opt_name, opts) in option_sets() {
            let structure =
                if opts.kind == KernelKind::Compute { structure.as_ref() } else { None };
            let mut budgets = total_byte_limits(&case.stmt, &opts, &inputs, structure);
            for (limit_name, limit) in workspace_limits(&case.stmt, &opts) {
                for fuse in [false, true] {
                    budgets.push((format!("{limit_name} fuse={fuse}"), budget(limit, fuse)));
                }
            }
            for (budget_name, budget) in budgets {
                let what = format!("{} {opt_name} {budget_name}", case.name);
                let supervisor = Supervisor::new().with_budget(budget);

                let by_stmt =
                    verdict(case.stmt.run_supervised(opts.clone(), &supervisor, &inputs, structure));

                let engine = Engine::builder().budget(budget).backend(Backend::Interp).build();
                let by_engine = verdict(
                    engine
                        .run_supervised(
                            &case.stmt,
                            opts.clone(),
                            &supervisor,
                            &inputs,
                            structure,
                            engine.config().verify,
                            Backend::Interp,
                        )
                        .map(|run| run.outcome)
                        .map_err(|e| match e {
                            EngineError::Core(e) => e,
                            other => panic!("{what}: non-core engine error {other}"),
                        }),
                );
                assert_eq!(by_stmt, by_engine, "{what}: the two ladders disagree");

                if let Verdict::Committed { rung, .. } = &by_stmt {
                    committed_rungs.insert(*rung);
                }
                if budget.max_loop_iterations.is_some() {
                    assert!(
                        matches!(by_stmt, Verdict::Failed(_)),
                        "{what}: a 1-iteration fuse must abort every rung"
                    );
                }
            }
        }
    }
    // The matrix is only a test of the ladder if it actually descends it.
    assert!(committed_rungs.len() >= 4, "matrix exercised only {committed_rungs:?}");
}

#[test]
fn admission_sheds_exactly_what_compile_with_budget_refuses() {
    let (mut shed, mut admitted) = (0, 0);
    for case in cases() {
        let inputs: Vec<(&str, &Tensor)> =
            case.operands.iter().map(|(n, t)| (n.as_str(), &**t)).collect();
        let structure = output_structure(&case, &inputs).map(Arc::new);
        for (opt_name, opts) in option_sets() {
            for (limit_name, limit) in workspace_limits(&case.stmt, &opts) {
                // The effective budget is tenant ∧ engine: put the limit on
                // each side in turn.
                for on_engine in [false, true] {
                    let what = format!("{} {opt_name} {limit_name} on_engine={on_engine}", case.name);
                    let limited = budget(limit, false);
                    let (tenant_budget, engine_budget) = if on_engine {
                        (ResourceBudget::unlimited(), limited)
                    } else {
                        (limited, ResourceBudget::unlimited())
                    };
                    let refused = matches!(
                        case.stmt.compile_with_budget(opts.clone(), limited),
                        Err(CoreError::BudgetExceeded { .. })
                    );

                    let engine =
                        Engine::builder().budget(engine_budget).backend(Backend::Interp).build();
                    let server = Server::builder()
                        .engine(Arc::new(engine))
                        .workers(1)
                        .tenant("t", TenantPolicy::default().with_budget(tenant_budget))
                        .build();
                    let mut request = Request::new(
                        "t",
                        case.stmt.clone(),
                        opts.clone(),
                        case.operands.clone(),
                        Duration::from_secs(120),
                    );
                    if let (KernelKind::Compute, Some(s)) = (opts.kind, &structure) {
                        request = request.with_output_structure(Arc::clone(s));
                    }
                    match server.submit(request) {
                        Err(Rejected::BudgetInfeasible { budget_bytes, .. }) => {
                            assert!(refused, "{what}: shed a request the compile accepts");
                            assert_eq!(Some(budget_bytes), limit, "{what}");
                            assert_eq!(server.engine().cache_stats().compiles, 0, "{what}");
                            shed += 1;
                        }
                        Err(other) => panic!("{what}: unexpected rejection {other}"),
                        Ok(ticket) => {
                            assert!(!refused, "{what}: admitted a request the compile refuses");
                            // Admitted means "might run": the run itself
                            // may still abort on a run-time charge.
                            let _ = ticket.wait();
                            admitted += 1;
                        }
                    }
                    server.drain();
                }
            }
        }
    }
    assert!(shed > 0 && admitted > 0, "matrix must cover both sides: {shed} shed, {admitted} admitted");
}
