//! The degrade ladder is written once: `DegradeRung::request` turns each
//! rung into a compile request, and two walks climb `DegradeRung::LADDER`
//! through it — the compile-time budget walk, which `IndexStmt::compile_checked`
//! and the serving daemon's admission check share, and
//! `Engine::run_supervised` at run time. The ladder has three rungs (as
//! scheduled → coordinate-list workspace → direct merge). This suite pins
//! the engine's verdict (the rung of the kernel that committed, or how it
//! failed) on every request of a small matrix, that every rung commits
//! somewhere in it, that no rung the compile already walked past is
//! compiled again, and that admission sheds exactly what the compile
//! refuses:
//!
//! {SpGEMM CSR, SpGEMM DCSR×CSR, sparse add, MTTKRP}
//!   × {fused sorted, fused into a `(d,h)` result, compute}
//!   × workspace budget {unlimited, fits dense, fits the hash kind's init,
//!     fits the coord-list kind's init, fits nothing}
//!   × {no iteration fuse, a 1-iteration fuse that aborts every rung},
//!
//! plus cumulative-allocation limits sized to what each workspace kind's
//! kernel allocates, which abort the rungs that allocate more at run time so
//! the ladder commits mid-descent. A hash kernel is a coordinate-list
//! kernel charged 3/2 as much per map entry, so its limit commits the
//! coordinate-list rung.

use std::sync::Arc;
use std::time::Duration;
use taco_workspaces::core::default_verify_mode;
use taco_workspaces::lower::lower;
use taco_workspaces::prelude::*;
use taco_workspaces::tensor::gen::{random_csf3, random_csr, random_dense};

fn iv(n: &str) -> IndexVar {
    IndexVar::new(n)
}

/// The `(d,h)` format: rows kept in the order a drain appends them.
fn dh() -> Format {
    Format::new(vec![LevelType::Dense, LevelType::Hashed])
}

/// Figure 2 SpGEMM (reorder + row workspace) into an `af` result; `bf` is
/// B's format.
fn spgemm(n: usize, af: Format, bf: Format) -> IndexStmt {
    let a = TensorVar::new("A", vec![n, n], af);
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
/// workspace variant) into an `af` result; its direct merge kernel lowers,
/// unlike SpGEMM's.
fn sparse_add(n: usize, af: Format) -> IndexStmt {
    let a = TensorVar::new("A", vec![n, n], af);
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
    /// The statement into a `(d,h)` result, for a sparse result; a dense
    /// result has no order to drop.
    hashed: Option<IndexStmt>,
    operands: Vec<(String, Arc<Tensor>)>,
}

impl Case {
    /// The statement a request row compiles.
    fn stmt_for(&self, row: Row) -> &IndexStmt {
        match (row, &self.hashed) {
            (Row::Hashed, Some(hashed)) => hashed,
            _ => &self.stmt,
        }
    }
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
            stmt: spgemm(n, Format::csr(), Format::csr()),
            hashed: Some(spgemm(n, dh(), Format::csr())),
            operands: named(vec![("B", b.clone()), ("C", c.clone())]),
        },
        Case {
            name: "spgemm-dcsr",
            stmt: spgemm(n, Format::csr(), Format::dcsr()),
            hashed: Some(spgemm(n, dh(), Format::dcsr())),
            operands: named(vec![("B", b.convert(Format::dcsr()).unwrap()), ("C", c.clone())]),
        },
        Case {
            name: "sparse-add",
            stmt: sparse_add(n, Format::csr()),
            hashed: Some(sparse_add(n, dh())),
            operands: named(vec![("B", b), ("C", c)]),
        },
        Case {
            name: "mttkrp",
            stmt: mttkrp(d, r),
            hashed: None,
            operands: named(vec![
                ("B", random_csf3([d, d, d], 80, 13).to_tensor()),
                ("C", dense(14)),
                ("D", dense(15)),
            ]),
        },
    ]
}

/// Which statement a request row compiles: the case's own, or the case's
/// statement into a `(d,h)` result.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Row {
    Sorted,
    Hashed,
}

fn option_sets() -> Vec<(&'static str, Row, LowerOptions)> {
    vec![
        ("fused-sorted", Row::Sorted, LowerOptions::fused("k")),
        ("fused-unsorted", Row::Hashed, LowerOptions::fused("k")),
        ("compute", Row::Sorted, LowerOptions::compute("k")),
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

/// What a supervised run committed, or how it failed.
#[derive(Debug)]
enum Verdict {
    Committed { rung: DegradeRung, fallbacks: Vec<FallbackEvent> },
    Failed(String),
}

impl Verdict {
    /// The verdict's cell in [`VERDICTS`].
    fn code(&self) -> &'static str {
        match self {
            Verdict::Committed { rung: DegradeRung::AsScheduled, .. } => "S",
            Verdict::Committed { rung: DegradeRung::CoordListWorkspace, .. } => "C",
            Verdict::Committed { rung: DegradeRung::DirectMerge, .. } => "D",
            Verdict::Failed(why) if why.starts_with("Aborted") => "a",
            Verdict::Failed(why) if why.starts_with("BudgetExceeded") => "b",
            Verdict::Failed(_) => "?",
        }
    }
}

fn verdict(run: Result<SupervisedRun, EngineError>) -> Verdict {
    match run {
        Ok(run) => Verdict::Committed { rung: run.rung, fallbacks: run.fallbacks },
        // For aborts the reason is the verdict; wall-clock payloads
        // (elapsed, progress at abort) are not part of the contract.
        Err(EngineError::Core(CoreError::Aborted(a))) => {
            Verdict::Failed(format!("Aborted({})", a.reason))
        }
        Err(EngineError::Core(CoreError::BudgetExceeded { resource, limit, context, .. })) => {
            Verdict::Failed(format!("BudgetExceeded({resource}, {limit}, {context:?})"))
        }
        Err(other) => Verdict::Failed(format!("{other:?}")),
    }
}

/// A pre-assembled output structure for compute kernels with a sparse
/// result: the fused kernel's answer.
fn output_structure(case: &Case, inputs: &[(&str, &Tensor)]) -> Option<Tensor> {
    let sparse_result = !case.stmt.source().lhs().tensor().format().is_all_dense();
    sparse_result.then(|| case.stmt.compile(LowerOptions::fused("pre")).unwrap().run(inputs).unwrap())
}

/// The budgets of one (statement, options) row. First the
/// cumulative-allocation limits that make the ladder genuinely descend: each
/// workspace backend's measured allocation total, so the limit fits that
/// backend's kernel exactly and aborts (retryably, at run time) every rung
/// that allocates more; `None` where the backend does not lower. Then each
/// workspace limit without and with the fuse.
fn budgets(
    stmt: &IndexStmt,
    opts: &LowerOptions,
    inputs: &[(&str, &Tensor)],
    structure: Option<&Tensor>,
) -> Vec<(String, Option<ResourceBudget>)> {
    let mut budgets = Vec::new();
    for kind in [WorkspaceKind::Dense, WorkspaceKind::Hash, WorkspaceKind::CoordList] {
        let total = stmt.compile(opts.clone().with_workspace_kind(kind)).ok().map(|kernel| {
            let (_, report) = kernel.run_supervised(inputs, structure, &Supervisor::new()).unwrap();
            ResourceBudget::unlimited().with_max_total_bytes(report.progress.allocated_bytes)
        });
        budgets.push((format!("total-fits-{kind}"), total));
    }
    for (limit_name, limit) in workspace_limits(stmt, opts) {
        for fuse in [false, true] {
            budgets.push((format!("{limit_name} fuse={fuse}"), Some(budget(limit, fuse))));
        }
    }
    budgets
}

/// The engine's verdict on every request of the matrix, one row per
/// (case, options) pair and one cell per budget, in [`budgets`] order: the
/// three total-byte limits (dense, hash, coord-list; `.` where that kind
/// does not lower), then the five workspace limits without the fuse. A cell
/// is the committed rung (`S` as scheduled, `C` coord-list workspace, `D`
/// direct merge) or the failure (`a` every rung aborted, `b` the
/// compile-time budget refused). The fused columns are not listed: every
/// one of them is `a`.
const VERDICTS: &str = "\
spgemm-csr fused-sorted:    S S C S a a a a
spgemm-csr fused-unsorted:  S S C S a a a a
spgemm-csr compute:         S . . S S b b b
spgemm-dcsr fused-sorted:   S S C S a a a a
spgemm-dcsr fused-unsorted: S S C S a a a a
spgemm-dcsr compute:        S . . S S b b b
sparse-add fused-sorted:    S C C S a a a a
sparse-add fused-unsorted:  S C C S a a a a
sparse-add compute:         S . . S S D D D
mttkrp fused-sorted:        S S S S S D D D
mttkrp fused-unsorted:      S S S S S D D D
mttkrp compute:             S S S S S D D D
";

#[test]
fn the_engine_ladder_commits_the_pinned_verdict_table() {
    let mut committed_rungs = std::collections::HashSet::new();
    let mut table = String::new();
    let mut hashed_commits = 0;
    for case in cases() {
        let inputs: Vec<(&str, &Tensor)> =
            case.operands.iter().map(|(n, t)| (n.as_str(), &**t)).collect();
        // The sorted result: a compute kernel's structure, and what a
        // `(d,h)` result is once converted to CSR, bit for bit.
        let sorted = output_structure(&case, &inputs);
        for (opt_name, which, opts) in option_sets() {
            let stmt = case.stmt_for(which);
            let structure = if opts.kind == KernelKind::Compute { sorted.as_ref() } else { None };
            let mut row = format!("{:<27}", format!("{} {opt_name}:", case.name));
            for (budget_name, budget) in budgets(stmt, &opts, &inputs, structure) {
                let what = format!("{} {opt_name} {budget_name}", case.name);
                let Some(budget) = budget else {
                    row.push_str(" .");
                    continue;
                };
                let supervisor = Supervisor::new().with_budget(budget);
                let engine = Engine::builder().budget(budget).backend(Backend::Interp).build();
                let run =
                    engine.run_supervised(stmt, opts.clone(), &supervisor, &inputs, structure);
                if let (Row::Hashed, Ok(run), Some(sorted)) = (which, &run, &sorted) {
                    assert_eq!(run.result.format(), &dh(), "{what}");
                    assert_eq!(&run.result.convert(Format::csr()).unwrap(), sorted, "{what}");
                    hashed_commits += 1;
                }
                let verdict = verdict(run);
                if budget.max_loop_iterations.is_some() {
                    assert!(
                        matches!(verdict, Verdict::Failed(_)),
                        "{what}: a 1-iteration fuse must abort every rung"
                    );
                    continue;
                }
                row.push(' ');
                row.push_str(verdict.code());
                if let Verdict::Committed { rung, fallbacks } = &verdict {
                    committed_rungs.insert(*rung);
                    // The abandoned rungs, then the one that committed, in
                    // ladder order.
                    let position = |r: &DegradeRung| DegradeRung::LADDER.iter().position(|l| l == r);
                    let descent: Vec<Option<usize>> = fallbacks
                        .iter()
                        .filter_map(|f| match f {
                            FallbackEvent::DegradedRetry { rung, .. } => Some(position(rung)),
                            _ => None,
                        })
                        .chain([position(rung)])
                        .collect();
                    assert!(
                        descent.windows(2).all(|w| w[0] < w[1]),
                        "{what}: trail out of ladder order: {fallbacks:?}"
                    );
                }
            }
            table.push_str(&row);
            table.push('\n');
        }
    }
    assert_eq!(table, VERDICTS, "the engine's verdict table moved");
    assert!(hashed_commits > 0, "no `(d,h)` result was compared");
    // The matrix is only a test of the ladder if it actually descends it:
    // every rung commits somewhere.
    for rung in DegradeRung::LADDER {
        assert!(committed_rungs.contains(&rung), "nothing committed {rung}: {committed_rungs:?}");
    }
}

/// One supervised run of the named case on a fresh interpreter engine whose
/// budget is also the supervisor's.
fn supervised(
    name: &str,
    opts: LowerOptions,
    budget: ResourceBudget,
) -> (Engine, Result<SupervisedRun, EngineError>) {
    let case = cases().into_iter().find(|c| c.name == name).unwrap();
    let inputs: Vec<(&str, &Tensor)> = case.operands.iter().map(|(n, t)| (n.as_str(), &**t)).collect();
    let engine = Engine::builder().budget(budget).backend(Backend::Interp).build();
    let supervisor = Supervisor::new().with_budget(budget);
    let run = engine.run_supervised(&case.stmt, opts, &supervisor, &inputs, None);
    (engine, run)
}

#[test]
fn a_rung_the_compile_already_walked_past_is_never_compiled() {
    // Under a 1-byte workspace limit the compile-time walk proves the
    // coord-list kernel over budget (256 B initial footprint) and compiles
    // direct merge. When the fuse aborts that kernel, no rung is left to
    // try: one compile, one retry event naming direct merge, and the fuse
    // is the error.
    let (engine, run) = supervised("sparse-add", LowerOptions::fused("k"), budget(Some(1), true));
    match run {
        Err(EngineError::Core(CoreError::Aborted(a))) => assert!(
            matches!(
                a.reason,
                RunError::BudgetExceeded { resource: BudgetResource::LoopIterations, .. }
            ),
            "{}",
            a.reason
        ),
        other => panic!("expected the fuse to abort the run, got {other:?}"),
    }
    assert_eq!(engine.cache_stats().compiles, 1);
    let retries: Vec<DegradeRung> = engine
        .last_events()
        .iter()
        .filter_map(|e| match e {
            EngineEvent::Fallback(FallbackEvent::DegradedRetry { rung, .. }) => Some(*rung),
            _ => None,
        })
        .collect();
    assert_eq!(retries, [DegradeRung::DirectMerge]);

    // A committed run reports the rung of the kernel that ran: MTTKRP
    // `compute` under the same limit commits the direct-merge kernel.
    let (_, run) = supervised("mttkrp", LowerOptions::compute("k"), budget(Some(1), false));
    let run = run.unwrap();
    assert_eq!(run.rung, DegradeRung::DirectMerge);
    assert!(
        matches!(run.fallbacks[..], [FallbackEvent::OverBudget { rung: DegradeRung::DirectMerge, .. }]),
        "{:?}",
        run.fallbacks
    );
}

#[test]
fn admission_sheds_exactly_what_compile_with_budget_refuses() {
    let (mut shed, mut admitted) = (0, 0);
    for case in cases() {
        let inputs: Vec<(&str, &Tensor)> =
            case.operands.iter().map(|(n, t)| (n.as_str(), &**t)).collect();
        let structure = output_structure(&case, &inputs).map(Arc::new);
        for (opt_name, which, opts) in option_sets() {
            let stmt = case.stmt_for(which);
            for (limit_name, limit) in workspace_limits(stmt, &opts) {
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
                        stmt.compile_checked(opts.clone(), limited, default_verify_mode()),
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
                        stmt.clone(),
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
