//! Static-verifier suite: hand-built broken LLIR must be rejected with the
//! exact typed diagnostic, every verifier-accepted autotuner candidate must
//! execute byte-identically to the direct-merge oracle, and the LLIR-level
//! parallel race check must re-derive every `ReductionNotPrivatized`
//! verdict of the concrete-notation legality check.

use proptest::prelude::*;
use taco_workspaces::core::candidates::DIRECT_MERGE;
use taco_workspaces::core::{enumerate_candidates, IndexStmt, ScheduleCandidate};
use taco_workspaces::ir::concrete::ConcreteStmt;
use taco_workspaces::ir::transform;
use taco_workspaces::ir::IrError;
use taco_workspaces::llir::{ArrayTy, Expr, Kernel, Param, Rows, Stmt};
use taco_workspaces::lower::lower;
use taco_workspaces::prelude::*;
use taco_workspaces::verify::{verify_kernel, VerifyError};

fn iv(n: &str) -> IndexVar {
    IndexVar::new(n)
}

// ---------------------------------------------------------------------------
// Adversarial fixtures: each broken kernel is rejected with the exact
// variant, carrying statement provenance.
// ---------------------------------------------------------------------------

fn has_deny(report: &taco_workspaces::verify::VerifyReport, pred: impl Fn(&VerifyError) -> bool) -> bool {
    report.diagnostics.iter().any(|d| {
        d.severity == taco_workspaces::verify::Severity::Deny && pred(&d.error)
    })
}

#[test]
fn uninitialized_workspace_read_is_denied() {
    // out[i] = w[i] with w an output array nothing ever initializes.
    let mut k = Kernel::new("bad_uninit");
    k.scalar_params.push("n".to_string());
    k.array_params.push(Param::output("out", ArrayTy::F64));
    k.array_params.push(Param::output("w", ArrayTy::F64));
    k.body.push(Stmt::For {
        var: "i".to_string(),
        lo: Expr::int(0),
        hi: Expr::var("n"),
        body: vec![Stmt::Store {
            arr: "out".to_string(),
            idx: Expr::var("i"),
            val: Expr::load("w", Expr::var("i")),
        }],
    });
    let report = verify_kernel(&k);
    assert!(!report.accepted(), "uninitialized read must be denied: {report}");
    assert!(
        has_deny(&report, |e| matches!(e, VerifyError::UninitializedRead { array } if array == "w")),
        "expected UninitializedRead for `w`, got: {report:?}"
    );
    // Provenance: the diagnostic names a statement and a path into the body.
    let d = report.first_deny().unwrap();
    assert!(!d.stmt.is_empty(), "diagnostic carries the statement printout");
    assert!(!d.path.is_empty(), "diagnostic carries a path into the kernel body");
}

#[test]
fn missing_workspace_reset_between_iterations_is_denied() {
    // A phase loop accumulates into a workspace that is allocated clean
    // once, reads it back, and never restores it — iteration 2 observes
    // iteration 1's values.
    let mut k = Kernel::new("bad_reset");
    k.scalar_params.push("n".to_string());
    k.array_params.push(Param::input("B_vals", ArrayTy::F64));
    k.array_params.push(Param::output("out", ArrayTy::F64));
    k.body.push(Stmt::Alloc { arr: "w".to_string(), ty: ArrayTy::F64, len: Expr::var("n") });
    k.body.push(Stmt::Memset { arr: "out".to_string(), val: Expr::float(0.0) });
    k.body.push(Stmt::For {
        var: "i".to_string(),
        lo: Expr::int(0),
        hi: Expr::var("n"),
        body: vec![
            Stmt::For {
                var: "j".to_string(),
                lo: Expr::int(0),
                hi: Expr::var("n"),
                body: vec![Stmt::StoreAdd {
                    arr: "w".to_string(),
                    idx: Expr::var("j"),
                    val: Expr::load("B_vals", Expr::var("j")),
                }],
            },
            Stmt::For {
                var: "j".to_string(),
                lo: Expr::int(0),
                hi: Expr::var("n"),
                body: vec![Stmt::StoreAdd {
                    arr: "out".to_string(),
                    idx: Expr::var("j"),
                    val: Expr::load("w", Expr::var("j")),
                }],
                // note: no `w[j] = 0` drain — that is the bug.
            },
        ],
    });
    let report = verify_kernel(&k);
    assert!(
        has_deny(&report, |e| matches!(e, VerifyError::MissingReset { array } if array == "w")),
        "expected MissingReset for `w`, got: {report:?}"
    );
}

#[test]
fn missing_reset_fixture_passes_once_drained() {
    // The same kernel with the full-range drain restored is accepted —
    // the deny above is about the missing drain, nothing else.
    let mut k = Kernel::new("good_reset");
    k.scalar_params.push("n".to_string());
    k.array_params.push(Param::input("B_vals", ArrayTy::F64));
    k.array_params.push(Param::output("out", ArrayTy::F64));
    k.body.push(Stmt::Alloc { arr: "w".to_string(), ty: ArrayTy::F64, len: Expr::var("n") });
    k.body.push(Stmt::Memset { arr: "out".to_string(), val: Expr::float(0.0) });
    k.body.push(Stmt::For {
        var: "i".to_string(),
        lo: Expr::int(0),
        hi: Expr::var("n"),
        body: vec![
            Stmt::For {
                var: "j".to_string(),
                lo: Expr::int(0),
                hi: Expr::var("n"),
                body: vec![Stmt::StoreAdd {
                    arr: "w".to_string(),
                    idx: Expr::var("j"),
                    val: Expr::load("B_vals", Expr::var("j")),
                }],
            },
            Stmt::For {
                var: "j".to_string(),
                lo: Expr::int(0),
                hi: Expr::var("n"),
                body: vec![
                    Stmt::StoreAdd {
                        arr: "out".to_string(),
                        idx: Expr::var("j"),
                        val: Expr::load("w", Expr::var("j")),
                    },
                    Stmt::Store {
                        arr: "w".to_string(),
                        idx: Expr::var("j"),
                        val: Expr::float(0.0),
                    },
                ],
            },
        ],
    });
    let report = verify_kernel(&k);
    assert!(report.accepted(), "drained kernel must be accepted: {report:?}");
}

#[test]
fn out_of_bounds_append_is_denied() {
    // out_crd[len(out_crd)] = j: appends one element past the allocation
    // with no realloc guard — provably out of bounds on every execution.
    let mut k = Kernel::new("bad_oob");
    k.scalar_params.push("n".to_string());
    k.array_params.push(Param::output("out_crd", ArrayTy::Int));
    k.body.push(Stmt::For {
        var: "j".to_string(),
        lo: Expr::int(0),
        hi: Expr::var("n"),
        body: vec![Stmt::Store {
            arr: "out_crd".to_string(),
            idx: Expr::len("out_crd"),
            val: Expr::var("j"),
        }],
    });
    let report = verify_kernel(&k);
    assert!(
        has_deny(
            &report,
            |e| matches!(e, VerifyError::OutOfBounds { array, .. } if array == "out_crd")
        ),
        "expected OutOfBounds for `out_crd`, got: {report:?}"
    );
}

/// Makes `k` parallel over its top-level loop `var`, as lowering a parallel
/// forall does: the loop must be [`rows_loop`]'s.
fn parallel(mut k: Kernel, var: &str) -> Kernel {
    k.scalar_params.extend(["row_lo".to_string(), "row_hi".to_string()]);
    k.rows(Rows {
        var: var.to_string(),
        lo: "row_lo".to_string(),
        hi: "row_hi".to_string(),
        extent: "n".to_string(),
        threads: 0,
        private: Vec::new(),
        append: None,
    })
}

/// `for (var = max(0, row_lo); var < min(n, row_hi); var++) body`: the loop
/// a parallel kernel's row ranges split.
fn rows_loop(var: &str, body: Vec<Stmt>) -> Stmt {
    let (lo, hi) = (Expr::int(0).max(Expr::var("row_lo")), Expr::var("n").min(Expr::var("row_hi")));
    Stmt::for_(var, lo, hi, body)
}

#[test]
fn racy_parallel_accumulate_is_denied() {
    // A parallel loop whose body accumulates into a location independent of
    // the parallel variable: the classic unprivatized reduction, at the
    // LLIR level.
    let mut k = Kernel::new("bad_race");
    k.scalar_params.push("n".to_string());
    k.array_params.push(Param::input("B_vals", ArrayTy::F64));
    k.array_params.push(Param::output("out", ArrayTy::F64));
    k.body.push(Stmt::Memset { arr: "out".to_string(), val: Expr::float(0.0) });
    k.body.push(rows_loop(
        "i",
        vec![Stmt::StoreAdd {
            arr: "out".to_string(),
            idx: Expr::int(0),
            val: Expr::load("B_vals", Expr::var("i")),
        }],
    ));
    let mut k = parallel(k, "i");
    let report = verify_kernel(&k);
    assert!(
        has_deny(&report, |e| matches!(e, VerifyError::DataRace { name, .. } if name == "out")),
        "expected DataRace for `out`, got: {report:?}"
    );
    // Privatizing the array clears the race (and only the race).
    k.rows.as_mut().unwrap().private.push("out".to_string());
    let report = verify_kernel(&k);
    assert!(
        !has_deny(&report, |e| matches!(e, VerifyError::DataRace { .. })),
        "privatized array must not race: {report:?}"
    );
}

// ---------------------------------------------------------------------------
// Rule table: one hand-built kernel per reset, monotonicity and
// parallel-drain rule, each with the verdict the verifier must reach.
// ---------------------------------------------------------------------------

/// What a rule-table kernel must produce.
enum Verdict {
    /// A deny-severity diagnostic matching the predicate.
    Deny(fn(&VerifyError) -> bool),
    /// No deny, and a warn-severity diagnostic matching the predicate.
    Warn(fn(&VerifyError) -> bool),
    /// No deny, and every listed text occurs in some recorded assumption.
    Accepted(&'static [&'static str]),
}

fn rule_kernel(name: &str, arrays: &[Param], body: Vec<Stmt>) -> Kernel {
    let mut k = Kernel::new(name);
    k.scalar_params.push("n".to_string());
    k.array_params.extend(arrays.iter().cloned());
    k.body = body;
    k
}

fn up_to_n(var: &str, body: Vec<Stmt>) -> Stmt {
    Stmt::for_(var, Expr::int(0), Expr::var("n"), body)
}

/// `for i < n { pA2 = <update>; A2_pos[i + 1] = pA2; }`
fn append_counter(name: &str, update: Expr) -> Kernel {
    let arrays = [Param::input("B_crd", ArrayTy::Int), Param::output("A2_pos", ArrayTy::Int)];
    let body = vec![
        Stmt::DeclInt("pA2".to_string(), Expr::int(0)),
        up_to_n(
            "i",
            vec![
                Stmt::assign("pA2", update),
                Stmt::store("A2_pos", Expr::var("i") + Expr::int(1), Expr::var("pA2")),
            ],
        ),
    ];
    rule_kernel(name, &arrays, body)
}

fn ws_init() -> Stmt {
    Stmt::WsInit {
        ws: "w".to_string(),
        kind: WorkspaceKind::Dense,
        ty: ArrayTy::F64,
        extent: Expr::var("n"),
    }
}

fn ws_scatter(key: Expr) -> Stmt {
    Stmt::WsScatter { ws: "w".to_string(), key, val: Expr::float(1.0), add: true }
}

/// `for p in B2_pos[i] .. B2_pos[i + 1] { int j = B2_crd[p]; <then> }`
fn row_segment(then: Vec<Stmt>) -> Stmt {
    let i = || Expr::var("i");
    let mut body = vec![Stmt::DeclInt("j".to_string(), Expr::load("B2_crd", Expr::var("p")))];
    body.extend(then);
    Stmt::for_("p", Expr::load("B2_pos", i()), Expr::load("B2_pos", i() + Expr::int(1)), body)
}

#[test]
fn reset_monotonicity_and_parallel_drain_rules_reach_their_verdicts() {
    let structure = [
        Param::input("B2_pos", ArrayTy::Int),
        Param::input("B2_crd", ArrayTy::Int),
        Param::input("B_vals", ArrayTy::F64),
        Param::output("out", ArrayTy::F64),
    ];
    let j = || Expr::var("j");
    let table: Vec<(Kernel, Verdict)> = vec![
        (
            append_counter("decreasing_counter", Expr::var("pA2") - Expr::int(1)),
            Verdict::Deny(
                |e| matches!(e, VerifyError::PosNotMonotone { counter } if counter == "pA2"),
            ),
        ),
        (
            append_counter("loaded_counter", Expr::load("B_crd", Expr::var("i"))),
            Verdict::Warn(|e| {
                matches!(e, VerifyError::Unproven { obligation }
                    if obligation == "append counter `pA2` never decreases")
            }),
        ),
        (
            rule_kernel(
                "undrained_scatter",
                &[],
                vec![ws_init(), up_to_n("i", vec![ws_scatter(Expr::var("i"))])],
            ),
            Verdict::Deny(|e| matches!(e, VerifyError::MissingReset { array } if array == "w")),
        ),
        (
            rule_kernel(
                "reinitialized_scatter",
                &[],
                vec![ws_init(), up_to_n("i", vec![ws_scatter(Expr::var("i")), ws_init()])],
            ),
            Verdict::Accepted(&[]),
        ),
        (
            rule_kernel(
                "structure_drain",
                &structure,
                vec![
                    Stmt::Alloc { arr: "w".to_string(), ty: ArrayTy::F64, len: Expr::var("n") },
                    Stmt::Memset { arr: "out".to_string(), val: Expr::float(0.0) },
                    up_to_n(
                        "i",
                        vec![
                            row_segment(vec![Stmt::store_add(
                                "w",
                                j(),
                                Expr::load("B_vals", Expr::var("p")),
                            )]),
                            row_segment(vec![
                                Stmt::store_add("out", Expr::var("i"), Expr::load("w", j())),
                                Stmt::store("w", j(), Expr::float(0.0)),
                            ]),
                        ],
                    ),
                ],
            ),
            Verdict::Accepted(&["structure `B2_pos`/`B2_crd` covers every coordinate of `w`"]),
        ),
        (
            parallel(
                rule_kernel(
                    "parallel_scatter_without_drain",
                    &[],
                    vec![rows_loop("i", vec![ws_init(), ws_scatter(Expr::var("i"))])],
                ),
                "i",
            ),
            Verdict::Deny(|e| {
                matches!(e, VerifyError::DataRace { name, detail, .. }
                    if name == "w" && detail.contains("scattered into but never drained"))
            }),
        ),
        (
            rule_kernel("scatter_before_init", &[], vec![ws_scatter(Expr::int(0)), ws_init()]),
            Verdict::Deny(
                |e| matches!(e, VerifyError::WorkspaceNotInitialized { workspace } if workspace == "w"),
            ),
        ),
    ];
    for (kernel, verdict) in table {
        let report = verify_kernel(&kernel);
        let found = |severity, pred: fn(&VerifyError) -> bool| {
            report.diagnostics.iter().any(|d| d.severity == severity && pred(&d.error))
        };
        let ok = match verdict {
            Verdict::Deny(pred) => found(taco_workspaces::verify::Severity::Deny, pred),
            Verdict::Warn(pred) => {
                report.accepted() && found(taco_workspaces::verify::Severity::Warn, pred)
            }
            Verdict::Accepted(notes) => {
                report.accepted()
                    && notes.iter().all(|n| report.assumptions.iter().any(|a| a.contains(n)))
            }
        };
        assert!(
            ok,
            "{}: {report}\n{:#?}\n{:#?}",
            kernel.name, report.diagnostics, report.assumptions
        );
    }
}

// ---------------------------------------------------------------------------
// The workspace nodes carry their own obligations: a scatter's key is
// checked against the extent once, and a drain needs nothing the scatters
// did not prove. The Fig. 2 SpGEMM verifies clean under every kind.
// ---------------------------------------------------------------------------

#[test]
fn fig2_spgemm_and_its_parallel_twin_verify_clean_under_every_workspace_kind() {
    let n = 16;
    let fig2 = || {
        let a = TensorVar::new("A", vec![n, n], Format::csr());
        let b = TensorVar::new("B", vec![n, n], Format::csr());
        let c = TensorVar::new("C", vec![n, n], Format::csr());
        let (i, j, k) = (iv("i"), iv("j"), iv("k"));
        let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
        let mut stmt = IndexStmt::new(IndexAssignment::assign(
            a.access([i, j.clone()]),
            sum(k.clone(), mul.clone()),
        ))
        .unwrap();
        stmt.reorder(&k, &j).unwrap();
        let w = TensorVar::new("w", vec![n], Format::dvec());
        stmt.precompute(&mul, &[(j.clone(), j.clone(), j)], &w).unwrap();
        stmt
    };
    let mut twin = fig2();
    twin.parallelize(&iv("i")).unwrap();
    for (what, stmt) in [("serial", fig2()), ("parallelize(i)", twin)] {
        for kind in [WorkspaceKind::Dense, WorkspaceKind::Hash, WorkspaceKind::CoordList] {
            let kernel =
                stmt.compile(LowerOptions::fused("fig2").with_workspace_kind(kind)).unwrap();
            let report = kernel.verify_report();
            assert_eq!(
                (report.denies(), report.warns()),
                (0, 0),
                "{what} under {kind}: {:#?}",
                report.diagnostics
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Every verifier-accepted autotuner candidate executes byte-identically to
// the direct-merge oracle. Integer-valued operands keep f64 arithmetic
// exact, so reassociation by workspaces/reorders cannot change a single
// bit of the result.
// ---------------------------------------------------------------------------

fn sparse_add_stmt(m: usize, n: usize) -> IndexStmt {
    let a = TensorVar::new("A", vec![m, n], Format::csr());
    let b = TensorVar::new("B", vec![m, n], Format::csr());
    let c = TensorVar::new("C", vec![m, n], Format::csr());
    let (i, j) = (iv("i"), iv("j"));
    let bij: IndexExpr = b.access([i.clone(), j.clone()]).into();
    let cij: IndexExpr = c.access([i.clone(), j.clone()]).into();
    IndexStmt::new(IndexAssignment::assign(a.access([i, j]), bij + cij)).unwrap()
}

/// A CSR tensor with small-integer values at pseudo-random positions.
fn int_csr(m: usize, n: usize, seed: u64) -> Tensor {
    let mut entries = Vec::new();
    let mut s = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        s >> 33
    };
    for r in 0..m {
        for c in 0..n {
            if next() % 10 < 3 {
                entries.push((vec![r, c], (next() % 7 + 1) as f64));
            }
        }
    }
    Tensor::from_entries(vec![m, n], Format::csr(), entries).unwrap()
}

fn assert_byte_identical(oracle: &Tensor, got: &Tensor, what: &str) {
    assert_eq!(oracle, got, "{what}: structure differs");
    let ob: Vec<u64> = oracle.vals().iter().map(|v| v.to_bits()).collect();
    let gb: Vec<u64> = got.vals().iter().map(|v| v.to_bits()).collect();
    assert_eq!(ob, gb, "{what}: values differ bitwise");
}

/// `cand` with its outermost loop parallelized, where the privatization
/// check allows: the tuner's space is serial, so the sweep adds these itself.
fn parallel_twin(cand: &ScheduleCandidate) -> Option<ScheduleCandidate> {
    let ConcreteStmt::Forall { var, parallel: false, .. } = cand.stmt.concrete() else {
        return None;
    };
    let mut stmt = cand.stmt.clone();
    stmt.parallelize(var).ok()?;
    let name = format!("{} + parallelize({var})", cand.name);
    Some(ScheduleCandidate { name, stmt, ..cand.clone() })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every candidate, and the parallel twin of every candidate that has
    /// one and lowers, is accepted and byte-identical to direct merge.
    #[test]
    fn accepted_candidates_match_direct_merge_oracle(
        m in 2usize..12,
        n in 2usize..12,
        seed in 0u64..500,
    ) {
        let stmt = sparse_add_stmt(m, n);
        let bt = int_csr(m, n, seed);
        let ct = int_csr(m, n, seed.wrapping_add(1));
        let inputs: Vec<(&str, &Tensor)> = vec![("B", &bt), ("C", &ct)];

        let candidates = enumerate_candidates(&stmt);
        let direct = candidates
            .iter()
            .find(|c| c.name == DIRECT_MERGE)
            .expect("direct merge is always in the space");
        let oracle = direct
            .stmt
            .compile(LowerOptions::fused("oracle"))
            .expect("direct merge lowers")
            .run(&inputs)
            .expect("direct merge runs");

        let twins: Vec<ScheduleCandidate> = candidates.iter().filter_map(parallel_twin).collect();
        let mut executed = 0usize;
        let all = candidates.iter().map(|c| (c, false)).chain(twins.iter().map(|c| (c, true)));
        for (cand, is_twin) in all {
            let opts = LowerOptions::fused("cand").with_workspace_kind(cand.workspace_kind);
            let kernel = match cand.stmt.compile(opts) {
                Ok(kernel) => kernel,
                Err(_) if is_twin => continue,
                Err(e) => panic!("{}: a candidate lowers under fused options: {e}", cand.name),
            };
            let report = kernel.verify_report();
            prop_assert!(report.accepted(), "{}: {report}", cand.name);
            let got = kernel.run(&inputs).expect("accepted candidate runs");
            assert_byte_identical(&oracle, &got, &cand.name);
            executed += 1;
        }
        prop_assert!(executed >= 2, "at least the oracle and one alternative executed");
    }
}

// ---------------------------------------------------------------------------
// Differential: the LLIR-level parallel race check re-derives every
// `ReductionNotPrivatized` verdict of `transform::parallelize`. For every
// candidate × forall variable the concrete check rejects, force the loop
// parallel anyway, lower it, and the verifier must deny with a DataRace.
// ---------------------------------------------------------------------------

/// Marks the forall over `var` parallel without any legality check.
fn force_parallel(stmt: &ConcreteStmt, var: &IndexVar) -> ConcreteStmt {
    match stmt {
        ConcreteStmt::Forall { var: v, body, parallel } => {
            if v == var {
                ConcreteStmt::forall_parallel(v.clone(), (**body).clone())
            } else {
                ConcreteStmt::Forall {
                    var: v.clone(),
                    body: Box::new(force_parallel(body, var)),
                    parallel: *parallel,
                }
            }
        }
        ConcreteStmt::Where { consumer, producer } => ConcreteStmt::where_(
            force_parallel(consumer, var),
            force_parallel(producer, var),
        ),
        ConcreteStmt::Sequence { first, second } => ConcreteStmt::sequence(
            force_parallel(first, var),
            force_parallel(second, var),
        ),
        other => other.clone(),
    }
}

fn forall_vars(stmt: &ConcreteStmt) -> Vec<IndexVar> {
    let mut out = Vec::new();
    fn go(s: &ConcreteStmt, out: &mut Vec<IndexVar>) {
        match s {
            ConcreteStmt::Forall { var, body, .. } => {
                out.push(var.clone());
                go(body, out);
            }
            ConcreteStmt::Where { consumer, producer } => {
                go(consumer, out);
                go(producer, out);
            }
            ConcreteStmt::Sequence { first, second } => {
                go(first, out);
                go(second, out);
            }
            _ => {}
        }
    }
    go(stmt, &mut out);
    out.sort_by_key(std::string::ToString::to_string);
    out.dedup();
    out
}

fn dense_matvec() -> IndexStmt {
    let n = 12;
    let y = TensorVar::new("y", vec![n], Format::dvec());
    let b = TensorVar::new("B", vec![n, n], Format::dense(2));
    let x = TensorVar::new("x", vec![n], Format::dvec());
    let (i, j) = (iv("i"), iv("j"));
    IndexStmt::new(IndexAssignment::assign(
        y.access([i.clone()]),
        sum(j.clone(), b.access([i, j.clone()]) * x.access([j])),
    ))
    .unwrap()
}

fn dense_mttkrp() -> IndexStmt {
    let (di, dk, dl, r) = (8, 7, 6, 5);
    let a = TensorVar::new("A", vec![di, r], Format::dense(2));
    let b = TensorVar::new(
        "B",
        vec![di, dk, dl],
        Format::new(vec![ModeFormat::Dense, ModeFormat::Compressed, ModeFormat::Compressed]),
    );
    let c = TensorVar::new("C", vec![dl, r], Format::dense(2));
    let d = TensorVar::new("D", vec![dk, r], Format::dense(2));
    let (i, j, k, l) = (iv("i"), iv("j"), iv("k"), iv("l"));
    IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(
            k.clone(),
            sum(
                l.clone(),
                b.access([i, k.clone(), l.clone()]) * c.access([l, j.clone()]) * d.access([k, j]),
            ),
        ),
    ))
    .unwrap()
}

#[test]
fn race_check_rederives_every_reduction_not_privatized_verdict() {
    let cases = [
        ("dense_matvec", dense_matvec()),
        ("dense_mttkrp", dense_mttkrp()),
        ("sparse_add", sparse_add_stmt(10, 12)),
    ];
    let mut checked = 0usize;
    let mut disagreements: Vec<String> = Vec::new();
    for (case, stmt) in &cases {
        for cand in enumerate_candidates(stmt) {
            for var in forall_vars(cand.stmt.concrete()) {
                let Err(IrError::ReductionNotPrivatized { .. }) =
                    transform::parallelize(cand.stmt.concrete(), &var)
                else {
                    continue;
                };
                // The concrete-notation check says this loop carries an
                // unprivatized reduction. Force it parallel and lower; the
                // LLIR verifier must independently reach a deny.
                let forced = force_parallel(cand.stmt.concrete(), &var);
                for opts in [
                    LowerOptions::fused(format!("{case}_f")),
                    LowerOptions::compute(format!("{case}_c")),
                ] {
                    // A lowering rejection (e.g. loop-carried append
                    // counter) is its own guard against the miscompile.
                    let Ok(lk) = lower(&forced, &opts) else { continue };
                    checked += 1;
                    let report = taco_workspaces::verify::verify_lowered(&lk);
                    let denied = report.diagnostics.iter().any(|d| {
                        d.severity == taco_workspaces::verify::Severity::Deny
                            && matches!(d.error, VerifyError::DataRace { .. })
                    });
                    if !denied {
                        disagreements.push(format!(
                            "{case} [{}] parallelize({var}) ({:?}): concrete check rejects \
                             but verifier accepted: {report}",
                            cand.name, opts.kind
                        ));
                    }
                }
            }
        }
    }
    eprintln!("race check: {checked} forced parallel lowerings checked");
    assert!(checked > 0, "differential test must exercise at least one forced lowering");
    assert!(disagreements.is_empty(), "verdict disagreements:\n{}", disagreements.join("\n"));
}
