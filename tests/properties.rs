//! Property-based tests: random tensors and schedules through the full
//! pipeline, checked against the dense oracle.

use proptest::prelude::*;
use taco_core::oracle::eval_dense;
use taco_core::{AbortReason, DegradeRung, FallbackEvent, IndexStmt, ResourceBudget, Supervisor};
use taco_ir::expr::{sum, IndexExpr, IndexVar, TensorVar};
use taco_ir::notation::IndexAssignment;
use taco_ir::transform;
use taco_llir::WorkspaceKind;
use taco_lower::LowerOptions;
use taco_tensor::gen::{random_csf3, random_csr};
use taco_tensor::{Csr, Format, Tensor};

fn iv(n: &str) -> IndexVar {
    IndexVar::new(n)
}

fn csr(m: &Csr) -> Tensor {
    m.to_tensor()
}

fn check(stmt: &IndexAssignment, result: &Tensor, inputs: &[(&str, &Tensor)]) {
    let expect = eval_dense(stmt, inputs).expect("oracle evaluates");
    assert!(
        result.to_dense().approx_eq(&expect, 1e-9),
        "kernel disagrees with oracle for {stmt}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fused workspace SpGEMM equals the oracle on random matrices of
    /// random shapes and densities.
    #[test]
    fn spgemm_fused_matches_oracle(
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
        db in 0.0f64..0.5,
        dc in 0.0f64..0.5,
        seed in 0u64..1000,
    ) {
        let a = TensorVar::new("A", vec![m, n], Format::csr());
        let b = TensorVar::new("B", vec![m, k], Format::csr());
        let c = TensorVar::new("C", vec![k, n], Format::csr());
        let (i, j, kk) = (iv("i"), iv("j"), iv("k"));
        let mul = b.access([i.clone(), kk.clone()]) * c.access([kk.clone(), j.clone()]);
        let source = IndexAssignment::assign(a.access([i.clone(), j.clone()]), sum(kk.clone(), mul.clone()));
        let mut stmt = IndexStmt::new(source.clone()).unwrap();
        stmt.reorder(&kk, &j).unwrap();
        let w = TensorVar::new("w", vec![n], Format::dvec());
        stmt.precompute(&mul, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
        let kernel = stmt.compile(LowerOptions::fused("spgemm")).unwrap();

        let bt = csr(&random_csr(m, k, db, seed));
        let ct = csr(&random_csr(k, n, dc, seed + 1));
        let out = kernel.run(&[("B", &bt), ("C", &ct)]).unwrap();
        check(&source, &out, &[("B", &bt), ("C", &ct)]);
    }

    /// The workspace transformation preserves semantics: merge-based and
    /// workspace-based addition produce identical results.
    #[test]
    fn workspace_transformation_preserves_addition(
        m in 1usize..20,
        n in 1usize..20,
        db in 0.0f64..0.6,
        dc in 0.0f64..0.6,
        seed in 0u64..1000,
    ) {
        let a = TensorVar::new("A", vec![m, n], Format::csr());
        let b = TensorVar::new("B", vec![m, n], Format::csr());
        let c = TensorVar::new("C", vec![m, n], Format::csr());
        let (i, j) = (iv("i"), iv("j"));
        let bij: IndexExpr = b.access([i.clone(), j.clone()]).into();
        let cij: IndexExpr = c.access([i.clone(), j.clone()]).into();
        let source = IndexAssignment::assign(a.access([i.clone(), j.clone()]), bij.clone() + cij.clone());

        let bt = csr(&random_csr(m, n, db, seed + 10));
        let ct = csr(&random_csr(m, n, dc, seed + 11));

        let merge = IndexStmt::new(source.clone()).unwrap()
            .compile(LowerOptions::fused("add_merge")).unwrap()
            .run(&[("B", &bt), ("C", &ct)]).unwrap();

        let mut ws = IndexStmt::new(source.clone()).unwrap();
        let w = TensorVar::new("w", vec![n], Format::dvec());
        let sum_expr = bij.clone() + cij;
        ws.precompute(&sum_expr, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
        ws.precompute(&bij, &[], &w).unwrap();
        let wsr = ws.compile(LowerOptions::fused("add_ws")).unwrap()
            .run(&[("B", &bt), ("C", &ct)]).unwrap();

        prop_assert!(merge.approx_eq(&wsr, 1e-10));
        check(&source, &merge, &[("B", &bt), ("C", &ct)]);
    }

    /// Reorder equivalences (Section IV-B): any loop order of the dense
    /// MTTKRP computes the same function.
    #[test]
    fn reorder_preserves_mttkrp(
        nnz in 0usize..80,
        r in 1usize..8,
        seed in 0u64..1000,
    ) {
        let (di, dk, dl) = (8, 7, 6);
        let a = TensorVar::new("A", vec![di, r], Format::dense(2));
        let b = TensorVar::new("B", vec![di, dk, dl], Format::csf3());
        let c = TensorVar::new("C", vec![dl, r], Format::dense(2));
        let d = TensorVar::new("D", vec![dk, r], Format::dense(2));
        let (i, j, k, l) = (iv("i"), iv("j"), iv("k"), iv("l"));
        let source = IndexAssignment::assign(
            a.access([i.clone(), j.clone()]),
            sum(k.clone(), sum(l.clone(),
                b.access([i.clone(), k.clone(), l.clone()])
                    * c.access([l.clone(), j.clone()])
                    * d.access([k.clone(), j.clone()]))),
        );

        let bt = random_csf3([di, dk, dl], nnz, seed + 20).to_tensor();
        let ct = Tensor::from_dense(&taco_tensor::gen::random_dense(dl, r, seed + 21), Format::dense(2)).unwrap();
        let dt = Tensor::from_dense(&taco_tensor::gen::random_dense(dk, r, seed + 22), Format::dense(2)).unwrap();
        let inputs: Vec<(&str, &Tensor)> = vec![("B", &bt), ("C", &ct), ("D", &dt)];

        // iklj order.
        let mut s1 = IndexStmt::new(source.clone()).unwrap();
        s1.reorder(&j, &k).unwrap();
        s1.reorder(&j, &l).unwrap();
        let o1 = s1.compile(LowerOptions::compute("m1")).unwrap().run(&inputs).unwrap();
        check(&source, &o1, &inputs);

        // ikjl order is illegal for CSF traversal of B's l level below j?
        // No: j is dense, so iterating j inside l or outside works; compare
        // iklj against ijkl (the concretized default).
        let s2 = IndexStmt::new(source.clone()).unwrap();
        let o2 = s2.compile(LowerOptions::compute("m2")).unwrap().run(&inputs).unwrap();
        prop_assert!(o1.approx_eq(&o2, 1e-9));
    }

    /// Fused assembly and separate assemble+compute agree exactly.
    #[test]
    fn assemble_plus_compute_equals_fused(
        m in 1usize..16,
        n in 1usize..16,
        density in 0.0f64..0.5,
        seed in 0u64..1000,
    ) {
        let a = TensorVar::new("A", vec![m, n], Format::csr());
        let b = TensorVar::new("B", vec![m, n], Format::csr());
        let c = TensorVar::new("C", vec![m, n], Format::csr());
        let (i, j) = (iv("i"), iv("j"));
        let bij: IndexExpr = b.access([i.clone(), j.clone()]).into();
        let cij: IndexExpr = c.access([i.clone(), j.clone()]).into();
        let source = IndexAssignment::assign(a.access([i.clone(), j.clone()]), bij.clone() + cij.clone());
        let mut stmt = IndexStmt::new(source).unwrap();
        let w = TensorVar::new("w", vec![n], Format::dvec());
        let sum_expr = bij + cij;
        stmt.precompute(&sum_expr, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();

        let bt = csr(&random_csr(m, n, density, seed + 30));
        let ct = csr(&random_csr(m, n, density, seed + 31));
        let inputs: Vec<(&str, &Tensor)> = vec![("B", &bt), ("C", &ct)];

        let fused = stmt.compile(LowerOptions::fused("f")).unwrap().run(&inputs).unwrap();
        let structure = stmt.compile(LowerOptions::assemble("s")).unwrap().run(&inputs).unwrap();
        let computed = stmt.compile(LowerOptions::compute("c")).unwrap()
            .run_with(&inputs, Some(&structure)).unwrap();

        prop_assert_eq!(&fused, &computed);
    }

    /// Tensor round trips: entries -> tensor -> entries for random formats.
    #[test]
    fn tensor_round_trip(
        m in 1usize..12,
        n in 1usize..12,
        density in 0.0f64..0.7,
        seed in 0u64..1000,
        fmt_choice in 0usize..3,
    ) {
        let fmt = match fmt_choice {
            0 => Format::csr(),
            1 => Format::dcsr(),
            _ => Format::dense(2),
        };
        let mat = random_csr(m, n, density, seed + 40);
        let t = Tensor::from_dense(
            &taco_tensor::DenseTensor::from_data(vec![m, n], mat.to_dense_vec()),
            fmt,
        ).unwrap();
        let t2 = Tensor::from_entries(vec![m, n], t.format().clone(), t.entries()).unwrap();
        prop_assert_eq!(&t, &t2);
        prop_assert!(t.approx_eq(&csr(&mat), 0.0));
    }

    /// Unsorted fused kernels produce the same tensor as sorted ones.
    #[test]
    fn unsorted_output_same_values(
        m in 1usize..16,
        n in 1usize..16,
        density in 0.0f64..0.4,
        seed in 0u64..1000,
    ) {
        let a = TensorVar::new("A", vec![m, n], Format::csr());
        let b = TensorVar::new("B", vec![m, m], Format::csr());
        let c = TensorVar::new("C", vec![m, n], Format::csr());
        let (i, j, k) = (iv("i"), iv("j"), iv("k"));
        let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
        let source = IndexAssignment::assign(a.access([i.clone(), j.clone()]), sum(k.clone(), mul.clone()));
        let mut stmt = IndexStmt::new(source).unwrap();
        stmt.reorder(&k, &j).unwrap();
        let w = TensorVar::new("w", vec![n], Format::dvec());
        stmt.precompute(&mul, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();

        let bt = csr(&random_csr(m, m, density, seed + 50));
        let ct = csr(&random_csr(m, n, density, seed + 51));
        let inputs: Vec<(&str, &Tensor)> = vec![("B", &bt), ("C", &ct)];

        let sorted = stmt.compile(LowerOptions::fused("s")).unwrap().run(&inputs).unwrap();
        let unsorted = stmt.compile(LowerOptions::fused("u").unsorted()).unwrap().run(&inputs).unwrap();
        prop_assert!(sorted.approx_eq(&unsorted, 1e-12));
    }
}

// Robustness property: corrupting any single storage field of a valid
// operand either leaves it valid (benign) or makes every pipeline entry
// point return an error — never panic.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn single_field_corruption_is_rejected_or_benign(
        m in 2usize..12,
        n in 2usize..12,
        density in 0.1f64..0.6,
        seed in 0u64..1000,
        which in 0usize..64,
    ) {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use taco_tensor::corrupt;

        let a = TensorVar::new("A", vec![m, n], Format::csr());
        let b = TensorVar::new("B", vec![m, n], Format::csr());
        let c = TensorVar::new("C", vec![m, n], Format::csr());
        let (i, j) = (iv("i"), iv("j"));
        let bij: IndexExpr = b.access([i.clone(), j.clone()]).into();
        let cij: IndexExpr = c.access([i.clone(), j.clone()]).into();
        let source = IndexAssignment::assign(a.access([i.clone(), j.clone()]), bij.clone() + cij.clone());
        let mut stmt = IndexStmt::new(source).unwrap();
        let w = TensorVar::new("w", vec![n], Format::dvec());
        stmt.precompute(&(bij + cij), &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
        let kernel = stmt.compile(LowerOptions::fused("add")).unwrap();

        let bt = csr(&random_csr(m, n, density, seed + 60));
        let ct = csr(&random_csr(m, n, density, seed + 61));
        prop_assert!(bt.validate().is_ok());

        // The pos corruptions always apply to a CSR tensor, so the mutant
        // list is never empty even for an all-zero matrix.
        let mutants = corrupt::all_corruptions(&bt);
        let (why, bad) = &mutants[which % mutants.len()];
        // `apply` only produces storage-invalid mutants; the property under
        // test is that invalidity implies a graceful error downstream.
        prop_assert!(bad.validate().is_err(), "corruption {:?} must invalidate", why);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            kernel.run(&[("B", bad), ("C", &ct)]).map(|_| ())
        }));
        match outcome {
            Ok(Err(_)) => {}
            Ok(Ok(())) => prop_assert!(false, "corruption {:?} ran to completion", why),
            Err(_) => prop_assert!(false, "corruption {:?} caused a panic", why),
        }
    }
}

// The reorder exchange equivalence on concrete statements themselves:
// `reorder(a, b)` twice is the identity.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn reorder_is_involutive(pick in 0usize..3) {
        let n = 8;
        let a = TensorVar::new("A", vec![n, n], Format::csr());
        let b = TensorVar::new("B", vec![n, n], Format::csr());
        let c = TensorVar::new("C", vec![n, n], Format::csr());
        let (i, j, k) = (iv("i"), iv("j"), iv("k"));
        let source = IndexAssignment::assign(
            a.access([i.clone(), j.clone()]),
            sum(k.clone(), b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()])),
        );
        let stmt = IndexStmt::new(source).unwrap();
        let pairs = [(i.clone(), j.clone()), (j.clone(), k.clone()), (i.clone(), k.clone())];
        let (x, y) = &pairs[pick];
        let once = transform::reorder(stmt.concrete(), x, y).unwrap();
        let twice = transform::reorder(&once, x, y).unwrap();
        prop_assert_eq!(stmt.concrete(), &twice);
    }
}

// Supervised execution is semantics-preserving: running a kernel under a
// supervisor — with the back-edge cancellation/deadline checks armed, and
// even after the degradation ladder abandoned the scheduled kernel — must
// produce exactly the oracle's answer.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Supervised SpGEMM (generous deadline, armed cancel token) equals the
    /// oracle and commits on the as-scheduled rung.
    #[test]
    fn supervised_spgemm_matches_oracle(
        m in 1usize..20,
        k in 1usize..20,
        n in 1usize..20,
        db in 0.0f64..0.5,
        dc in 0.0f64..0.5,
        seed in 0u64..1000,
    ) {
        let a = TensorVar::new("A", vec![m, n], Format::csr());
        let b = TensorVar::new("B", vec![m, k], Format::csr());
        let c = TensorVar::new("C", vec![k, n], Format::csr());
        let (i, j, kk) = (iv("i"), iv("j"), iv("k"));
        let mul = b.access([i.clone(), kk.clone()]) * c.access([kk.clone(), j.clone()]);
        let source = IndexAssignment::assign(a.access([i.clone(), j.clone()]), sum(kk.clone(), mul.clone()));
        let mut stmt = IndexStmt::new(source.clone()).unwrap();
        stmt.reorder(&kk, &j).unwrap();
        let w = TensorVar::new("w", vec![n], Format::dvec());
        stmt.precompute(&mul, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();

        let bt = csr(&random_csr(m, k, db, seed + 40));
        let ct = csr(&random_csr(k, n, dc, seed + 41));
        let supervisor = Supervisor::new()
            .with_deadline(std::time::Duration::from_secs(30))
            .with_cancel_token(taco_core::CancelToken::new());
        let outcome = stmt
            .run_supervised(LowerOptions::fused("spgemm"), &supervisor, &[("B", &bt), ("C", &ct)], None)
            .unwrap();
        prop_assert_eq!(outcome.rung, DegradeRung::AsScheduled);
        prop_assert!(outcome.fallbacks.is_empty());
        check(&source, &outcome.result, &[("B", &bt), ("C", &ct)]);
    }

    /// Supervised MTTKRP (unscheduled, so the ladder has nothing to drop)
    /// equals the oracle.
    #[test]
    fn supervised_mttkrp_matches_oracle(
        nnz in 0usize..80,
        r in 1usize..8,
        seed in 0u64..1000,
    ) {
        let (di, dk, dl) = (8, 7, 6);
        let a = TensorVar::new("A", vec![di, r], Format::dense(2));
        let b = TensorVar::new("B", vec![di, dk, dl], Format::csf3());
        let c = TensorVar::new("C", vec![dl, r], Format::dense(2));
        let d = TensorVar::new("D", vec![dk, r], Format::dense(2));
        let (i, j, k, l) = (iv("i"), iv("j"), iv("k"), iv("l"));
        let source = IndexAssignment::assign(
            a.access([i.clone(), j.clone()]),
            sum(k.clone(), sum(l.clone(),
                b.access([i.clone(), k.clone(), l.clone()])
                    * c.access([l.clone(), j.clone()])
                    * d.access([k.clone(), j.clone()]))),
        );
        let bt = random_csf3([di, dk, dl], nnz, seed + 50).to_tensor();
        let ct = Tensor::from_dense(&taco_tensor::gen::random_dense(dl, r, seed + 51), Format::dense(2)).unwrap();
        let dt = Tensor::from_dense(&taco_tensor::gen::random_dense(dk, r, seed + 52), Format::dense(2)).unwrap();
        let inputs: Vec<(&str, &Tensor)> = vec![("B", &bt), ("C", &ct), ("D", &dt)];

        let stmt = IndexStmt::new(source.clone()).unwrap();
        let supervisor = Supervisor::new().with_deadline(std::time::Duration::from_secs(30));
        let outcome = stmt
            .run_supervised(LowerOptions::compute("mttkrp"), &supervisor, &inputs, None)
            .unwrap();
        prop_assert_eq!(outcome.rung, DegradeRung::AsScheduled);
        check(&source, &outcome.result, &inputs);
    }

    /// The degraded direct-merge rung equals the oracle. A workspace
    /// schedule for the sampled product `A = B .* C` (C dense, precomputed
    /// into a row workspace) scans every column per row, so an iteration
    /// budget between the direct kernel's cost and the scheduled kernel's
    /// cost deterministically forces the ladder all the way down — and the
    /// degraded answer must still be exact.
    #[test]
    fn degraded_direct_merge_matches_oracle(
        m in 4usize..20,
        n in 64usize..160,
        db in 0.0f64..0.04,
        seed in 0u64..1000,
    ) {
        let a = TensorVar::new("A", vec![m, n], Format::csr());
        let b = TensorVar::new("B", vec![m, n], Format::csr());
        let c = TensorVar::new("C", vec![m, n], Format::dense(2));
        let (i, j) = (iv("i"), iv("j"));
        let cij: IndexExpr = c.access([i.clone(), j.clone()]).into();
        let source = IndexAssignment::assign(
            a.access([i.clone(), j.clone()]),
            b.access([i.clone(), j.clone()]) * c.access([i.clone(), j.clone()]),
        );
        let mut stmt = IndexStmt::new(source.clone()).unwrap();
        let w = TensorVar::new("w", vec![n], Format::dvec());
        stmt.precompute(&cij, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();

        let bt = csr(&random_csr(m, n, db, seed + 60));
        let ct = Tensor::from_dense(&taco_tensor::gen::random_dense(m, n, seed + 61), Format::dense(2)).unwrap();

        // The scheduled producer alone needs >= m*n back-edges; the direct
        // merge kernel needs ~m + nnz. Half of m*n separates the two for
        // the sparse B drawn above.
        let fuse = (m * n / 2) as u64;
        let supervisor = Supervisor::new()
            .with_budget(ResourceBudget::default().with_max_loop_iterations(fuse));
        let outcome = stmt
            .run_supervised(LowerOptions::fused("sample"), &supervisor, &[("B", &bt), ("C", &ct)], None)
            .unwrap();
        prop_assert_eq!(outcome.rung, DegradeRung::DirectMerge);
        prop_assert!(
            outcome.fallbacks.iter().any(|f| matches!(
                f,
                FallbackEvent::DegradedRetry {
                    rung: DegradeRung::AsScheduled,
                    reason: AbortReason::BudgetExceeded { .. },
                }
            )),
            "expected a recorded budget abort, got {:?}", outcome.fallbacks
        );
        check(&source, &outcome.result, &[("B", &bt), ("C", &ct)]);
    }
}

// Differential properties for the sparse workspace backends (the
// graceful-degradation rungs): hash-map and coordinate-list workspaces must
// be *byte-identical* — same pos/crd, bitwise-equal values — to the dense
// workspace kernel and, where the untransformed statement lowers, to the
// direct merge kernel. Per-key accumulation order equals the producer's
// loop order and the sorted drain equals dense iteration order, so even
// floating-point bits must agree.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// SpGEMM: every workspace backend, serial and parallelized, produces
    /// the identical CSR tensor.
    #[test]
    fn workspace_kinds_agree_on_spgemm(
        m in 1usize..20,
        k in 1usize..20,
        n in 1usize..20,
        db in 0.0f64..0.5,
        dc in 0.0f64..0.5,
        seed in 0u64..1000,
    ) {
        let a = TensorVar::new("A", vec![m, n], Format::csr());
        let b = TensorVar::new("B", vec![m, k], Format::csr());
        let c = TensorVar::new("C", vec![k, n], Format::csr());
        let (i, j, kk) = (iv("i"), iv("j"), iv("k"));
        let mul = b.access([i.clone(), kk.clone()]) * c.access([kk.clone(), j.clone()]);
        let source = IndexAssignment::assign(a.access([i.clone(), j.clone()]), sum(kk.clone(), mul.clone()));
        let mut stmt = IndexStmt::new(source.clone()).unwrap();
        stmt.reorder(&kk, &j).unwrap();
        let w = TensorVar::new("w", vec![n], Format::dvec());
        stmt.precompute(&mul, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();

        let bt = csr(&random_csr(m, k, db, seed + 70));
        let ct = csr(&random_csr(k, n, dc, seed + 71));
        let inputs: Vec<(&str, &Tensor)> = vec![("B", &bt), ("C", &ct)];

        let dense = stmt.compile(LowerOptions::fused("spgemm")).unwrap().run(&inputs).unwrap();
        check(&source, &dense, &inputs);
        for kind in [WorkspaceKind::Hash, WorkspaceKind::CoordList] {
            let got = stmt
                .compile(LowerOptions::fused("spgemm").with_workspace_kind(kind))
                .unwrap()
                .run(&inputs)
                .unwrap();
            prop_assert_eq!(&got, &dense);
        }

        // Parallel variants: per-thread map clones, deterministic join.
        let mut par = stmt.clone();
        par.parallelize(&i).unwrap();
        for kind in [WorkspaceKind::Dense, WorkspaceKind::Hash, WorkspaceKind::CoordList] {
            let got = par
                .compile(LowerOptions::fused("spgemm_par").with_workspace_kind(kind))
                .unwrap()
                .run(&inputs)
                .unwrap();
            prop_assert_eq!(&got, &dense);
        }
    }

    /// Sparse addition: the direct merge kernel is the oracle; the
    /// workspace schedule must match it bitwise under every backend.
    #[test]
    fn workspace_kinds_agree_on_sparse_add(
        m in 1usize..20,
        n in 1usize..20,
        db in 0.0f64..0.6,
        dc in 0.0f64..0.6,
        seed in 0u64..1000,
    ) {
        let a = TensorVar::new("A", vec![m, n], Format::csr());
        let b = TensorVar::new("B", vec![m, n], Format::csr());
        let c = TensorVar::new("C", vec![m, n], Format::csr());
        let (i, j) = (iv("i"), iv("j"));
        let bij: IndexExpr = b.access([i.clone(), j.clone()]).into();
        let cij: IndexExpr = c.access([i.clone(), j.clone()]).into();
        let source = IndexAssignment::assign(a.access([i.clone(), j.clone()]), bij.clone() + cij.clone());

        let bt = csr(&random_csr(m, n, db, seed + 80));
        let ct = csr(&random_csr(m, n, dc, seed + 81));
        let inputs: Vec<(&str, &Tensor)> = vec![("B", &bt), ("C", &ct)];

        let direct = IndexStmt::new(source.clone()).unwrap()
            .compile(LowerOptions::fused("add_direct")).unwrap()
            .run(&inputs).unwrap();
        check(&source, &direct, &inputs);

        let mut stmt = IndexStmt::new(source).unwrap();
        let w = TensorVar::new("w", vec![n], Format::dvec());
        stmt.precompute(&(bij + cij), &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
        for kind in [WorkspaceKind::Dense, WorkspaceKind::Hash, WorkspaceKind::CoordList] {
            let got = stmt
                .compile(LowerOptions::fused("add_ws").with_workspace_kind(kind))
                .unwrap()
                .run(&inputs)
                .unwrap();
            prop_assert_eq!(&got, &direct);
        }
    }

    /// MTTKRP with the Section V workspace schedule: the workspace
    /// reassociates the reduction ((Σ_l B·C)·D instead of Σ_l B·C·D), so the
    /// direct kernel is only an approximate oracle; byte-identity is
    /// asserted between the backends of the *same* schedule (the dense-drain
    /// path — untouched keys contribute nothing to `A += w * D`).
    #[test]
    fn workspace_kinds_agree_on_mttkrp(
        nnz in 0usize..80,
        r in 1usize..8,
        seed in 0u64..1000,
    ) {
        let (di, dk, dl) = (8, 7, 6);
        let a = TensorVar::new("A", vec![di, r], Format::dense(2));
        let b = TensorVar::new("B", vec![di, dk, dl], Format::csf3());
        let c = TensorVar::new("C", vec![dl, r], Format::dense(2));
        let d = TensorVar::new("D", vec![dk, r], Format::dense(2));
        let (i, j, k, l) = (iv("i"), iv("j"), iv("k"), iv("l"));
        let bc = b.access([i.clone(), k.clone(), l.clone()]) * c.access([l.clone(), j.clone()]);
        let source = IndexAssignment::assign(
            a.access([i.clone(), j.clone()]),
            sum(k.clone(), sum(l.clone(), bc.clone() * d.access([k.clone(), j.clone()]))),
        );
        let bt = random_csf3([di, dk, dl], nnz, seed + 90).to_tensor();
        let ct = Tensor::from_dense(&taco_tensor::gen::random_dense(dl, r, seed + 91), Format::dense(2)).unwrap();
        let dt = Tensor::from_dense(&taco_tensor::gen::random_dense(dk, r, seed + 92), Format::dense(2)).unwrap();
        let inputs: Vec<(&str, &Tensor)> = vec![("B", &bt), ("C", &ct), ("D", &dt)];

        let mut stmt = IndexStmt::new(source.clone()).unwrap();
        stmt.reorder(&j, &k).unwrap();
        stmt.reorder(&j, &l).unwrap();
        let w = TensorVar::new("w", vec![r], Format::dvec());
        stmt.precompute(&bc, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();

        let dense_ws = stmt
            .compile(LowerOptions::compute("mttkrp_ws"))
            .unwrap()
            .run(&inputs)
            .unwrap();
        check(&source, &dense_ws, &inputs);
        for kind in [WorkspaceKind::Hash, WorkspaceKind::CoordList] {
            let got = stmt
                .compile(LowerOptions::compute("mttkrp_ws").with_workspace_kind(kind))
                .unwrap()
                .run(&inputs)
                .unwrap();
            prop_assert_eq!(&got, &dense_ws);
        }
    }
}

// Format round-trips and cross-format differential runs (the
// level-capability abstraction of DESIGN.md §16): converting between
// COO/CSR/DCSR/CSC/DCSC/BCSR preserves every stored value exactly, and the
// same kernel over differently formatted operands produces byte-identical
// results.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CSR → {COO, DCSR, CSC, DCSC} → CSR is the identity on the tensor's
    /// bytes: same shape, same pos/crd arrays, bitwise-equal values.
    #[test]
    fn format_conversions_round_trip(
        m in 1usize..20,
        n in 1usize..20,
        d in 0.0f64..0.6,
        seed in 0u64..1000,
    ) {
        let t = csr(&random_csr(m, n, d, seed + 200));
        for f in [Format::coo(2), Format::dcsr(), Format::csc(), Format::dcsc()] {
            let conv = t.convert(f.clone()).unwrap();
            prop_assert!(conv.validate().is_ok(), "{f} conversion must validate");
            prop_assert!(conv.nnz() == t.nnz(), "{} must keep every stored component", f);
            prop_assert!(
                conv.to_dense().approx_eq(&t.to_dense(), 0.0),
                "{} conversion must preserve values bitwise", f
            );
            let back = conv.convert(Format::csr()).unwrap();
            prop_assert!(back == t, "round trip through {} must be the identity", f);
        }
    }

    /// Blocking and unblocking is the identity on a matrix with no stored
    /// zeros (unblocking drops the explicit zeros that pad partial tiles).
    #[test]
    fn bcsr_blocking_round_trips(
        bm in 1usize..8,
        bn in 1usize..8,
        d in 0.0f64..0.6,
        seed in 0u64..1000,
        br in 1usize..4,
        bc in 1usize..4,
    ) {
        let (m, n) = (bm * br, bn * bc);
        // Map any explicit zero to a nonzero: unblocking drops zeros, so
        // the round trip is the identity only on zero-free matrices.
        let t = Tensor::from_entries(
            vec![m, n],
            Format::csr(),
            csr(&random_csr(m, n, d, seed + 210))
                .entries()
                .into_iter()
                .map(|(c, v)| (c, if v == 0.0 { 1.0 } else { v }))
                .collect(),
        ).unwrap();
        let blocked = t.to_blocked(br, bc).unwrap();
        prop_assert!(blocked.validate().is_ok());
        prop_assert!(
            blocked.nnz() >= t.nnz(),
            "padded tiles can only add stored components"
        );
        let back = blocked.from_blocked(Format::csr()).unwrap();
        prop_assert!(back == t, "block/unblock round trip must be the identity");
    }

    /// SpMV over every rank-2 sparse format is byte-identical to the CSR
    /// kernel: per accumulator the contributions arrive in increasing
    /// column order under both row-major loops and the reordered
    /// column-major loops.
    #[test]
    fn spmv_formats_agree_bitwise(
        n in 1usize..24,
        d in 0.0f64..0.6,
        seed in 0u64..1000,
    ) {
        let build = |fmt: Format| {
            let a = TensorVar::new("a", vec![n], Format::dvec());
            let b = TensorVar::new("B", vec![n, n], fmt.clone());
            let x = TensorVar::new("x", vec![n], Format::dvec());
            let (i, j) = (iv("i"), iv("j"));
            let source = IndexAssignment::assign(
                a.access([i.clone()]),
                sum(j.clone(), b.access([i.clone(), j.clone()]) * x.access([j.clone()])),
            );
            let mut stmt = IndexStmt::new(source.clone()).unwrap();
            if !fmt.is_identity_order() {
                stmt.reorder(&i, &j).unwrap();
            }
            (source, stmt)
        };
        let bt = csr(&random_csr(n, n, d, seed + 220));
        let x = Tensor::from_entries(
            vec![n],
            Format::dvec(),
            (0..n).map(|c| (vec![c], (c % 5) as f64 + 1.0)).collect(),
        ).unwrap();

        let (source, stmt) = build(Format::csr());
        let baseline = stmt.compile(LowerOptions::compute("spmv")).unwrap()
            .run(&[("B", &bt), ("x", &x)]).unwrap();
        check(&source, &baseline, &[("B", &bt), ("x", &x)]);

        for fmt in [Format::dcsr(), Format::coo(2), Format::csc(), Format::dcsc()] {
            let b = bt.convert(fmt.clone()).unwrap();
            let (_, stmt) = build(fmt.clone());
            let got = stmt.compile(LowerOptions::compute("spmv")).unwrap()
                .run(&[("B", &b), ("x", &x)]).unwrap();
            prop_assert!(
                got.to_dense().approx_eq(&baseline.to_dense(), 0.0),
                "SpMV over {} must be byte-identical to CSR", fmt
            );
        }
    }

    /// Sparse addition with CSR and DCSR operand pairings assembles the
    /// byte-identical CSR result under every workspace backend.
    #[test]
    fn sparse_add_formats_agree_bitwise(
        m in 1usize..16,
        n in 1usize..16,
        db in 0.0f64..0.6,
        dc in 0.0f64..0.6,
        seed in 0u64..1000,
    ) {
        let build = |bf: Format, cf: Format| {
            let a = TensorVar::new("A", vec![m, n], Format::csr());
            let b = TensorVar::new("B", vec![m, n], bf);
            let c = TensorVar::new("C", vec![m, n], cf);
            let (i, j) = (iv("i"), iv("j"));
            let source = IndexAssignment::assign(
                a.access([i.clone(), j.clone()]),
                IndexExpr::from(b.access([i.clone(), j.clone()]))
                    + c.access([i.clone(), j.clone()]),
            );
            IndexStmt::new(source).unwrap()
        };
        let bt = csr(&random_csr(m, n, db, seed + 230));
        let ct = csr(&random_csr(m, n, dc, seed + 231));

        let baseline = build(Format::csr(), Format::csr())
            .compile(LowerOptions::fused("add")).unwrap()
            .run(&[("B", &bt), ("C", &ct)]).unwrap();

        // Mixed pairings (CSR x DCSR) would union-merge a dense level with
        // a compressed one at the outer loop, which the lowerer rejects;
        // matched pairings exercise both the dense- and compressed-outer
        // merge paths.
        for (bf, cf) in [
            (Format::csr(), Format::csr()),
            (Format::dcsr(), Format::dcsr()),
        ] {
            {
                let b = bt.convert(bf.clone()).unwrap();
                let c = ct.convert(cf.clone()).unwrap();
                let got = build(bf.clone(), cf.clone())
                    .compile(LowerOptions::fused("add")).unwrap()
                    .run(&[("B", &b), ("C", &c)]).unwrap();
                prop_assert!(
                    got == baseline,
                    "add over B:{} C:{} must assemble the identical result", bf, cf
                );
            }
        }
    }
}

// Result extraction (DESIGN.md §16, "results are extracted in their level
// format"): `CompiledKernel::extract` builds the result's level storage in
// one checked pass over the kernel's buffers. The reference below is an
// in-test copy of the extraction it replaced — decode every stored position
// into a coordinate tuple, then repack through `Tensor::from_entries` — and
// the two must agree bit for bit on anything a kernel may legitimately leave
// behind.

/// `A = B + C` over rank-`shape.len()` tensors stored as dense levels above
/// one compressed level: `(s)`, `(d,s)`, `(d,d,s)`.
fn appended_result_add(shape: &[usize]) -> (IndexStmt, Format) {
    let mut levels = vec![taco_tensor::LevelType::Dense; shape.len() - 1];
    levels.push(taco_tensor::LevelType::Compressed);
    let format = Format::new(levels);
    let vars: Vec<IndexVar> = (0..shape.len()).map(|m| iv(&format!("i{m}"))).collect();
    let tensor = |name: &str| TensorVar::new(name, shape.to_vec(), format.clone());
    let source = IndexAssignment::assign(
        tensor("A").access(vars.clone()),
        IndexExpr::from(tensor("B").access(vars.clone())) + tensor("C").access(vars),
    );
    (IndexStmt::new(source).unwrap(), format)
}

/// The replaced extraction: one `(coordinate, value)` pair per stored
/// position of `pos`/`crd` (parents decoded from the dense offset), repacked
/// by the builder.
fn extract_by_repacking(
    shape: &[usize],
    format: &Format,
    pos: &[i64],
    crd: &[i64],
    vals: &[f64],
) -> Tensor {
    let parent_dims = &shape[..shape.len() - 1];
    let mut entries = Vec::new();
    for p in 0..parent_dims.iter().product::<usize>() {
        let mut coord = vec![0usize; parent_dims.len()];
        let mut rem = p;
        for (k, d) in parent_dims.iter().enumerate().rev() {
            coord[k] = rem % d;
            rem /= d;
        }
        for q in pos[p] as usize..pos[p + 1] as usize {
            let mut full = coord.clone();
            full.push(crd[q] as usize);
            entries.push((full, vals[q]));
        }
    }
    Tensor::from_entries(shape.to_vec(), format.clone(), entries).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Sorted, unsorted and duplicate-bearing segments, explicit zeros,
    /// `-0.0`, overflowing sums, empty rows, empty results and slack
    /// capacity, for every kernel kind and result rank.
    #[test]
    fn extraction_matches_decode_and_repack_bitwise(
        rank in 1usize..4,
        kind in 0usize..3,
        order in 0usize..3,
        fill in 0usize..4,
        seed in 0u64..100_000,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let shape: Vec<usize> = (0..rank).map(|_| rng.gen_range(1usize..5)).collect();
        let (dim, parents) = (shape[rank - 1], shape[..rank - 1].iter().product::<usize>());
        let level = rank - 1;
        let (stmt, format) = appended_result_add(&shape);
        let empty = Tensor::from_entries(shape.clone(), format.clone(), vec![]).unwrap();
        let inputs = [("B", &empty), ("C", &empty)];
        const PALETTE: [f64; 8] = [1.5, -2.25, 0.0, -0.0, 1e308, -1e308, 3.0e-310, 7.0];

        // One segment per parent position: `fill == 0` leaves every segment
        // empty (nnz = 0); otherwise rows are empty about a third of the time.
        // order 0: strictly increasing; 1: shuffled, still unique;
        // 2: drawn with repetition, so unsorted and duplicate-bearing.
        let (mut pos, mut crd) = (vec![0i64], Vec::<i64>::new());
        for _ in 0..parents {
            let mut seg: Vec<i64> = match (fill, order) {
                (0, _) => Vec::new(),
                _ if rng.gen_range(0usize..3) == 0 => Vec::new(),
                (_, 2) => (0..rng.gen_range(1usize..7)).map(|_| rng.gen_range(0..dim) as i64).collect(),
                _ => (0..dim as i64).filter(|_| rng.gen_bool(0.6)).collect(),
            };
            if order == 1 {
                for k in (1..seg.len()).rev() {
                    seg.swap(k, rng.gen_range(0..k + 1));
                }
            }
            crd.extend(seg);
            pos.push(crd.len() as i64);
        }
        let nnz = crd.len();
        let mut vals: Vec<f64> = (0..nnz).map(|_| PALETTE[rng.gen_range(0..PALETTE.len())]).collect();

        let (got, want) = if kind == 2 {
            // Compute: the structure is pre-assembled (so valid: sorted and
            // unique) and the kernel fills in values only.
            let structure = extract_by_repacking(&shape, &format, &pos, &crd, &vec![0.0; nnz]);
            let vals: Vec<f64> = (0..structure.nnz()).map(|_| PALETTE[rng.gen_range(0..PALETTE.len())]).collect();
            let kernel = stmt.compile(LowerOptions::compute("add")).unwrap();
            let mut binding = kernel.bind(&inputs, Some(&structure)).unwrap();
            binding.set_f64("A", vals.clone());
            let entries = structure.entries().into_iter().zip(&vals).map(|((c, _), v)| (c, *v)).collect();
            (
                kernel.extract(&binding, Some(&structure)).unwrap(),
                Tensor::from_entries(shape.clone(), format.clone(), entries).unwrap(),
            )
        } else {
            let opts = if kind == 0 { LowerOptions::fused("add") } else { LowerOptions::assemble("add") };
            let kernel = stmt.compile(opts).unwrap();
            if kind == 1 {
                // Assembly produces structure only; stored values are zero.
                vals = vec![0.0; nnz];
            }
            let want = extract_by_repacking(&shape, &format, &pos, &crd, &vals);
            // Doubling slack past nnz holds stale garbage the extraction
            // must never read.
            let slack = rng.gen_range(0usize..4);
            crd.extend((0..slack).map(|_| -7i64));
            vals.extend((0..slack).map(|_| f64::NAN));
            let mut binding = kernel.bind(&inputs, None).unwrap();
            binding
                .set_int(taco_lower::params::pos_name("A", level), pos)
                .set_int(taco_lower::params::crd_name("A", level), crd);
            if kind == 0 {
                binding.set_f64("A", vals);
            }
            if let Some(name) = &kernel.lowered().nnz_output {
                binding.set_scalar_output(name.clone(), nnz as i64);
            }
            (kernel.extract(&binding, None).unwrap(), want)
        };

        prop_assert_eq!(got.shape(), want.shape());
        prop_assert_eq!(got.format(), want.format());
        prop_assert_eq!(got.pos(level).unwrap(), want.pos(level).unwrap());
        prop_assert_eq!(got.crd(level).unwrap(), want.crd(level).unwrap());
        let bits = |t: &Tensor| t.vals().iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        prop_assert_eq!(bits(&got), bits(&want));
    }
}
