//! Serial/parallel differential suite for the `parallelize` schedule
//! directive: parallel kernels must be *byte-identical* to their serial
//! counterparts (same `pos`/`crd`, bitwise-equal values), illegal
//! parallelizations must fail with typed errors at the right layer, and
//! supervision (cancellation, rollback) must hold with workers in flight.

use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use taco_workspaces::ir::IrError;
use taco_workspaces::llir::{ArrayVal, Buf};
use taco_workspaces::lower::params::{crd_name, pos_name};
use taco_workspaces::lower::LowerError;
use taco_workspaces::prelude::*;
use taco_workspaces::tensor::gen;

fn iv(n: &str) -> IndexVar {
    IndexVar::new(n)
}

/// SpGEMM with the paper's Figure 2 schedule (reorder + row workspace),
/// which privatizes the reduction and makes the outer `i` loop parallel.
fn scheduled_spgemm(m: usize, k: usize, n: usize) -> IndexStmt {
    let a = TensorVar::new("A", vec![m, n], Format::csr());
    let b = TensorVar::new("B", vec![m, k], Format::csr());
    let c = TensorVar::new("C", vec![k, n], Format::csr());
    let (i, j, kk) = (iv("i"), iv("j"), iv("k"));
    let mul = b.access([i.clone(), kk.clone()]) * c.access([kk.clone(), j.clone()]);
    let mut stmt = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(kk.clone(), mul.clone()),
    ))
    .unwrap();
    stmt.reorder(&kk, &j).unwrap();
    let w = TensorVar::new("w", vec![n], Format::dvec());
    stmt.precompute(&mul, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
    stmt
}

/// Sparse matrix addition `A = B + C`, all CSR. No reduction, so the outer
/// row loop parallelizes without a workspace.
fn sparse_add(m: usize, n: usize) -> IndexStmt {
    let a = TensorVar::new("A", vec![m, n], Format::csr());
    let b = TensorVar::new("B", vec![m, n], Format::csr());
    let c = TensorVar::new("C", vec![m, n], Format::csr());
    let (i, j) = (iv("i"), iv("j"));
    let bij: IndexExpr = b.access([i.clone(), j.clone()]).into();
    let cij: IndexExpr = c.access([i.clone(), j.clone()]).into();
    IndexStmt::new(IndexAssignment::assign(a.access([i, j]), bij + cij)).unwrap()
}

/// MTTKRP `A(i,j) = Σ_k Σ_l B(i,k,l) C(l,j) D(k,j)` with a sparse B whose
/// outer mode is dense (so the `i` loop chunks across threads) and a dense
/// result (disjoint rows per iteration — legal without privatization).
fn mttkrp(di: usize, dk: usize, dl: usize, r: usize) -> IndexStmt {
    let a = TensorVar::new("A", vec![di, r], Format::dense(2));
    let b = TensorVar::new(
        "B",
        vec![di, dk, dl],
        Format::new(vec![LevelType::Dense, LevelType::Compressed, LevelType::Compressed]),
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

/// `nnz` random entries (deduplicated, sorted) in a `dims`-shaped 3-tensor,
/// from a splitmix-style generator so runs are reproducible.
fn random_entries_3d(dims: [usize; 3], nnz: usize, seed: u64) -> Vec<(Vec<usize>, f64)> {
    let mut s = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        s >> 33
    };
    let mut entries = std::collections::BTreeMap::new();
    for _ in 0..nnz {
        let i = next() as usize % dims[0];
        let k = next() as usize % dims[1];
        let l = next() as usize % dims[2];
        let v = (next() % 1000) as f64 / 100.0 - 5.0;
        entries.insert(vec![i, k, l], v);
    }
    entries.into_iter().collect()
}

/// Byte-identical: equal structure (`pos`/`crd`/shape via `PartialEq`) and
/// bitwise-equal values (catches sign-of-zero and NaN-payload drift that
/// `==` on floats would wave through).
fn assert_byte_identical(serial: &Tensor, parallel: &Tensor, what: &str) {
    assert_eq!(serial, parallel, "{what}: structure differs");
    let sb: Vec<u64> = serial.vals().iter().map(|v| v.to_bits()).collect();
    let pb: Vec<u64> = parallel.vals().iter().map(|v| v.to_bits()).collect();
    assert_eq!(sb, pb, "{what}: values differ bitwise");
}

#[test]
fn parallel_spgemm_is_byte_identical_to_serial() {
    let stmt = scheduled_spgemm(24, 20, 18);
    let mut par = stmt.clone();
    par.parallelize(&iv("i")).unwrap();

    let b = gen::random_csr(24, 20, 0.25, 41).to_tensor();
    let c = gen::random_csr(20, 18, 0.25, 42).to_tensor();
    let serial = stmt
        .compile(LowerOptions::fused("spgemm"))
        .unwrap()
        .run(&[("B", &b), ("C", &c)])
        .unwrap();

    for threads in [2, 3, 4, 8] {
        let kernel = par.compile(LowerOptions::fused("spgemm_par").with_threads(threads)).unwrap();
        assert!(
            kernel.to_c().contains("#pragma omp parallel for"),
            "parallel loop must appear in the generated code"
        );
        let out = kernel.run(&[("B", &b), ("C", &c)]).unwrap();
        assert_byte_identical(&serial, &out, &format!("SpGEMM at {threads} threads"));
    }
}

#[test]
fn parallelizing_an_unprivatized_reduction_is_a_typed_error() {
    // reorder(k,j) without the workspace: iterations of k reduce into A.
    let m = 12;
    let a = TensorVar::new("A", vec![m, m], Format::csr());
    let b = TensorVar::new("B", vec![m, m], Format::csr());
    let c = TensorVar::new("C", vec![m, m], Format::csr());
    let (i, j, k) = (iv("i"), iv("j"), iv("k"));
    let mut stmt = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(k.clone(), b.access([i, k.clone()]) * c.access([k.clone(), j.clone()])),
    ))
    .unwrap();
    stmt.reorder(&k, &j).unwrap();
    let err = stmt.parallelize(&k).unwrap_err();
    match err {
        CoreError::Ir(IrError::ReductionNotPrivatized { var, tensor }) => {
            assert_eq!(var, "k");
            assert_eq!(tensor, "A");
        }
        other => panic!("expected ReductionNotPrivatized, got {other}"),
    }
    // After the workspace transformation privatizes the reduction, the
    // *workspace loop* would still be the problem — but the outer i loop
    // is now legal.
    let stmt = scheduled_spgemm(m, m, m);
    let mut ok = stmt.clone();
    ok.parallelize(&iv("i")).unwrap();
    assert!(ok.to_string().contains("∀∥i"), "parallel forall visible: {ok}");
}

#[test]
fn non_dense_loops_are_rejected_at_lowering_with_a_typed_error() {
    // The inner j loop of sparse addition coiterates B and C; the IR-level
    // check passes (no reduction), but lowering cannot chunk a merge loop.
    let mut stmt = sparse_add(10, 10);
    stmt.parallelize(&iv("j")).unwrap();
    let err = stmt.compile(LowerOptions::fused("add_bad")).unwrap_err();
    match err {
        CoreError::Lower(LowerError::UnsupportedParallelLoop { var, .. }) => {
            assert_eq!(var, "j");
        }
        other => panic!("expected UnsupportedParallelLoop, got {other}"),
    }
}

#[test]
fn the_candidate_space_is_serial_unless_the_caller_parallelized() {
    // The tuner cannot tell a parallel twin from its serial schedule (same
    // iterations) and the native backend does not emit it, so the space
    // adds none. A caller's own parallel loop still competes, first, as the
    // statement it scheduled (in each workspace backend that lowers).
    let mut by_hand = scheduled_spgemm(16, 16, 16);
    by_hand.parallelize(&iv("i")).unwrap();
    let stmts = [
        ("spgemm", scheduled_spgemm(16, 16, 16), false),
        ("sparse add", sparse_add(12, 14), false),
        ("mttkrp", mttkrp(8, 7, 6, 5), false),
        ("parallel spgemm", by_hand, true),
    ];
    for (what, stmt, caller_parallel) in &stmts {
        for opts in [LowerOptions::fused("k"), LowerOptions::compute("k")] {
            let cands = taco_workspaces::core::enumerate_candidates_for(stmt, &opts);
            assert!(!cands.is_empty(), "{what}: no candidate under {opts:?}");
            if *caller_parallel {
                assert_eq!(cands[0].0.name, "as-scheduled", "{what} under {opts:?}");
            }
            for (cand, front) in &cands {
                let callers = *caller_parallel && cand.stmt.concrete() == stmt.concrete();
                assert_eq!(
                    front.lowered().kernel.rows.is_some(),
                    callers,
                    "{what}: `{}` under {opts:?}",
                    cand.name
                );
            }
        }
    }
}

#[test]
fn parallel_run_reports_workers_and_matches_serial_under_supervision() {
    let stmt = scheduled_spgemm(64, 64, 64);
    let mut par = stmt.clone();
    par.parallelize(&iv("i")).unwrap();
    let b = gen::random_csr(64, 64, 0.3, 51).to_tensor();
    let c = gen::random_csr(64, 64, 0.3, 52).to_tensor();

    let serial = stmt
        .compile(LowerOptions::fused("spgemm"))
        .unwrap()
        .run(&[("B", &b), ("C", &c)])
        .unwrap();
    let kernel = par.compile(LowerOptions::fused("spgemm_par").with_threads(4)).unwrap();
    let (out, report) =
        kernel.run_supervised(&[("B", &b), ("C", &c)], None, &Supervisor::new()).unwrap();
    assert_byte_identical(&serial, &out, "supervised parallel SpGEMM");
    assert!(
        report.progress.workers >= 2,
        "expected >= 2 workers in the report, got {}",
        report.progress.workers
    );
}

/// Workers share the operands rather than copy them, and the merge leaves
/// them alone: after a four-worker run the result is the serial one and the
/// binding's operand arrays are still the tensors' own.
#[test]
fn parallel_workers_share_the_operands() {
    let stmt = scheduled_spgemm(64, 64, 64);
    let mut par = stmt.clone();
    par.parallelize(&iv("i")).unwrap();
    let b = gen::random_csr(64, 64, 0.3, 53).to_tensor();
    let c = gen::random_csr(64, 64, 0.3, 54).to_tensor();
    let inputs = [("B", &b), ("C", &c)];
    let serial = stmt.compile(LowerOptions::fused("spgemm")).unwrap().run(&inputs).unwrap();

    let kernel = par.compile(LowerOptions::fused("spgemm_par").with_threads(4)).unwrap();
    let mut binding = kernel.bind(&inputs, None).unwrap();
    kernel.run_bound(&mut binding).unwrap();
    assert_byte_identical(&serial, &kernel.extract(&binding, None).unwrap(), "parallel SpGEMM");
    for (name, t) in inputs {
        let arrays = t.index_arrays().unwrap();
        for (array, shared) in [(pos_name(name, 1), arrays.pos(1)), (crd_name(name, 1), arrays.crd(1))] {
            let Some(ArrayVal::Int(Buf::Shared(bound))) = binding.take(&array) else {
                panic!("`{array}` is no longer shared");
            };
            assert!(Arc::ptr_eq(&bound, shared.unwrap()), "`{array}` is not the tensor's own");
        }
        let Some(ArrayVal::F64(Buf::Shared(bound))) = binding.take(name) else {
            panic!("`{name}` is no longer shared");
        };
        assert!(Arc::ptr_eq(&bound, t.shared_vals()), "`{name}` is not the tensor's own");
    }
}

#[test]
fn cancellation_with_four_workers_rolls_back_bindings_byte_identically() {
    // Big enough that the cancel lands mid-flight with all workers running.
    let n = 512;
    let mut stmt = scheduled_spgemm(n, n, n);
    stmt.parallelize(&iv("i")).unwrap();
    let b = gen::random_csr(n, n, 0.5, 21).to_tensor();
    let c = gen::random_csr(n, n, 0.5, 22).to_tensor();

    let kernel = stmt.compile(LowerOptions::fused("spgemm_par").with_threads(4)).unwrap();
    let mut binding = kernel.bind(&[("B", &b), ("C", &c)], None).unwrap();
    let before = binding.clone();

    let token = CancelToken::new();
    let supervisor = Supervisor::new().with_cancel_token(token.clone());
    let canceller = std::thread::spawn({
        let token = token.clone();
        move || {
            std::thread::sleep(Duration::from_millis(5));
            token.cancel();
        }
    });
    let err = kernel.run_bound_supervised(&mut binding, &supervisor).unwrap_err();
    canceller.join().unwrap();
    match err {
        CoreError::Aborted(a) => assert_eq!(a.reason, RunError::Cancelled),
        other => panic!("expected CoreError::Aborted, got {other}"),
    }
    assert_eq!(binding, before, "cancelled parallel run must roll back byte-identically");
}

/// Runs `par` serially and in parallel under `opts`, and checks the parallel
/// run is the serial one: byte-identical, in as many loop iterations. Then
/// runs it through a native engine (the first run is the differential trust
/// check, the second runs natively), which must trust it, run it natively
/// and reply byte-identically too. Without a C toolchain the engine serves
/// it on the interpreter and the native half is skipped, visibly.
fn assert_parallel_is_serial(
    serial: &IndexStmt,
    par: &IndexStmt,
    opts: LowerOptions,
    inputs: &[(&str, &Tensor)],
    what: &str,
) {
    let supervisor = Supervisor::new();
    let run = |stmt: &IndexStmt, opts: LowerOptions| {
        stmt.compile(opts).unwrap().run_supervised(inputs, None, &supervisor).unwrap()
    };
    let (expected, serial_run) = run(serial, LowerOptions { num_threads: None, ..opts.clone() });
    let (out, parallel_run) = run(par, opts.clone());
    assert_byte_identical(&expected, &out, what);
    assert_eq!(parallel_run.progress.iterations, serial_run.progress.iterations, "{what}");

    let engine = Engine::builder().backend(Backend::Native).build();
    for _ in 0..2 {
        assert_byte_identical(&expected, &engine.run(par, opts.clone(), inputs).unwrap(), what);
    }
    let stats = engine.native_stats();
    if stats.unavailable > 0 {
        eprintln!("SKIPPED the native half of {what}: no C toolchain ({stats:?})");
        return;
    }
    assert_eq!((stats.trusted, stats.rejected), (1, 0), "{what}: {stats:?}");
    assert!(stats.native_runs > 0, "{what}: {stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Parallel SpGEMM is byte-identical to serial across random shapes,
    /// densities and thread counts, on both backends.
    #[test]
    fn prop_parallel_spgemm_byte_identical(
        m in 1usize..24,
        k in 1usize..20,
        n in 1usize..20,
        db in 0.0f64..0.5,
        dc in 0.0f64..0.5,
        threads in 2usize..6,
        seed in 0u64..1000,
    ) {
        let stmt = scheduled_spgemm(m, k, n);
        let mut par = stmt.clone();
        par.parallelize(&iv("i")).unwrap();
        let b = gen::random_csr(m, k, db, seed).to_tensor();
        let c = gen::random_csr(k, n, dc, seed + 1).to_tensor();
        let opts = LowerOptions::fused("p").with_threads(threads);
        assert_parallel_is_serial(&stmt, &par, opts, &[("B", &b), ("C", &c)], "SpGEMM");
    }

    /// Parallel sparse addition (concat-style appends, no workspace) is
    /// byte-identical to serial, on both backends.
    #[test]
    fn prop_parallel_sparse_add_byte_identical(
        m in 1usize..24,
        n in 1usize..24,
        db in 0.0f64..0.6,
        dc in 0.0f64..0.6,
        threads in 2usize..6,
        seed in 0u64..1000,
    ) {
        let stmt = sparse_add(m, n);
        let mut par = stmt.clone();
        par.parallelize(&iv("i")).unwrap();
        let b = gen::random_csr(m, n, db, seed + 10).to_tensor();
        let c = gen::random_csr(m, n, dc, seed + 11).to_tensor();
        let opts = LowerOptions::fused("p").with_threads(threads);
        assert_parallel_is_serial(&stmt, &par, opts, &[("B", &b), ("C", &c)], "sparse add");
    }

    /// Parallel MTTKRP (dense result, sparse 3-tensor operand) is
    /// byte-identical to serial, on both backends.
    #[test]
    fn prop_parallel_mttkrp_byte_identical(
        nnz in 0usize..60,
        r in 1usize..6,
        threads in 2usize..6,
        seed in 0u64..1000,
    ) {
        let (di, dk, dl) = (8, 7, 6);
        let stmt = mttkrp(di, dk, dl, r);
        let mut par = stmt.clone();
        par.parallelize(&iv("i")).unwrap();

        let b3 = Tensor::from_entries(
            vec![di, dk, dl],
            Format::new(vec![
                LevelType::Dense, LevelType::Compressed, LevelType::Compressed,
            ]),
            random_entries_3d([di, dk, dl], nnz, seed),
        )
        .unwrap();
        let cd = Tensor::from_dense(&gen::random_dense(dl, r, seed + 1), Format::dense(2)).unwrap();
        let dd = Tensor::from_dense(&gen::random_dense(dk, r, seed + 2), Format::dense(2)).unwrap();
        let inputs = [("B", &b3), ("C", &cd), ("D", &dd)];
        let opts = LowerOptions::compute("p").with_threads(threads);
        assert_parallel_is_serial(&stmt, &par, opts, &inputs, "MTTKRP");
    }
}
