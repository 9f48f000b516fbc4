//! Fault-injection suite: every public pipeline entry point must return a
//! typed error — never panic, hang, or allocate without bound — when fed
//! corrupted tensors or starved budgets.
//!
//! Corrupted operands come from `taco_tensor::corrupt`, which mutates one
//! storage field at a time (truncated `pos`, shuffled/duplicated `crd`,
//! out-of-bounds coordinates, NaN values, shrunken dims). Each mutant is
//! driven through binding and execution under `catch_unwind` so that a panic
//! is reported as a test failure rather than aborting the harness.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use taco_workspaces::core::default_verify_mode;
use taco_workspaces::core::oracle::eval_dense;
use taco_workspaces::prelude::*;
use taco_workspaces::tensor::{corrupt, gen};

fn iv(n: &str) -> IndexVar {
    IndexVar::new(n)
}

/// SpGEMM with the paper's Figure 2 schedule: reorder + row workspace.
fn scheduled_spgemm(n: usize) -> IndexStmt {
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
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

/// Dense-result SpMM (sparse B, dense C), scheduled with a row workspace.
/// Unlike SpGEMM its unscheduled form also lowers, so it exercises the
/// budget fallback path end to end.
fn scheduled_dense_matmul(n: usize) -> IndexStmt {
    let a = TensorVar::new("A", vec![n, n], Format::dense(2));
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::dense(2));
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

fn sample_inputs(n: usize) -> (Tensor, Tensor) {
    (gen::random_csr(n, n, 0.4, 7).to_tensor(), gen::random_csr(n, n, 0.4, 8).to_tensor())
}

/// Asserts that `f` returns an `Err` without panicking; `what` labels the
/// scenario in failure messages.
fn assert_graceful<T: std::fmt::Debug>(
    what: &str,
    f: impl FnOnce() -> Result<T, CoreError>,
) {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => panic!("{what}: expected an error, got success {v:?}"),
        Ok(Err(_)) => {}
        Err(_) => panic!("{what}: panicked instead of returning an error"),
    }
}

/// Runs `stmt` down the degrade ladder on an interpreter engine whose budget
/// is the supervisor's. Every error it can return here is a core error.
fn run_supervised(
    stmt: &IndexStmt,
    opts: LowerOptions,
    supervisor: &Supervisor,
    inputs: &[(&str, &Tensor)],
) -> Result<SupervisedRun, CoreError> {
    let engine = Engine::builder().backend(Backend::Interp).budget(supervisor.budget()).build();
    engine.run_supervised(stmt, opts, supervisor, inputs, None).map_err(|e| match e {
        EngineError::Core(e) => e,
        other => panic!("non-core engine error: {other}"),
    })
}

#[test]
fn corrupted_operands_error_at_bind_time_in_every_kernel_kind() {
    let n = 8;
    let stmt = scheduled_spgemm(n);
    let (b, c) = sample_inputs(n);

    for opts in
        [LowerOptions::fused("spgemm"), LowerOptions::assemble("spgemm_a")]
    {
        let kernel = stmt.compile(opts).unwrap();
        // Sanity: valid inputs run.
        kernel.run(&[("B", &b), ("C", &c)]).unwrap();

        for (why, bad) in corrupt::all_corruptions(&b) {
            assert_graceful(&format!("fused/assemble with B corrupted by {why:?}"), || {
                kernel.run(&[("B", &bad), ("C", &c)])
            });
        }
        for (why, bad) in corrupt::all_corruptions(&c) {
            assert_graceful(&format!("fused/assemble with C corrupted by {why:?}"), || {
                kernel.run(&[("B", &b), ("C", &bad)])
            });
        }
    }
}

/// A tensor's validation verdict is memoized with it, never skipped: a
/// corrupted operand fails every bind with the same error — the first, the
/// second, and one through a clone made after the first.
#[test]
fn a_corrupted_operand_fails_every_bind_with_the_same_error() {
    let n = 8;
    let kernel = scheduled_spgemm(n).compile(LowerOptions::fused("spgemm")).unwrap();
    let (b, c) = sample_inputs(n);
    for (why, bad) in corrupt::all_corruptions(&b) {
        let bind = |t: &Tensor| match kernel.bind(&[("B", t), ("C", &c)], None) {
            Err(CoreError::OperandMismatch { name, expected }) => format!("{name}: {expected}"),
            other => panic!("{why:?}: expected OperandMismatch, got {:?}", other.map(drop)),
        };
        let first = bind(&bad);
        assert_eq!(bind(&bad), first, "{why:?}: second bind");
        assert_eq!(bind(&bad.clone()), first, "{why:?}: bind of a clone");
    }
}

/// The memoized verdict takes no part in equality or `Debug`: a tensor that
/// has been bound, and so validated, equals a copy that never was.
#[test]
fn a_validated_tensor_equals_an_unvalidated_copy() {
    let n = 8;
    let kernel = scheduled_spgemm(n).compile(LowerOptions::fused("spgemm")).unwrap();
    let (b, c) = sample_inputs(n);
    let unvalidated = b.clone();
    kernel.bind(&[("B", &b), ("C", &c)], None).unwrap();
    assert_eq!(b, unvalidated);
    assert_eq!(format!("{b:?}"), format!("{unvalidated:?}"));
}

/// Inputs are read-only by check, not by comment: `Executable::compile`
/// refuses a kernel that writes an input parameter in any way a statement
/// can write an array. `Supervisor::run` rolls back only the writable
/// parameters, so such a kernel stopped mid-run would otherwise leave its
/// input changed — and an input is bound shared with the caller's tensor.
#[test]
fn a_kernel_that_writes_an_input_is_refused_at_compile() {
    use taco_workspaces::llir::{
        AppendMerge, ArrayTy, CompileError, Executable, Expr, Kernel, Param, Rows, Stmt,
    };
    let x = || "x".to_string();
    let writes = [
        ("store", Stmt::store("x", Expr::var("i"), Expr::float(1.0))),
        ("accumulate", Stmt::store_add("x", Expr::var("i"), Expr::float(1.0))),
        ("memset", Stmt::Memset { arr: x(), val: Expr::float(0.0) }),
        ("alloc", Stmt::Alloc { arr: x(), ty: ArrayTy::F64, len: Expr::var("n") }),
        ("realloc", Stmt::Realloc { arr: x(), len: Expr::var("n") }),
        (
            "workspace",
            Stmt::WsInit { ws: x(), kind: WorkspaceKind::Hash, ty: ArrayTy::F64, extent: Expr::var("n") },
        ),
    ];
    let kernel = |write: Vec<Stmt>| {
        let mut body = vec![Stmt::store("y", Expr::var("i"), Expr::load("x", Expr::var("i")))];
        body.extend(write);
        Kernel::new("writes_its_input")
            .scalar_param("n")
            .array_param(Param::input("x", ArrayTy::F64))
            .array_param(Param::output("y", ArrayTy::F64))
            .scalar_output("count")
            .body(vec![
                Stmt::DeclInt("count".into(), Expr::int(0)),
                Stmt::for_("i", Expr::int(0), Expr::var("n"), body),
            ])
    };
    let mut kernels: Vec<(&str, Kernel)> =
        writes.into_iter().map(|(what, write)| (what, kernel(vec![write]))).collect();
    // A parallel kernel whose row ranges would stitch their appends into x.
    let append = AppendMerge { counter: "count".into(), data: vec![x()], pos: "y".into() };
    let rows = Rows {
        var: "i".into(),
        lo: "row_lo".into(),
        hi: "row_hi".into(),
        extent: "n".into(),
        threads: 1,
        append: Some(append),
    };
    let parallel = kernel(Vec::new()).scalar_param("row_lo").scalar_param("row_hi").rows(rows);
    kernels.push(("parallel append", parallel));
    for (what, kernel) in kernels {
        assert_eq!(
            Executable::compile(&kernel).map(drop),
            Err(CompileError::WriteToInput(x())),
            "a kernel that writes its input with a {what}"
        );
    }
}

#[test]
fn corrupted_output_structure_errors_in_compute_kernels() {
    let n = 8;
    let stmt = scheduled_spgemm(n);
    let (b, c) = sample_inputs(n);

    let fused = stmt.compile(LowerOptions::fused("spgemm")).unwrap();
    let structure = fused.run(&[("B", &b), ("C", &c)]).unwrap();
    let compute = stmt.compile(LowerOptions::compute("spgemm_c")).unwrap();
    compute.run_with(&[("B", &b), ("C", &c)], Some(&structure)).unwrap();

    for (why, bad) in corrupt::all_corruptions(&structure) {
        assert_graceful(&format!("compute with output structure corrupted by {why:?}"), || {
            compute.run_with(&[("B", &b), ("C", &c)], Some(&bad))
        });
    }
    assert_graceful("compute without an output structure", || {
        compute.run(&[("B", &b), ("C", &c)])
    });
}

#[test]
fn corrupted_csf_operands_error_in_mttkrp() {
    let n = 6;
    let a = TensorVar::new("A", vec![n, n], Format::dense(2));
    let bt = TensorVar::new("B", vec![n, n, n], Format::csf3());
    let ct = TensorVar::new("C", vec![n, n], Format::dense(2));
    let dt = TensorVar::new("D", vec![n, n], Format::dense(2));
    let (i, j, k, l) = (iv("i"), iv("j"), iv("k"), iv("l"));
    let stmt = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(
            k.clone(),
            sum(
                l.clone(),
                bt.access([i, k.clone(), l.clone()]) * ct.access([l, j.clone()]) * dt.access([k, j]),
            ),
        ),
    ))
    .unwrap();
    let kernel = stmt.compile(LowerOptions::compute("mttkrp")).unwrap();

    let b3 = gen::random_csf3([n, n, n], 30, 3).to_tensor();
    let cd = Tensor::from_dense(&gen::random_dense(n, n, 5), Format::dense(2)).unwrap();
    let dd = Tensor::from_dense(&gen::random_dense(n, n, 6), Format::dense(2)).unwrap();
    kernel.run(&[("B", &b3), ("C", &cd), ("D", &dd)]).unwrap();

    for (why, bad) in corrupt::all_corruptions(&b3) {
        assert_graceful(&format!("mttkrp with B corrupted by {why:?}"), || {
            kernel.run(&[("B", &bad), ("C", &cd), ("D", &dd)])
        });
    }
}

#[test]
fn over_budget_workspace_falls_back_to_direct_kernel() {
    let n = 16;
    let stmt = scheduled_dense_matmul(n);
    let b = gen::random_csr(n, n, 0.4, 7).to_tensor();
    let c = Tensor::from_dense(&gen::random_dense(n, n, 9), Format::dense(2)).unwrap();

    // With no budget the workspace kernel runs and matches the oracle.
    let scheduled = stmt.compile(LowerOptions::compute("matmul")).unwrap();
    assert!(scheduled.fallback_events().is_empty());
    let expect = eval_dense(stmt.source(), &[("B", &b), ("C", &c)]).unwrap();

    // The n-element dense workspace wants n * 8 bytes; allow less.
    let budget = ResourceBudget::default().with_max_workspace_bytes(8 * n as u64 - 1);
    let fallback = stmt
        .compile_checked(LowerOptions::compute("matmul_fb"), budget, default_verify_mode())
        .unwrap();

    let events = fallback.fallback_events();
    assert_eq!(events.len(), 1, "one skipped workspace expected");
    match &events[0] {
        FallbackEvent::OverBudget { workspace, estimated_bytes, budget_bytes, rung } => {
            assert_eq!(workspace, "w");
            assert_eq!(*budget_bytes, 8 * n as u64 - 1);
            assert!(estimated_bytes > budget_bytes);
            assert_eq!(*rung, DegradeRung::DirectMerge);
        }
        other => panic!("expected OverBudget, got {other}"),
    }
    assert!(
        !fallback.to_c().contains("workspace"),
        "fallback kernel must not allocate the workspace"
    );

    let got = fallback.run(&[("B", &b), ("C", &c)]).unwrap();
    assert!(got.to_dense().approx_eq(&expect, 1e-10), "fallback result must match the oracle");
}

#[test]
fn over_budget_workspace_without_viable_fallback_is_a_budget_error() {
    // SpGEMM into a CSR result is only lowerable through a workspace, so a
    // budget that forbids the workspace must surface as BudgetExceeded, not
    // as a panic or a confusing lowering error.
    let n = 16;
    let stmt = scheduled_spgemm(n);
    let budget = ResourceBudget::default().with_max_workspace_bytes(16);
    let err = stmt
        .compile_checked(LowerOptions::fused("spgemm"), budget, default_verify_mode())
        .unwrap_err();
    match err {
        CoreError::BudgetExceeded { resource, limit, requested, context } => {
            assert_eq!(resource, BudgetResource::WorkspaceBytes);
            assert_eq!(limit, 16);
            assert!(requested > limit);
            assert_eq!(context.as_deref(), Some("w"));
        }
        other => panic!("expected BudgetExceeded, got {other}"),
    }
}

/// The Fig. 2 SpGEMM with its row loop parallelized over four ranges, bound
/// to `n`×`n` operands.
fn parallel_spgemm(n: usize) -> (CompiledKernel, taco_workspaces::llir::Binding) {
    let mut stmt = scheduled_spgemm(n);
    stmt.parallelize(&iv("i")).unwrap();
    let kernel = stmt.compile(LowerOptions::fused("spgemm_par4").with_threads(4)).unwrap();
    let (b, c) = sample_inputs(n);
    let binding = kernel.bind(&[("B", &b), ("C", &c)], None).unwrap();
    (kernel, binding)
}

/// The kernel as a shared object, or `None` (with a visible marker) when
/// the C toolchain cannot build one.
fn native_body(
    kernel: &CompiledKernel,
    test: &str,
) -> Option<taco_workspaces::native::NativeKernel> {
    let Ok(source) = taco_workspaces::llir::emit_native(kernel.executable());
    let built = taco_workspaces::native::NativeCompiler::from_env()
        .map_err(|e| e.to_string())
        .and_then(|cc| cc.compile(&source, kernel.fingerprint()).map_err(|e| e.to_string()));
    built.map_err(|e| eprintln!("SKIPPED the native half of {test}: {e}")).ok()
}

/// A parallel run charges what its row ranges allocate. Each range runs the
/// whole kernel, so each of the four ranges of a Fig. 2 SpGEMM charges its
/// own dense row workspace and grows its own `crd` and values from empty: a
/// ceiling one byte below their sum aborts with `TotalBytes` and rolls back
/// byte-identically, on either backend.
#[test]
fn a_parallel_run_charges_what_its_row_ranges_allocate() {
    let n = 64;
    let (kernel, mut binding) = parallel_spgemm(n);
    let mut committed = binding.clone();
    let charged = Supervisor::new().run(kernel.executable(), &mut committed).unwrap().progress;
    let pos = kernel.extract(&committed, None).unwrap().pos(1).unwrap().to_vec();
    // A range's appends grow `crd` and the values (8 bytes each) from empty
    // to the first capacity of the doubling `c -> 2c + 2` that holds them;
    // its workspace is a value, a coordinate-list and a guard array.
    let capacity = |nnz: usize| (0..).map(|k| (1usize << k) * 2 - 2).find(|&c| c >= nnz).unwrap();
    let workspace = (8 + 8 + 1) * n;
    let ranges = (0..4).map(|w| pos[16 * (w + 1)] - pos[16 * w]);
    let expected: usize = ranges.map(|nnz| workspace + 16 * capacity(nnz)).sum();
    assert_eq!(charged.workers, 4);
    assert_eq!(charged.allocated_bytes, expected as u64, "every range charged: {charged:?}");

    let limit = charged.allocated_bytes - 1;
    let starved =
        Supervisor::new().with_budget(ResourceBudget::unlimited().with_max_total_bytes(limit));
    let reason = RunError::BudgetExceeded {
        resource: BudgetResource::TotalBytes,
        limit,
        requested: charged.allocated_bytes,
        array: None,
    };
    let before = binding.clone();
    let interp = starved.run(kernel.executable(), &mut binding).unwrap_err();
    assert_eq!((&interp.reason, interp.progress), (&reason, charged));
    assert_eq!(binding, before, "an over-budget parallel run must roll back");
    let test = "a_parallel_run_charges_what_its_row_ranges_allocate";
    let Some(so) = native_body(&kernel, test) else { return };
    let native = starved.run(&so, &mut binding).unwrap_err();
    assert_eq!((native.reason, native.progress), (reason, charged));
    assert_eq!(binding, before, "an over-budget native parallel run must roll back");
}

/// A fuse trip and a cancellation stop a four-range parallel run the same
/// way on either backend: same reason, same counters, and the binding rolled
/// back byte-identically. A small fuse trips inside every range; one every
/// range fits trips on their sum, at the join; a token cancelled before the
/// run stops it at the fork.
#[test]
fn parallel_aborts_agree_across_backends() {
    let (kernel, mut binding) = parallel_spgemm(64);
    let Some(so) = native_body(&kernel, "parallel_aborts_agree_across_backends") else { return };
    let total = Supervisor::new().run(kernel.executable(), &mut binding.clone()).unwrap().progress;
    let fuse =
        |n| Supervisor::new().with_budget(ResourceBudget::unlimited().with_max_loop_iterations(n));
    let cancelled = Supervisor::new();
    cancelled.cancel_token().cancel();
    let before = binding.clone();
    for (what, supervisor, iterations) in [
        ("a fuse trip in every range", fuse(10), 4 * 10),
        ("a fuse trip at the join", fuse(total.iterations / 2), total.iterations),
        ("a cancellation", cancelled, 0),
    ] {
        let interp = supervisor.run(kernel.executable(), &mut binding).unwrap_err();
        assert_eq!(binding, before, "{what}: the interpreter's run must roll back");
        let native = supervisor.run(&so, &mut binding).unwrap_err();
        assert_eq!(binding, before, "{what}: the native run must roll back");
        assert_eq!(native.reason, interp.reason, "{what}");
        assert_eq!(native.progress, interp.progress, "{what}");
        let counters = (interp.progress.iterations, interp.progress.workers);
        assert_eq!(counters, (iterations, 4), "{what}");
        let fused = matches!(
            interp.reason,
            RunError::BudgetExceeded { resource: BudgetResource::LoopIterations, .. }
        );
        assert_eq!(fused, iterations > 0, "{what}: {:?}", interp.reason);
    }
}

#[test]
fn iteration_fuse_stops_runaway_kernels() {
    let n = 12;
    let stmt = scheduled_spgemm(n);
    let (b, c) = sample_inputs(n);
    let kernel = stmt
        .compile_checked(
            LowerOptions::fused("spgemm"),
            ResourceBudget::default().with_max_loop_iterations(10),
            default_verify_mode(),
        )
        .unwrap();
    let err = kernel.run(&[("B", &b), ("C", &c)]).unwrap_err();
    match err {
        CoreError::Run(RunError::BudgetExceeded { resource, limit, .. }) => {
            assert_eq!(resource, BudgetResource::LoopIterations);
            assert_eq!(limit, 10);
        }
        other => panic!("expected an iteration-fuse error, got {other}"),
    }
}

#[test]
fn allocation_budget_stops_oversized_runs() {
    let n = 12;
    let stmt = scheduled_spgemm(n);
    let (b, c) = sample_inputs(n);
    let kernel = stmt
        .compile_checked(
            LowerOptions::fused("spgemm"),
            ResourceBudget::default().with_max_total_bytes(32),
            default_verify_mode(),
        )
        .unwrap();
    let err = kernel.run(&[("B", &b), ("C", &c)]).unwrap_err();
    match err {
        CoreError::Run(RunError::BudgetExceeded { resource, .. }) => {
            assert!(
                resource == BudgetResource::TotalBytes
                    || resource == BudgetResource::WorkspaceBytes,
                "unexpected resource {resource:?}"
            );
        }
        other => panic!("expected an allocation budget error, got {other}"),
    }
}

#[test]
fn unlimited_budget_matches_unbudgeted_compile() {
    let n = 10;
    let stmt = scheduled_spgemm(n);
    let (b, c) = sample_inputs(n);
    let plain = stmt.compile(LowerOptions::fused("spgemm")).unwrap();
    let budgeted = stmt
        .compile_checked(
            LowerOptions::fused("spgemm"),
            ResourceBudget::unlimited(),
            default_verify_mode(),
        )
        .unwrap();
    assert!(budgeted.fallback_events().is_empty());
    let r1 = plain.run(&[("B", &b), ("C", &c)]).unwrap();
    let r2 = budgeted.run(&[("B", &b), ("C", &c)]).unwrap();
    assert!(r1.to_dense().approx_eq(&r2.to_dense(), 0.0));
}

/// Sampled dense product `A(i,j) = B(i,j) * C(i,j)` (B hypersparse CSR,
/// C dense) with a deliberately pathological schedule: the dense operand is
/// precomputed into a row workspace, so the scheduled producer loop scans
/// all `n` columns of every row while the direct merge kernel only visits
/// B's nonzeros. This is the asymmetry the degradation ladder exists for.
fn pathological_sampled_product(m: usize, n: usize) -> IndexStmt {
    let a = TensorVar::new("A", vec![m, n], Format::csr());
    let b = TensorVar::new("B", vec![m, n], Format::csr());
    let c = TensorVar::new("C", vec![m, n], Format::dense(2));
    let (i, j) = (iv("i"), iv("j"));
    let cij: IndexExpr = c.access([i.clone(), j.clone()]).into();
    let mut stmt = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        b.access([i.clone(), j.clone()]) * c.access([i.clone(), j.clone()]),
    ))
    .unwrap();
    let w = TensorVar::new("w", vec![n], Format::dvec());
    stmt.precompute(&cij, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
    stmt
}

fn sampled_product_inputs(m: usize, n: usize) -> (Tensor, Tensor) {
    let b = Tensor::from_entries(
        vec![m, n],
        Format::csr(),
        vec![(vec![0, 5], 2.0), (vec![m / 2, 100], 3.0), (vec![m - 1, 7], 4.0)],
    )
    .unwrap();
    let vals: Vec<f64> = (0..m * n).map(|p| (p % 97) as f64 + 1.0).collect();
    let c = Tensor::from_dense(
        &taco_workspaces::tensor::DenseTensor::from_data(vec![m, n], vals),
        Format::dense(2),
    )
    .unwrap();
    (b, c)
}

/// A dense-ish SpGEMM large enough that its workspace kernel cannot finish
/// within a tens-of-milliseconds deadline on any plausible machine.
fn big_spgemm() -> (IndexStmt, Tensor, Tensor) {
    let n = 512;
    let stmt = scheduled_spgemm(n);
    let b = gen::random_csr(n, n, 0.5, 21).to_tensor();
    let c = gen::random_csr(n, n, 0.5, 22).to_tensor();
    (stmt, b, c)
}

#[test]
fn deadline_abort_rolls_back_the_output_binding() {
    let (stmt, b, c) = big_spgemm();
    let kernel = stmt.compile(LowerOptions::fused("spgemm")).unwrap();
    let mut binding = kernel.bind(&[("B", &b), ("C", &c)], None).unwrap();
    let before = binding.clone();

    let supervisor = Supervisor::new().with_deadline(Duration::from_millis(20));
    let err = kernel.run_bound_supervised(&mut binding, &supervisor).unwrap_err();
    match err {
        CoreError::Aborted(a) => {
            assert!(
                matches!(a.reason, RunError::DeadlineExceeded { .. }),
                "expected a deadline abort, got {}",
                a.reason
            );
            assert!(a.progress.iterations > 0, "the kernel should have made progress");
        }
        other => panic!("expected CoreError::Aborted, got {other}"),
    }
    assert_eq!(binding, before, "aborted run must leave the binding byte-identical");
}

#[test]
fn mid_execution_cancellation_rolls_back_and_is_not_retried() {
    let (stmt, b, c) = big_spgemm();
    let kernel = stmt.compile(LowerOptions::fused("spgemm")).unwrap();
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
        CoreError::Aborted(a) => {
            assert_eq!(a.reason, RunError::Cancelled);
            assert!(!a.reason.is_retryable(), "cancellation must not trigger the ladder");
        }
        other => panic!("expected CoreError::Aborted, got {other}"),
    }
    assert_eq!(binding, before, "cancelled run must leave the binding byte-identical");

    // The degradation ladder refuses to retry a cancelled run: the whole
    // pipeline surfaces the abort instead of burning time on lower rungs.
    let err =
        run_supervised(&stmt, LowerOptions::fused("spgemm"), &supervisor, &[("B", &b), ("C", &c)])
            .unwrap_err();
    assert!(
        matches!(err, CoreError::Aborted(ref a) if a.reason == RunError::Cancelled),
        "expected an unretried cancellation, got {err}"
    );
}

#[test]
fn ladder_exhaustion_surfaces_the_last_abort() {
    // True SpGEMM only lowers through the workspace, so when every viable
    // rung blows the deadline the caller gets the final abort, typed.
    let (stmt, b, c) = big_spgemm();
    let supervisor = Supervisor::new().with_deadline(Duration::from_millis(10));
    let err =
        run_supervised(&stmt, LowerOptions::fused("spgemm"), &supervisor, &[("B", &b), ("C", &c)])
            .unwrap_err();
    match err {
        CoreError::Aborted(a) => {
            assert!(matches!(a.reason, RunError::DeadlineExceeded { .. }));
        }
        other => panic!("expected CoreError::Aborted, got {other}"),
    }
}

#[test]
fn pathological_schedule_degrades_to_direct_merge_under_deadline() {
    // The acceptance scenario: under a deadline of a quarter of what the
    // as-scheduled workspace kernel (which scans all n columns per row)
    // takes unsupervised on this binding, it aborts, the binding is rolled
    // back byte-identically, and the retry ladder lands on the direct merge
    // kernel, which only touches B's nonzeros and commits. Derived from the
    // kernel's own time, the deadline cuts it short on any machine, in any
    // build, however fast the interpreter runs its scan.
    let (m, n) = (128, 1 << 15);
    let stmt = pathological_sampled_product(m, n);
    let (b, c) = sampled_product_inputs(m, n);
    let scheduled = stmt.compile(LowerOptions::fused("sample")).unwrap();
    let mut binding = scheduled.bind(&[("B", &b), ("C", &c)], None).unwrap();
    let before = binding.clone();
    let mut unsupervised = before.clone();
    let start = Instant::now();
    scheduled.run_bound(&mut unsupervised).unwrap();
    let supervisor = Supervisor::new().with_deadline(start.elapsed() / 4);

    // First, the transactional half: the scheduled kernel alone aborts on
    // the deadline and leaves its binding byte-identical.
    let err = scheduled.run_bound_supervised(&mut binding, &supervisor).unwrap_err();
    match err {
        CoreError::Aborted(a) => {
            assert!(
                matches!(a.reason, RunError::DeadlineExceeded { .. }),
                "expected a deadline abort, got {}",
                a.reason
            );
        }
        other => panic!("expected CoreError::Aborted, got {other}"),
    }
    assert_eq!(binding, before, "aborted run must leave the binding byte-identical");

    // Then the ladder: the retry lands on direct merge, and the one
    // abandoned rung is on the record. The coordinate-list rung does not
    // lower this schedule, and no rung re-runs the kernel that aborted.
    let outcome =
        run_supervised(&stmt, LowerOptions::fused("sample"), &supervisor, &[("B", &b), ("C", &c)])
            .unwrap();
    assert_eq!(outcome.rung, DegradeRung::DirectMerge);
    assert!(
        matches!(
            outcome.fallbacks.as_slice(),
            [FallbackEvent::DegradedRetry {
                rung: DegradeRung::AsScheduled,
                reason: RunError::DeadlineExceeded { .. },
            }]
        ),
        "exactly the as-scheduled deadline abort must be recorded: {:?}",
        outcome.fallbacks
    );

    let expect = eval_dense(stmt.source(), &[("B", &b), ("C", &c)]).unwrap();
    assert!(outcome.result.to_dense().approx_eq(&expect, 1e-10));
    assert_eq!(outcome.result.nnz(), b.nnz(), "sampling preserves B's pattern");
}

#[test]
fn supervised_runs_over_corrupted_operands_stay_graceful() {
    // Supervision must not weaken bind-time validation: every corrupted
    // operand still produces a typed error (never a panic or a partial
    // result), even with a deadline and a cancel token armed.
    let n = 8;
    let stmt = scheduled_spgemm(n);
    let (b, c) = sample_inputs(n);
    let token = CancelToken::new();
    let supervisor = Supervisor::new()
        .with_deadline(Duration::from_secs(5))
        .with_cancel_token(token.clone());

    for (why, bad) in corrupt::all_corruptions(&b) {
        assert_graceful(&format!("supervised run with B corrupted by {why:?}"), || {
            let inputs = [("B", &bad), ("C", &c)];
            run_supervised(&stmt, LowerOptions::fused("spgemm"), &supervisor, &inputs)
        });
    }

    // A pre-cancelled supervisor aborts before the first write, over good
    // and corrupted inputs alike.
    token.cancel();
    let err =
        run_supervised(&stmt, LowerOptions::fused("spgemm"), &supervisor, &[("B", &b), ("C", &c)])
            .unwrap_err();
    match err {
        CoreError::Aborted(a) => {
            assert_eq!(a.reason, RunError::Cancelled);
            assert!(
                a.progress.iterations <= 1,
                "pre-cancelled runs abort at the first back-edge, got {}",
                a.progress
            );
        }
        other => panic!("expected CoreError::Aborted, got {other}"),
    }
}

#[test]
fn corrupted_coo_operands_error_at_bind_time() {
    // COO stores parallel coordinate arrays: a non-unique compressed outer
    // level plus singleton levels. The singleton-specific corruptions
    // (truncated/out-of-bounds singleton crd, duplicated components) must be
    // caught when the operand binds into a kernel, not just by validate().
    let n = 8;
    let a = TensorVar::new("a", vec![n], Format::dvec());
    let bt = TensorVar::new("B", vec![n, n], Format::coo(2));
    let xt = TensorVar::new("x", vec![n], Format::dvec());
    let (i, j) = (iv("i"), iv("j"));
    let stmt = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone()]),
        sum(j.clone(), bt.access([i, j.clone()]) * xt.access([j])),
    ))
    .unwrap();
    let kernel = stmt.compile(LowerOptions::compute("spmv_coo")).unwrap();

    let b = gen::random_csr(n, n, 0.4, 17).to_tensor().convert(Format::coo(2)).unwrap();
    let x = Tensor::from_entries(vec![n], Format::dvec(), (0..n).map(|c| (vec![c], c as f64 + 1.0)).collect())
        .unwrap();
    kernel.run(&[("B", &b), ("x", &x)]).unwrap();

    let mutants = corrupt::all_corruptions(&b);
    assert!(
        mutants.iter().any(|(c, _)| matches!(c, corrupt::Corruption::TruncateSingletonCrd(_))),
        "COO must exercise the singleton corruptions"
    );
    assert!(mutants.iter().any(|(c, _)| matches!(c, corrupt::Corruption::DuplicateComponent)));
    for (why, bad) in mutants {
        assert_graceful(&format!("COO SpMV with B corrupted by {why:?}"), || {
            kernel.run(&[("B", &bad), ("x", &x)])
        });
    }
}

#[test]
fn corrupted_bcsr_block_pointers_error_at_bind_time() {
    // BCSR is a rank-4 blocked tensor {Dense, Compressed, Dense, Dense}; its
    // level-1 pos array is the block-pointer structure. Corrupting it (and
    // everything else corrupt covers) must surface as a typed bind error.
    let n = 8;
    let (br, bc) = (2, 2);
    let a = TensorVar::new("A", vec![n / br, n / bc, br, bc], Format::dense(4));
    let bt = TensorVar::new("B", vec![n / br, n / bc, br, bc], Format::bcsr());
    let (i, j, k, l) = (iv("i"), iv("j"), iv("k"), iv("l"));
    let stmt = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone(), k.clone(), l.clone()]),
        bt.access([i, j, k, l]),
    ))
    .unwrap();
    let kernel = stmt.compile(LowerOptions::compute("bcsr_copy")).unwrap();

    let b = gen::random_csr(n, n, 0.4, 19).to_tensor().to_blocked(br, bc).unwrap();
    kernel.run(&[("B", &b)]).unwrap();

    let mutants = corrupt::all_corruptions(&b);
    assert!(
        mutants.iter().any(|(c, _)| matches!(c, corrupt::Corruption::TruncatePos(1))),
        "BCSR must exercise the block-pointer corruptions"
    );
    for (why, bad) in mutants {
        assert_graceful(&format!("BCSR copy with B corrupted by {why:?}"), || {
            kernel.run(&[("B", &bad)])
        });
    }
}

#[test]
fn corrupted_raw_csr_and_csf_are_rejected_by_validate() {
    let m = gen::random_csr(6, 6, 0.5, 11);
    assert!(m.validate().is_ok());
    let bad = Csr::from_raw_unchecked(
        6,
        6,
        m.pos().to_vec(),
        m.crd().iter().map(|c| c + 6).collect(), // every column out of bounds
        m.vals().to_vec(),
    );
    assert!(bad.validate().is_err());

    let t = gen::random_csf3([4, 4, 4], 12, 13);
    assert!(t.validate().is_ok());
    let level = |l: usize| (t.pos(l).to_vec(), t.crd(l).to_vec());
    let mut pos1 = t.pos(0).to_vec();
    *pos1.last_mut().unwrap() += 3; // points past crd1
    let bad = Csf3::from_raw_unchecked(
        t.dims(),
        [(pos1, t.crd(0).to_vec()), level(1), level(2)],
        t.vals().to_vec(),
    );
    assert!(bad.validate().is_err());
}

#[test]
fn deadline_abort_rolls_back_hash_and_coord_list_workspace_kernels() {
    // The sparse workspace backends drain straight into the result arrays,
    // so a mid-drain abort must roll those arrays back like any other
    // transactional write. The map itself is kernel-local machine state and
    // never part of the binding.
    let (stmt, b, c) = big_spgemm();
    for kind in [WorkspaceKind::Hash, WorkspaceKind::CoordList] {
        let kernel = stmt
            .compile(LowerOptions::fused("spgemm").with_workspace_kind(kind))
            .unwrap();
        let mut binding = kernel.bind(&[("B", &b), ("C", &c)], None).unwrap();
        let before = binding.clone();

        let supervisor = Supervisor::new().with_deadline(Duration::from_millis(20));
        let err = kernel.run_bound_supervised(&mut binding, &supervisor).unwrap_err();
        match err {
            CoreError::Aborted(a) => {
                assert!(
                    matches!(a.reason, RunError::DeadlineExceeded { .. }),
                    "{kind}: expected a deadline abort, got {}",
                    a.reason
                );
                assert!(a.progress.iterations > 0, "{kind}: kernel should have made progress");
            }
            other => panic!("{kind}: expected CoreError::Aborted, got {other}"),
        }
        assert_eq!(binding, before, "{kind}: aborted run must leave the binding byte-identical");
    }
}

#[test]
fn mid_execution_cancellation_rolls_back_sparse_workspace_kernels() {
    let (stmt, b, c) = big_spgemm();
    for kind in [WorkspaceKind::Hash, WorkspaceKind::CoordList] {
        let kernel = stmt
            .compile(LowerOptions::fused("spgemm").with_workspace_kind(kind))
            .unwrap();
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
            CoreError::Aborted(a) => {
                assert_eq!(a.reason, RunError::Cancelled, "{kind}");
                assert!(!a.reason.is_retryable(), "{kind}: cancellation must not ladder");
            }
            other => panic!("{kind}: expected CoreError::Aborted, got {other}"),
        }
        assert_eq!(binding, before, "{kind}: cancelled run must leave the binding byte-identical");
    }
}

#[test]
fn over_budget_spgemm_completes_through_a_sparse_workspace_rung() {
    // The graceful-degradation acceptance case: a workspace budget far below
    // the dense footprint no longer dooms SpGEMM (whose direct form cannot
    // lower) — the compile downgrades the workspace to a sparse backend,
    // records the typed event, and the result is byte-identical to the
    // unbudgeted kernel's.
    let n = 1024;
    let stmt = scheduled_spgemm(n);
    let b = gen::random_csr_nnz(n, n, 256, gen::Pattern::Uniform, 41).to_tensor();
    let c = gen::random_csr_nnz(n, n, 256, gen::Pattern::Uniform, 42).to_tensor();
    let expect = stmt
        .compile(LowerOptions::fused("spgemm"))
        .unwrap()
        .run(&[("B", &b), ("C", &c)])
        .unwrap();

    // Dense workspace estimate is n * 17 bytes; allow roughly half.
    let budget = ResourceBudget::unlimited().with_max_workspace_bytes(9000);
    let kernel = stmt
        .compile_checked(LowerOptions::fused("spgemm"), budget, VerifyMode::Deny)
        .expect("sparse workspace rung must compile under the tiny budget");
    match &kernel.fallback_events()[0] {
        FallbackEvent::OverBudget { workspace, estimated_bytes, budget_bytes, rung } => {
            assert_eq!(workspace, "w");
            assert_eq!(*rung, DegradeRung::CoordListWorkspace);
            assert!(estimated_bytes > budget_bytes);
        }
        other => panic!("expected OverBudget, got {other}"),
    }
    let got = kernel.run(&[("B", &b), ("C", &c)]).unwrap();
    assert_eq!(got, expect, "downgraded kernel must be byte-identical");
}

/// Runs `extract` on a damaged binding under `catch_unwind` and returns its
/// error; a success or a panic fails the test.
fn extraction_error(
    what: &str,
    kernel: &CompiledKernel,
    binding: &taco_workspaces::llir::Binding,
    structure: Option<&Tensor>,
) -> CoreError {
    match catch_unwind(AssertUnwindSafe(|| kernel.extract(binding, structure))) {
        Ok(Ok(t)) => panic!("{what}: extraction accepted the damaged result: {t:?}"),
        Ok(Err(e)) => e,
        Err(_) => panic!("{what}: extraction panicked instead of returning an error"),
    }
}

#[test]
fn corrupted_result_buffers_error_at_extraction() {
    use taco_workspaces::lower::params::{crd_name, pos_name};
    use taco_workspaces::tensor::TensorError;

    // The result buffers belong to the kernel during a run, so extraction
    // must treat them as it treats operands: a damaged buffer is a typed
    // error, never a panic and never a plausible-looking tensor.
    let n = 4;
    let kernel = scheduled_spgemm(n).compile(LowerOptions::fused("spgemm")).unwrap();
    let (b, c) = sample_inputs(n);
    let (a_pos, a_crd) = (pos_name("A", 1), crd_name("A", 1));
    let nnz_out = kernel.lowered().nnz_output.clone().expect("fused SpGEMM reports nnz");

    // A hand-written valid result, with doubling slack past nnz = 5.
    #[derive(Clone)]
    struct Buffers {
        pos: Vec<i64>,
        crd: Vec<i64>,
        vals: Vec<f64>,
        nnz: i64,
    }
    let valid = Buffers {
        pos: vec![0, 2, 2, 3, 5],
        crd: vec![0, 2, 1, 0, 3, 99, 99, 99],
        vals: vec![1.0, 2.0, 3.0, 4.0, 5.0, 0.0, 0.0, 0.0],
        nnz: 5,
    };
    let bound = kernel.bind(&[("B", &b), ("C", &c)], None).unwrap();
    let with = |damage: &dyn Fn(&mut Buffers)| {
        let mut buffers = valid.clone();
        damage(&mut buffers);
        let mut binding = bound.clone();
        binding
            .set_int(a_pos.clone(), buffers.pos)
            .set_int(a_crd.clone(), buffers.crd)
            .set_f64("A", buffers.vals)
            .set_scalar_output(nnz_out.clone(), buffers.nnz);
        binding
    };
    let good = with(&|_| {});
    let expect = Tensor::from_entries(
        vec![n, n],
        Format::csr(),
        vec![
            (vec![0, 0], 1.0),
            (vec![0, 2], 2.0),
            (vec![2, 1], 3.0),
            (vec![3, 0], 4.0),
            (vec![3, 3], 5.0),
        ],
    )
    .unwrap();
    assert_eq!(kernel.extract(&good, None).unwrap(), expect);

    let damaged = [
        ("negative pos", with(&|r| r.pos[1] = -1)),
        ("negative crd", with(&|r| r.crd[2] = -1)),
        ("negative nnz", with(&|r| r.nnz = -5)),
        ("short pos", with(&|r| r.pos.truncate(n))),
        ("long pos", with(&|r| r.pos.push(5))),
        ("empty pos", with(&|r| r.pos.clear())),
        ("non-monotone pos", with(&|r| r.pos[2] = 1)),
        ("pos not starting at 0", with(&|r| r.pos[0] = 1)),
        ("pos ending short of nnz", with(&|r| r.pos[n] = 4)),
        ("pos ending past nnz", with(&|r| r.nnz = 4)),
        ("segment beyond crd", with(&|r| r.crd.truncate(4))),
        ("nnz beyond vals", with(&|r| r.vals.truncate(4))),
        ("coordinate == dim", with(&|r| r.crd[4] = n as i64)),
        // A kernel appends a compressed level in order, once per
        // coordinate: extraction checks that, it does not repair it.
        ("unsorted segment", with(&|r| r.crd[..2].copy_from_slice(&[2, 0]))),
        ("repeated coordinate", with(&|r| r.crd[1] = 0)),
    ];
    for (what, bad) in &damaged {
        let err = extraction_error(what, &kernel, bad, None);
        assert!(
            matches!(err, CoreError::Tensor(TensorError::InvalidStorage { level: 1, .. })),
            "{what}: expected InvalidStorage at the compressed level, got {err:?}"
        );
    }

    for missing in [a_pos.as_str(), a_crd.as_str(), "A"] {
        let mut bad = good.clone();
        bad.take(missing);
        let err = extraction_error(&format!("missing {missing}"), &kernel, &bad, None);
        assert!(matches!(err, CoreError::UnknownOperand(_)), "missing {missing}: got {err:?}");
    }

    // Dense results: one value per component, or a typed error.
    let dense = scheduled_dense_matmul(n).compile(LowerOptions::compute("matmul")).unwrap();
    let cd = Tensor::from_dense(&gen::random_dense(n, n, 9), Format::dense(2)).unwrap();
    let mut bad = dense.bind(&[("B", &b), ("C", &cd)], None).unwrap();
    dense.extract(&bad, None).unwrap();
    bad.set_f64("A", vec![0.0; n * n - 1]);
    extraction_error("short dense result", &dense, &bad, None);

    // Compute kernels: the structure handed to `extract` must be the
    // result's, and the value buffer must cover it.
    let compute = scheduled_spgemm(n).compile(LowerOptions::compute("spgemm_c")).unwrap();
    let mut bound = compute.bind(&[("B", &b), ("C", &c)], Some(&expect)).unwrap();
    assert_eq!(compute.extract(&bound, Some(&expect)).unwrap().nnz(), 5);
    let other = Tensor::from_entries(vec![n, n + 1], Format::csr(), vec![]).unwrap();
    extraction_error("structure of another shape", &compute, &bound, Some(&other));
    extraction_error("no structure", &compute, &bound, None);
    bound.set_f64("A", vec![0.0; 4]);
    extraction_error("values short of the structure", &compute, &bound, Some(&expect));
}
