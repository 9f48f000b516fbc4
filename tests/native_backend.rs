//! Differential suite for the native codegen backend: kernels compiled to
//! shared objects and run through the dlopen ABI must be *byte-identical*
//! to the interpreter across kernels, workspace backends, and thread
//! counts; the trust lifecycle (untrusted → differential check → trusted)
//! must be observable through engine events and counters; the compiler
//! must run once per cache miss and never otherwise; and a corrupted
//! on-disk artifact must be rebuilt, once.
//!
//! Every test that needs a C toolchain skips with a visible marker when
//! none is present or the one present cannot build, so the suite is green
//! (and honest) on minimal images.

use proptest::prelude::*;
use std::sync::{Arc, Once, OnceLock};
use taco_core::oracle::eval_dense;
use taco_llir::{
    emit_native, run_body, ArrayTy, ArrayVal, Binding, Buf, BudgetResource, Executable, Expr,
    Kernel, KernelBody, Param, RunControls, RunError, Stmt, LEAF_FAST_PATH_MARKER,
    LEAF_SIMD_PRAGMA,
};
use taco_lower::params::{crd_name, pos_name};
use taco_native::{NativeCompiler, NativeKernel, NativeRunOptions};
use taco_tensor::gen::{random_csf3, random_csr};
use taco_workspaces::prelude::*;

/// Where `ci/cc-count.sh` logs this process's compiler runs.
fn cc_log() -> std::path::PathBuf {
    std::env::temp_dir().join(format!("taco-native-test-{}.cc-log", std::process::id()))
}

/// How often the compiler has run on a kernel of this name (`-`: on a TU
/// that names no kernel, i.e. the probe) in this process.
fn cc_runs(kernel_name: &str) -> usize {
    let log = std::fs::read_to_string(cc_log()).unwrap_or_default();
    log.lines().filter(|line| *line == kernel_name).count()
}

/// Points the artifact cache at a per-process temp directory and `$CC` at
/// the counting wrapper around whatever `$CC` was, once, before any native
/// compile in this test binary. Tests within one binary share the directory
/// (the cache is content-addressed, so that is safe) and the log (runs are
/// told apart by kernel name); other test binaries are other processes with
/// their own.
fn init_cache() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let dir = std::env::temp_dir().join(format!("taco-native-test-{}", std::process::id()));
        std::env::set_var("TACO_NATIVE_CACHE", &dir);
        let real = std::env::var("CC").ok().filter(|cc| !cc.is_empty());
        std::env::set_var("CC_COUNT_CC", real.as_deref().unwrap_or("cc"));
        std::env::set_var("CC_COUNT_LOG", cc_log());
        std::env::set_var("CC", concat!(env!("CARGO_MANIFEST_DIR"), "/ci/cc-count.sh"));
    });
}

/// A working compiler, or a visible skip marker. Resolving `$CC` spawns
/// nothing, so what shows the toolchain works is one trivial build per
/// process. Returning `None` makes the caller return early: the test passes
/// but the log says why it was empty.
fn require_cc(test: &str) -> Option<NativeCompiler> {
    init_cache();
    static WORKING: OnceLock<Result<NativeCompiler, String>> = OnceLock::new();
    let working = WORKING.get_or_init(|| {
        let cc = NativeCompiler::from_env().map_err(|e| e.to_string())?;
        let trivial = Executable::compile(&Kernel::new("require_cc")).unwrap();
        cc.compile(&emit_native(&trivial).unwrap(), 0).map_err(|e| e.to_string())?;
        Ok(cc)
    });
    match working {
        Ok(cc) => Some(cc.clone()),
        Err(e) => {
            eprintln!("SKIPPED {test}: no C toolchain ({e})");
            None
        }
    }
}

fn iv(n: &str) -> IndexVar {
    IndexVar::new(n)
}

/// Figure 2 SpGEMM (reorder + row workspace) over `n`×`n` CSR matrices.
fn scheduled_spgemm(n: usize) -> IndexStmt {
    scheduled_spgemm_into(n, Format::csr())
}

/// The Fig. 2 SpGEMM into a `result` of the given format.
fn scheduled_spgemm_into(n: usize, result: Format) -> IndexStmt {
    let a = TensorVar::new("A", vec![n, n], result);
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

/// Sparse addition `A = B + C` through a row workspace.
fn workspace_sparse_add(m: usize, n: usize) -> IndexStmt {
    let a = TensorVar::new("A", vec![m, n], Format::csr());
    let b = TensorVar::new("B", vec![m, n], Format::csr());
    let c = TensorVar::new("C", vec![m, n], Format::csr());
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
fn workspace_mttkrp(di: usize, dk: usize, dl: usize, r: usize) -> IndexStmt {
    let a = TensorVar::new("A", vec![di, r], Format::dense(2));
    let b = TensorVar::new("B", vec![di, dk, dl], Format::csf3());
    let c = TensorVar::new("C", vec![dl, r], Format::dense(2));
    let d = TensorVar::new("D", vec![dk, r], Format::dense(2));
    let (i, j, k, l) = (iv("i"), iv("j"), iv("k"), iv("l"));
    let bc = b.access([i.clone(), k.clone(), l.clone()]) * c.access([l.clone(), j.clone()]);
    let mut stmt = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(k.clone(), sum(l.clone(), bc.clone() * d.access([k.clone(), j.clone()]))),
    ))
    .unwrap();
    stmt.reorder(&j, &k).unwrap();
    stmt.reorder(&j, &l).unwrap();
    let w = TensorVar::new("w", vec![r], Format::dvec());
    stmt.precompute(&bc, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
    stmt
}

/// Equal structure via `PartialEq`, bitwise-equal values (catches
/// sign-of-zero and NaN-payload drift `==` on floats would wave through).
fn assert_byte_identical(interp: &Tensor, native: &Tensor, what: &str) {
    assert_eq!(interp, native, "{what}: structure differs");
    let ib: Vec<u64> = interp.vals().iter().map(|v| v.to_bits()).collect();
    let nb: Vec<u64> = native.vals().iter().map(|v| v.to_bits()).collect();
    assert_eq!(ib, nb, "{what}: values differ bitwise");
}

/// One supervised run of `stmt` under `opts` on each body, interpreter
/// first, with what it committed and what it charged.
fn on_both_bodies(
    cc: &NativeCompiler,
    stmt: &IndexStmt,
    opts: LowerOptions,
    inputs: &[(&str, &Tensor)],
) -> [(Tensor, Progress); 2] {
    let kernel = stmt.compile(opts).unwrap();
    let so = cc.compile(&emit_native(kernel.executable()).unwrap(), 0).unwrap();
    let supervisor = Supervisor::new();
    let (interp, ran) = kernel.run_supervised(inputs, None, &supervisor).unwrap();
    let (native, native_ran) = kernel.run_with_body(&so, inputs, None, Some(&supervisor)).unwrap();
    [(interp, ran.progress), (native, native_ran.progress)]
}

/// A hash workspace is the coordinate-list store charged 24 bytes an entry
/// instead of 16. On each body the two kinds' runs of one statement agree on
/// the result's bits and the iteration count, and every map charge of the
/// hash run is 3/2 the coordinate list's: a budget the hash kind fits, the
/// coordinate list fits too, which is why the degrade ladder has no hash
/// rung.
fn assert_hash_is_coord_list_at_three_halves(
    hash: &[(Tensor, Progress)],
    coord: &[(Tensor, Progress)],
    what: &str,
) {
    assert_eq!(hash.len(), coord.len(), "{what}");
    for ((h, hp), (c, cp)) in hash.iter().zip(coord) {
        assert_byte_identical(c, h, &format!("{what}: hash vs coord-list"));
        assert_eq!(hp.iterations, cp.iterations, "{what}");
        assert!(cp.peak_map_bytes > 0, "{what}: no map was charged");
        assert_eq!(2 * hp.peak_map_bytes, 3 * cp.peak_map_bytes, "{what}: {hp:?} vs {cp:?}");
    }
}

/// Runs `stmt` on an interpreter-pinned engine and a native-pinned engine
/// (twice — the first native-engine run is the differential trust check and
/// commits the interpreter's result) and asserts all three results are
/// byte-identical. Returns the native engine for further inspection.
fn differential(
    stmt: &IndexStmt,
    opts: LowerOptions,
    inputs: &[(&str, &Tensor)],
    what: &str,
) -> Engine {
    let interp = Engine::builder().backend(Backend::Interp).build();
    let reference = interp.run(stmt, opts.clone(), inputs).unwrap();

    let native = Engine::builder().backend(Backend::Native).build();
    let first = native.run(stmt, opts.clone(), inputs).unwrap();
    assert_byte_identical(&reference, &first, &format!("{what} (trust-check run)"));

    let stats = native.native_stats();
    if stats.rejected > 0 || stats.unavailable > 0 {
        panic!("{what}: native kernel not accepted ({stats:?}): {:#?}", native.last_events());
    }
    assert_eq!(stats.compiled, 1, "{what}: one kernel must compile natively ({stats:?})");
    assert_eq!(stats.trusted, 1, "{what}: the differential check must promote it ({stats:?})");
    assert_eq!(stats.rejected, 0, "{what}: nothing to reject ({stats:?})");
    assert_eq!(stats.unavailable, 0, "{what}: toolchain is present ({stats:?})");

    let second = native.run(stmt, opts, inputs).unwrap();
    assert_byte_identical(&reference, &second, &format!("{what} (trusted native run)"));
    assert!(
        native.native_stats().native_runs >= 1,
        "{what}: the second run must execute natively ({:?})",
        native.native_stats()
    );
    assert!(
        native
            .last_events()
            .iter()
            .any(|e| matches!(e, EngineEvent::NativeCompiled { .. })),
        "{what}: the compile must be logged: {:?}",
        native.last_events()
    );
    native
}

/// A CSR matrix with small-integer values at pseudo-random positions: every
/// sum of products is exact in f32 and f64 alike, so any accumulation order
/// gives the same bits.
fn int_csr(m: usize, n: usize, seed: u64) -> Tensor {
    let mut s = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut next = move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        s >> 33
    };
    let mut entries = Vec::new();
    for r in 0..m {
        for c in 0..n {
            if next() % 10 < 3 {
                entries.push((vec![r, c], (next() % 7 + 1) as f64));
            }
        }
    }
    Tensor::from_entries(vec![m, n], Format::csr(), entries).unwrap()
}

/// The Fig. 2 SpGEMM under every workspace kind, fused and assemble, into a
/// CSR and a `(d,h)` result, and with a single-precision dense workspace:
/// the interpreter and the `.so` agree bytewise with each other and, the
/// `(d,h)` result once converted to CSR, with the dense oracle, and every
/// configuration counts the same 2138 iterations on these operands (a
/// scatter is no iteration, a drained entry is one).
#[test]
fn native_spgemm_byte_identical_across_workspace_kinds() {
    let Some(cc) = require_cc("native_spgemm_byte_identical_across_workspace_kinds") else {
        return;
    };
    let n = 24;
    let stmt = scheduled_spgemm(n);
    let dh = Format::new(vec![LevelType::Dense, LevelType::Hashed]);
    let (b, c) = (int_csr(n, n, 51), int_csr(n, n, 52));
    let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("C", &c)];
    let oracle = eval_dense(stmt.source(), &inputs).unwrap();
    let oracle = Tensor::from_dense(&oracle, Format::csr()).unwrap();
    // Per map kind, both bodies' runs of every (result, fused) variant.
    let mut map_runs: Vec<Vec<(Tensor, Progress)>> = Vec::new();
    for kind in [WorkspaceKind::Dense, WorkspaceKind::Hash, WorkspaceKind::CoordList] {
        let mut runs = Vec::new();
        for f32 in [false, true].into_iter().filter(|f32| !f32 || kind == WorkspaceKind::Dense) {
            for result in [Format::csr(), dh.clone()] {
                let stmt = scheduled_spgemm_into(n, result.clone());
                for fused in [true, false] {
                    let mut opts = if fused {
                        LowerOptions::fused("spgemm")
                    } else {
                        LowerOptions::assemble("spgemm")
                    }
                    .with_workspace_kind(kind);
                    if f32 {
                        opts = opts.with_f32_workspaces();
                    }
                    let what = format!("spgemm/{kind}/f32={f32}/result={result}/fused={fused}");
                    let [(interp, ran), (native, native_ran)] =
                        on_both_bodies(&cc, &stmt, opts, &inputs);
                    assert_byte_identical(&interp, &native, &what);
                    assert_eq!(interp.format(), &result, "{what}");
                    let sorted = interp.convert(Format::csr()).unwrap();
                    if fused {
                        assert_byte_identical(&oracle, &sorted, &what);
                    } else {
                        assert_eq!(sorted.pos(1).unwrap(), oracle.pos(1).unwrap(), "{what}");
                        assert_eq!(sorted.crd(1).unwrap(), oracle.crd(1).unwrap(), "{what}");
                    }
                    assert_eq!(ran.iterations, 2138, "{what}");
                    assert_eq!(native_ran.iterations, 2138, "{what}");
                    runs.extend([(interp, ran), (native, native_ran)]);
                }
            }
        }
        if kind != WorkspaceKind::Dense {
            map_runs.push(runs);
        }
        // And through the engines: the trust lifecycle of each kind.
        let opts = LowerOptions::fused("spgemm").with_workspace_kind(kind);
        differential(&stmt, opts, &inputs, &format!("spgemm/{kind:?}"));
    }
    assert_hash_is_coord_list_at_three_halves(&map_runs[0], &map_runs[1], "spgemm");
}

/// A dense workspace whose value array does not fit the single-allocation
/// limit trips on that array, by name, on either backend: the first of its
/// three allocations.
#[test]
fn a_dense_workspace_over_the_allocation_limit_trips_on_its_value_array() {
    let Some(cc) = require_cc("a_dense_workspace_over_the_allocation_limit") else { return };
    let n = 24;
    let kernel = scheduled_spgemm(n).compile(LowerOptions::fused("spgemm_budget")).unwrap();
    let so = cc.compile(&emit_native(kernel.executable()).unwrap(), 0).unwrap();
    let (b, c) = (int_csr(n, n, 51), int_csr(n, n, 52));
    let values = 8 * n as u64;
    let budget = ResourceBudget::unlimited().with_max_workspace_bytes(values - 1);
    let tripped = RunError::BudgetExceeded {
        resource: BudgetResource::WorkspaceBytes,
        limit: values - 1,
        requested: values,
        array: Some("w".into()),
    };
    let mut binding = kernel.bind(&[("B", &b), ("C", &c)], None).unwrap();
    let interp = run_body(kernel.executable(), &mut binding, &budget, RunControls::default());
    let mut binding = kernel.bind(&[("B", &b), ("C", &c)], None).unwrap();
    let native = run_body(&so, &mut binding, &budget, RunControls::default());
    assert_eq!(interp.1, Err(tripped.clone()));
    assert_eq!(native.1, Err(tripped));
    assert_eq!(interp.0, native.0);
}

#[test]
fn native_spgemm_byte_identical_across_thread_counts() {
    let Some(_cc) = require_cc("native_spgemm_byte_identical_across_thread_counts") else {
        return;
    };
    let n = 26;
    let serial = scheduled_spgemm(n);
    let b = random_csr(n, n, 0.25, 53).to_tensor();
    let c = random_csr(n, n, 0.25, 54).to_tensor();
    let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("C", &c)];

    // Serial kernels trust and run natively regardless of the thread
    // setting (no parallel loop is generated without `parallelize`).
    for threads in [1, 2, 4] {
        let opts = LowerOptions::fused("spgemm").with_threads(threads);
        differential(&serial, opts, &inputs, &format!("spgemm/threads={threads}"));
    }

    // A parallelized kernel is the same kernel run over disjoint row ranges:
    // it emits, is trusted and runs natively through the same dispatcher as
    // on the interpreter, 0 rejected (`differential` checks the counts).
    let mut par = scheduled_spgemm(n);
    par.parallelize(&iv("i")).unwrap();
    for threads in [2, 4] {
        let opts = LowerOptions::fused("spgemm_par").with_threads(threads);
        differential(&par, opts, &inputs, &format!("parallel spgemm t={threads}"));
    }
}

#[test]
fn native_sparse_add_byte_identical_across_workspace_kinds() {
    let Some(cc) = require_cc("native_sparse_add_byte_identical_across_workspace_kinds") else {
        return;
    };
    let (m, n) = (17, 23);
    let stmt = workspace_sparse_add(m, n);
    let b = random_csr(m, n, 0.3, 55).to_tensor();
    let c = random_csr(m, n, 0.3, 56).to_tensor();
    let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("C", &c)];
    let mut map_runs = Vec::new();
    for kind in [WorkspaceKind::Dense, WorkspaceKind::Hash, WorkspaceKind::CoordList] {
        let opts = LowerOptions::fused("add_ws").with_workspace_kind(kind);
        differential(&stmt, opts.clone(), &inputs, &format!("sparse-add/{kind:?}"));
        if kind != WorkspaceKind::Dense {
            map_runs.push(on_both_bodies(&cc, &stmt, opts, &inputs));
        }
    }
    assert_hash_is_coord_list_at_three_halves(&map_runs[0], &map_runs[1], "sparse-add");
}

#[test]
fn native_mttkrp_byte_identical_across_workspace_kinds() {
    let Some(cc) = require_cc("native_mttkrp_byte_identical_across_workspace_kinds") else {
        return;
    };
    let (di, dk, dl) = (9, 7, 6);
    let b = random_csf3([di, dk, dl], 60, 57).to_tensor();
    // The rank is the trip count of the two dense leaf loops: one element,
    // odd, a whole number of vectors, and one past it (should `cc`
    // vectorise them, its epilogue).
    for r in [1, 3, 5, 16, 17] {
        let stmt = workspace_mttkrp(di, dk, dl, r);
        let dense = |rows, seed| {
            let m = taco_workspaces::tensor::gen::random_dense(rows, r, seed);
            Tensor::from_dense(&m, Format::dense(2)).unwrap()
        };
        let (c, d) = (dense(dl, 58), dense(dk, 59));
        let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("C", &c), ("D", &d)];
        let mut map_runs = Vec::new();
        for kind in [WorkspaceKind::Dense, WorkspaceKind::Hash, WorkspaceKind::CoordList] {
            let opts = LowerOptions::compute("mttkrp_ws").with_workspace_kind(kind);
            differential(&stmt, opts.clone(), &inputs, &format!("mttkrp/r={r}/{kind:?}"));
            if kind != WorkspaceKind::Dense {
                map_runs.push(on_both_bodies(&cc, &stmt, opts, &inputs));
            }
        }
        let what = format!("mttkrp/r={r}");
        assert_hash_is_coord_list_at_three_halves(&map_runs[0], &map_runs[1], &what);
    }
}

/// The unit-level form of the benchmark's "must not move": of its three
/// paper kernels only the workspace MTTKRP has straight-line leaf loops
/// (its two dense rank loops, both SIMD strips); the Fig. 2 SpGEMM and the
/// three-way merge addition emit no versioned loop, i.e. the C they always
/// did.
#[test]
fn only_the_mttkrp_of_the_paper_kernels_has_versioned_leaf_loops() {
    let fast_paths = |stmt: &IndexStmt, opts: LowerOptions| {
        let kernel = stmt.compile(opts).unwrap();
        let tu = emit_native(kernel.executable()).unwrap().c_source;
        let (paths, simd) =
            (tu.matches(LEAF_FAST_PATH_MARKER).count(), tu.matches(LEAF_SIMD_PRAGMA).count());
        assert_eq!(paths, simd, "every strip of the paper kernels is independent lanes");
        paths
    };
    assert_eq!(fast_paths(&scheduled_spgemm(512), LowerOptions::fused("spgemm")), 0);

    let n = 2048;
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let (i, j) = (iv("i"), iv("j"));
    let operand = |name: &str| -> IndexExpr {
        TensorVar::new(name, vec![n, n], Format::csr()).access([i.clone(), j.clone()]).into()
    };
    let add3 = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        operand("B") + operand("C") + operand("D"),
    ))
    .unwrap();
    assert_eq!(fast_paths(&add3, LowerOptions::fused("add3")), 0);

    let mttkrp = workspace_mttkrp(256, 256, 256, 16);
    assert_eq!(fast_paths(&mttkrp, LowerOptions::compute("mttkrp")), 2);
}

// --- random leaf kernels -------------------------------------------------

/// Six straight-line leaf loops over `i` in `[lo, hi)`, each run `reps`
/// times after an empty `spin`-trip leaf loop (so the loop is entered at
/// every phase of the tick grant). Loads stay in bounds by construction —
/// the native backend does not check them — and every store goes to an
/// array whose length the case chooses.
fn leaf_kernels() -> Vec<Kernel> {
    let v = Expr::var;
    let x = || Expr::load("x", v("i") - v("lo"));
    let bodies = vec![
        // Element-wise.
        vec![Stmt::store("out", v("off") + v("i"), Expr::float(2.0) * x())],
        // A guarded invariant store and a scalar: the hoisted check is
        // conservative when the guard never fires.
        vec![
            Stmt::if_(
                x().gt(Expr::float(0.5)),
                vec![Stmt::store_add("acc", v("c"), x()), Stmt::incr("count")],
            ),
            Stmt::store_add("out", v("i") + v("off"), Expr::float(1.0)),
        ],
        // Two stores into one array at different offsets.
        vec![
            Stmt::store("out", v("off") + v("i"), x()),
            Stmt::store_add("out", v("i"), Expr::float(1.0)),
        ],
        // An integer array beside a float one.
        vec![
            Stmt::store("idx", v("i"), v("i") * Expr::int(3)),
            Stmt::store_add("out", v("off") + v("i"), x()),
        ],
        // An `inv + i` load from a second input, stored at `i - inv`.
        vec![Stmt::store("out", v("i") - v("lo"), Expr::load("y", v("yo") + v("i")))],
        // A loop-invariant load, which the interpreter hoists.
        vec![Stmt::store("out", v("off") + v("i"), Expr::load("y", v("yk")) * x())],
    ];
    bodies
        .into_iter()
        .enumerate()
        .map(|(n, body)| {
            Kernel::new(format!("leaf{n}"))
                .scalar_param("lo")
                .scalar_param("hi")
                .scalar_param("off")
                .scalar_param("c")
                .scalar_param("reps")
                .scalar_param("spin")
                .scalar_param("yo")
                .scalar_param("yk")
                .array_param(Param::input("x", ArrayTy::F64))
                .array_param(Param::input("y", ArrayTy::F64))
                .array_param(Param::output("out", ArrayTy::F64))
                .array_param(Param::output("acc", ArrayTy::F64))
                .array_param(Param::output("idx", ArrayTy::Int))
                .scalar_output("count")
                .body(vec![
                    Stmt::DeclInt("count".into(), Expr::int(0)),
                    Stmt::for_("s", Expr::int(0), v("spin"), vec![]),
                    Stmt::for_(
                        "r",
                        Expr::int(0),
                        v("reps"),
                        vec![Stmt::for_("i", v("lo"), v("hi"), body)],
                    ),
                ])
        })
        .collect()
}

/// The leaf kernels on both backends, compiled once per test process;
/// `None` (with a visible marker) without a C toolchain.
fn compiled_leaf_kernels() -> Option<&'static [(NativeKernel, Executable)]> {
    static KERNELS: OnceLock<Option<Vec<(NativeKernel, Executable)>>> = OnceLock::new();
    KERNELS
        .get_or_init(|| {
            let cc = require_cc("random_leaf_kernels_match_the_interpreter")?;
            let build = |(n, kernel): (usize, Kernel)| {
                let exe = Executable::compile(&kernel).unwrap();
                let src = emit_native(&exe).unwrap();
                // Each has the spin loop and its own: two versioned loops.
                // The empty spin loop is a SIMD strip; so is each shape's own
                // loop but the invariant accumulation and the two stores
                // into one array.
                assert_eq!(src.c_source.matches(LEAF_FAST_PATH_MARKER).count(), 2, "leaf{n}");
                let simd = if matches!(n, 1 | 2) { 1 } else { 2 };
                assert_eq!(src.c_source.matches(LEAF_SIMD_PRAGMA).count(), simd, "leaf{n}");
                (cc.compile(&src, 0x1eaf_0000 + n as u64).expect("leaf kernel compiles"), exe)
            };
            Some(leaf_kernels().into_iter().enumerate().map(build).collect())
        })
        .as_deref()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Outputs, scalar outputs, `RunError` payloads, rollback and run
    /// counters of random straight-line leaf loops agree between the native
    /// body and the interpreter, bare and under a `Supervisor`: in range,
    /// too short by a few elements at either end, below zero, entered at
    /// any phase of the tick grant, longer than a stride, and under a fuse
    /// that trips anywhere.
    #[test]
    fn random_leaf_kernels_match_the_interpreter(
        shape in 0usize..6,
        lo_raw in 0u64..13,
        trip_raw in 0u64..2600,
        long_trip in 0u8..4,
        off_raw in 0u64..13,
        slack_raw in 0u64..7,
        c_raw in 0u64..8,
        reps in 1u64..4,
        spin in 0u64..1500,
        fused in 0u8..2,
        fuse_raw in 0u64..10_000,
        calm in 0u8..3,
        seed in 0u64..1000,
    ) {
        let Some(kernels) = compiled_leaf_kernels() else { return Ok(()) };
        let (native, exe) = &kernels[shape];
        let lo = lo_raw as i64 - 6;
        let trip = if long_trip == 0 { trip_raw } else { trip_raw % 40 } as i64;
        let (hi, off, slack) = (lo + trip, off_raw as i64 - 4, slack_raw as i64 - 3);

        let mut binding = Binding::new();
        binding
            .set_scalar("lo", lo)
            .set_scalar("hi", hi)
            .set_scalar("off", off)
            .set_scalar("c", c_raw as i64 - 2)
            .set_scalar("reps", reps as i64)
            .set_scalar("spin", spin as i64);
        // A third of the cases never fire the guard of shape 1.
        let scale = if calm == 0 { 0.5 } else { 1.0 };
        let x = (0..trip.max(1)).map(|k| scale * ((k as u64 * 7919 + seed) % 1000) as f64 / 1000.0);
        binding.set_f64("x", x.collect());
        // `y[yo + i]` and `y[yk]` stay inside `y` whatever the case.
        let y_len = trip.max(1) + 2;
        binding.set_scalar("yo", (seed % 3) as i64 - lo).set_scalar("yk", seed as i64 % y_len);
        binding.set_f64("y", (0..y_len).map(|k| 0.5 + k as f64).collect());
        // Long enough for every store, give or take `slack` elements.
        let out_len = (hi + off.max(0) + slack).max(0) as usize;
        binding.set_f64("out", (0..out_len).map(|k| 1.0 + k as f64).collect());
        binding.set_f64("acc", vec![0.0; 4]);
        binding.set_int("idx", vec![-1; (hi + slack).max(0) as usize]);

        // Half the cases run unlimited; the rest trip a fuse somewhere in
        // (or just past) the run.
        let total = spin + reps * trip as u64;
        let budget = if fused == 0 {
            ResourceBudget::unlimited()
        } else {
            ResourceBudget::unlimited().with_max_loop_iterations(fuse_raw % (total + total / 8 + 2))
        };

        // Unsupervised, the two bodies leave the same state behind whether
        // they commit or stop part-way, and stop for the same reason.
        let mut nb = binding.clone();
        let ran = native.run(&mut nb, &budget, NativeRunOptions::default());
        let mut ib = binding.clone();
        let reference: Result<(), RunError> = exe.run_with_budget(&mut ib, &budget);
        prop_assert_eq!(&ran, &reference);
        prop_assert_eq!(&nb, &ib);
        let bits = |b: &Binding| -> Vec<u64> {
            ["out", "acc"]
                .iter()
                .flat_map(|a| b.f64_array(a).unwrap().iter().map(|v| v.to_bits()))
                .collect()
        };
        prop_assert_eq!(bits(&nb), bits(&ib));

        // Supervised, a commit is those bytes with equal counters and an
        // abort is the pre-run binding, on either body.
        let supervisor = taco_llir::Supervisor::new().with_budget(budget);
        let (mut snb, mut sib) = (binding.clone(), binding.clone());
        match (supervisor.run(native, &mut snb), supervisor.run(exe, &mut sib)) {
            (Ok(n), Ok(i)) => {
                prop_assert!(reference.is_ok());
                prop_assert_eq!((&snb, &sib), (&nb, &ib));
                prop_assert_eq!(n.progress, i.progress);
            }
            (Err(n), Err(i)) => {
                prop_assert!(reference.is_err());
                prop_assert_eq!(n.reason, i.reason);
                prop_assert_eq!(&snb, &binding);
                prop_assert_eq!(&sib, &binding);
            }
            (n, i) => prop_assert!(false, "native {n:?} but interpreter {i:?}"),
        }
    }
}

#[test]
fn supervised_runs_report_the_backend_and_trust_transition() {
    let Some(_cc) = require_cc("supervised_runs_report_the_backend_and_trust_transition") else {
        return;
    };
    let n = 21;
    let stmt = scheduled_spgemm(n);
    let b = random_csr(n, n, 0.2, 61).to_tensor();
    let c = random_csr(n, n, 0.2, 62).to_tensor();
    let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("C", &c)];
    let engine = Engine::builder().backend(Backend::Native).build();
    let supervisor = Supervisor::new();
    let opts = LowerOptions::fused("spgemm");

    // First supervised run is the differential trust check: it commits the
    // interpreter's result, so `native` must read false.
    let first = engine.run_supervised(&stmt, opts.clone(), &supervisor, &inputs, None).unwrap();
    assert!(!first.native, "trust-check run commits the interpreter's result");
    assert_eq!(engine.native_stats().trusted, 1);

    // Second run executes on the now-trusted native kernel.
    let second = engine.run_supervised(&stmt, opts, &supervisor, &inputs, None).unwrap();
    assert!(second.native, "trusted kernel must run natively");
    assert_byte_identical(&first.result, &second.result, "supervised interp vs native");
}

/// An abort is the same abort whichever body ran: the ladder and the serve
/// tier key on its reason and read its counters, so a trusted native kernel
/// stopped by the iteration fuse must report what the interpreter reports
/// for the same trip — not zero progress — and leave the binding as bound.
#[test]
fn a_fuse_trip_aborts_with_the_same_reason_and_counters_on_either_backend() {
    let Some(cc) = require_cc("a_fuse_trip_aborts_with_the_same_reason_and_counters") else {
        return;
    };
    // A one-rung statement (no workspace, compute-only, unscheduled): the
    // abort the engine returns is this kernel's, not a lower rung's.
    let n = 64;
    let a = TensorVar::new("a", vec![n], Format::dvec());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let x = TensorVar::new("x", vec![n], Format::dvec());
    let (i, j) = (iv("i"), iv("j"));
    let stmt = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone()]),
        sum(j.clone(), b.access([i, j.clone()]) * x.access([j])),
    ))
    .unwrap();
    let bt = random_csr(n, n, 0.3, 71).to_tensor();
    let xt = Tensor::from_dense(
        &DenseTensor::from_data(vec![n], (0..n).map(|v| 0.25 * v as f64).collect()),
        Format::dvec(),
    )
    .unwrap();
    let inputs: Vec<(&str, &Tensor)> = vec![("B", &bt), ("x", &xt)];
    let opts = || LowerOptions::compute("fuse_spmv");
    let fuse = 100;
    let tripped = Supervisor::new()
        .with_budget(ResourceBudget::unlimited().with_max_loop_iterations(fuse));

    let abort_on = |backend: Backend| -> Aborted {
        let engine = Engine::builder().backend(backend).build();
        let run = |supervisor: &Supervisor| {
            engine.run_supervised(&stmt, opts(), supervisor, &inputs, None)
        };
        // Two calm runs: the differential check, then a run that shows
        // which body serves the kernel from here on.
        run(&Supervisor::new()).expect("calm run commits");
        let settled = run(&Supervisor::new()).expect("calm run commits");
        assert_eq!(settled.native, backend == Backend::Native);
        assert!(settled.report.progress.iterations > fuse);
        match run(&tripped) {
            Err(EngineError::Core(CoreError::Aborted(aborted))) => aborted,
            other => panic!("{backend}: expected an abort, got {other:?}"),
        }
    };
    let (native, interp) = (abort_on(Backend::Native), abort_on(Backend::Interp));
    assert!(matches!(native.reason, RunError::BudgetExceeded { .. }), "{:?}", native.reason);
    assert_eq!(native.reason, interp.reason);
    assert_eq!(native.progress, interp.progress);
    assert_eq!(native.progress.iterations, fuse, "the spent fuse, not zero progress");

    // The same trip one level down, where the binding is visible.
    let kernel = stmt.compile(opts()).unwrap();
    let so = cc.compile(&emit_native(kernel.executable()).unwrap(), kernel.fingerprint()).unwrap();
    let mut binding = kernel.bind(&inputs, None).unwrap();
    let before = binding.clone();
    let aborted = tripped.run(&so, &mut binding).unwrap_err();
    assert_eq!(aborted.progress, native.progress);
    assert_eq!(binding, before, "a supervised native abort must roll the binding back");
}

/// Asserts every operand array of `binding` is still its tensor's own
/// storage (`Arc::ptr_eq` with what the tensor shares) and holds, bit for
/// bit, what `copies` — deep copies made before any bind — hold.
fn assert_bound_by_reference(
    binding: &mut Binding,
    operands: &[(&str, &Tensor)],
    copies: &[Tensor],
    what: &str,
) {
    for ((name, t), copy) in operands.iter().zip(copies) {
        let shared = t.index_arrays().unwrap();
        for l in 0..t.rank() {
            let levels = [
                (pos_name(name, l), shared.pos(l), copy.pos(l)),
                (crd_name(name, l), shared.crd(l), copy.crd(l)),
            ];
            for (array, tensors, expected) in levels {
                let (Ok(tensors), Ok(expected)) = (tensors, expected) else { continue };
                let Some(ArrayVal::Int(Buf::Shared(bound))) = binding.take(&array) else {
                    panic!("{what}: `{array}` is not bound shared");
                };
                assert!(Arc::ptr_eq(&bound, tensors), "{what}: `{array}` is not the tensor's own");
                assert!(bound.iter().copied().eq(expected.iter().map(|&x| x as i64)), "{what}: `{array}` changed");
            }
        }
        let Some(ArrayVal::F64(Buf::Shared(bound))) = binding.take(name) else {
            panic!("{what}: `{name}` is not bound shared");
        };
        assert!(Arc::ptr_eq(&bound, t.shared_vals()), "{what}: `{name}` is not the tensor's own");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&bound), bits(copy.vals()), "{what}: `{name}` changed");
    }
}

/// Runs `body` (either backend) over fresh bindings of `operands` under
/// `Supervisor::run` three ways — committed, stopped by a 1-iteration fuse,
/// cancelled — and checks each leaves every operand shared and unchanged.
fn every_outcome_shares_operands<B: KernelBody>(
    body: &B,
    kernel: &CompiledKernel,
    operands: &[(&str, &Tensor)],
    copies: &[Tensor],
    backend: &str,
) {
    let fuse = Supervisor::new().with_budget(ResourceBudget::unlimited().with_max_loop_iterations(1));
    let cancelled = Supervisor::new();
    cancelled.cancel_token().cancel();
    for (outcome, supervisor, commits) in
        [("committed", Supervisor::new(), true), ("fuse abort", fuse, false), ("cancelled", cancelled, false)]
    {
        let mut binding = kernel.bind(operands, None).unwrap();
        let run = supervisor.run(body, &mut binding);
        assert_eq!(run.is_ok(), commits, "{backend} {outcome}: {:?}", run.err());
        assert_bound_by_reference(&mut binding, operands, copies, &format!("{backend} {outcome}"));
    }
}

/// Operands are bound by reference on both backends: no run — committed,
/// aborted by the fuse or cancelled — writes an operand or trades its
/// shared storage for a copy.
#[test]
fn operands_stay_shared_and_unchanged_through_every_run_outcome() {
    let Some(cc) = require_cc("operands_stay_shared_and_unchanged_through_every_run_outcome") else {
        return;
    };
    let (di, dk, dl, r) = (24, 20, 16, 8);
    let kernel = workspace_mttkrp(di, dk, dl, r).compile(LowerOptions::compute("shared_mttkrp")).unwrap();
    let so = cc.compile(&emit_native(kernel.executable()).unwrap(), kernel.fingerprint()).unwrap();
    let b = random_csf3([di, dk, dl], 3000, 5).to_tensor();
    let factor = |rows: usize, seed: u64| {
        let data = (0..rows * r).map(|q| ((q as u64 * 31 + seed) % 97) as f64 / 97.0).collect();
        Tensor::from_dense(&DenseTensor::from_data(vec![rows, r], data), Format::dense(2)).unwrap()
    };
    let (c, d) = (factor(dl, 1), factor(dk, 2));
    let operands = [("B", &b), ("C", &c), ("D", &d)];
    let copies: Vec<Tensor> = operands
        .iter()
        .map(|(_, t)| {
            let (shape, format, modes, vals) = (*t).clone().into_parts();
            Tensor::from_parts(shape, format, modes, vals)
        })
        .collect();
    every_outcome_shares_operands(kernel.executable(), &kernel, &operands, &copies, "interp");
    every_outcome_shares_operands(&so, &kernel, &operands, &copies, "native");
}

#[test]
fn interp_backend_never_touches_the_native_pipeline() {
    init_cache();
    let n = 18;
    let stmt = scheduled_spgemm(n);
    let b = random_csr(n, n, 0.2, 63).to_tensor();
    let c = random_csr(n, n, 0.2, 64).to_tensor();
    let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("C", &c)];
    let engine = Engine::builder().backend(Backend::Interp).build();
    engine.run(&stmt, LowerOptions::fused("spgemm"), &inputs).unwrap();
    engine.run(&stmt, LowerOptions::fused("spgemm"), &inputs).unwrap();
    let stats = engine.native_stats();
    assert_eq!(
        (stats.compiled, stats.trusted, stats.rejected, stats.unavailable, stats.native_runs),
        (0, 0, 0, 0, 0),
        "interpreter-pinned engine must never compile natively ({stats:?})"
    );
}

#[test]
fn corrupted_artifact_is_rebuilt_once_and_the_kernel_trusted() {
    let test = "corrupted_artifact_is_rebuilt_once_and_the_kernel_trusted";
    let Some(_cc) = require_cc(test) else { return };
    // A dimension and a name no other test in this binary uses, so the
    // artifact this test corrupts is not one a sibling test may later dlopen.
    let n = 19;
    let stmt = scheduled_spgemm(n);
    let b = random_csr(n, n, 0.2, 65).to_tensor();
    let c = random_csr(n, n, 0.2, 66).to_tensor();
    let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("C", &c)];
    let opts = LowerOptions::fused("poisoned");

    // Populate the on-disk cache, then drop the engine so nothing holds the
    // shared object mapped while we overwrite it.
    let warm = Engine::builder().backend(Backend::Native).build();
    let reference = warm.run(&stmt, opts.clone(), &inputs).unwrap();
    assert_eq!(warm.native_stats().compiled, 1);
    drop(warm);
    assert_eq!(cc_runs("poisoned"), 1);

    let fp = stmt.compile(opts.clone()).unwrap().fingerprint();
    let prefix = format!("k{fp:016x}");
    let cache = taco_native::cache_dir();
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&cache).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.starts_with(&prefix) && name.ends_with(".so") {
            std::fs::write(&path, b"this is not an ELF shared object").unwrap();
            corrupted += 1;
        }
    }
    assert!(corrupted >= 1, "the warm run must have installed an artifact under {cache:?}");

    // A fresh engine finds the corrupted artifact: dlopen fails, the entry
    // is dropped and built again, and the kernel is trusted as if the cache
    // had been cold — not rejected here and in every later engine.
    let engine = Engine::builder().backend(Backend::Native).build();
    let first = engine.run(&stmt, opts.clone(), &inputs).unwrap();
    assert_byte_identical(&reference, &first, "rebuild (trust-check run)");
    assert_eq!(cc_runs("poisoned"), 2, "the poisoned entry is rebuilt exactly once");
    let stats = engine.native_stats();
    assert_eq!((stats.compiled, stats.trusted, stats.unavailable), (1, 1, 0), "{stats:?}");
    assert!(
        engine.last_events().iter().any(|e| matches!(
            e,
            EngineEvent::NativeCompiled { compile_nanos, .. } if *compile_nanos > 0
        )),
        "the rebuild is a compile, not a cache load: {:?}",
        engine.last_events()
    );
    let second = engine.run(&stmt, opts.clone(), &inputs).unwrap();
    assert_byte_identical(&reference, &second, "rebuild (trusted native run)");
    assert_eq!(engine.native_stats().native_runs, 1);

    // The healed entry is an ordinary cache hit for the next engine.
    let later = Engine::builder().backend(Backend::Native).build();
    later.run(&stmt, opts, &inputs).unwrap();
    assert_eq!(cc_runs("poisoned"), 2);
    assert_eq!(later.native_stats().trusted, 1);
}

/// The compiler is counted, not timed: `ci/cc-count.sh` logs every run of
/// it by the kernel it builds. The first build is the probe, and a warm
/// cache needs only the file.
#[test]
fn a_first_reply_runs_the_compiler_once_and_a_restart_not_at_all() {
    let test = "a_first_reply_runs_the_compiler_once_and_a_restart_not_at_all";
    let Some(_cc) = require_cc(test) else { return };
    let n = 23;
    let stmt = scheduled_spgemm(n);
    let b = random_csr(n, n, 0.2, 67).to_tensor();
    let c = random_csr(n, n, 0.2, 68).to_tensor();
    let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("C", &c)];
    let opts = LowerOptions::fused("counted_first_reply");

    let cold = Engine::builder().backend(Backend::Native).build();
    let reference = cold.run(&stmt, opts.clone(), &inputs).unwrap();
    assert_eq!(cold.native_stats().trusted, 1);
    assert_eq!(cc_runs("counted_first_reply"), 1, "one compiler run per cache miss");
    drop(cold);

    let restarted = Engine::builder().backend(Backend::Native).build();
    let first = restarted.run(&stmt, opts.clone(), &inputs).unwrap();
    let second = restarted.run(&stmt, opts, &inputs).unwrap();
    assert_byte_identical(&reference, &first, "restart (trust-check run)");
    assert_byte_identical(&reference, &second, "restart (trusted native run)");
    assert_eq!(cc_runs("counted_first_reply"), 1, "a warm cache never reaches the compiler");
    let stats = restarted.native_stats();
    assert_eq!((stats.compiled, stats.trusted, stats.native_runs), (1, 1, 1), "{stats:?}");
    assert!(
        restarted.last_events().iter().any(|e| matches!(
            e,
            EngineEvent::NativeCompiled { compile_nanos: 0, .. }
        )),
        "the restart loads the artifact: {:?}",
        restarted.last_events()
    );
    // No test of this binary breaks the toolchain, so nothing in this
    // process ever had a build failure to classify.
    assert_eq!(cc_runs("-"), 0, "a working toolchain is never probed");
}

#[test]
fn distinct_kernels_cost_one_compiler_run_each() {
    let Some(_cc) = require_cc("distinct_kernels_cost_one_compiler_run_each") else { return };
    let engine = Engine::builder().backend(Backend::Native).build();
    let kernels = 24;
    for n in 30..30 + kernels {
        let stmt = scheduled_spgemm(n);
        let b = random_csr(n, n, 0.1, 69).to_tensor();
        let c = random_csr(n, n, 0.1, 70).to_tensor();
        engine.run(&stmt, LowerOptions::fused("counted_many"), &[("B", &b), ("C", &c)]).unwrap();
    }
    assert_eq!(cc_runs("counted_many"), kernels);
    let stats = engine.native_stats();
    assert_eq!((stats.compiled, stats.trusted), (kernels as u64, kernels as u64), "{stats:?}");
}
