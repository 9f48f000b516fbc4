//! Native execution backend: compile-and-dlopen for emitted C kernels.
//!
//! The LLIR interpreter is the portable reference executor; this crate is
//! the machine-speed alternative. Given a compiled kernel's [`Executable`],
//! the pipeline is:
//!
//! 1. [`taco_llir::emit_native`] renders a self-contained C translation
//!    unit against the `taco_ctx` table ABI of `taco_kernel.h`, plus an
//!    [`AbiPlan`](taco_llir::AbiPlan) describing how bindings map onto the
//!    context tables.
//! 2. [`NativeCompiler`] looks the kernel up in a content-addressed
//!    on-disk cache keyed by kernel fingerprint + source hash + toolchain
//!    digest + ABI version, and only on a miss invokes the system C
//!    compiler (`$CC`, falling back to `cc`) to build the shared object.
//!    Identical kernels across processes share one artifact, and a process
//!    restarted over a warm cache runs no compiler at all.
//! 3. The shared object is loaded with raw `dlopen`/`dlsym`/`dlclose`
//!    FFI (no crate dependencies) and its exported `taco_abi_version()`
//!    is checked against the host's [`taco_llir::ABI_VERSION`].
//! 4. [`NativeKernel`] is a [`KernelBody`](taco_llir::KernelBody): the run
//!    protocol ([`taco_llir::run_body`], and [`taco_llir::Supervisor::run`]
//!    around it) moves the binding's arrays into a slot frame, and the
//!    kernel's part is to point the context tables at that frame
//!    (zero-copy: the C works directly on the binding's buffers) and call
//!    the fixed `taco_kernel_entry` symbol. [`NativeKernel::run`] is
//!    `run_body` with the kernel as the body.
//!
//! # Supervision and budgets
//!
//! All memory is host-owned. The kernel allocates and grows arrays only
//! through `extern "C"` callbacks, which charge the run's one
//! [`BudgetMeter`](taco_llir::BudgetMeter) — the type the interpreter
//! charges — so budget aborts are byte-identical between backends. The
//! loop-iteration fuse is charged in supervision-stride batches through the
//! poll callback, which then runs the protocol's own
//! [`RunControls::check`](taco_llir::RunControls::check), so a native run
//! aborts on exactly the same iteration count as an interpreted one and
//! honours cancellation within one stride. Validation, rollback and the
//! counters of a report or an abort are not this crate's: they are the
//! protocol's, written once for both bodies.
//!
//! # Failure is degradation, not error
//!
//! Every way this backend can fail to produce a runnable kernel — no C
//! compiler, a broken one, unsupported construct, compile or load error —
//! is an [`NativeError`] the engine converts into a typed fallback to the
//! interpreter, never a user-visible error.

#![warn(missing_docs)]
#![cfg_attr(not(unix), allow(dead_code))]

mod cc;
mod dl;
mod run;

pub use cc::{cache_dir, NativeCompiler};
pub use run::{NativeKernel, NativeRunOptions};

/// Why a native kernel could not be produced or loaded. All variants are
/// recoverable: the engine degrades to the interpreter.
#[derive(Debug, Clone, PartialEq)]
pub enum NativeError {
    /// No working C compiler (`$CC` names no executable, it cannot build
    /// even a trivial shared object, or a platform without `dlopen`).
    Unavailable(String),
    /// The kernel uses a construct with no native equivalent.
    Unsupported(String),
    /// The C compiler rejected the emitted translation unit.
    CompileFailed(String),
    /// The shared object could not be loaded or has a stale ABI.
    LoadFailed(String),
}

impl std::fmt::Display for NativeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NativeError::Unavailable(why) => write!(f, "native backend unavailable: {why}"),
            NativeError::Unsupported(what) => write!(f, "kernel not natively executable: {what}"),
            NativeError::CompileFailed(why) => write!(f, "native compilation failed: {why}"),
            NativeError::LoadFailed(why) => write!(f, "shared object load failed: {why}"),
        }
    }
}

impl std::error::Error for NativeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::OnceLock;
    use std::time::{Duration, Instant, SystemTime};
    use taco_llir::{
        emit_native, Aborted, ArrayTy, Binding, BudgetResource, ExecReport, Executable, Expr,
        Kernel, Param, ResourceBudget, RunError, Stmt, Supervisor, WorkspaceKind,
        LEAF_FAST_PATH_MARKER, SUPERVISION_STRIDE,
    };

    /// A working compiler, or a visible skip marker: resolving `$CC` spawns
    /// nothing, so what shows it works is one trivial build per process.
    fn compiler() -> Option<NativeCompiler> {
        static WORKING: OnceLock<Result<NativeCompiler, NativeError>> = OnceLock::new();
        let working = WORKING.get_or_init(|| {
            let cc = NativeCompiler::from_env()?;
            let trivial = Executable::compile(&Kernel::new("trivial")).unwrap();
            cc.compile(&emit_native(&trivial).unwrap(), 0)?;
            Ok(cc)
        });
        match working {
            Ok(cc) => Some(cc.clone()),
            Err(e) => {
                eprintln!("SKIPPED: {e}; native tests not run");
                None
            }
        }
    }

    /// A shell script standing in for `$CC`, alone in a per-process
    /// directory that also holds its run log: `(script, log)`. The script
    /// appends a line to the log per invocation, then runs `body`.
    fn cc_script(name: &str, body: &str) -> (PathBuf, PathBuf) {
        use std::os::unix::fs::PermissionsExt;
        let dir = std::env::temp_dir().join(format!("taco-cc-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (script, log) = (dir.join("cc.sh"), dir.join("runs.log"));
        let text = format!("#!/bin/sh\necho run >> '{}'\n{body}\n", log.display());
        std::fs::write(&script, text).unwrap();
        std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();
        (script, log)
    }

    fn runs(log: &Path) -> usize {
        std::fs::read_to_string(log).map_or(0, |log| log.lines().count())
    }

    fn with_script(script: &Path) -> NativeCompiler {
        NativeCompiler::with_cc(script.to_str().unwrap()).expect("an executable file resolves")
    }

    fn build(kernel: &Kernel) -> Option<(NativeKernel, Executable)> {
        let cc = compiler()?;
        let exe = Executable::compile(kernel).unwrap();
        let src = emit_native(&exe).unwrap();
        let native = cc.compile(&src, 0xfee1_dead).expect("kernel compiles");
        Some((native, exe))
    }

    fn scale_kernel() -> Kernel {
        Kernel::new("scale")
            .scalar_param("n")
            .array_param(Param::input("x", ArrayTy::F64))
            .array_param(Param::output("out", ArrayTy::F64))
            .body(vec![Stmt::for_(
                "i",
                Expr::int(0),
                Expr::var("n"),
                vec![Stmt::store(
                    "out",
                    Expr::var("i"),
                    Expr::float(2.0) * Expr::load("x", Expr::var("i")),
                )],
            )])
    }

    #[test]
    fn native_matches_interpreter_on_scale() {
        let Some((native, exe)) = build(&scale_kernel()) else { return };
        let mut nb = Binding::new();
        nb.set_scalar("n", 4);
        nb.set_f64("x", vec![1.0, 2.5, -3.0, 0.5]);
        nb.set_f64("out", vec![0.0; 4]);
        let mut ib = Binding::new();
        ib.set_scalar("n", 4);
        ib.set_f64("x", vec![1.0, 2.5, -3.0, 0.5]);
        ib.set_f64("out", vec![0.0; 4]);

        let report = Supervisor::new().run(&native, &mut nb).expect("native run");
        exe.run(&mut ib).expect("interp run");
        assert_eq!(nb.f64_array("out").unwrap(), ib.f64_array("out").unwrap());
        assert_eq!(report.progress.iterations, 4);
    }

    #[test]
    fn iteration_fuse_aborts_identically() {
        let Some((native, exe)) = build(&scale_kernel()) else { return };
        let budget = ResourceBudget::unlimited().with_max_loop_iterations(3);
        let mut nb = Binding::new();
        nb.set_scalar("n", 100);
        nb.set_f64("x", vec![1.0; 100]);
        nb.set_f64("out", vec![0.0; 100]);
        let mut ib = Binding::new();
        ib.set_scalar("n", 100);
        ib.set_f64("x", vec![1.0; 100]);
        ib.set_f64("out", vec![0.0; 100]);

        let ne = native.run(&mut nb, &budget, NativeRunOptions::default()).unwrap_err();
        let ie = exe.run_with_budget(&mut ib, &budget).unwrap_err();
        assert_eq!(ne, ie, "budget abort payloads must be byte-identical");
        match ne {
            RunError::BudgetExceeded { resource, limit, requested, .. } => {
                assert_eq!(resource, BudgetResource::LoopIterations);
                assert_eq!((limit, requested), (3, 4));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    /// `out[off + i] = 2 * x[i]` for `i` in `[0, n)`: a straight-line leaf
    /// loop whose store index is `inv + loopvar`.
    fn offset_scale_kernel() -> Kernel {
        Kernel::new("offset_scale")
            .scalar_param("n")
            .scalar_param("off")
            .array_param(Param::input("x", ArrayTy::F64))
            .array_param(Param::output("out", ArrayTy::F64))
            .body(vec![Stmt::for_(
                "i",
                Expr::int(0),
                Expr::var("n"),
                vec![Stmt::store(
                    "out",
                    Expr::var("off") + Expr::var("i"),
                    Expr::float(2.0) * Expr::load("x", Expr::var("i")),
                )],
            )])
    }

    fn offset_scale_binding(n: usize, off: i64, out_len: usize) -> Binding {
        let mut b = Binding::new();
        b.set_scalar("n", n as i64).set_scalar("off", off);
        b.set_f64("x", (0..n).map(|i| i as f64 + 0.5).collect());
        b.set_f64("out", vec![-1.0; out_len]);
        b
    }

    /// Runs `binding` on both bodies under `budget`, bare and supervised.
    /// The bare runs must leave byte-identical bindings, committed or
    /// partial; the supervised runs must commit the same bytes and counters
    /// or abort for the same reason with the binding rolled back. Gives each
    /// side's iteration count, or its bare run's error.
    fn run_both(
        native: &NativeKernel,
        exe: &Executable,
        binding: &Binding,
        budget: &ResourceBudget,
    ) -> (Result<u64, RunError>, Result<u64, RunError>) {
        let mut nb = binding.clone();
        let n = native.run(&mut nb, budget, NativeRunOptions::default());
        let mut ib = binding.clone();
        let i = exe.run_with_budget(&mut ib, budget);
        assert_eq!(nb, ib, "unsupervised runs must leave the same state, committed or partial");

        let supervisor = Supervisor::new().with_budget(*budget);
        let (mut snb, mut sib) = (binding.clone(), binding.clone());
        let sn = supervisor.run(native, &mut snb);
        let si = supervisor.run(exe, &mut sib);
        match (&sn, &si) {
            (Ok(sn), Ok(si)) => {
                assert_eq!((&snb, &sib), (&nb, &ib), "supervision must not change the result");
                assert_eq!(sn.progress, si.progress, "committed counters must agree");
            }
            (Err(sn), Err(si)) => {
                assert_eq!(&snb, binding, "an aborted native run must roll the binding back");
                assert_eq!(&sib, binding, "an aborted interpreter run must roll the binding back");
                assert_eq!(sn.reason, si.reason);
            }
            _ => panic!("one body committed and the other aborted: {sn:?} / {si:?}"),
        }
        let iterations = |supervised: Result<ExecReport, Aborted>| {
            supervised.expect("the bare run succeeded").progress.iterations
        };
        (n.map(|()| iterations(sn)), i.map(|()| iterations(si)))
    }

    #[test]
    fn leaf_loops_are_versioned_only_when_their_store_checks_hoist() {
        let leaf = |body: Vec<Stmt>| {
            let kernel = Kernel::new("shape")
                .scalar_param("n")
                .array_param(Param::input("x", ArrayTy::Int))
                .array_param(Param::output("out", ArrayTy::Int))
                .body(vec![
                    Stmt::DeclInt("p".into(), Expr::int(0)),
                    Stmt::for_("i", Expr::int(0), Expr::var("n"), body),
                ]);
            let exe = Executable::compile(&kernel).unwrap();
            emit_native(&exe).unwrap().c_source.matches(LEAF_FAST_PATH_MARKER).count()
        };
        let i = || Expr::var("i");
        assert_eq!(leaf(vec![Stmt::store("out", i(), Expr::load("x", i()))]), 1);
        assert_eq!(leaf(vec![Stmt::store("out", Expr::var("p") + i(), i())]), 1);
        // The body assigns its own loop variable.
        assert_eq!(
            leaf(vec![Stmt::store("out", i(), i()), Stmt::Assign("i".into(), i() + Expr::int(1))]),
            0
        );
        // The store index is a slot the body assigns.
        assert_eq!(leaf(vec![Stmt::store("out", Expr::var("p"), i()), Stmt::incr("p")]), 0);
        // The store index is loaded, or not `inv + loopvar`.
        assert_eq!(leaf(vec![Stmt::store("out", Expr::load("x", i()), i())]), 0);
        assert_eq!(leaf(vec![Stmt::store("out", i() * Expr::int(2), i())]), 0);
        // The body can fault, or is not a leaf.
        assert_eq!(leaf(vec![Stmt::store("out", i(), i() / Expr::var("n"))]), 0);
        assert_eq!(
            leaf(vec![Stmt::for_("j", Expr::int(0), i(), vec![Stmt::store("out", i(), i())])]),
            1,
            "only the inner loop is a leaf"
        );
    }

    #[test]
    fn unversioned_bodies_still_match_the_interpreter() {
        // `out[p] = i; p += 2; i += 1`: assigns its loop variable and
        // indexes with a slot it assigns, so it is emitted unversioned.
        let kernel = Kernel::new("stride")
            .scalar_param("n")
            .array_param(Param::output("out", ArrayTy::Int))
            .body(vec![
                Stmt::DeclInt("p".into(), Expr::int(0)),
                Stmt::for_(
                    "i",
                    Expr::int(0),
                    Expr::var("n"),
                    vec![
                        Stmt::store("out", Expr::var("p"), Expr::var("i")),
                        Stmt::Assign("p".into(), Expr::var("p") + Expr::int(2)),
                        Stmt::Assign("i".into(), Expr::var("i") + Expr::int(1)),
                    ],
                ),
            ]);
        let Some((native, exe)) = build(&kernel) else { return };
        let src = emit_native(&exe).unwrap().c_source;
        assert!(!src.contains(LEAF_FAST_PATH_MARKER), "{src}");
        for out_len in [20, 7] {
            let mut b = Binding::new();
            b.set_scalar("n", 10);
            b.set_int("out", vec![-1; out_len]);
            let (n, i) = run_both(&native, &exe, &b, &ResourceBudget::unlimited());
            assert_eq!(n, i);
            assert_eq!(n.is_ok(), out_len == 20);
        }
    }

    #[test]
    fn out_of_bounds_store_inside_a_leaf_loop_faults_like_the_interpreter() {
        let Some((native, exe)) = build(&offset_scale_kernel()) else { return };
        let unlimited = ResourceBudget::unlimited();
        // `out` shorter than `n`: the fault is at the first element past
        // the end, not at loop entry.
        let (n, i) = run_both(&native, &exe, &offset_scale_binding(100, 0, 60), &unlimited);
        assert_eq!(n, i);
        assert_eq!(n, Err(RunError::OutOfBounds { name: "out".into(), idx: 60, len: 60 }));
        // `inv` negative: the very first store is below the array.
        let (n, i) = run_both(&native, &exe, &offset_scale_binding(100, -3, 200), &unlimited);
        assert_eq!(n, i);
        assert_eq!(n, Err(RunError::OutOfBounds { name: "out".into(), idx: -3, len: 200 }));
        // The last element is the only one out of range.
        let (n, i) = run_both(&native, &exe, &offset_scale_binding(100, 5, 104), &unlimited);
        assert_eq!(n, i);
        assert_eq!(n, Err(RunError::OutOfBounds { name: "out".into(), idx: 104, len: 104 }));
        // A fuse that trips before the faulting element wins, as it does
        // in the interpreter.
        let fuse = ResourceBudget::unlimited().with_max_loop_iterations(40);
        let (n, i) = run_both(&native, &exe, &offset_scale_binding(100, 0, 60), &fuse);
        assert_eq!(n, i);
        assert!(matches!(n, Err(RunError::BudgetExceeded { .. })), "{n:?}");
        // In range with an offset: committed and byte-identical.
        let (n, i) = run_both(&native, &exe, &offset_scale_binding(100, 5, 105), &unlimited);
        assert_eq!((n, i), (Ok(100), Ok(100)));
    }

    #[test]
    fn leaf_loop_iteration_counts_match_the_interpreter() {
        let Some((native, exe)) = build(&offset_scale_kernel()) else { return };
        let stride = SUPERVISION_STRIDE as usize;
        for trips in [0, 1, stride - 1, stride, stride + 1, 100_000] {
            let b = offset_scale_binding(trips, 2, trips + 2);
            let (n, i) = run_both(&native, &exe, &b, &ResourceBudget::unlimited());
            assert_eq!(n, Ok(trips as u64), "{trips} trips");
            assert_eq!(n, i, "{trips} trips");
        }
    }

    #[test]
    fn fuse_trips_inside_a_strip_mined_leaf_loop_at_the_interpreters_iteration() {
        let Some((native, exe)) = build(&offset_scale_kernel()) else { return };
        let b = offset_scale_binding(5000, 0, 5000);
        for limit in [1500, 1023, 1024, 1025, 4999] {
            let budget = ResourceBudget::unlimited().with_max_loop_iterations(limit);
            let (n, i) = run_both(&native, &exe, &b, &budget);
            assert_eq!(n, i, "fuse {limit}");
            match n {
                Err(RunError::BudgetExceeded { resource, limit: l, requested, .. }) => {
                    assert_eq!(resource, BudgetResource::LoopIterations);
                    assert_eq!((l, requested), (limit, limit + 1));
                }
                other => panic!("fuse {limit}: {other:?}"),
            }
        }
        let exact = ResourceBudget::unlimited().with_max_loop_iterations(5000);
        assert_eq!(run_both(&native, &exe, &b, &exact), (Ok(5000), Ok(5000)));
    }

    #[test]
    fn cancellation_inside_a_leaf_loop_is_observed_within_one_stride() {
        let Some((native, exe)) = build(&scale_kernel()) else { return };
        assert!(emit_native(&exe).unwrap().c_source.contains(LEAF_FAST_PATH_MARKER));
        let cancel = AtomicBool::new(true);
        let mut nb = Binding::new();
        nb.set_scalar("n", 1_000_000);
        nb.set_f64("x", vec![0.0; 1_000_000]);
        nb.set_f64("out", vec![0.0; 1_000_000]);
        // Each poll charges the elapsed stride before it looks at the
        // flag, so under this fuse only the first poll can report the
        // cancellation: a second one would trip the fuse instead.
        let fuse = u64::from(SUPERVISION_STRIDE) * 2 - 1;
        let err = native
            .run(
                &mut nb,
                &ResourceBudget::unlimited().with_max_loop_iterations(fuse),
                NativeRunOptions { cancel: Some(&cancel), ..Default::default() },
            )
            .unwrap_err();
        assert_eq!(err, RunError::Cancelled);
    }

    #[test]
    fn artifacts_are_keyed_by_the_toolchain() {
        let Some(cc) = compiler() else { return };
        // Two more "compilers": the same one behind two wrappers.
        let passthrough = format!("exec '{}' \"$@\"", cc.cc().display());
        let (one, _) = cc_script("key-one", &passthrough);
        let (two, _) = cc_script("key-two", &passthrough);
        let exe = Executable::compile(&scale_kernel()).unwrap();
        let src = emit_native(&exe).unwrap();
        let a = with_script(&one).compile(&src, 0xc0de_0001).expect("first wrapper");
        let b = with_script(&two).compile(&src, 0xc0de_0001).expect("second wrapper");
        assert_ne!(a.so_path(), b.so_path(), "two compilers must not share an artifact");

        // An upgrade behind the same name: same path, same length, new mtime.
        let upgraded = SystemTime::now() + Duration::from_secs(7);
        std::fs::File::options().write(true).open(&one).unwrap().set_modified(upgraded).unwrap();
        let c = with_script(&one).compile(&src, 0xc0de_0001).expect("upgraded wrapper");
        assert_ne!(a.so_path(), c.so_path(), "an upgraded compiler must not reuse old objects");
        assert!(c.compile_nanos > 0);

        let mut binding = Binding::new();
        binding.set_scalar("n", 37);
        binding.set_f64("x", (0..37).map(|i| 0.1 * i as f64).collect());
        binding.set_f64("out", vec![0.0; 37]);
        for native in [&a, &b, &c] {
            assert!(native.so_path().exists());
            let (n, i) = run_both(native, &exe, &binding, &ResourceBudget::unlimited());
            assert_eq!((n, i), (Ok(37), Ok(37)));
            let _ = std::fs::remove_file(native.so_path());
        }
        for script in [one, two] {
            let _ = std::fs::remove_dir_all(script.parent().unwrap());
        }
    }

    #[test]
    fn the_first_build_is_the_probe_and_a_warm_cache_needs_no_compiler() {
        let Some(cc) = compiler() else { return };
        let (script, log) = cc_script("count", &format!("exec '{}' \"$@\"", cc.cc().display()));
        let exe = Executable::compile(&scale_kernel()).unwrap();
        let src = emit_native(&exe).unwrap();

        let cold = with_script(&script);
        assert_eq!(runs(&log), 0, "resolving a compiler spawns nothing");
        let first = cold.compile(&src, 0xc0de_0002).expect("cold build");
        assert_eq!(runs(&log), 1, "one compiler run per cache miss, no probe beside it");
        assert!(first.compile_nanos > 0);

        // A restart: a new compiler value over the now-warm cache.
        let second = with_script(&script).compile(&src, 0xc0de_0002).expect("warm load");
        assert_eq!(runs(&log), 1, "a warm cache needs only the file");
        assert_eq!(second.compile_nanos, 0);
        assert_eq!(first.so_path(), second.so_path());

        let _ = std::fs::remove_file(first.so_path());
        let _ = std::fs::remove_dir_all(script.parent().unwrap());
    }

    #[test]
    fn writable_arrays_roll_back_on_a_supervised_abort_with_the_interpreters_counters() {
        let Some((native, exe)) = build(&scale_kernel()) else { return };
        let budget = ResourceBudget::unlimited().with_max_loop_iterations(2);
        let supervisor = Supervisor::new().with_budget(budget);
        let mut nb = Binding::new();
        nb.set_scalar("n", 10);
        nb.set_f64("x", vec![1.0; 10]);
        nb.set_f64("out", vec![9.0; 10]);
        let before = nb.clone();
        let native_abort = supervisor.run(&native, &mut nb).unwrap_err();
        assert_eq!(nb, before, "aborted native run must leave the binding untouched");
        let interp_abort = supervisor.run(&exe, &mut nb).unwrap_err();
        assert_eq!(nb, before);
        assert_eq!(native_abort.reason, interp_abort.reason);
        assert_eq!(native_abort.progress, interp_abort.progress);
        assert_eq!(native_abort.progress.iterations, 2, "the fuse was spent, not zero progress");
    }

    #[test]
    fn cancellation_observed_within_a_stride() {
        let Some((native, _)) = build(&scale_kernel()) else { return };
        let cancel = AtomicBool::new(true);
        let mut nb = Binding::new();
        nb.set_scalar("n", 1_000_000);
        nb.set_f64("x", vec![0.0; 1_000_000]);
        nb.set_f64("out", vec![0.0; 1_000_000]);
        let err = native
            .run(
                &mut nb,
                &ResourceBudget::unlimited(),
                NativeRunOptions { cancel: Some(&cancel), ..Default::default() },
            )
            .unwrap_err();
        assert_eq!(err, RunError::Cancelled);
        assert!(cancel.load(Ordering::Relaxed));
    }

    #[test]
    fn expired_deadline_aborts() {
        let Some((native, _)) = build(&scale_kernel()) else { return };
        let mut nb = Binding::new();
        nb.set_scalar("n", 1_000_000);
        nb.set_f64("x", vec![0.0; 1_000_000]);
        nb.set_f64("out", vec![0.0; 1_000_000]);
        let start = Instant::now() - Duration::from_millis(50);
        let err = native
            .run(
                &mut nb,
                &ResourceBudget::unlimited(),
                NativeRunOptions {
                    deadline: Some((start, Duration::from_millis(1))),
                    ..Default::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, RunError::DeadlineExceeded { .. }), "{err:?}");
    }

    #[test]
    fn map_workspace_matches_interpreter() {
        // Scatter with duplicate keys, drain sorted into the output —
        // exercises map init/scatter/drain and the hidden backing slots.
        let kernel = Kernel::new("ws")
            .scalar_param("n")
            .array_param(Param::input("keys", ArrayTy::Int))
            .array_param(Param::input("vals", ArrayTy::F64))
            .array_param(Param::output("out", ArrayTy::F64))
            .body(vec![
                Stmt::WsInit {
                    ws: "w".into(),
                    kind: WorkspaceKind::Hash,
                    ty: ArrayTy::F64,
                    extent: Expr::int(2),
                },
                Stmt::for_(
                    "i",
                    Expr::int(0),
                    Expr::var("n"),
                    vec![Stmt::WsScatter {
                        ws: "w".into(),
                        key: Expr::load("keys", Expr::var("i")),
                        val: Expr::load("vals", Expr::var("i")),
                        add: true,
                    }],
                ),
                Stmt::WsDrain {
                    ws: "w".into(),
                    key: "k".into(),
                    val: "v".into(),
                    sorted: true,
                    body: vec![Stmt::store_add("out", Expr::var("k"), Expr::var("v"))],
                },
            ]);
        let Some((native, exe)) = build(&kernel) else { return };
        let keys = vec![7i64, 3, 7, 0, 3, 7];
        let vals = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let mut nb = Binding::new();
        nb.set_scalar("n", 6);
        nb.set_int("keys", keys.clone());
        nb.set_f64("vals", vals.clone());
        nb.set_f64("out", vec![0.0; 8]);
        let mut ib = Binding::new();
        ib.set_scalar("n", 6);
        ib.set_int("keys", keys);
        ib.set_f64("vals", vals);
        ib.set_f64("out", vec![0.0; 8]);
        native
            .run(&mut nb, &ResourceBudget::unlimited(), NativeRunOptions::default())
            .expect("native");
        exe.run(&mut ib).expect("interp");
        assert_eq!(nb.f64_array("out").unwrap(), ib.f64_array("out").unwrap());
    }

    #[test]
    fn division_by_zero_is_a_typed_fault() {
        let kernel = Kernel::new("div")
            .scalar_param("n")
            .array_param(Param::output("out", ArrayTy::Int))
            .body(vec![Stmt::store(
                "out",
                Expr::int(0),
                Expr::int(1) / Expr::var("n"),
            )]);
        let Some((native, exe)) = build(&kernel) else { return };
        let mut nb = Binding::new();
        nb.set_scalar("n", 0);
        nb.set_int("out", vec![0]);
        let mut ib = Binding::new();
        ib.set_scalar("n", 0);
        ib.set_int("out", vec![0]);
        let ne = native
            .run(&mut nb, &ResourceBudget::unlimited(), NativeRunOptions::default())
            .unwrap_err();
        let ie = exe.run(&mut ib).unwrap_err();
        assert_eq!(ne, ie);
        assert_eq!(ne, RunError::DivisionByZero);
    }

    #[test]
    fn out_of_bounds_store_is_a_typed_fault_not_memory_corruption() {
        let kernel = Kernel::new("oob")
            .scalar_param("n")
            .array_param(Param::output("out", ArrayTy::F64))
            .body(vec![Stmt::store("out", Expr::var("n"), Expr::float(1.0))]);
        let Some((native, exe)) = build(&kernel) else { return };
        let mut nb = Binding::new();
        nb.set_scalar("n", 99);
        nb.set_f64("out", vec![0.0; 4]);
        let mut ib = Binding::new();
        ib.set_scalar("n", 99);
        ib.set_f64("out", vec![0.0; 4]);
        let ne = native
            .run(&mut nb, &ResourceBudget::unlimited(), NativeRunOptions::default())
            .unwrap_err();
        let ie = exe.run(&mut ib).unwrap_err();
        assert_eq!(ne, ie);
    }

    #[test]
    fn scalar_outputs_commit_only_on_success() {
        let kernel = Kernel::new("count")
            .scalar_param("n")
            .array_param(Param::input("x", ArrayTy::F64))
            .scalar_output("nnz")
            .body(vec![
                Stmt::DeclInt("nnz".into(), Expr::int(0)),
                Stmt::for_(
                    "i",
                    Expr::int(0),
                    Expr::var("n"),
                    vec![Stmt::if_(
                        Expr::load("x", Expr::var("i")).ne(Expr::float(0.0)),
                        vec![Stmt::incr("nnz")],
                    )],
                ),
            ]);
        let Some((native, exe)) = build(&kernel) else { return };
        let mut nb = Binding::new();
        nb.set_scalar("n", 5);
        nb.set_f64("x", vec![1.0, 0.0, 2.0, 0.0, 3.0]);
        let mut ib = Binding::new();
        ib.set_scalar("n", 5);
        ib.set_f64("x", vec![1.0, 0.0, 2.0, 0.0, 3.0]);
        native
            .run(&mut nb, &ResourceBudget::unlimited(), NativeRunOptions::default())
            .expect("native");
        exe.run(&mut ib).expect("interp");
        assert_eq!(nb.scalar_output("nnz"), Some(3));
        assert_eq!(nb.scalar_output("nnz"), ib.scalar_output("nnz"));
    }

    #[test]
    fn allocation_budget_aborts_identically() {
        let kernel = Kernel::new("alloc")
            .scalar_param("n")
            .array_param(Param::output("out", ArrayTy::F64))
            .body(vec![
                Stmt::Alloc { arr: "w".into(), ty: ArrayTy::F64, len: Expr::var("n") },
                Stmt::store("out", Expr::int(0), Expr::load("w", Expr::int(0))),
            ]);
        let Some((native, exe)) = build(&kernel) else { return };
        let budget = ResourceBudget::unlimited().with_max_workspace_bytes(64);
        let mk = || {
            let mut b = Binding::new();
            b.set_scalar("n", 100);
            b.set_f64("out", vec![0.0]);
            b
        };
        let mut nb = mk();
        let mut ib = mk();
        let ne = native.run(&mut nb, &budget, NativeRunOptions::default()).unwrap_err();
        let ie = exe.run_with_budget(&mut ib, &budget).unwrap_err();
        assert_eq!(ne, ie, "one meter type must make backends agree on budget aborts");
    }

    #[test]
    fn missing_compiler_is_unavailable() {
        let err = NativeCompiler::with_cc("/nonexistent/definitely-not-a-compiler")
            .expect_err("a path that names no file must not resolve");
        assert!(matches!(err, NativeError::Unavailable(_)), "{err:?}");
    }

    #[test]
    fn compile_cache_hits_on_second_build() {
        let Some(cc) = compiler() else { return };
        let exe = Executable::compile(&scale_kernel()).unwrap();
        let src = emit_native(&exe).unwrap();
        let fp = 0xabcd_0001u64;
        // The cache is content-addressed and shared across processes, so a
        // previous test run may have left the artifact behind; evict it so
        // the first build below is a genuine compile.
        if let Ok(entries) = std::fs::read_dir(cache_dir()) {
            let prefix = format!("k{fp:016x}");
            for entry in entries.flatten() {
                if entry.file_name().to_string_lossy().starts_with(&prefix) {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        let first = cc.compile(&src, fp).expect("first build");
        let second = cc.compile(&src, fp).expect("cache hit");
        assert!(first.compile_nanos > 0);
        assert_eq!(second.compile_nanos, 0, "cache hit must skip the compiler");
    }
}
