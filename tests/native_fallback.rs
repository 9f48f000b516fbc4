//! Toolchain-failure degradation: whatever is wrong with `$CC` — it does
//! not exist, it exists and cannot build, it rejects one kernel, it writes
//! garbage, it vanishes after it was resolved — a native-pinned engine must
//! still complete every run on the interpreter, with one typed
//! [`FallbackEvent::NativeUnavailable`] per kernel, and a broken toolchain
//! must cost a bounded number of compiler runs per engine, never one per
//! kernel. The runs are counted by `ci/cc-count.sh`, not timed.
//!
//! This lives in its own test binary because it poisons the process-wide
//! `CC` environment variable; sibling native tests run in other processes.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use taco_llir::{emit_native, Executable, Kernel};
use taco_native::{NativeCompiler, NativeError};
use taco_tensor::gen::random_csr;
use taco_workspaces::prelude::*;

/// `$CC`, `$PATH` and the cache directory are process-wide: one test at a
/// time, each in a scratch directory of its own.
struct Toolchain {
    dir: PathBuf,
    _env: MutexGuard<'static, ()>,
}

impl Toolchain {
    fn new(test: &str) -> Toolchain {
        static ENV: Mutex<()> = Mutex::new(());
        let env = ENV.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let dir = std::env::temp_dir().join(format!("taco-native-{test}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("TACO_NATIVE_CACHE", dir.join("cache"));
        Toolchain { dir, _env: env }
    }

    /// An executable shell script in the scratch directory.
    fn script(&self, name: &str, body: &str) -> String {
        use std::os::unix::fs::PermissionsExt;
        let path = self.dir.join(name);
        std::fs::write(&path, format!("#!/bin/sh\n{body}\n")).unwrap();
        std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
        path.to_str().unwrap().to_string()
    }

    /// Points `$CC` at the counting wrapper around `real`.
    fn count(&self, real: &str) {
        std::env::set_var("CC_COUNT_CC", real);
        std::env::set_var("CC_COUNT_LOG", self.dir.join("cc.log"));
        std::env::set_var("CC", concat!(env!("CARGO_MANIFEST_DIR"), "/ci/cc-count.sh"));
    }

    /// Compiler runs so far, as the kernel names they built (`-`: the probe).
    fn runs(&self) -> Vec<String> {
        let log = std::fs::read_to_string(self.dir.join("cc.log")).unwrap_or_default();
        log.lines().map(str::to_string).collect()
    }
}

impl Drop for Toolchain {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Figure 2 SpGEMM over `n`×`n` CSR matrices with its operands.
fn spgemm(n: usize) -> (IndexStmt, Tensor, Tensor) {
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
    (stmt, random_csr(n, n, 0.2, 71).to_tensor(), random_csr(n, n, 0.2, 72).to_tensor())
}

/// Runs SpGEMM kernels of the given sizes on `engine`, asserting each
/// result is the interpreter's.
fn run_all(engine: &Engine, sizes: &[usize]) {
    let interp = Engine::builder().backend(Backend::Interp).build();
    for &n in sizes {
        let (stmt, b, c) = spgemm(n);
        let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("C", &c)];
        // The run must commit the interpreter's result, not error out.
        let got = engine.run(&stmt, LowerOptions::fused("spgemm"), &inputs).unwrap();
        let reference = interp.run(&stmt, LowerOptions::fused("spgemm"), &inputs).unwrap();
        assert_eq!(got, reference, "fallback run must match the interpreter exactly (n={n})");
    }
}

/// The reasons of the engine's `NativeUnavailable` events, in order.
fn unavailable_reasons(engine: &Engine) -> Vec<String> {
    let reason = |e: &EngineEvent| match e {
        EngineEvent::Fallback(FallbackEvent::NativeUnavailable { reason }) => Some(reason.clone()),
        _ => None,
    };
    engine.last_events().iter().filter_map(reason).collect()
}

/// Asserts `engine` fell back once per kernel of `kernels` and never ran,
/// compiled or trusted anything natively.
fn assert_all_fell_back(engine: &Engine, kernels: usize) {
    let stats = engine.native_stats();
    assert_eq!(stats.unavailable, kernels as u64, "one fallback per kernel ({stats:?})");
    assert_eq!((stats.compiled, stats.trusted, stats.native_runs), (0, 0, 0), "{stats:?}");
    let events = engine.last_events();
    assert_eq!(unavailable_reasons(engine).len(), kernels, "typed events: {events:?}");
    // The Display form is what operators grep for in logs.
    assert!(
        events.iter().any(|e| e.to_string().contains("native backend unavailable")),
        "fallback event must render greppably: {events:?}"
    );
}

#[test]
fn missing_toolchain_degrades_to_interpreter_with_typed_fallback() {
    let _toolchain = Toolchain::new("nocc");
    std::env::set_var("CC", "/nonexistent-taco-cc");

    let engine = Engine::builder().backend(Backend::Native).build();
    run_all(&engine, &[20]);
    assert_all_fell_back(&engine, 1);

    // Further runs reuse the cached rejection: no second resolution, no
    // second fallback event for the same kernel, still correct results.
    run_all(&engine, &[20]);
    assert_eq!(engine.native_stats().unavailable, 1, "rejection must be cached per kernel");
}

#[test]
fn a_present_but_broken_compiler_costs_two_runs_however_many_kernels() {
    let toolchain = Toolchain::new("broken");
    toolchain.count(&toolchain.script("false.sh", "exit 1"));

    let engine = Engine::builder().backend(Backend::Native).build();
    run_all(&engine, &[20, 21, 22]);
    assert_all_fell_back(&engine, 3);
    // The first kernel's build and the probe that condemns the toolchain;
    // the other two kernels spawn nothing.
    assert_eq!(toolchain.runs(), ["spgemm", "-"]);
    for reason in unavailable_reasons(&engine) {
        assert!(reason.contains("no working C compiler"), "{reason}");
    }
}

#[test]
fn a_rejected_kernel_does_not_condemn_the_compiler() {
    let toolchain = Toolchain::new("picky");
    let Ok(real) = NativeCompiler::with_cc("cc") else {
        eprintln!("SKIPPED a_rejected_kernel_does_not_condemn_the_compiler: no `cc` on PATH");
        return;
    };
    // Builds anything but a kernel: the probe passes, every kernel fails.
    let picky = format!(
        "for a in \"$@\"; do\n\
         case \"$a\" in *.c) grep -q taco_kernel_entry \"$a\" && exit 1;; esac\n\
         done\n\
         exec '{}' \"$@\"",
        real.cc().display()
    );
    toolchain.count(&toolchain.script("picky.sh", &picky));

    let engine = Engine::builder().backend(Backend::Native).build();
    run_all(&engine, &[20, 21]);
    assert_all_fell_back(&engine, 2);
    // The second kernel is attempted: its failure is its own.
    assert_eq!(toolchain.runs(), ["spgemm", "-", "spgemm"]);
    for reason in unavailable_reasons(&engine) {
        assert!(reason.contains("native compilation failed"), "{reason}");
    }
}

#[test]
fn a_poisoned_artifact_and_a_compiler_that_writes_garbage_end_after_two_builds() {
    let toolchain = Toolchain::new("garbage");
    // Exits 0 having written garbage to `-o`.
    let garbage = "while [ $# -gt 1 ]; do [ \"$1\" = -o ] && echo garbage > \"$2\"; shift; done";
    toolchain.count(&toolchain.script("garbage.sh", garbage));

    // The first engine's build poisons the cache; the second engine drops
    // the poisoned entry, rebuilds it once, and stops there.
    for builds in [1, 2] {
        let engine = Engine::builder().backend(Backend::Native).build();
        run_all(&engine, &[20]);
        run_all(&engine, &[20]);
        assert_all_fell_back(&engine, 1);
        assert!(unavailable_reasons(&engine)[0].contains("shared object load failed"));
        assert_eq!(toolchain.runs().len(), builds, "{:?}", toolchain.runs());
    }
}

#[test]
fn a_compiler_deleted_after_it_was_resolved_is_unavailable_not_a_panic() {
    let toolchain = Toolchain::new("deleted");
    let script = toolchain.script("gone.sh", "exit 0");
    let cc = NativeCompiler::with_cc(&script).expect("an executable file resolves");
    std::fs::remove_file(&script).unwrap();
    let trivial = Executable::compile(&Kernel::new("trivial")).unwrap();
    let err = cc.compile(&emit_native(&trivial).unwrap(), 0).unwrap_err();
    assert!(matches!(err, NativeError::Unavailable(_)), "{err:?}");
}

#[test]
fn cc_is_resolved_like_exec_would() {
    let toolchain = Toolchain::new("resolve");
    let script = toolchain.script("taco-test-cc", "exit 0");
    let plain = toolchain.dir.join("not-executable");
    std::fs::write(&plain, "#!/bin/sh\nexit 0\n").unwrap();

    // A bare name goes through `$PATH`; a path does not.
    let path = std::env::var_os("PATH").unwrap_or_default();
    let mut dirs = vec![toolchain.dir.clone()];
    dirs.extend(std::env::split_paths(&path));
    std::env::set_var("PATH", std::env::join_paths(dirs).unwrap());
    std::env::set_var("CC", "taco-test-cc");
    let resolved = NativeCompiler::from_env().map(|cc| cc.cc().to_path_buf());
    std::env::set_var("PATH", path);
    assert_eq!(resolved, Ok(PathBuf::from(script)));
    let unresolved = NativeCompiler::from_env().expect_err("no longer on $PATH");
    assert!(matches!(unresolved, NativeError::Unavailable(_)), "{unresolved:?}");

    // A file that is there but cannot be executed is refused right away,
    // as is a directory.
    for not_a_compiler in [plain, toolchain.dir.clone()] {
        let err = NativeCompiler::with_cc(not_a_compiler.to_str().unwrap()).unwrap_err();
        assert!(matches!(err, NativeError::Unavailable(_)), "{err:?}");
    }
}
