//! Round-trip compilability of every enumerated candidate's C: both the
//! paper-style display dialect (`Kernel::to_c`, prepended with the
//! `taco_kernel.h` prelude) and the native backend's self-contained
//! translation unit (`emit_native`) must be syntactically valid C11 for
//! every schedule candidate of the three paper kernels.
//!
//! With a system C compiler the check is `-fsyntax-only`; without one the
//! test degrades to structural golden assertions and says so visibly.

use std::process::Command;
use taco_core::enumerate_candidates;
use taco_llir::{emit_native, TACO_KERNEL_H};
use taco_workspaces::prelude::*;

fn iv(n: &str) -> IndexVar {
    IndexVar::new(n)
}

fn spgemm(n: usize) -> IndexStmt {
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j, k) = (iv("i"), iv("j"), iv("k"));
    IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(k.clone(), b.access([i, k.clone()]) * c.access([k, j])),
    ))
    .unwrap()
}

fn sparse_add(m: usize, n: usize) -> IndexStmt {
    let a = TensorVar::new("A", vec![m, n], Format::csr());
    let b = TensorVar::new("B", vec![m, n], Format::csr());
    let c = TensorVar::new("C", vec![m, n], Format::csr());
    let (i, j) = (iv("i"), iv("j"));
    let bij: IndexExpr = b.access([i.clone(), j.clone()]).into();
    let cij: IndexExpr = c.access([i.clone(), j.clone()]).into();
    IndexStmt::new(IndexAssignment::assign(a.access([i, j]), bij + cij)).unwrap()
}

fn mttkrp(di: usize, dk: usize, dl: usize, r: usize) -> IndexStmt {
    let a = TensorVar::new("A", vec![di, r], Format::dense(2));
    let b = TensorVar::new("B", vec![di, dk, dl], Format::csf3());
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

/// The system C compiler name, when one answers a trivial syntax check.
fn syntax_checker() -> Option<String> {
    let cc = match std::env::var("CC") {
        Ok(v) if !v.is_empty() => v,
        _ => "cc".to_string(),
    };
    let dir = std::env::temp_dir().join(format!("taco-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).ok()?;
    let probe = dir.join("probe.c");
    std::fs::write(&probe, "int main(void) { return 0; }\n").ok()?;
    let ok = Command::new(&cc)
        .args(["-std=c11", "-fsyntax-only"])
        .arg(&probe)
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false);
    ok.then_some(cc)
}

/// Syntax-checks one translation unit, panicking with the compiler's
/// diagnostics (and the source) on rejection.
fn assert_compiles(cc: &str, source: &str, what: &str, seq: usize) {
    let dir = std::env::temp_dir().join(format!("taco-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("tu-{seq}.c"));
    std::fs::write(&path, source).unwrap();
    let out = Command::new(cc)
        .args(["-std=c11", "-fsyntax-only"])
        .arg(&path)
        .output()
        .expect("spawning the probed compiler");
    assert!(
        out.status.success(),
        "{what}: emitted C must be valid C11\n--- diagnostics ---\n{}\n--- source ---\n{}",
        String::from_utf8_lossy(&out.stderr),
        source,
    );
}

/// Structural fallback when no compiler is present: the shapes a human
/// would eyeball in a code review, asserted mechanically.
fn assert_structure(display: &str, native_tu: &str, what: &str) {
    assert!(display.contains("void "), "{what}: display dialect must define a function");
    assert!(
        display.contains("restrict"),
        "{what}: array parameters carry restrict qualifiers"
    );
    for (open, close) in [('{', '}'), ('(', ')')] {
        let opens = display.matches(open).count();
        let closes = display.matches(close).count();
        assert_eq!(opens, closes, "{what}: unbalanced `{open}{close}` in display dialect");
    }
    assert!(
        native_tu.contains("taco_kernel_entry"),
        "{what}: native TU must export the fixed entry symbol"
    );
    assert!(
        native_tu.contains("taco_abi_version"),
        "{what}: native TU must export its ABI version"
    );
}

#[test]
fn every_candidate_round_trips_through_c() {
    let stmts: Vec<(&str, IndexStmt)> = vec![
        ("spgemm", spgemm(16)),
        ("sparse-add", sparse_add(12, 14)),
        ("mttkrp", mttkrp(8, 7, 6, 5)),
    ];
    let cc = syntax_checker();
    if cc.is_none() {
        eprintln!("SKIPPED syntax check: no C toolchain; structural assertions only");
    }

    let mut seq = 0;
    let (mut lowered, mut parallel) = (0, 0);
    for (name, stmt) in &stmts {
        let candidates = enumerate_candidates(stmt);
        assert!(!candidates.is_empty(), "{name}: the candidate space is empty");
        for cand in candidates {
            let opts = LowerOptions::fused("roundtrip").with_workspace_kind(cand.workspace_kind);
            let kernel =
                cand.stmt.compile(opts.clone()).expect("a candidate lowers under fused options");
            lowered += 1;
            // The candidate's parallel twin, as the verifier sweep builds it,
            // where it lowers: a parallel kernel emits like any other.
            let twin = parallel_twin(&cand.stmt).and_then(|twin| twin.compile(opts).ok());
            parallel += usize::from(twin.is_some());
            let twin = twin.map(|t| (t, " (parallel)"));
            for (kernel, twin) in std::iter::once((kernel, "")).chain(twin) {
                let what = format!("{name}/{}{twin}", cand.name);
                let display = format!("{TACO_KERNEL_H}\n{}", kernel.to_c());
                let Ok(native) = emit_native(kernel.executable());
                if let Some(cc) = &cc {
                    assert_compiles(cc, &display, &format!("{what} (display dialect)"), seq);
                    assert_compiles(cc, &native.c_source, &format!("{what} (native TU)"), seq + 1);
                    seq += 2;
                } else {
                    assert_structure(&kernel.to_c(), &native.c_source, &what);
                }
            }
        }
    }
    assert!(lowered >= 6, "too few candidates lowered ({lowered}); the sweep lost its teeth");
    assert!(parallel > 0, "no parallel twin lowered; the sweep lost its parallel kernels");
}

/// `stmt` with its outermost loop parallelized, where the privatization
/// check allows it.
fn parallel_twin(stmt: &IndexStmt) -> Option<IndexStmt> {
    let taco_workspaces::ir::concrete::ConcreteStmt::Forall { var, .. } = stmt.concrete() else {
        return None;
    };
    let mut twin = stmt.clone();
    twin.parallelize(var).ok()?;
    Some(twin)
}
