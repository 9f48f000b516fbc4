//! Sweeps the static verifier over every autotuner candidate of the four
//! case-study kernels (SpGEMM, sparse add, dense MTTKRP, sparse MTTKRP).
//!
//! The candidates are enumerated under each lowering the autotuner is asked
//! for (fused and compute), so each must lower and be accepted (zero
//! deny-severity findings) when compiled the way a caller would. The
//! autotuner's space is serial, so the sweep adds the `parallelize(outer)`
//! form of every candidate that has one and lowers, and holds it to the same
//! verdict (the race check only runs on parallel loops). Exits nonzero
//! otherwise, so CI can gate on it.
//!
//! The summary line ends with an FNV-1a digest of every report's diagnostic
//! and assumption lines (each tagged with its candidate and its position in
//! the report), sorted: two builds whose reports are byte-identical print
//! the same digest.
//!
//! ```text
//! cargo run --release -p taco-bench --bin verify
//! ```

use taco_core::fingerprint::Fnv64;
use taco_core::{enumerate_candidates_for, IndexStmt, ResourceBudget, ScheduleCandidate, VerifyMode};
use taco_ir::concrete::ConcreteStmt;
use taco_ir::expr::{sum, IndexExpr, IndexVar, TensorVar};
use taco_ir::notation::IndexAssignment;
use taco_lower::LowerOptions;
use taco_tensor::{Format, ModeFormat};

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

fn mttkrp(di: usize, dk: usize, dl: usize, r: usize, sparse: bool) -> IndexStmt {
    let a = if sparse {
        TensorVar::new("A", vec![di, r], Format::csr())
    } else {
        TensorVar::new("A", vec![di, r], Format::dense(2))
    };
    let b = TensorVar::new(
        "B",
        vec![di, dk, dl],
        Format::new(vec![ModeFormat::Dense, ModeFormat::Compressed, ModeFormat::Compressed]),
    );
    let (c, d) = if sparse {
        (TensorVar::new("C", vec![dl, r], Format::csr()), TensorVar::new("D", vec![dk, r], Format::csr()))
    } else {
        (TensorVar::new("C", vec![dl, r], Format::dense(2)), TensorVar::new("D", vec![dk, r], Format::dense(2)))
    };
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

/// `cand` with its outermost loop parallelized, where the privatization
/// check allows.
fn parallel_twin(cand: &ScheduleCandidate) -> Option<ScheduleCandidate> {
    let ConcreteStmt::Forall { var, parallel: false, .. } = cand.stmt.concrete() else {
        return None;
    };
    let mut stmt = cand.stmt.clone();
    stmt.parallelize(var).ok()?;
    let name = format!("{} + parallelize({var})", cand.name);
    Some(ScheduleCandidate { name, stmt, ..cand.clone() })
}

fn main() {
    let cases: Vec<(&str, IndexStmt)> = vec![
        ("spgemm", spgemm(16)),
        ("sparse_add", sparse_add(16, 20)),
        ("mttkrp_dense", mttkrp(12, 10, 11, 8, false)),
        ("mttkrp_sparse", mttkrp(14, 9, 10, 12, true)),
    ];
    let mut total = 0usize;
    let mut lowered = 0usize;
    let mut warns = 0usize;
    let mut denies = 0usize;
    let mut parallel = 0usize;
    let mut lines: Vec<String> = Vec::new();
    for (case, stmt) in &cases {
        for opts in [
            LowerOptions::fused(format!("{case}_f")),
            LowerOptions::compute(format!("{case}_c")),
        ] {
            let candidates = enumerate_candidates_for(stmt, &opts).into_iter();
            let with_twins = candidates.flat_map(|(cand, _)| {
                let twin = parallel_twin(&cand).map(|twin| (twin, true));
                std::iter::once((cand, false)).chain(twin)
            });
            for (cand, is_twin) in with_twins {
                // Compiled from the statement, not finished from the carried
                // product: the sweep checks that the product told the truth.
                let opts = opts.clone().with_workspace_kind(cand.workspace_kind);
                let budget = ResourceBudget::unlimited();
                let compiled = cand.stmt.compile_checked(opts.clone(), budget, VerifyMode::Warn);
                if is_twin && compiled.is_err() {
                    continue;
                }
                total += 1;
                let Ok(compiled) = compiled else {
                    println!("UNLOWERABLE {case} [{}] ({:?})", cand.name, opts.kind);
                    continue;
                };
                let report = compiled.verify_report();
                lowered += 1;
                parallel += usize::from(is_twin);
                warns += report.warns();
                let tag = format!("{case} [{}] ({:?})", cand.name, opts.kind);
                for (i, d) in report.diagnostics.iter().enumerate() {
                    lines.push(format!("{tag} diagnostic {i}: {d}"));
                }
                for (i, a) in report.assumptions.iter().enumerate() {
                    lines.push(format!("{tag} assumption {i}: {a}"));
                }
                if !report.accepted() {
                    denies += report.denies();
                    println!("DENY {case} [{}] ({:?}):", cand.name, opts.kind);
                    for d in &report.diagnostics {
                        println!("  {d}");
                    }
                }
            }
        }
    }
    lines.sort();
    let mut digest = Fnv64::new();
    for line in &lines {
        digest.write_str(line);
    }
    println!(
        "verified {lowered}/{total} lowered candidates ({parallel} parallel) across {} kernels: \
         {denies} deny, {warns} warn, report digest {:016x}",
        cases.len(),
        digest.finish()
    );
    if denies > 0 || lowered != total || parallel == 0 {
        std::process::exit(1);
    }
}
