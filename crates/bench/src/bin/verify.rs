//! Sweeps the static verifier over every autotuner candidate of the four
//! case-study kernels (SpGEMM, sparse add, dense MTTKRP, sparse MTTKRP).
//!
//! The candidates are enumerated under each lowering the autotuner is asked
//! for (fused and compute), so each must lower and be accepted (zero
//! deny-severity findings) when compiled the way a caller would. The
//! autotuner's space is serial and leaves storage to the caller, so the
//! sweep adds, and holds to the same verdict, the hash and coordinate-list
//! form of every candidate with a workspace and the `parallelize(outer)` form
//! of every candidate that has one, each where it lowers (the race check
//! only runs on parallel loops). Exits nonzero otherwise, so CI can gate on
//! it.
//!
//! The summary line ends with two FNV-1a digests, each over sorted lines
//! tagged with their candidate: the *report digest* of every verification
//! report's diagnostic and assumption lines (with their position in the
//! report), and the *cost digest* of every cost report's iteration bound,
//! single-charge bounds and workspace initial footprints. Two builds whose
//! reports are byte-identical print the same digests.
//!
//! ```text
//! cargo run --release -p taco-bench --bin verify
//! ```

use taco_core::fingerprint::Fnv64;
use taco_core::{
    enumerate_candidates_for, stmt_workspaces, IndexStmt, ResourceBudget, ScheduleCandidate,
    VerifyMode,
};
use taco_ir::concrete::ConcreteStmt;
use taco_ir::expr::{sum, IndexExpr, IndexVar, TensorVar};
use taco_ir::notation::IndexAssignment;
use taco_llir::WorkspaceKind;
use taco_lower::LowerOptions;
use taco_tensor::{Format, LevelType};

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
        Format::new(vec![LevelType::Dense, LevelType::Compressed, LevelType::Compressed]),
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

/// `cand` under every workspace kind when it has a workspace, a map kind
/// named in the candidate's name; under the dense kind alone otherwise.
fn kind_variants(cand: ScheduleCandidate) -> Vec<(ScheduleCandidate, WorkspaceKind)> {
    if stmt_workspaces(cand.stmt.concrete()).is_empty() {
        return vec![(cand, WorkspaceKind::Dense)];
    }
    let map = |kind: WorkspaceKind| {
        let name = format!("{} + workspace({kind})", cand.name);
        (ScheduleCandidate { name, ..cand.clone() }, kind)
    };
    let maps = [map(WorkspaceKind::Hash), map(WorkspaceKind::CoordList)];
    std::iter::once((cand, WorkspaceKind::Dense)).chain(maps).collect()
}

/// FNV-1a over the lines in sorted order.
fn digest(mut lines: Vec<String>) -> u64 {
    lines.sort();
    let mut digest = Fnv64::new();
    for line in &lines {
        digest.write_str(line);
    }
    digest.finish()
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
    let mut cost_lines: Vec<String> = Vec::new();
    for (case, stmt) in &cases {
        for opts in [
            LowerOptions::fused(format!("{case}_f")),
            LowerOptions::compute(format!("{case}_c")),
        ] {
            let candidates = enumerate_candidates_for(stmt, &opts).into_iter();
            let with_kinds = candidates.flat_map(|(cand, _)| kind_variants(cand));
            let with_twins = with_kinds.flat_map(|(cand, kind)| {
                let twin = parallel_twin(&cand).map(|twin| (twin, kind, true));
                std::iter::once((cand, kind, false)).chain(twin)
            });
            for (cand, kind, is_twin) in with_twins {
                // Compiled from the statement, not finished from the carried
                // product: the sweep checks that the product told the truth.
                let opts = opts.clone().with_workspace_kind(kind);
                let budget = ResourceBudget::unlimited();
                let compiled = cand.stmt.compile_checked(opts.clone(), budget, VerifyMode::Warn);
                if (is_twin || kind != WorkspaceKind::Dense) && compiled.is_err() {
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
                // Charges carry no position: their order is not part of the
                // report's contract.
                let cost = compiled.cost_report();
                cost_lines.push(format!("{tag} iterations: {}", cost.iterations));
                cost_lines.extend(cost.charges.iter().map(|c| format!("{tag} charge: {c}")));
                for w in &cost.workspaces {
                    let (name, bytes) = (&w.name, &w.init_bytes);
                    cost_lines.push(format!("{tag} workspace {name} init_bytes: {bytes}"));
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
    println!(
        "verified {lowered}/{total} lowered candidates ({parallel} parallel) across {} kernels: \
         {denies} deny, {warns} warn, report digest {:016x}, cost digest {:016x}",
        cases.len(),
        digest(lines),
        digest(cost_lines)
    );
    if denies > 0 || lowered != total || parallel == 0 {
        std::process::exit(1);
    }
}
