//! The autotuner's candidate list is exact under the caller's options: a
//! candidate is a schedule that lowers and verifies under the options it was
//! enumerated for, nothing else is listed, and what is listed compiles.

use std::collections::HashSet;
use taco_core::enumerate_candidates_for;
use taco_tensor::LevelType;
use taco_workspaces::prelude::*;

fn iv(n: &str) -> IndexVar {
    IndexVar::new(n)
}

fn spgemm(n: usize) -> IndexStmt {
    spgemm_into(n, Format::csr())
}

fn spgemm_into(n: usize, result: Format) -> IndexStmt {
    let a = TensorVar::new("A", vec![n, n], result);
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j, k) = (iv("i"), iv("j"), iv("k"));
    IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(k.clone(), b.access([i, k.clone()]) * c.access([k, j])),
    ))
    .unwrap()
}

/// `A = B + C` or `A = B + C + D`, all CSR.
fn sparse_add(m: usize, n: usize, operands: usize) -> IndexStmt {
    let (i, j) = (iv("i"), iv("j"));
    let term = |name: &str| -> IndexExpr {
        TensorVar::new(name, vec![m, n], Format::csr()).access([i.clone(), j.clone()]).into()
    };
    let rhs = ["C", "D"][..operands - 1].iter().fold(term("B"), |acc, name| acc + term(name));
    let a = TensorVar::new("A", vec![m, n], Format::csr());
    IndexStmt::new(IndexAssignment::assign(a.access([i.clone(), j.clone()]), rhs)).unwrap()
}

/// MTTKRP over a CSF tensor; the factor matrices and the result are dense
/// or all CSR.
fn mttkrp(di: usize, dk: usize, dl: usize, r: usize, sparse: bool) -> IndexStmt {
    let matrix = |name: &str, rows: usize| {
        let format = if sparse { Format::csr() } else { Format::dense(2) };
        TensorVar::new(name, vec![rows, r], format)
    };
    let csf = Format::new(vec![LevelType::Dense, LevelType::Compressed, LevelType::Compressed]);
    let b = TensorVar::new("B", vec![di, dk, dl], csf);
    let (a, c, d) = (matrix("A", di), matrix("C", dl), matrix("D", dk));
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

fn spmv(n: usize) -> IndexStmt {
    let y = TensorVar::new("y", vec![n], Format::dvec());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let x = TensorVar::new("x", vec![n], Format::dvec());
    let (i, j) = (iv("i"), iv("j"));
    IndexStmt::new(IndexAssignment::assign(
        y.access([i.clone()]),
        sum(j.clone(), b.access([i, j.clone()]) * x.access([j])),
    ))
    .unwrap()
}

fn option_sets() -> [LowerOptions; 4] {
    [
        LowerOptions::fused("k"),
        LowerOptions::compute("k"),
        LowerOptions::assemble("k"),
        LowerOptions::fused("k").with_f32_workspaces(),
    ]
}

#[test]
fn every_candidate_compiles_under_the_options_it_was_enumerated_for() {
    // Candidates per kernel under [fused, compute, assemble, f32
    // workspaces]: the option-sensitivity table of EXPERIMENTS.md, "One
    // front half, run once". A row is not constant, which is why the
    // enumerator takes the caller's options instead of guessing with one set.
    // Result order is the result's format: `spgemm-hashed` is SpGEMM into
    // `(d,h)`, where a compute kernel must drain through the structure
    // (a counter-ordered write could miss a hashed row's order).
    let dh = Format::new(vec![LevelType::Dense, LevelType::Hashed]);
    let kernels: [(&str, IndexStmt, [usize; 4]); 7] = [
        ("spgemm", spgemm(16), [3, 11, 3, 3]),
        ("spgemm-hashed", spgemm_into(16, dh), [3, 2, 3, 3]),
        ("add2", sparse_add(16, 20, 2), [1, 1, 1, 1]),
        ("add3", sparse_add(16, 20, 3), [1, 1, 1, 1]),
        ("mttkrp-dense", mttkrp(12, 10, 11, 8, false), [6, 6, 0, 6]),
        ("mttkrp-sparse", mttkrp(14, 9, 10, 12, true), [0, 2, 0, 0]),
        ("spmv", spmv(12), [5, 5, 0, 5]),
    ];
    for (kernel, stmt, expected) in &kernels {
        let mut counts = [0usize; 4];
        for (count, opts) in counts.iter_mut().zip(option_sets()) {
            let cands = enumerate_candidates_for(stmt, &opts);
            *count = cands.len();
            let mut names = HashSet::new();
            for (cand, front) in &cands {
                let what = format!("{kernel} [{}] under {opts:?}", cand.name);
                assert!(names.insert(cand.name.as_str()), "{what}: duplicate name");
                let compiled = cand
                    .stmt
                    .compile_checked(opts.clone(), ResourceBudget::unlimited(), VerifyMode::Deny)
                    .unwrap_or_else(|e| panic!("{what}: does not compile: {e}"));
                assert_eq!(
                    compiled.lowered().kernel,
                    front.lowered().kernel,
                    "{what}: the carried product is not what the statement compiles to"
                );
            }
        }
        assert_eq!(&counts, expected, "{kernel}: candidates per option set");
    }
}

#[test]
fn kernels_that_differ_only_inside_a_loop_nest_are_distinct_candidates() {
    // The dedupe hash reads the whole body. `reorder(j,k)` of SpGEMM under
    // `compute` and two dense MTTKRP kernels have the same top-level
    // statements as an earlier candidate and a different loop nest below.
    let kernels_of = |stmt: &IndexStmt, names: &[&str]| -> Vec<taco_llir::Kernel> {
        let cands = enumerate_candidates_for(stmt, &LowerOptions::compute("k"));
        let find = |name: &&str| {
            let found = cands.iter().find(|(c, _)| c.name == *name);
            let (_, front) = found.unwrap_or_else(|| panic!("`{name}` is not a candidate"));
            front.lowered().kernel.clone()
        };
        names.iter().map(find).collect()
    };
    let recovered = ["reorder(j,k)", "reorder(j,k) + precompute(l)"];
    let mut kernels = kernels_of(&mttkrp(12, 10, 11, 8, false), &recovered);
    kernels.extend(kernels_of(&spgemm(16), &["reorder(j,k)", "reorder(j,k) + precompute(j)"]));
    for (a, first) in kernels.iter().enumerate() {
        for second in &kernels[a + 1..] {
            assert_ne!(first.body, second.body);
        }
    }
}

#[test]
fn a_hand_applied_schedule_competes_first_under_every_option_set() {
    let n = 16;
    let (i, j, k) = (iv("i"), iv("j"), iv("k"));
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let mul = b.access([i, k.clone()]) * c.access([k.clone(), j.clone()]);
    let mut fig2 = spgemm(n);
    fig2.reorder(&k, &j).unwrap();
    let w = TensorVar::new("w", vec![n], Format::dvec());
    fig2.precompute(&mul, &[(j.clone(), j.clone(), j)], &w).unwrap();
    for opts in option_sets() {
        let cands = enumerate_candidates_for(&fig2, &opts);
        assert_eq!(cands[0].0.name, "as-scheduled", "under {opts:?}");
        assert_eq!(cands[0].0.stmt.concrete(), fig2.concrete());
    }
}
