//! Differential soundness harness for the symbolic cost analyzer.
//!
//! The analyzer's contract is an *upper bound*: for any kernel it derives a
//! finite peak-byte or iteration bound for, no real execution may allocate
//! or iterate past it. This suite drives that claim adversarially — random
//! shapes, densities, sparsity patterns and operand formats through the
//! autotuner's whole candidate space (every loop order, workspace placement,
//! format conversion, and workspace backend that compiles) and the
//! `parallelize(outer)` form of each candidate that has one, comparing the
//! bounds evaluated at bind time against the budget meter's counters from a
//! real run — and pins how *tight* the iteration bound is where the segment
//! rules make it exact or nearly so.

use proptest::prelude::*;
use taco_core::oracle::eval_dense;
use taco_core::{
    enumerate_candidates_for, stmt_workspaces, CostEnv, IndexStmt, ScheduleCandidate, Supervisor,
};
use taco_ir::concrete::ConcreteStmt;
use taco_ir::expr::{sum, IndexExpr, IndexVar, TensorVar};
use taco_ir::notation::IndexAssignment;
use taco_llir::WorkspaceKind;
use taco_lower::{KernelKind, LowerOptions};
use taco_tensor::gen::{random_csr, random_csr_nnz, random_dense, Pattern};
use taco_tensor::{DenseTensor, Format, LevelType, Tensor};

fn iv(n: &str) -> IndexVar {
    IndexVar::new(n)
}

fn spgemm(dims: (usize, usize, usize), fmts: (Format, Format, Format)) -> IndexStmt {
    let (m, k, n) = dims;
    let (fa, fb, fc) = fmts;
    let a = TensorVar::new("A", vec![m, n], fa);
    let b = TensorVar::new("B", vec![m, k], fb);
    let c = TensorVar::new("C", vec![k, n], fc);
    let (i, j, kk) = (iv("i"), iv("j"), iv("k"));
    IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(kk.clone(), b.access([i, kk.clone()]) * c.access([kk, j])),
    ))
    .unwrap()
}

/// The result and operand formats the SpGEMM sweeps cycle through.
fn spgemm_formats(sel: usize) -> (Format, Format, Format) {
    match sel % 4 {
        0 => (Format::csr(), Format::csr(), Format::csr()),
        1 => (Format::dense(2), Format::csr(), Format::csr()),
        2 => (Format::csr(), Format::dcsr(), Format::csr()),
        _ => (Format::csr(), Format::csr(), Format::dcsr()),
    }
}

/// `A = B + C + D` into CSR, every operand in `format`.
fn add3(m: usize, n: usize, format: &Format) -> IndexStmt {
    let (i, j) = (iv("i"), iv("j"));
    let term = |name: &str| -> IndexExpr {
        TensorVar::new(name, vec![m, n], format.clone()).access([i.clone(), j.clone()]).into()
    };
    let a = TensorVar::new("A", vec![m, n], Format::csr());
    IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        term("B") + term("C") + term("D"),
    ))
    .unwrap()
}

fn spmv(m: usize, n: usize, format: Format) -> IndexStmt {
    let y = TensorVar::new("y", vec![m], Format::dvec());
    let b = TensorVar::new("B", vec![m, n], format);
    let x = TensorVar::new("x", vec![n], Format::dvec());
    let (i, j) = (iv("i"), iv("j"));
    IndexStmt::new(IndexAssignment::assign(
        y.access([i.clone()]),
        sum(j.clone(), b.access([i, j.clone()]) * x.access([j])),
    ))
    .unwrap()
}

fn csf() -> Format {
    Format::new(vec![LevelType::Dense, LevelType::Compressed, LevelType::Compressed])
}

/// MTTKRP over a CSF tensor with dense factor matrices.
fn mttkrp(dims: [usize; 3], r: usize) -> IndexStmt {
    let [di, dk, dl] = dims;
    let b = TensorVar::new("B", vec![di, dk, dl], csf());
    let a = TensorVar::new("A", vec![di, r], Format::dense(2));
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

fn pattern(sel: usize) -> Pattern {
    [Pattern::Uniform, Pattern::PowerLaw, Pattern::Banded(0.2)][sel % 3]
}

fn matrix(m: usize, n: usize, density: f64, sel: usize, seed: u64) -> Tensor {
    let nnz = ((m * n) as f64 * density).round() as usize;
    random_csr_nnz(m, n, nnz, pattern(sel), seed).to_tensor()
}

/// A CSF 3-tensor whose `(i, k·l)` unfolding is a patterned matrix.
fn tensor3(dims: [usize; 3], density: f64, sel: usize, seed: u64) -> Tensor {
    let [di, dk, dl] = dims;
    let entries = matrix(di, dk * dl, density, sel, seed)
        .entries()
        .into_iter()
        .map(|(c, v)| (vec![c[0], c[1] / dl, c[1] % dl], v))
        .collect();
    Tensor::from_entries(dims.to_vec(), csf(), entries).unwrap()
}

fn dense_matrix(m: usize, n: usize, seed: u64) -> Tensor {
    Tensor::from_dense(&random_dense(m, n, seed), Format::dense(2)).unwrap()
}

fn dense_vector(n: usize, seed: u64) -> Tensor {
    let data = random_dense(n, 1, seed).into_data();
    Tensor::from_dense(&DenseTensor::from_data(vec![n], data), Format::dvec()).unwrap()
}

/// `cand` with its outermost loop parallelized, where the privatization
/// check allows: the tuner's space is serial, so a sweep adds these itself.
fn parallel_twin(cand: &ScheduleCandidate) -> Option<ScheduleCandidate> {
    let ConcreteStmt::Forall { var, parallel: false, .. } = cand.stmt.concrete() else {
        return None;
    };
    let mut stmt = cand.stmt.clone();
    stmt.parallelize(var).ok()?;
    let name = format!("{} + parallelize({var})", cand.name);
    Some(ScheduleCandidate { name, stmt, ..cand.clone() })
}

/// The workspace kinds a candidate is swept under: the tuner's space leaves
/// storage to the caller, so a sweep adds the map kinds itself wherever there
/// is a workspace to store.
fn kinds_of(stmt: &IndexStmt) -> &'static [WorkspaceKind] {
    if stmt_workspaces(stmt.concrete()).is_empty() {
        &[WorkspaceKind::Dense]
    } else {
        &[WorkspaceKind::Dense, WorkspaceKind::Hash, WorkspaceKind::CoordList]
    }
}

/// What one sweep over a statement's candidates saw.
#[derive(Debug, Default)]
struct Sweep {
    /// Candidates that bound and ran to completion.
    accepted: usize,
    /// Of those, how many had a finite peak-byte bound.
    finite_peaks: usize,
    /// Parallel twins that lowered (a twin that does not is skipped).
    parallel: usize,
    /// `(candidate, iteration bound, observed iterations)` for every accepted
    /// candidate with a finite iteration bound.
    iterations: Vec<(String, u64, u64)>,
}

/// Runs every candidate of `stmt` under `opts` on `inputs` and checks both
/// static bounds, evaluated on the pre-run binding (soundness is a promise
/// about what the run *will* do), against the meter. A violation is an
/// analyzer soundness bug, not flake: both sides are deterministic functions
/// of the inputs.
fn sweep(
    stmt: &IndexStmt,
    opts: &LowerOptions,
    inputs: &[(&str, &Tensor)],
    what: &str,
) -> Result<Sweep, String> {
    let supervisor = Supervisor::new();
    // A compute kernel with a sparse result runs over its assembled structure.
    let structure = (opts.kind == KernelKind::Compute).then(|| {
        let result = stmt.source().lhs().tensor();
        let dense = eval_dense(stmt.source(), inputs).unwrap();
        Tensor::from_dense(&dense, result.format().clone()).unwrap()
    });
    let mut seen = Sweep::default();
    let candidates = enumerate_candidates_for(stmt, opts).into_iter().flat_map(|(cand, _)| {
        let twin = parallel_twin(&cand).map(|twin| (twin, true));
        std::iter::once((cand, false)).chain(twin)
    });
    let with_kinds = candidates.flat_map(|(cand, is_twin)| {
        kinds_of(&cand.stmt).iter().map(move |&kind| (cand.clone(), is_twin, kind))
    });
    for (cand, is_twin, kind) in with_kinds {
        let kernel = match cand.stmt.compile(opts.clone().with_workspace_kind(kind)) {
            Ok(kernel) => kernel,
            Err(_) if is_twin || kind != WorkspaceKind::Dense => continue,
            Err(e) => panic!("`{}` does not lower under its enumeration's options: {e}", cand.name),
        };
        seen.parallel += usize::from(is_twin);

        // Conversion candidates expect their operand in the rewritten
        // format; feed them what the engine would.
        let ops: Vec<(&str, Tensor)> = inputs
            .iter()
            .map(|&(name, t)| match cand.conversions.iter().find(|(cn, _)| cn == name) {
                Some((_, f)) if t.format() != f => (name, t.convert(f.clone()).unwrap()),
                _ => (name, t.clone()),
            })
            .collect();
        let op_refs: Vec<(&str, &Tensor)> = ops.iter().map(|(nm, t)| (*nm, t)).collect();
        // A candidate that lowers binds and runs: a failure here is a
        // wrong kernel, not one to skip.
        let name = format!("`{}` ({kind}) of {what}", cand.name);
        let mut binding = kernel
            .bind(&op_refs, structure.as_ref())
            .map_err(|e| format!("{name} does not bind: {e}"))?;
        let peak = kernel.static_peak_bytes(&binding);
        let env = CostEnv::from_binding(&binding);
        let iterations = kernel.cost_report().iterations.concrete(&env);
        let report = kernel
            .run_bound_supervised(&mut binding, &supervisor)
            .map_err(|e| format!("{name} does not run: {e}"))?;
        seen.accepted += 1;
        // An unknown bound is conservative (it can never admit or prune
        // anything), so it cannot be unsound — but it should be the
        // exception, which the callers check.
        if let Some(bound) = peak {
            seen.finite_peaks += 1;
            let observed = report.progress.peak_bytes();
            prop_assert!(bound >= observed, "unsound peak for {name}: {bound} < {observed}");
        }
        if let Some(bound) = iterations {
            let observed = report.progress.iterations;
            prop_assert!(bound >= observed, "unsound iterations for {name}: {bound} < {observed}");
            seen.iterations.push((cand.name.clone(), bound, observed));
        }
    }
    prop_assert!(seen.accepted > 0, "no candidate ran for {what}");
    Ok(seen)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For every candidate the enumerator accepts — across output/operand
    /// formats and all three workspace backends — the statically proven
    /// peak-byte bound, evaluated against the real binding, dominates the
    /// meter's observed allocation peak.
    #[test]
    fn static_peak_bound_dominates_observed_peak_for_every_accepted_candidate(
        m in 2usize..12,
        k in 2usize..12,
        n in 2usize..12,
        db in 0.05f64..0.6,
        dc in 0.05f64..0.6,
        fmt_sel in 0usize..4,
        seed in 0u64..1000,
    ) {
        let fmts = spgemm_formats(fmt_sel);
        let stmt = spgemm((m, k, n), fmts.clone());
        let bt = random_csr(m, k, db, seed).to_tensor().convert(fmts.1).unwrap();
        let ct = random_csr(k, n, dc, seed + 1).to_tensor().convert(fmts.2).unwrap();
        let what = format!("spgemm {m}x{k}x{n}, fmt {fmt_sel}, seed {seed}");
        let opts = LowerOptions::fused("soundness");
        let seen = sweep(&stmt, &opts, &[("B", &bt), ("C", &ct)], &what)?;
        prop_assert!(
            seen.finite_peaks > 0,
            "analyzer proved nothing finite across {} accepted candidates of {what}",
            seen.accepted
        );
    }

    /// The twin property for the iteration bound, which the tuner ranks by
    /// and admission builds its service-time prior from: over the same
    /// SpGEMM sweep, three-operand addition, SpMV in four formats and
    /// dense-factor MTTKRP, on uniform, power-law and banded operands, under
    /// both `fused` and `compute`, no accepted candidate or parallel twin
    /// iterates past its bound.
    #[test]
    fn iteration_bound_dominates_observed_iterations_for_every_accepted_candidate(
        m in 2usize..12,
        k in 2usize..12,
        n in 2usize..12,
        db in 0.05f64..0.6,
        dc in 0.05f64..0.6,
        sel in 0usize..12,
        seed in 0u64..1000,
    ) {
        let what = |kernel: &str| format!("{kernel} {m}x{k}x{n}, sel {sel}, seed {seed}");
        let (mut bounded, mut parallel) = (0usize, 0usize);
        let mut check =
            |stmt: &IndexStmt, opts: &LowerOptions, inputs: &[(&str, &Tensor)], kernel: &str| {
                sweep(stmt, opts, inputs, &what(kernel)).map(|seen| {
                    bounded += seen.iterations.len();
                    parallel += seen.parallel;
                })
            };
        for opts in [LowerOptions::fused("soundness"), LowerOptions::compute("soundness")] {
            let fmts = spgemm_formats(sel);
            let bt = matrix(m, k, db, sel, seed).convert(fmts.1.clone()).unwrap();
            let ct = matrix(k, n, dc, sel + 1, seed + 1).convert(fmts.2.clone()).unwrap();
            check(&spgemm((m, k, n), fmts), &opts, &[("B", &bt), ("C", &ct)], "spgemm")?;

            let format = [Format::csr(), Format::dcsr()][sel % 2].clone();
            let operand = |o: usize, density| {
                matrix(m, n, density, sel + o, seed + o as u64).convert(format.clone()).unwrap()
            };
            let (b, c, d) = (operand(0, db), operand(1, dc), operand(2, db));
            check(&add3(m, n, &format), &opts, &[("B", &b), ("C", &c), ("D", &d)], "B+C+D")?;


            let formats = [Format::csr(), Format::dcsr(), Format::csc(), Format::coo(2)];
            let format = formats[sel % 4].clone();
            let mut stmt = spmv(m, n, format.clone());
            if !format.is_identity_order() {
                stmt.reorder(&iv("i"), &iv("j")).unwrap();
            }
            let b = matrix(m, n, db, sel, seed).convert(format).unwrap();
            check(&stmt, &opts, &[("B", &b), ("x", &dense_vector(n, seed))], "spmv")?;

            let (b, r) = (tensor3([m, k, n], db / 2.0, sel, seed), 1 + seed as usize % 5);
            let (c, d) = (dense_matrix(n, r, seed + 1), dense_matrix(k, r, seed + 2));
            check(&mttkrp([m, k, n], r), &opts, &[("B", &b), ("C", &c), ("D", &d)], "mttkrp")?;
        }
        prop_assert!(bounded > 0, "no finite iteration bound anywhere in {}", what("the sweep"));
        prop_assert!(parallel > 0, "no parallel twin lowered anywhere in {}", what("the sweep"));
    }
}

/// One drain rule for every workspace kind: on the 128² Fig. 2 SpGEMM with
/// eight entries in every row, the hash and coordinate-list kernels are
/// bounded exactly as the dense one, which is within a few percent of what
/// it runs.
#[test]
fn every_workspace_kind_drains_under_the_dense_bound() {
    let n = 128;
    let fixed_rows = |seed: usize| {
        let triplets: Vec<(usize, usize, f64)> = (0..n)
            .flat_map(|r| (0..8).map(move |e| (r, (r * 7 + e * 13 + seed) % n, 1.0)))
            .collect();
        taco_tensor::Csr::from_triplets(n, n, &triplets).to_tensor()
    };
    let (b, c) = (fixed_rows(1), fixed_rows(2));
    let csr = |name: &str| TensorVar::new(name, vec![n, n], Format::csr());
    let (i, j, k) = (iv("i"), iv("j"), iv("k"));
    let mul = csr("B").access([i.clone(), k.clone()]) * csr("C").access([k.clone(), j.clone()]);
    let (lhs, rhs) = (csr("A").access([i, j.clone()]), sum(k.clone(), mul.clone()));
    let mut stmt = IndexStmt::new(IndexAssignment::assign(lhs, rhs)).unwrap();
    stmt.reorder(&k, &j).unwrap();
    let w = TensorVar::new("w", vec![n], Format::dvec());
    stmt.precompute(&mul, &[(j.clone(), j.clone(), j)], &w).unwrap();
    let mut dense_bound = None;
    for kind in [WorkspaceKind::Dense, WorkspaceKind::Hash, WorkspaceKind::CoordList] {
        let kernel = stmt.compile(LowerOptions::fused("tight").with_workspace_kind(kind)).unwrap();
        let mut binding = kernel.bind(&[("B", &b), ("C", &c)], None).unwrap();
        let env = CostEnv::from_binding(&binding);
        let bound = kernel.cost_report().iterations.concrete(&env).unwrap();
        let report = kernel.run_bound_supervised(&mut binding, &Supervisor::new()).unwrap();
        let observed = report.progress.iterations;
        assert!(bound <= 8 * observed, "{kind}: {bound} against {observed}");
        assert_eq!(bound, *dense_bound.get_or_insert(bound), "{kind} bound like dense");
    }
}

/// Bound over observed iterations of the named candidate.
fn tightness(seen: &Sweep, name: &str) -> (u64, u64) {
    let (_, bound, observed) = seen
        .iterations
        .iter()
        .find(|(cand, ..)| cand == name)
        .unwrap_or_else(|| panic!("`{name}` has no finite iteration bound: {seen:?}"));
    (*bound, *observed)
}

/// Where the segment rules are exact or near it, the bound stays there: the
/// tuner's ranking is only as good as these ratios.
#[test]
fn iteration_bound_stays_tight_where_the_segment_rules_are_exact() {
    // MTTKRP loops only over dense extents and CSF segments selected by the
    // loop above them, so telescoping makes the bound the iteration count.
    let dims = [14, 9, 11];
    for sel in 0..3 {
        let b = tensor3(dims, 0.08, sel, 5);
        let (c, d) = (dense_matrix(11, 6, 6), dense_matrix(9, 6, 7));
        let inputs = [("B", &b), ("C", &c), ("D", &d)];
        let seen =
            sweep(&mttkrp(dims, 6), &LowerOptions::compute("tight"), &inputs, "mttkrp").unwrap();
        for name in ["direct-merge", "reorder(i,j)"] {
            let (bound, observed) = tightness(&seen, name);
            assert_eq!(bound, observed, "`{name}`, pattern {sel}");
        }
    }

    // Fig. 2 SpGEMM on operands with the same number of entries in every
    // row: the only slack is the row workspace's occupancy, bounded by
    // seg(B)·seg(C) where distinct columns collide.
    let n = 48;
    let fixed_rows = |seed: u64| {
        let triplets: Vec<(usize, usize, f64)> = (0..n)
            .flat_map(|r| (0..4).map(move |e| (r, (r * 7 + e * 11 + seed as usize) % n, 1.0)))
            .collect();
        taco_tensor::Csr::from_triplets(n, n, &triplets).to_tensor()
    };
    let (b, c) = (fixed_rows(1), fixed_rows(2));
    let stmt = spgemm((n, n, n), (Format::csr(), Format::csr(), Format::csr()));
    let seen =
        sweep(&stmt, &LowerOptions::fused("tight"), &[("B", &b), ("C", &c)], "spgemm").unwrap();
    let (bound, observed) = tightness(&seen, "reorder(j,k) + precompute(j)");
    assert!(bound <= 4 * observed, "Fig. 2 SpGEMM: {bound} against {observed}");

    // B + C + D over CSR: every merge loop telescopes to the operands' entry
    // counts; what is left is that all seven loops of the merge lattice are
    // charged in full. (DCSR operands select their row segments with a merge
    // cursor, not a loop variable, so they get the segment rule only.)
    let [b, c, d] = [0, 1, 2].map(|o| matrix(40, 40, 0.1, o, 3 + o as u64));
    let inputs = [("B", &b), ("C", &c), ("D", &d)];
    let seen =
        sweep(&add3(40, 40, &Format::csr()), &LowerOptions::fused("tight"), &inputs, "B+C+D")
            .unwrap();
    let (bound, observed) = tightness(&seen, "direct-merge");
    assert!(bound <= 8 * observed, "B+C+D: {bound} against {observed}");
}
