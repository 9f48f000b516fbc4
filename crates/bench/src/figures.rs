//! Measurement logic for each figure of the paper's evaluation.
//!
//! Every figure has two phases. First each compiled kernel runs once on the
//! figure's operands, off the clock, and its result is checked against the
//! baseline it is timed against; the `native:` line ([`Harness::trusted`])
//! then reports what that cost and that no kernel was rejected. Only then
//! are the compiled kernels and the baselines timed.

use crate::compiled::{
    add, agrees, agrees_dense, mttkrp, operand_names, operands, spgemm, Harness, Kernel, Mttkrp,
    Setup,
};
use crate::timing::time_best;
use crate::workloads::{
    dense_mat, dense_tensor, fig11_workloads, fig12_workloads, fig13_operands, sparse_factors,
    FIG12_DENSITIES,
};
use std::time::Duration;
use taco_kernels::add::{add_kway_merge, add_pairwise, add_pairwise_mkl_style};
use taco_kernels::mttkrp::{mttkrp_splatt, mttkrp_workspace, DenseMat};
use taco_kernels::spgemm::{spgemm_eigen_style, spgemm_mkl_style};
use taco_lower::LowerOptions;
use taco_tensor::{Csr, Tensor};

/// A figure's rows and what getting its kernels ready cost.
#[derive(Debug, Clone)]
pub struct Figure<R> {
    /// One row per measurement.
    pub rows: Vec<R>,
    /// Compile, `cc` and trust-run cost, all off the clock.
    pub setup: Setup,
}

/// Panics with `what` unless a compiled result agrees with its baseline.
fn check(ok: bool, what: &str) {
    assert!(ok, "cross-check failed: {what} disagrees with its baseline");
}

// ---------------------------------------------------------------------------
// Figure 11
// ---------------------------------------------------------------------------

/// One measurement of Figure 11: the compiled workspace SpGEMM against a
/// library-style baseline on one matrix × density combination.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Table I matrix id.
    pub id: usize,
    /// Table I matrix name.
    pub name: &'static str,
    /// Synthetic operand density (4E-4 or 1E-4).
    pub density: f64,
    /// Sorted (Eigen comparison) or unsorted (MKL comparison) kernel.
    pub sorted: bool,
    /// Compiled workspace kernel time.
    pub t_workspace: Duration,
    /// Baseline (Eigen-style or MKL-style) time.
    pub t_baseline: Duration,
}

impl Fig11Row {
    /// Baseline time normalized to the workspace kernel (the figure's
    /// normalized time; > 1 means the workspace kernel wins).
    pub fn normalized(&self) -> f64 {
        self.t_baseline.as_secs_f64() / self.t_workspace.as_secs_f64()
    }
}

/// Runs the Figure 11 experiment: the Fig. 2 SpGEMM compiled sorted against
/// the Eigen-style baseline and `.unsorted()` against the MKL-style one, on
/// every Table I matrix at densities 4E-4 and 1E-4.
pub fn fig11(scale: f64, reps: usize) -> Figure<Fig11Row> {
    let h = Harness::new();
    let work: Vec<_> = fig11_workloads(scale)
        .into_iter()
        .map(|w| {
            let (bt, ct) = (w.b.to_tensor(), w.c.to_tensor());
            let dims = (w.b.nrows(), w.b.ncols(), w.c.ncols());
            (w, bt, ct, dims)
        })
        .collect();
    for (w, bt, ct, (m, k, n)) in &work {
        for (sorted, baseline) in
            [(true, spgemm_eigen_style(&w.b, &w.c)), (false, spgemm_mkl_style(&w.b, &w.c))]
        {
            let got = h.run(&spgemm(*m, *k, *n, sorted), &[("B", bt), ("C", ct)], None);
            check(
                agrees(&got, &baseline, 1e-10),
                &format!("SpGEMM on {} (sorted {sorted})", w.name),
            );
        }
    }
    let setup = h.trusted();

    let mut rows = Vec::new();
    for (w, bt, ct, (m, k, n)) in &work {
        for sorted in [true, false] {
            let kernel = spgemm(*m, *k, *n, sorted);
            let (t_workspace, _) = h.time(reps, || h.run(&kernel, &[("B", bt), ("C", ct)], None));
            let (t_baseline, _) = if sorted {
                time_best(reps, || spgemm_eigen_style(&w.b, &w.c))
            } else {
                time_best(reps, || spgemm_mkl_style(&w.b, &w.c))
            };
            rows.push(Fig11Row {
                id: w.id,
                name: w.name,
                density: w.density,
                sorted,
                t_workspace,
                t_baseline,
            });
        }
    }
    Figure { rows, setup }
}

// ---------------------------------------------------------------------------
// Figure 12 (left)
// ---------------------------------------------------------------------------

/// One measurement of Figure 12 (left): dense-output MTTKRP, three
/// implementations on one tensor.
#[derive(Debug, Clone)]
pub struct Fig12LeftRow {
    /// Tensor name.
    pub name: &'static str,
    /// The compiled kernel without a workspace (`reorder(j,k)`, `reorder(j,l)`).
    pub t_taco: Duration,
    /// The compiled workspace kernel (first transformation of Section VII).
    pub t_workspace: Duration,
    /// SPLATT-style hand-written kernel.
    pub t_splatt: Duration,
}

/// Runs the Figure 12 (left) experiment on the three tensor stand-ins.
pub fn fig12_left(scale: f64, rank: usize, max_dim: usize, reps: usize) -> Figure<Fig12LeftRow> {
    let h = Harness::new();
    let work: Vec<_> = fig12_workloads(scale, rank, max_dim)
        .into_iter()
        .map(|w| {
            let tensors = [w.b.to_tensor(), dense_tensor(&w.c), dense_tensor(&w.d)];
            let kernels = [Mttkrp::Merge, Mttkrp::Workspace].map(|s| mttkrp(w.b.dims(), rank, s));
            (w, tensors, kernels)
        })
        .collect();
    for (w, [bt, ct, dt], kernels) in &work {
        let want = mttkrp_splatt(&w.b, &w.c, &w.d);
        for kernel in kernels {
            let got = h.run(kernel, &[("B", bt), ("C", ct), ("D", dt)], None);
            check(agrees_dense(&got, &want, 1e-10), &format!("MTTKRP on {}", w.name));
        }
    }
    let setup = h.trusted();

    let rows = work
        .iter()
        .map(|(w, [bt, ct, dt], [merge, ws])| {
            let inputs = [("B", bt), ("C", ct), ("D", dt)];
            let (t_taco, _) = h.time(reps, || h.run(merge, &inputs, None));
            let (t_workspace, _) = h.time(reps, || h.run(ws, &inputs, None));
            let (t_splatt, _) = time_best(reps, || mttkrp_splatt(&w.b, &w.c, &w.d));
            Fig12LeftRow { name: w.name, t_taco, t_workspace, t_splatt }
        })
        .collect();
    Figure { rows, setup }
}

// ---------------------------------------------------------------------------
// Figure 12 (right)
// ---------------------------------------------------------------------------

/// One measurement of Figure 12 (right): the compiled Fig. 10 MTTKRP with
/// sparse output and sparse factor matrices against the compiled dense
/// workspace MTTKRP, at one factor density.
#[derive(Debug, Clone)]
pub struct Fig12RightRow {
    /// Tensor name.
    pub name: &'static str,
    /// Factor matrix density.
    pub density: f64,
    /// Sparse-everything MTTKRP time.
    pub t_sparse: Duration,
    /// Dense-everything MTTKRP time (the same for every density).
    pub t_dense: Duration,
}

impl Fig12RightRow {
    /// Relative time sparse / dense (the figure's y axis; < 1 means the
    /// sparse kernel wins).
    pub fn relative(&self) -> f64 {
        self.t_sparse.as_secs_f64() / self.t_dense.as_secs_f64()
    }
}

/// Runs the Figure 12 (right) density sweep on the three tensor stand-ins.
pub fn fig12_right(scale: f64, rank: usize, max_dim: usize, reps: usize) -> Figure<Fig12RightRow> {
    let h = Harness::new();
    let mut work = Vec::new();
    for w in fig12_workloads(scale, rank, max_dim) {
        let [_, dk, dl] = w.b.dims();
        // The dense contender always runs on dense factors (paper: "MTTKRP
        // with dense output and matrix operands").
        let (cd, dd) = (dense_mat(dl, rank, 0xD1), dense_mat(dk, rank, 0xD2));
        let bt = w.b.to_tensor();
        let dense = [dense_tensor(&cd), dense_tensor(&dd)];
        let (dense_k, sparse_k) =
            (mttkrp(w.b.dims(), rank, Mttkrp::Workspace), mttkrp(w.b.dims(), rank, Mttkrp::Sparse));
        let got = h.run(&dense_k, &[("B", &bt), ("C", &dense[0]), ("D", &dense[1])], None);
        check(agrees_dense(&got, &mttkrp_workspace(&w.b, &cd, &dd), 1e-10), w.name);
        let mut sparse = Vec::new();
        for density in FIG12_DENSITIES {
            let (cs, ds) = sparse_factors(dk, dl, rank, density);
            let (ct, dt) = (cs.to_tensor(), ds.to_tensor());
            let got = h.run(&sparse_k, &[("B", &bt), ("C", &ct), ("D", &dt)], None);
            let want = mttkrp_workspace(&w.b, &DenseMat::from_csr(&cs), &DenseMat::from_csr(&ds));
            check(
                agrees_dense(&got, &want, 1e-10),
                &format!("sparse MTTKRP on {} at {density}", w.name),
            );
            sparse.push((density, ct, dt));
        }
        work.push((w.name, bt, dense, dense_k, sparse_k, sparse));
    }
    let setup = h.trusted();

    let mut rows = Vec::new();
    for (name, bt, [cd, dd], dense_k, sparse_k, sparse) in &work {
        let (t_dense, _) =
            h.time(reps, || h.run(dense_k, &[("B", bt), ("C", cd), ("D", dd)], None));
        for (density, ct, dt) in sparse {
            let (t_sparse, _) =
                h.time(reps, || h.run(sparse_k, &[("B", bt), ("C", ct), ("D", dt)], None));
            rows.push(Fig12RightRow { name, density: *density, t_sparse, t_dense });
        }
    }
    Figure { rows, setup }
}

// ---------------------------------------------------------------------------
// Figure 13
// ---------------------------------------------------------------------------

/// One measurement of Figure 13 (left): total time to assemble and compute
/// a chain of matrix additions with each strategy.
#[derive(Debug, Clone)]
pub struct Fig13Row {
    /// Number of additions (operands − 1).
    pub additions: usize,
    /// The compiled binary `A = B0 + B1`, run once per addition.
    pub t_taco_binop: Duration,
    /// One compiled multi-operand merge kernel.
    pub t_taco: Duration,
    /// The compiled result-reuse workspace kernel.
    pub t_workspace: Duration,
    /// Eigen-style pairwise addition.
    pub t_eigen: Duration,
    /// MKL-style pairwise addition (inspector-executor per step).
    pub t_mkl: Duration,
}

/// Runs `kernel` on two operands at a time, left to right: `((B0 + B1) + B2) + …`.
/// `structures[x]`, when given, is the assembled result of step `x`.
fn chain(h: &Harness, kernel: &Kernel, ops: &[Tensor], structures: Option<&[Tensor]>) -> Tensor {
    let names = operand_names(2);
    let mut acc = ops[0].clone();
    for (x, op) in ops[1..].iter().enumerate() {
        acc = h.run(kernel, &operands(&names, &[&acc, op]), structures.map(|s| &s[x]));
    }
    acc
}

/// Runs the Figure 13 (left) scaling experiment for `1..=max_additions`
/// additions of `n x n` operands.
pub fn fig13_scaling(n: usize, max_additions: usize, reps: usize) -> Figure<Fig13Row> {
    let h = Harness::new();
    let mats = fig13_operands(n, max_additions + 1);
    let tensors: Vec<Tensor> = mats.iter().map(Csr::to_tensor).collect();
    let binary = add(n, 2, false, LowerOptions::fused("add"));
    let kernels: Vec<[Kernel; 2]> = (2..=max_additions + 1)
        .map(|k| [false, true].map(|ws| add(n, k, ws, LowerOptions::fused("add"))))
        .collect();
    for (adds, pair) in (1..).zip(&kernels) {
        let ops: Vec<&Csr> = mats[..=adds].iter().collect();
        let want = add_pairwise(&ops);
        check(agrees(&chain(&h, &binary, &tensors[..=adds], None), &want, 1e-10), "binary chain");
        let names = operand_names(adds + 1);
        let refs: Vec<&Tensor> = tensors[..=adds].iter().collect();
        for kernel in pair {
            check(
                agrees(&h.run(kernel, &operands(&names, &refs), None), &want, 1e-10),
                "k-way addition",
            );
        }
    }
    let setup = h.trusted();

    let rows = (1..)
        .zip(&kernels)
        .map(|(adds, [merge, ws])| {
            let ops: Vec<&Csr> = mats[..=adds].iter().collect();
            let names = operand_names(adds + 1);
            let refs: Vec<&Tensor> = tensors[..=adds].iter().collect();
            let inputs = operands(&names, &refs);
            Fig13Row {
                additions: adds,
                t_taco_binop: h.time(reps, || chain(&h, &binary, &tensors[..=adds], None)).0,
                t_taco: h.time(reps, || h.run(merge, &inputs, None)).0,
                t_workspace: h.time(reps, || h.run(ws, &inputs, None)).0,
                t_eigen: time_best(reps, || add_pairwise(&ops)).0,
                t_mkl: time_best(reps, || add_pairwise_mkl_style(&ops)).0,
            }
        })
        .collect();
    Figure { rows, setup }
}

/// The Figure 13 (right) assembly/compute breakdown of a many-operand
/// addition.
#[derive(Debug, Clone)]
pub struct Fig13Breakdown {
    /// Implementation label.
    pub code: &'static str,
    /// Assembly time, if the implementation separates phases.
    pub assembly: Option<Duration>,
    /// Compute time (total time for single-phase libraries).
    pub compute: Duration,
}

/// Runs the Figure 13 (right) breakdown for `count` operands with the
/// paper's densities. Each compiled code assembles the result with an
/// `assemble` kernel and computes its values with a `compute` kernel over
/// that structure; the binary code does both once per addition.
pub fn fig13_breakdown(n: usize, count: usize, reps: usize) -> Figure<Fig13Breakdown> {
    let h = Harness::new();
    let mats = fig13_operands(n, count);
    let ops: Vec<&Csr> = mats.iter().collect();
    let tensors: Vec<Tensor> = mats.iter().map(Csr::to_tensor).collect();
    let want = add_pairwise(&ops);
    let phases = |k: usize, ws: bool| {
        [LowerOptions::assemble("add_assemble"), LowerOptions::compute("add_compute")]
            .map(|o| add(n, k, ws, o))
    };

    // The binary code: every addition's structure, then its values.
    let [bin_asm, bin_cmp] = phases(2, false);
    let mut bin_structures: Vec<Tensor> = Vec::new();
    for op in &tensors[1..] {
        let acc = bin_structures.last().unwrap_or(&tensors[0]).clone();
        bin_structures.push(h.run(&bin_asm, &operands(&operand_names(2), &[&acc, op]), None));
    }
    check(
        agrees(&chain(&h, &bin_cmp, &tensors, Some(&bin_structures)), &want, 1e-10),
        "binary phases",
    );

    // The k-way codes: one structure, then the values into it.
    let names = operand_names(count);
    let refs: Vec<&Tensor> = tensors.iter().collect();
    let inputs = operands(&names, &refs);
    let kway: Vec<(&'static str, [Kernel; 2], Tensor)> = [("taco", false), ("workspace", true)]
        .into_iter()
        .map(|(code, ws)| {
            let [asm, cmp] = phases(count, ws);
            let structure = h.run(&asm, &inputs, None);
            check(agrees(&h.run(&cmp, &inputs, Some(&structure)), &want, 1e-10), code);
            (code, [asm, cmp], structure)
        })
        .collect();
    let setup = h.trusted();

    let mut rows = vec![Fig13Breakdown {
        code: "taco bin",
        assembly: Some(h.time(reps, || chain(&h, &bin_asm, &tensors, None)).0),
        compute: h.time(reps, || chain(&h, &bin_cmp, &tensors, Some(&bin_structures))).0,
    }];
    for (code, [asm, cmp], structure) in &kway {
        rows.push(Fig13Breakdown {
            code,
            assembly: Some(h.time(reps, || h.run(asm, &inputs, None)).0),
            compute: h.time(reps, || h.run(cmp, &inputs, Some(structure))).0,
        });
    }
    rows.push(Fig13Breakdown {
        code: "Eigen",
        assembly: None,
        compute: time_best(reps, || add_pairwise(&ops)).0,
    });
    rows.push(Fig13Breakdown {
        code: "MKL",
        assembly: None,
        compute: time_best(reps, || add_pairwise_mkl_style(&ops)).0,
    });
    Figure { rows, setup }
}

/// A quick cross-check run before benchmarking, so a harness bug cannot
/// publish wrong-speed numbers for wrong answers: every compiled kernel the
/// figures time, at a small size, against the baselines and hand-written
/// references. Unsorted rows compare order-insensitively.
pub fn verify_consistency(n: usize) -> bool {
    let h = Harness::new();
    let mats = fig13_operands(n, 3);
    let ops: Vec<&Csr> = mats.iter().collect();
    let tensors: Vec<Tensor> = mats.iter().map(Csr::to_tensor).collect();
    let names = operand_names(3);
    let refs: Vec<&Tensor> = tensors.iter().collect();
    let inputs = operands(&names, &refs);
    let sum = add_pairwise(&ops);
    let mut ok = add_kway_merge(&ops).approx_eq(&sum, 1e-10);
    for ws in [false, true] {
        ok &=
            agrees(&h.run(&add(n, 3, ws, LowerOptions::fused("add")), &inputs, None), &sum, 1e-10);
        let structure =
            h.run(&add(n, 3, ws, LowerOptions::assemble("add_assemble")), &inputs, None);
        let computed =
            h.run(&add(n, 3, ws, LowerOptions::compute("add_compute")), &inputs, Some(&structure));
        ok &= agrees(&computed, &sum, 1e-10);
    }

    let (bt, ct) = (&tensors[0], &tensors[2]);
    let eigen = spgemm_eigen_style(&mats[0], &mats[2]);
    ok &= spgemm_mkl_style(&mats[0], &mats[2]).approx_eq(&eigen, 1e-10);
    for sorted in [true, false] {
        let got = h.run(&spgemm(n, n, n, sorted), &[("B", bt), ("C", ct)], None);
        ok &= agrees(&got, &eigen, 1e-10);
    }

    let w = fig12_workloads(1e-6, 4, 64).swap_remove(1);
    let dims = w.b.dims();
    let bt = w.b.to_tensor();
    let splatt = mttkrp_splatt(&w.b, &w.c, &w.d);
    ok &= splatt.max_abs_diff(&mttkrp_workspace(&w.b, &w.c, &w.d)) < 1e-10;
    for schedule in [Mttkrp::Merge, Mttkrp::Workspace] {
        let got = h.run(
            &mttkrp(dims, 4, schedule),
            &[("B", &bt), ("C", &dense_tensor(&w.c)), ("D", &dense_tensor(&w.d))],
            None,
        );
        ok &= agrees_dense(&got, &splatt, 1e-10);
    }
    let (cs, ds) = sparse_factors(dims[1], dims[2], 4, 0.5);
    let got = h.run(
        &mttkrp(dims, 4, Mttkrp::Sparse),
        &[("B", &bt), ("C", &cs.to_tensor()), ("D", &ds.to_tensor())],
        None,
    );
    ok &= agrees_dense(
        &got,
        &mttkrp_workspace(&w.b, &DenseMat::from_csr(&cs), &DenseMat::from_csr(&ds)),
        1e-10,
    );
    // The first runs handed back the interpreter's results; the kernels'
    // trust runs showed the native builds produce the same bytes.
    h.trusted();
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every figure at a tiny size, behind the cross-check. Each compiled
    /// series must be its own trusted kernel, so a series that times a
    /// baseline (or another series) in its place shows as a kernel short.
    #[test]
    fn every_figure_times_its_own_compiled_kernels() {
        assert!(verify_consistency(60));

        let f11 = fig11(0.0005, 1);
        assert_eq!(f11.rows.len(), 44); // 11 matrices x 2 densities x 2 variants
        let shapes: std::collections::BTreeSet<_> = crate::workloads::fig11_workloads(0.0005)
            .iter()
            .map(|w| (w.b.nrows(), w.b.ncols()))
            .collect();
        assert_eq!(
            f11.setup.native.trusted,
            2 * shapes.len() as u64,
            "sorted and unsorted per shape"
        );

        let f12 = fig12_left(1e-6, 4, 128, 1);
        assert_eq!((f12.rows.len(), f12.setup.native.trusted), (3, 6));

        let f12r = fig12_right(1e-6, 4, 128, 1);
        assert_eq!((f12r.rows.len(), f12r.setup.native.trusted), (18, 6));
        assert!(f12r.rows.iter().all(|r| r.relative() > 0.0));

        // Merge and workspace kernels for 2 and 3 operands; the binary
        // kernel is the 2-operand merge.
        let f13 = fig13_scaling(200, 2, 1);
        assert_eq!((f13.rows.len(), f13.setup.native.trusted), (2, 4));

        // Assemble and compute kernels of the binary, merge and workspace
        // codes.
        let brk = fig13_breakdown(200, 3, 1);
        assert_eq!((brk.rows.len(), brk.setup.native.trusted), (5, 6));
    }
}
