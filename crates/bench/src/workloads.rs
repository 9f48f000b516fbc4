//! Workload builders for the figure harness: synthetic operands generated
//! to the paper's parameters.

use taco_kernels::mttkrp::DenseMat;
use taco_tensor::datasets::{MATRICES, TENSORS};
use taco_tensor::gen::{random_csr, random_dense};
use taco_tensor::{Csf3, Csr, Tensor};

/// One SpGEMM workload of Figure 11: a Table I matrix stand-in multiplied
/// by a uniform-random matrix of a target density.
#[derive(Debug, Clone)]
pub struct SpgemmWorkload {
    /// Table I matrix id (0–10).
    pub id: usize,
    /// Table I matrix name.
    pub name: &'static str,
    /// The left operand (dataset stand-in).
    pub b: Csr,
    /// The right operand (synthetic, the figure's 4E-4 / 1E-4 densities).
    pub c: Csr,
    /// Density of the synthetic operand.
    pub density: f64,
}

/// Builds the Figure 11 workloads: every Table I matrix at the figure's two
/// synthetic-operand densities.
pub fn fig11_workloads(scale: f64) -> Vec<SpgemmWorkload> {
    let mut out = Vec::new();
    for m in &MATRICES {
        let b = m.generate(scale);
        let n = b.nrows();
        for density in [4e-4, 1e-4] {
            let c = random_csr(n, n, density, 0x000F_1611 + m.id as u64);
            out.push(SpgemmWorkload { id: m.id, name: m.name, b: b.clone(), c, density });
        }
    }
    out
}

/// One MTTKRP workload of Figure 12 (left): a Table I tensor stand-in and
/// dense factor matrices.
#[derive(Debug, Clone)]
pub struct MttkrpWorkload {
    /// Tensor name.
    pub name: &'static str,
    /// The sparse CSF tensor.
    pub b: Csf3,
    /// Dense factor matrix `C` (`dims[2] x rank`).
    pub c: DenseMat,
    /// Dense factor matrix `D` (`dims[1] x rank`).
    pub d: DenseMat,
}

/// Builds the Figure 12 (left) workloads: Facebook, NELL-2 and NELL-1
/// stand-ins with dense factor matrices of the given rank.
pub fn fig12_workloads(scale: f64, rank: usize, max_dim: usize) -> Vec<MttkrpWorkload> {
    TENSORS
        .iter()
        .map(|t| {
            let b = t.generate(scale, max_dim);
            let [_, dk, dl] = b.dims();
            let c = dense_mat(dl, rank, 0x000F_1612);
            let d = dense_mat(dk, rank, 0x000F_1613);
            MttkrpWorkload { name: t.name, b, c, d }
        })
        .collect()
}

/// A dense random factor matrix.
pub fn dense_mat(rows: usize, cols: usize, seed: u64) -> DenseMat {
    let t = random_dense(rows, cols, seed);
    DenseMat { nrows: rows, ncols: cols, data: t.into_data() }
}

/// A dense matrix as the all-dense tensor a compiled kernel binds.
pub fn dense_tensor(m: &DenseMat) -> Tensor {
    Tensor::from_dense_vals(vec![m.nrows, m.ncols], m.data.as_slice())
        .expect("one value per component")
}

/// Sparse factor matrices for the Figure 12 (right) density sweep.
pub fn sparse_factors(dk: usize, dl: usize, rank: usize, density: f64) -> (Csr, Csr) {
    let c = random_csr(dl, rank, density, 0x000F_1614);
    let d = random_csr(dk, rank, density, 0x000F_1615);
    (c, d)
}

/// The paper's Figure 12 (right) operand densities.
pub const FIG12_DENSITIES: [f64; 6] = [1.0, 0.25, 0.02, 0.01, 2.5e-3, 1e-4];

/// The operand densities of the Figure 13 (right) seven-operand addition.
pub const FIG13_DENSITIES: [f64; 7] =
    [2.56e-2, 1.68e-3, 2.89e-4, 2.50e-3, 2.92e-3, 2.96e-2, 1.06e-2];

/// Builds the Figure 13 addition operands: `count` random matrices with
/// target sparsities drawn from the paper's range `[1e-4, 0.01]` (uniformly
/// in log space for variety), at dimension `n`.
pub fn fig13_operands(n: usize, count: usize) -> Vec<Csr> {
    (0..count)
        .map(|x| {
            let density = if x < FIG13_DENSITIES.len() {
                FIG13_DENSITIES[x]
            } else {
                1e-3
            };
            random_csr(n, n, density, 0x000F_1630 + x as u64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig11_workloads_cover_all_matrices_and_densities() {
        let w = fig11_workloads(0.001);
        assert_eq!(w.len(), 22);
        assert!(w.iter().any(|x| x.density == 4e-4));
        assert!(w.iter().any(|x| x.density == 1e-4));
        for x in &w {
            assert_eq!(x.b.nrows(), x.c.nrows());
        }
    }

    #[test]
    fn fig12_workloads_have_consistent_dims() {
        let w = fig12_workloads(1e-6, 8, 256);
        assert_eq!(w.len(), 3);
        for x in &w {
            assert_eq!(x.c.nrows, x.b.dims()[2]);
            assert_eq!(x.d.nrows, x.b.dims()[1]);
            assert_eq!(x.c.ncols, 8);
        }
    }

    #[test]
    fn fig13_operands_match_paper_densities() {
        let ops = fig13_operands(500, 7);
        assert_eq!(ops.len(), 7);
        let d0 = ops[0].nnz() as f64 / (500.0 * 500.0);
        assert!((d0 / FIG13_DENSITIES[0] - 1.0).abs() < 0.1);
    }
}
