//! Matricized tensor times Khatri-Rao product kernels (paper Section VII):
//! `A(i,j) = Σ_{k,l} B(i,k,l) * C(l,j) * D(k,j)` over a sparse CSF 3-tensor.

use taco_tensor::{Csf3, Csr};

/// A dense row-major matrix, the output (and dense operand) type of MTTKRP.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMat {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Row-major values.
    pub data: Vec<f64>,
}

impl DenseMat {
    /// Zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> DenseMat {
        DenseMat { nrows, ncols, data: vec![0.0; nrows * ncols] }
    }

    /// Builds from a CSR matrix (densifies).
    pub fn from_csr(a: &Csr) -> DenseMat {
        DenseMat { nrows: a.nrows(), ncols: a.ncols(), data: a.to_dense_vec() }
    }

    /// Element access.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.ncols + j]
    }

    /// Maximum absolute difference against another matrix.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &DenseMat) -> f64 {
        assert_eq!((self.nrows, self.ncols), (other.nrows, other.ncols), "shape mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// MTTKRP with a dense workspace that hoists the `D` multiplication out of
/// the `l` loop — a hand-written copy of the kernel after the first
/// workspace transformation (the green side of Figure 9), roughly
/// equivalent to SPLATT's algorithm.
///
/// # Panics
///
/// Panics if operand dimensions are inconsistent.
pub fn mttkrp_workspace(b: &Csf3, c: &DenseMat, d: &DenseMat) -> DenseMat {
    let [di, dk, dl] = b.dims();
    assert_eq!(c.nrows, dl, "C rows must match B mode-2");
    assert_eq!(d.nrows, dk, "D rows must match B mode-1");
    assert_eq!(c.ncols, d.ncols, "C and D must have equal columns");
    let n = c.ncols;
    let mut a = DenseMat::zeros(di, n);
    let mut w = vec![0.0f64; n];
    let (pos1, crd1, pos2, crd2) = (b.pos(0), b.crd(0), b.pos(1), b.crd(1));
    let (pos3, crd3, vals) = (b.pos(2), b.crd(2), b.vals());

    for p1 in pos1[0]..pos1[1] {
        let i = crd1[p1];
        for p2 in pos2[p1]..pos2[p1 + 1] {
            let k = crd2[p2];
            for p3 in pos3[p2]..pos3[p2 + 1] {
                let l = crd3[p3];
                let bv = vals[p3];
                let crow = &c.data[l * n..(l + 1) * n];
                for (wj, cv) in w.iter_mut().zip(crow) {
                    *wj += bv * cv;
                }
            }
            let drow = &d.data[k * n..(k + 1) * n];
            let arow = &mut a.data[i * n..(i + 1) * n];
            for ((av, wj), dv) in arow.iter_mut().zip(w.iter_mut()).zip(drow) {
                *av += *wj * dv;
                *wj = 0.0;
            }
        }
    }
    a
}

/// SPLATT-style MTTKRP \[7\]: the same fiber-hoisted algorithm as
/// [`mttkrp_workspace`], engineered the way the SPLATT library writes it —
/// the workspace accumulates per `(i,k)` fiber and the `w·D` product is
/// applied in the same sweep that clears the accumulator.
///
/// # Panics
///
/// Panics if operand dimensions are inconsistent.
pub fn mttkrp_splatt(b: &Csf3, c: &DenseMat, d: &DenseMat) -> DenseMat {
    let [di, dk, dl] = b.dims();
    assert_eq!(c.nrows, dl, "C rows must match B mode-2");
    assert_eq!(d.nrows, dk, "D rows must match B mode-1");
    assert_eq!(c.ncols, d.ncols, "C and D must have equal columns");
    let n = c.ncols;
    let mut a = DenseMat::zeros(di, n);
    let mut accum = vec![0.0f64; n];
    let (pos1, crd1, pos2, crd2) = (b.pos(0), b.crd(0), b.pos(1), b.crd(1));
    let (pos3, crd3, vals) = (b.pos(2), b.crd(2), b.vals());

    for p1 in pos1[0]..pos1[1] {
        let i = crd1[p1];
        let arow = &mut a.data[i * n..(i + 1) * n];
        for p2 in pos2[p1]..pos2[p1 + 1] {
            let k = crd2[p2];
            let fiber = pos3[p2]..pos3[p2 + 1];
            // First nonzero initializes the accumulator; the rest add.
            let mut first = true;
            for p3 in fiber {
                let l = crd3[p3];
                let bv = vals[p3];
                let crow = &c.data[l * n..(l + 1) * n];
                if first {
                    for (acc, cv) in accum.iter_mut().zip(crow) {
                        *acc = bv * cv;
                    }
                    first = false;
                } else {
                    for (acc, cv) in accum.iter_mut().zip(crow) {
                        *acc += bv * cv;
                    }
                }
            }
            if first {
                continue; // empty fiber
            }
            let drow = &d.data[k * n..(k + 1) * n];
            for ((av, acc), dv) in arow.iter_mut().zip(&accum).zip(drow) {
                *av += acc * dv;
            }
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_tensor::gen::{random_csf3, random_dense};

    fn dense_from(t: &taco_tensor::DenseTensor) -> DenseMat {
        DenseMat {
            nrows: t.shape()[0],
            ncols: t.shape()[1],
            data: t.data().to_vec(),
        }
    }

    #[test]
    fn workspace_and_splatt_match_the_dense_product() {
        let b = random_csf3([15, 12, 10], 150, 1);
        let c = dense_from(&random_dense(10, 8, 2));
        let d = dense_from(&random_dense(12, 8, 3));
        let t = b.to_tensor().to_dense();
        let mut base = DenseMat::zeros(15, 8);
        for i in 0..15 {
            for k in 0..12 {
                for l in 0..10 {
                    for j in 0..8 {
                        base.data[i * 8 + j] += t.get(&[i, k, l]) * c.get(l, j) * d.get(k, j);
                    }
                }
            }
        }
        assert!(mttkrp_workspace(&b, &c, &d).max_abs_diff(&base) < 1e-10);
        assert!(mttkrp_splatt(&b, &c, &d).max_abs_diff(&base) < 1e-10);
    }

    #[test]
    fn empty_tensor_yields_zero() {
        let b = Csf3::from_quads([4, 4, 4], &[]);
        let c = dense_from(&random_dense(4, 3, 1));
        let d = dense_from(&random_dense(4, 3, 2));
        let a = mttkrp_workspace(&b, &c, &d);
        assert!(a.data.iter().all(|v| *v == 0.0));
    }
}
