//! Sparse matrix–sparse matrix multiplication kernels (paper Sections II
//! and VIII-B).
//!
//! All variants compute `A = B * C` with CSR operands using the *linear
//! combination of rows* formulation (Gustavson's algorithm \[6\]), which the
//! paper's workspace transformation recreates.

use taco_tensor::Csr;

/// Workspace SpGEMM with sorted output rows — a hand-written copy of the
/// algorithm of Figures 1d + 8 fused (assembly with computation), the
/// benchmark's reference for the compiled kernel.
///
/// # Panics
///
/// Panics if `b.ncols() != c.nrows()`.
pub fn spgemm_workspace_sorted(b: &Csr, c: &Csr) -> Csr {
    spgemm_workspace(b, c, true)
}

fn spgemm_workspace(b: &Csr, c: &Csr, sort: bool) -> Csr {
    assert_eq!(b.ncols(), c.nrows(), "dimension mismatch in SpGEMM");
    let m = b.nrows();
    let n = c.ncols();

    let mut w = vec![0.0f64; n];
    let mut wset = vec![false; n];
    let mut wlist: Vec<usize> = Vec::with_capacity(n);

    let mut pos = Vec::with_capacity(m + 1);
    pos.push(0usize);
    // Initial estimate grown by doubling, as in Figure 8 lines 26-29.
    let est = (b.nnz() + c.nnz()).max(16);
    let mut crd: Vec<usize> = Vec::with_capacity(est);
    let mut vals: Vec<f64> = Vec::with_capacity(est);

    let (bpos, bcrd, bvals) = (b.pos(), b.crd(), b.vals());
    let (cpos, ccrd, cvals) = (c.pos(), c.crd(), c.vals());

    for i in 0..m {
        wlist.clear();
        for pb in bpos[i]..bpos[i + 1] {
            let k = bcrd[pb];
            let bv = bvals[pb];
            for pc in cpos[k]..cpos[k + 1] {
                let j = ccrd[pc];
                if !wset[j] {
                    wset[j] = true;
                    wlist.push(j);
                }
                w[j] += bv * cvals[pc];
            }
        }
        if sort {
            wlist.sort_unstable();
        }
        for &j in &wlist {
            crd.push(j);
            vals.push(w[j]);
            w[j] = 0.0;
            wset[j] = false;
        }
        pos.push(crd.len());
    }
    Csr::from_raw(m, n, pos, crd, vals)
}

/// Eigen-style sorted SpGEMM baseline.
///
/// Eigen's `SparseMatrix` product keeps every result row *sorted while it
/// is being built*: contributions are accumulated into an ordered sparse
/// structure (its `AmbiVector`), so inserting a new coordinate costs a
/// search plus data movement — the `O(n)` sparse-insert cost the paper's
/// Section I contrasts with the `O(1)` dense-workspace scatter. This
/// baseline reproduces that cost model (binary search + ordered insert per
/// new coordinate, compaction copy at the end), which is why the paper
/// measures ~4x against the sorted workspace kernel.
///
/// # Panics
///
/// Panics if `b.ncols() != c.nrows()`.
pub fn spgemm_eigen_style(b: &Csr, c: &Csr) -> Csr {
    assert_eq!(b.ncols(), c.nrows(), "dimension mismatch in SpGEMM");
    let m = b.nrows();
    let n = c.ncols();

    let mut crd: Vec<usize> = Vec::new();
    let mut vals: Vec<f64> = Vec::new();
    let mut pos = Vec::with_capacity(m + 1);
    pos.push(0usize);

    let (bpos, bcrd, bvals) = (b.pos(), b.crd(), b.vals());
    let (cpos, ccrd, cvals) = (c.pos(), c.crd(), c.vals());

    // Ordered per-row accumulator (coordinate-sorted).
    let mut row_crd: Vec<usize> = Vec::new();
    let mut row_val: Vec<f64> = Vec::new();

    for i in 0..m {
        row_crd.clear();
        row_val.clear();
        for pb in bpos[i]..bpos[i + 1] {
            let k = bcrd[pb];
            let bv = bvals[pb];
            for pc in cpos[k]..cpos[k + 1] {
                let j = ccrd[pc];
                match row_crd.binary_search(&j) {
                    Ok(q) => row_val[q] += bv * cvals[pc],
                    Err(q) => {
                        // Ordered insert: shifts the tail (Eigen's sorted
                        // insertion cost).
                        row_crd.insert(q, j);
                        row_val.insert(q, bv * cvals[pc]);
                    }
                }
            }
        }
        crd.extend_from_slice(&row_crd);
        vals.extend_from_slice(&row_val);
        pos.push(crd.len());
    }

    // Compaction copy (Eigen's makeCompressed / conservative resize cost).
    let crd2 = crd.clone();
    let vals2 = vals.clone();
    Csr::from_raw(m, n, pos, crd2, vals2)
}

/// MKL-style unsorted SpGEMM baseline (`mkl_sparse_spmm`).
///
/// Two-phase inspector/executor: a symbolic pass computes the exact result
/// structure (unsorted column order), then a numeric pass fills values.
/// The double traversal models MKL's separate analyze/execute stages.
///
/// # Panics
///
/// Panics if `b.ncols() != c.nrows()`.
pub fn spgemm_mkl_style(b: &Csr, c: &Csr) -> Csr {
    assert_eq!(b.ncols(), c.nrows(), "dimension mismatch in SpGEMM");
    let m = b.nrows();
    let n = c.ncols();
    let (bpos, bcrd, bvals) = (b.pos(), b.crd(), b.vals());
    let (cpos, ccrd, cvals) = (c.pos(), c.crd(), c.vals());

    // Symbolic phase.
    let mut wset = vec![false; n];
    let mut pos = vec![0usize; m + 1];
    let mut crd: Vec<usize> = Vec::new();
    for i in 0..m {
        let start = crd.len();
        for pb in bpos[i]..bpos[i + 1] {
            let k = bcrd[pb];
            for pc in cpos[k]..cpos[k + 1] {
                let j = ccrd[pc];
                if !wset[j] {
                    wset[j] = true;
                    crd.push(j);
                }
            }
        }
        for &j in &crd[start..] {
            wset[j] = false;
        }
        pos[i + 1] = crd.len();
    }

    // Numeric phase.
    let mut w = vec![0.0f64; n];
    let mut vals = vec![0.0f64; crd.len()];
    for i in 0..m {
        for pb in bpos[i]..bpos[i + 1] {
            let k = bcrd[pb];
            let bv = bvals[pb];
            for pc in cpos[k]..cpos[k + 1] {
                w[ccrd[pc]] += bv * cvals[pc];
            }
        }
        for q in pos[i]..pos[i + 1] {
            let j = crd[q];
            vals[q] = w[j];
            w[j] = 0.0;
        }
    }
    Csr::from_raw(m, n, pos, crd, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_tensor::gen::random_csr;

    fn dense_ref(b: &Csr, c: &Csr) -> Vec<f64> {
        let bd = b.to_dense_vec();
        let cd = c.to_dense_vec();
        let (m, k, n) = (b.nrows(), b.ncols(), c.ncols());
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for x in 0..k {
                for j in 0..n {
                    out[i * n + j] += bd[i * k + x] * cd[x * n + j];
                }
            }
        }
        out
    }

    #[test]
    fn all_variants_agree_with_dense_reference() {
        let b = random_csr(40, 50, 0.08, 1);
        let c = random_csr(50, 30, 0.08, 2);
        let expect = dense_ref(&b, &c);
        let close = |a: &Csr| {
            let d = a.to_dense_vec();
            d.iter().zip(&expect).all(|(x, y)| (x - y).abs() < 1e-10)
        };
        assert!(close(&spgemm_workspace_sorted(&b, &c)));
        assert!(close(&spgemm_eigen_style(&b, &c)));
        assert!(close(&spgemm_mkl_style(&b, &c)));
    }

    #[test]
    fn sortedness_matches_variant() {
        let b = random_csr(30, 30, 0.15, 3);
        let c = random_csr(30, 30, 0.15, 4);
        assert!(spgemm_workspace_sorted(&b, &c).is_sorted());
        assert!(spgemm_eigen_style(&b, &c).is_sorted());
        // The unsorted baseline produces the same values regardless of order.
        let u = spgemm_mkl_style(&b, &c);
        let s = spgemm_workspace_sorted(&b, &c);
        assert!(u.approx_eq(&s, 1e-12));
    }

    #[test]
    fn structures_agree_between_sorted_and_mkl_style() {
        let b = random_csr(25, 25, 0.2, 5);
        let c = random_csr(25, 25, 0.2, 6);
        let a1 = spgemm_workspace_sorted(&b, &c);
        let a2 = spgemm_mkl_style(&b, &c);
        assert_eq!(a1.nnz(), a2.nnz());
        assert_eq!(a1.pos(), a2.pos());
    }

    #[test]
    fn empty_operands() {
        let b = Csr::from_triplets(5, 5, &[]);
        let c = random_csr(5, 5, 0.5, 7);
        assert_eq!(spgemm_workspace_sorted(&b, &c).nnz(), 0);
        assert_eq!(spgemm_mkl_style(&c, &b).nnz(), 0);
    }
}
