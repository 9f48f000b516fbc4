//! Sparse matrix–sparse matrix multiplication kernels (paper Sections II
//! and VIII-B).
//!
//! All variants compute `A = B * C` with CSR operands using the *linear
//! combination of rows* formulation (Gustavson's algorithm \[6\]), which the
//! paper's workspace transformation recreates. The inner-product variant is
//! included as the asymptotically inferior strawman the paper discusses in
//! Section II.

use taco_tensor::Csr;

/// Workspace SpGEMM with sorted output rows — the algorithm of
/// Figures 1d + 8 fused (assembly with computation), as benchmarked against
/// Eigen in Figure 11 (left).
///
/// # Panics
///
/// Panics if `b.ncols() != c.nrows()`.
pub fn spgemm_workspace_sorted(b: &Csr, c: &Csr) -> Csr {
    spgemm_workspace(b, c, true)
}

/// Workspace SpGEMM with unsorted output rows, as benchmarked against MKL's
/// `mkl_sparse_spmm` in Figure 11 (right).
///
/// # Panics
///
/// Panics if `b.ncols() != c.nrows()`.
pub fn spgemm_workspace_unsorted(b: &Csr, c: &Csr) -> Csr {
    spgemm_workspace(b, c, false)
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

/// Hand-parallel workspace SpGEMM: the rayon-free baseline a compiled
/// parallel kernel (`IndexStmt::parallelize`) is benchmarked against.
///
/// Rows of `B` are split into contiguous chunks, one per worker; each
/// worker owns a *private* dense workspace (`w`/`wset`/`wlist` — exactly
/// the privatization the compiler's `parallelize` schedule performs) and
/// appends into private `crd`/`vals` segments. The segments are stitched
/// back in row order afterwards, so the result is byte-identical to
/// [`spgemm_workspace_sorted`] for every thread count.
///
/// `threads == 0` uses [`std::thread::available_parallelism`]; any value is
/// clamped to the row count, and `<= 1` runs serial.
///
/// # Panics
///
/// Panics if `b.ncols() != c.nrows()`.
pub fn spgemm_workspace_parallel(b: &Csr, c: &Csr, threads: usize) -> Csr {
    assert_eq!(b.ncols(), c.nrows(), "dimension mismatch in SpGEMM");
    let m = b.nrows();
    let n = c.ncols();
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |t| t.get())
    } else {
        threads
    }
    .min(m.max(1));
    if threads <= 1 {
        return spgemm_workspace_sorted(b, c);
    }

    // Static row chunking, identical to the row dispatcher's split.
    let per = m / threads;
    let extra = m % threads;
    let mut chunks: Vec<(usize, usize)> = Vec::with_capacity(threads);
    let mut lo = 0usize;
    for t in 0..threads {
        let len = per + usize::from(t < extra);
        chunks.push((lo, lo + len));
        lo += len;
    }

    // Each worker returns (row_lens, crd, vals) for its chunk.
    let parts: Vec<(Vec<usize>, Vec<usize>, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .iter()
            .map(|&(rlo, rhi)| {
                scope.spawn(move || {
                    let (bpos, bcrd, bvals) = (b.pos(), b.crd(), b.vals());
                    let (cpos, ccrd, cvals) = (c.pos(), c.crd(), c.vals());
                    // Private workspace: one dense scatter array per worker.
                    let mut w = vec![0.0f64; n];
                    let mut wset = vec![false; n];
                    let mut wlist: Vec<usize> = Vec::with_capacity(n);
                    let mut lens = Vec::with_capacity(rhi - rlo);
                    let mut crd: Vec<usize> = Vec::new();
                    let mut vals: Vec<f64> = Vec::new();
                    for i in rlo..rhi {
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
                        wlist.sort_unstable();
                        for &j in &wlist {
                            crd.push(j);
                            vals.push(w[j]);
                            w[j] = 0.0;
                            wset[j] = false;
                        }
                        lens.push(wlist.len());
                    }
                    (lens, crd, vals)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("SpGEMM worker panicked")).collect()
    });

    // Deterministic stitch: chunk segments concatenated in row order.
    let total: usize = parts.iter().map(|(_, c, _)| c.len()).sum();
    let mut pos = Vec::with_capacity(m + 1);
    pos.push(0usize);
    let mut crd: Vec<usize> = Vec::with_capacity(total);
    let mut vals: Vec<f64> = Vec::with_capacity(total);
    for (lens, pcrd, pvals) in parts {
        for len in lens {
            pos.push(pos.last().unwrap() + len);
        }
        crd.extend_from_slice(&pcrd);
        vals.extend_from_slice(&pvals);
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

/// Inner-product SpGEMM: computes one output component at a time by merging
/// a row of `B` with a column of `C` (given as `C^T` in CSR). Asymptotically
/// slower than linear-combination-of-rows (Section II): it "must
/// simultaneously iterate over row/column pairs and consider values that are
/// nonzero in only one matrix".
///
/// # Panics
///
/// Panics if `b.ncols() != c_t.ncols()` (`c_t` is C transposed, CSR).
pub fn spgemm_inner_product(b: &Csr, c_t: &Csr) -> Csr {
    assert_eq!(b.ncols(), c_t.ncols(), "dimension mismatch in inner-product SpGEMM");
    let m = b.nrows();
    let n = c_t.nrows();
    let mut triplets = Vec::new();
    for i in 0..m {
        let (bc, bv) = b.row(i);
        if bc.is_empty() {
            continue;
        }
        for j in 0..n {
            let (cc, cv) = c_t.row(j);
            // Merge loop over the intersection.
            let (mut p, mut q) = (0usize, 0usize);
            let mut acc = 0.0;
            let mut any = false;
            while p < bc.len() && q < cc.len() {
                match bc[p].cmp(&cc[q]) {
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                    std::cmp::Ordering::Equal => {
                        acc += bv[p] * cv[q];
                        any = true;
                        p += 1;
                        q += 1;
                    }
                }
            }
            if any {
                triplets.push((i, j, acc));
            }
        }
    }
    Csr::from_triplets(m, n, &triplets)
}

/// SpGEMM with a *hash-map workspace* instead of a dense array.
///
/// Section III of the paper: "a workspace can be any format including
/// compressed and hash maps. Hash maps are particularly interesting, since
/// they also support O(1) random access and insert without the need to
/// store all the zeros." The paper also notes (Section IX) that Patwary et
/// al. "tried a hash map workspace, but report that it did not have good
/// performance" — the `workspace_ablation` bench reproduces that
/// comparison against [`spgemm_workspace_sorted`].
///
/// # Panics
///
/// Panics if `b.ncols() != c.nrows()`.
pub fn spgemm_hash_workspace(b: &Csr, c: &Csr) -> Csr {
    use std::collections::HashMap;
    assert_eq!(b.ncols(), c.nrows(), "dimension mismatch in SpGEMM");
    let m = b.nrows();
    let n = c.ncols();

    let mut w: HashMap<usize, f64> = HashMap::new();
    let mut pos = Vec::with_capacity(m + 1);
    pos.push(0usize);
    let mut crd: Vec<usize> = Vec::new();
    let mut vals: Vec<f64> = Vec::new();

    let (bpos, bcrd, bvals) = (b.pos(), b.crd(), b.vals());
    let (cpos, ccrd, cvals) = (c.pos(), c.crd(), c.vals());

    for i in 0..m {
        w.clear();
        for pb in bpos[i]..bpos[i + 1] {
            let k = bcrd[pb];
            let bv = bvals[pb];
            for pc in cpos[k]..cpos[k + 1] {
                *w.entry(ccrd[pc]).or_insert(0.0) += bv * cvals[pc];
            }
        }
        let mut row: Vec<(usize, f64)> = w.iter().map(|(j, v)| (*j, *v)).collect();
        row.sort_unstable_by_key(|e| e.0);
        for (j, v) in row {
            crd.push(j);
            vals.push(v);
        }
        pos.push(crd.len());
    }
    Csr::from_raw(m, n, pos, crd, vals)
}

/// Dense-output SpGEMM (Figure 1c): `A` is a dense `m x n` row-major buffer.
///
/// # Panics
///
/// Panics if `b.ncols() != c.nrows()`.
pub fn spgemm_dense_output(b: &Csr, c: &Csr) -> Vec<f64> {
    assert_eq!(b.ncols(), c.nrows(), "dimension mismatch in SpGEMM");
    let m = b.nrows();
    let n = c.ncols();
    let mut a = vec![0.0f64; m * n];
    let (bpos, bcrd, bvals) = (b.pos(), b.crd(), b.vals());
    let (cpos, ccrd, cvals) = (c.pos(), c.crd(), c.vals());
    for i in 0..m {
        for pb in bpos[i]..bpos[i + 1] {
            let k = bcrd[pb];
            let bv = bvals[pb];
            for pc in cpos[k]..cpos[k + 1] {
                a[i * n + ccrd[pc]] += bv * cvals[pc];
            }
        }
    }
    a
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
        assert!(close(&spgemm_workspace_unsorted(&b, &c)));
        assert!(close(&spgemm_eigen_style(&b, &c)));
        assert!(close(&spgemm_mkl_style(&b, &c)));
        assert!(close(&spgemm_inner_product(&b, &c.transpose())));
        assert!(close(&spgemm_hash_workspace(&b, &c)));
        let dense = spgemm_dense_output(&b, &c);
        assert!(dense.iter().zip(&expect).all(|(x, y)| (x - y).abs() < 1e-10));
    }

    #[test]
    fn sortedness_matches_variant() {
        let b = random_csr(30, 30, 0.15, 3);
        let c = random_csr(30, 30, 0.15, 4);
        assert!(spgemm_workspace_sorted(&b, &c).is_sorted());
        assert!(spgemm_eigen_style(&b, &c).is_sorted());
        assert!(spgemm_hash_workspace(&b, &c).is_sorted());
        // The unsorted variants produce the same values regardless of order.
        let u = spgemm_workspace_unsorted(&b, &c);
        let s = spgemm_workspace_sorted(&b, &c);
        assert!(u.approx_eq(&s, 1e-12));
    }

    #[test]
    fn parallel_is_byte_identical_to_serial_at_every_thread_count() {
        let b = random_csr(37, 41, 0.12, 8);
        let c = random_csr(41, 29, 0.12, 9);
        let serial = spgemm_workspace_sorted(&b, &c);
        for threads in [0, 1, 2, 3, 4, 7, 37, 100] {
            let par = spgemm_workspace_parallel(&b, &c, threads);
            assert_eq!(serial.pos(), par.pos(), "pos differs at {threads} threads");
            assert_eq!(serial.crd(), par.crd(), "crd differs at {threads} threads");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(serial.vals()),
                bits(par.vals()),
                "vals differ bitwise at {threads} threads"
            );
        }
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
        let b = Csr::zero(5, 5);
        let c = random_csr(5, 5, 0.5, 7);
        assert_eq!(spgemm_workspace_sorted(&b, &c).nnz(), 0);
        assert_eq!(spgemm_mkl_style(&c, &b).nnz(), 0);
    }
}
