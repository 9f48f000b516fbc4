//! Sparse matrix addition kernels (paper Figures 5, 13).
//!
//! The evaluation of Section VIII-E adds `n+1` CSR operands. The library
//! baselines here add them pairwise, materializing a temporary per step
//! (how Eigen/MKL users must write it); [`add_kway_merge`] is a hand-written
//! copy of the single merged multi-operand kernel taco generates without
//! workspaces (Figure 5a generalized).

use taco_tensor::Csr;

/// Two-operand merge addition with fused assembly (Figure 5a): coiterates
/// the rows of `B` and `C`, appending to `A`.
///
/// # Panics
///
/// Panics if the shapes differ.
fn add2_merge(b: &Csr, c: &Csr) -> Csr {
    assert_eq!((b.nrows(), b.ncols()), (c.nrows(), c.ncols()), "shape mismatch in add");
    let m = b.nrows();
    let mut pos = Vec::with_capacity(m + 1);
    pos.push(0usize);
    let mut crd = Vec::new();
    let mut vals = Vec::new();
    let (bpos, bcrd, bvals) = (b.pos(), b.crd(), b.vals());
    let (cpos, ccrd, cvals) = (c.pos(), c.crd(), c.vals());

    for i in 0..m {
        let (mut pb, mut pc) = (bpos[i], cpos[i]);
        while pb < bpos[i + 1] && pc < cpos[i + 1] {
            let jb = bcrd[pb];
            let jc = ccrd[pc];
            let j = jb.min(jc);
            if jb == j && jc == j {
                crd.push(j);
                vals.push(bvals[pb] + cvals[pc]);
            } else if jb == j {
                crd.push(j);
                vals.push(bvals[pb]);
            } else {
                crd.push(j);
                vals.push(cvals[pc]);
            }
            if jb == j {
                pb += 1;
            }
            if jc == j {
                pc += 1;
            }
        }
        while pb < bpos[i + 1] {
            crd.push(bcrd[pb]);
            vals.push(bvals[pb]);
            pb += 1;
        }
        while pc < cpos[i + 1] {
            crd.push(ccrd[pc]);
            vals.push(cvals[pc]);
            pc += 1;
        }
        pos.push(crd.len());
    }
    Csr::from_raw(m, b.ncols(), pos, crd, vals)
}

/// Multi-operand merge addition — the algorithm taco generates for
/// `A = B0 + B1 + ... + Bk` without workspaces: an (k+1)-way coiteration
/// computing `min` over all cursors and merging per coordinate, with fused
/// assembly.
///
/// # Panics
///
/// Panics if `ops` is empty or shapes differ.
pub fn add_kway_merge(ops: &[&Csr]) -> Csr {
    assert!(!ops.is_empty(), "at least one operand required");
    let m = ops[0].nrows();
    let n = ops[0].ncols();
    for o in ops {
        assert_eq!((o.nrows(), o.ncols()), (m, n), "shape mismatch in add");
    }

    let mut pos = Vec::with_capacity(m + 1);
    pos.push(0usize);
    let mut crd = Vec::new();
    let mut vals = Vec::new();
    let mut cursor = vec![0usize; ops.len()];

    for i in 0..m {
        for (t, o) in ops.iter().enumerate() {
            cursor[t] = o.pos()[i];
        }
        loop {
            // min over the active cursors (the generated code's chain of
            // min() calls and comparisons).
            let mut j = usize::MAX;
            for (t, o) in ops.iter().enumerate() {
                if cursor[t] < o.pos()[i + 1] {
                    j = j.min(o.crd()[cursor[t]]);
                }
            }
            if j == usize::MAX {
                break;
            }
            let mut acc = 0.0;
            for (t, o) in ops.iter().enumerate() {
                if cursor[t] < o.pos()[i + 1] && o.crd()[cursor[t]] == j {
                    acc += o.vals()[cursor[t]];
                    cursor[t] += 1;
                }
            }
            crd.push(j);
            vals.push(acc);
        }
        pos.push(crd.len());
    }
    Csr::from_raw(m, n, pos, crd, vals)
}

/// Library-style pairwise addition: folds the operands two at a time with
/// [`add2_merge`], materializing a full temporary per step — how a user of
/// Eigen or MKL computes a chained addition ("the libraries are hampered by
/// performing addition two operands at a time", Section VIII-E).
///
/// # Panics
///
/// Panics if `ops` is empty or shapes differ.
pub fn add_pairwise(ops: &[&Csr]) -> Csr {
    assert!(!ops.is_empty(), "at least one operand required");
    let mut acc = ops[0].clone();
    for o in &ops[1..] {
        acc = add2_merge(&acc, o);
    }
    acc
}

/// MKL-style pairwise addition: like [`add_pairwise`] but each binary step
/// runs a symbolic pass (structure) and a numeric pass (values), modeling
/// MKL's inspector-executor `mkl_sparse_d_add`.
///
/// # Panics
///
/// Panics if `ops` is empty or shapes differ.
pub fn add_pairwise_mkl_style(ops: &[&Csr]) -> Csr {
    assert!(!ops.is_empty(), "at least one operand required");
    let mut acc = ops[0].clone();
    for o in &ops[1..] {
        acc = add2_two_phase(&acc, o);
    }
    acc
}

fn add2_two_phase(b: &Csr, c: &Csr) -> Csr {
    // Symbolic: union structure per row.
    let m = b.nrows();
    let mut pos = vec![0usize; m + 1];
    let mut crd = Vec::new();
    for i in 0..m {
        let (bc, _) = b.row(i);
        let (cc, _) = c.row(i);
        let (mut p, mut q) = (0usize, 0usize);
        while p < bc.len() && q < cc.len() {
            let j = bc[p].min(cc[q]);
            crd.push(j);
            if bc[p] == j {
                p += 1;
            }
            if q < cc.len() && cc[q] == j {
                q += 1;
            }
        }
        crd.extend_from_slice(&bc[p..]);
        crd.extend_from_slice(&cc[q..]);
        pos[i + 1] = crd.len();
    }
    // Numeric.
    let mut vals = vec![0.0f64; crd.len()];
    for i in 0..m {
        let (bc, bv) = b.row(i);
        let (cc, cv) = c.row(i);
        let (mut p, mut q) = (0usize, 0usize);
        for qq in pos[i]..pos[i + 1] {
            let j = crd[qq];
            let mut acc = 0.0;
            if p < bc.len() && bc[p] == j {
                acc += bv[p];
                p += 1;
            }
            if q < cc.len() && cc[q] == j {
                acc += cv[q];
                q += 1;
            }
            vals[qq] = acc;
        }
    }
    Csr::from_raw(m, b.ncols(), pos, crd, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_tensor::gen::random_csr;

    fn dense_sum(ops: &[&Csr]) -> Vec<f64> {
        let mut out = vec![0.0; ops[0].nrows() * ops[0].ncols()];
        for o in ops {
            for (x, y) in out.iter_mut().zip(o.to_dense_vec()) {
                *x += y;
            }
        }
        out
    }

    #[test]
    fn all_variants_agree() {
        let mats: Vec<Csr> = (0..5).map(|s| random_csr(30, 40, 0.05 * (s as f64 + 1.0) / 5.0, s)).collect();
        let ops: Vec<&Csr> = mats.iter().collect();
        let expect = dense_sum(&ops);
        let close = |a: &Csr| {
            a.to_dense_vec().iter().zip(&expect).all(|(x, y)| (x - y).abs() < 1e-10)
        };
        assert!(close(&add_kway_merge(&ops)));
        assert!(close(&add_pairwise(&ops)));
        assert!(close(&add_pairwise_mkl_style(&ops)));
    }

    #[test]
    fn two_operand_merge_matches_figure_5a_structure() {
        let b = Csr::from_triplets(2, 4, &[(0, 0, 1.0), (0, 2, 2.0), (1, 3, 3.0)]);
        let c = Csr::from_triplets(2, 4, &[(0, 2, 10.0), (0, 3, 4.0)]);
        let a = add2_merge(&b, &c);
        assert_eq!(a.pos(), &[0, 3, 4]);
        assert_eq!(a.crd(), &[0, 2, 3, 3]);
        assert_eq!(a.vals(), &[1.0, 12.0, 4.0, 3.0]);
    }

    #[test]
    fn single_operand_is_identity() {
        let b = random_csr(10, 10, 0.2, 42);
        let a = add_kway_merge(&[&b]);
        assert!(a.approx_eq(&b, 0.0));
        let a2 = add_pairwise(&[&b]);
        assert!(a2.approx_eq(&b, 0.0));
    }
}
