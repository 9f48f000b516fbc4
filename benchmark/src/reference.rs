//! Benchmark-owned references and the comparisons of the correctness gate.
//! Dense loops over plain arrays, written here so that no result is ever
//! checked against code of the system under test (in particular never
//! against `taco_core::oracle`).

use crate::sut::RawResult;
use crate::workloads::{CaseSpec, Expr};

/// Relative tolerance of the gate.
pub const TOLERANCE: f64 = 1e-9;

/// Largest dense volume the loop references are run on.
const DENSE_LIMIT: usize = 1 << 25;

/// The case's result as a dense row-major array, by the textbook loops;
/// `None` when the dense iteration space is too large to be worth it (the
/// hand-written kernel is the reference there).
pub fn dense_reference(spec: &CaseSpec) -> Option<Vec<f64>> {
    match &spec.expr {
        Expr::Spgemm { n, .. } => {
            let n = *n;
            if n * n * n > DENSE_LIMIT {
                return None;
            }
            let (b, c) = (spec.csr("B").to_dense(), spec.csr("C").to_dense());
            let mut a = vec![0.0; n * n];
            for i in 0..n {
                for k in 0..n {
                    let bik = b[i * n + k];
                    if bik == 0.0 {
                        continue;
                    }
                    for j in 0..n {
                        a[i * n + j] += bik * c[k * n + j];
                    }
                }
            }
            Some(a)
        }
        Expr::Add { n, operands, .. } => {
            let n = *n;
            if n * n > DENSE_LIMIT {
                return None;
            }
            let mut a = vec![0.0; n * n];
            for name in &["B", "C", "D", "E"][..*operands] {
                for (x, y) in a.iter_mut().zip(spec.csr(name).to_dense()) {
                    *x += y;
                }
            }
            Some(a)
        }
        Expr::Spmv { n, .. } => {
            let n = *n;
            let b = spec.csr("B").to_dense();
            let x = &spec.dense("x").data;
            Some(
                (0..n)
                    .map(|i| (0..n).map(|j| b[i * n + j] * x[j]).sum())
                    .collect(),
            )
        }
        Expr::Mttkrp { dims, rank } => {
            let [di, dk, dl] = *dims;
            if di * dk * dl > DENSE_LIMIT {
                return None;
            }
            let (b, c, d) = (spec.coo3("B"), spec.dense("C"), spec.dense("D"));
            let mut dense_b = vec![0.0; di * dk * dl];
            for (co, v) in b.coords.iter().zip(&b.vals) {
                dense_b[(co[0] * dk + co[1]) * dl + co[2]] += v;
            }
            let mut a = vec![0.0; di * rank];
            for i in 0..di {
                for k in 0..dk {
                    for l in 0..dl {
                        let v = dense_b[(i * dk + k) * dl + l];
                        if v != 0.0 {
                            for j in 0..*rank {
                                a[i * rank + j] += v * c.data[l * rank + j] * d.data[k * rank + j];
                            }
                        }
                    }
                }
            }
            Some(a)
        }
    }
}

/// A plain CSR SpMV: the hand-written baseline for the SpMV cases, which
/// `taco-kernels` does not cover.
pub fn spmv_csr(spec: &CaseSpec) -> Vec<f64> {
    let (b, x) = (spec.csr("B"), &spec.dense("x").data);
    (0..b.nrows)
        .map(|i| {
            (b.pos[i]..b.pos[i + 1])
                .map(|p| b.vals[p] * x[b.crd[p]])
                .sum()
        })
        .collect()
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= TOLERANCE * a.abs().max(b.abs())
}

fn densify(r: &RawResult) -> Vec<f64> {
    match r {
        RawResult::Csr(m) => m.to_dense(),
        RawResult::Dense(v) => v.clone(),
    }
}

/// Compares a result with a dense reference, element by element.
///
/// # Errors
///
/// The first mismatch, rendered.
pub fn check_dense(got: &RawResult, want: &[f64]) -> Result<(), String> {
    let got = densify(got);
    if got.len() != want.len() {
        return Err(format!(
            "result has {} elements, reference {}",
            got.len(),
            want.len()
        ));
    }
    match got.iter().zip(want).position(|(g, w)| !close(*g, *w)) {
        Some(at) => Err(format!(
            "element {at}: got {}, reference {}",
            got[at], want[at]
        )),
        None => Ok(()),
    }
}

/// Compares a result with the hand-written kernel's: identical structure for
/// sparse results (both are sorted CSR), values within the tolerance.
///
/// # Errors
///
/// The first mismatch, rendered.
pub fn check_handwritten(got: &RawResult, want: &RawResult) -> Result<(), String> {
    match (got, want) {
        (RawResult::Csr(g), RawResult::Csr(w)) => {
            if g.pos != w.pos || g.crd != w.crd {
                return Err(format!(
                    "sparse structure differs from the hand-written kernel's ({} vs {} nonzeros)",
                    g.crd.len(),
                    w.crd.len()
                ));
            }
            match g.vals.iter().zip(&w.vals).position(|(a, b)| !close(*a, *b)) {
                Some(at) => Err(format!(
                    "value {at}: got {}, hand-written {}",
                    g.vals[at], w.vals[at]
                )),
                None => Ok(()),
            }
        }
        (g, RawResult::Dense(w)) => check_dense(g, w),
        (RawResult::Dense(_), w @ RawResult::Csr(_)) => check_dense(got, &densify(w)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_is_relative() {
        assert!(close(1e12, 1e12 + 1.0));
        assert!(!close(1.0, 1.0 + 1e-6));
        assert!(close(0.0, 0.0));
        let want = vec![1.0, 2.0];
        assert!(check_dense(&RawResult::Dense(vec![1.0, 2.0]), &want).is_ok());
        assert!(check_dense(&RawResult::Dense(vec![1.0, 2.1]), &want).is_err());
        assert!(check_dense(&RawResult::Dense(vec![1.0]), &want).is_err());
    }
}
