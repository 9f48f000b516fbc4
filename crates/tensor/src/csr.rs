use crate::{Format, LevelType, Result, Tensor, TensorBuilder, TensorError};

/// A compressed sparse row matrix in the exact array layout of Figure 1b of
/// the paper (`pos`, `crd`, `vals`).
///
/// This flat representation is what the hand-written baseline kernels
/// (Gustavson SpGEMM, merge-based addition, MTTKRP, ...) operate on; it
/// converts losslessly to and from a `{Dense, Compressed}` [`Tensor`]. It is
/// a *view* over the same level-based arrays the rank-generic [`Tensor`]
/// stores — [`Csr::validate`] delegates to the shared per-level checks, so
/// the two representations enforce identical invariants.
///
/// Rows may hold their column entries *sorted* (like Eigen's products) or
/// *unsorted* (like MKL's `mkl_sparse_spmm`); see [`Csr::is_sorted`] and
/// [`Csr::sort_rows`].
///
/// # Example
///
/// ```
/// use taco_tensor::Csr;
///
/// let a = Csr::from_triplets(2, 3, &[(0, 2, 1.0), (1, 0, 2.0), (1, 1, 3.0)]);
/// assert_eq!(a.nnz(), 3);
/// assert_eq!(a.row(1), (&[0, 1][..], &[2.0, 3.0][..]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    pos: Vec<usize>,
    crd: Vec<usize>,
    vals: Vec<f64>,
}

impl Csr {
    /// Creates a CSR matrix from raw arrays.
    ///
    /// # Panics
    ///
    /// Panics if the array lengths are inconsistent (`pos.len() != nrows+1`,
    /// `crd.len() != vals.len()`, `pos` not monotone, or
    /// `*pos.last() != crd.len()`).
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        pos: Vec<usize>,
        crd: Vec<usize>,
        vals: Vec<f64>,
    ) -> Self {
        assert_eq!(pos.len(), nrows + 1, "pos must have nrows+1 entries");
        assert_eq!(crd.len(), vals.len(), "crd and vals must have equal length");
        assert!(pos.windows(2).all(|w| w[0] <= w[1]), "pos must be monotone");
        assert_eq!(*pos.last().expect("pos nonempty"), crd.len(), "pos end must equal nnz");
        assert!(crd.iter().all(|c| *c < ncols), "column coordinate out of bounds");
        Csr { nrows, ncols, pos, crd, vals }
    }

    /// Creates a CSR matrix from raw arrays with **no** invariant checks.
    ///
    /// This exists for fault-injection testing: it can represent corrupted
    /// storage that [`Csr::validate`] rejects and [`Csr::from_raw`] would
    /// panic on. Any other use is a bug — accessors like [`Csr::row`] may
    /// panic on matrices built this way.
    pub fn from_raw_unchecked(
        nrows: usize,
        ncols: usize,
        pos: Vec<usize>,
        crd: Vec<usize>,
        vals: Vec<f64>,
    ) -> Self {
        Csr { nrows, ncols, pos, crd, vals }
    }

    /// Checks the CSR storage invariants: `pos` has `nrows + 1` entries,
    /// starts at 0, is monotone and ends at `crd.len()`; `crd` and `vals`
    /// have equal length; every column coordinate is in bounds; and every
    /// value is finite. Row entries may be unsorted (MKL-style results are
    /// legal), so sortedness is *not* required — see [`Csr::is_sorted`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidStorage`] describing the first violated
    /// invariant (level 0 for `pos` faults, level 1 for `crd`/`vals` faults).
    pub fn validate(&self) -> Result<()> {
        crate::storage::check_pos_level(&self.pos, self.crd.len(), self.nrows, 0)?;
        // Rows may be unsorted (ordered = false) and may repeat columns
        // (unique = false); only bounds are enforced.
        crate::storage::check_crd_level(
            &self.pos, &self.crd, self.nrows, self.ncols, false, false, 1,
        )?;
        crate::storage::check_vals_level(&self.vals, self.crd.len(), 1)?;
        Ok(())
    }

    /// Creates an empty (all-zero) matrix.
    pub fn zero(nrows: usize, ncols: usize) -> Self {
        Csr { nrows, ncols, pos: vec![0; nrows + 1], crd: Vec::new(), vals: Vec::new() }
    }

    /// Builds a CSR matrix from `(row, col, value)` triplets. Duplicates are
    /// summed and rows end up sorted.
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut t: Vec<_> = triplets.to_vec();
        t.sort_by_key(|&(r, c, _)| (r, c));
        let mut pos = vec![0usize; nrows + 1];
        let mut crd = Vec::with_capacity(t.len());
        let mut vals: Vec<f64> = Vec::with_capacity(t.len());
        for &(r, c, v) in &t {
            assert!(r < nrows && c < ncols, "triplet ({r},{c}) out of bounds");
            if crd.len() > pos[r] && *crd.last().unwrap() == c && pos[r + 1] == crd.len() {
                *vals.last_mut().unwrap() += v;
            } else {
                crd.push(c);
                vals.push(v);
                pos[r + 1] = crd.len();
            }
        }
        // Fill gaps: pos[r+1] currently only set for rows with entries.
        for r in 0..nrows {
            if pos[r + 1] < pos[r] {
                pos[r + 1] = pos[r];
            }
        }
        Csr { nrows, ncols, pos, crd, vals }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// The row-segment position array (`B_pos` in the paper).
    pub fn pos(&self) -> &[usize] {
        &self.pos
    }

    /// The column coordinate array (`B_crd` in the paper).
    pub fn crd(&self) -> &[usize] {
        &self.crd
    }

    /// The value array (`B` in the paper).
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// The column coordinates and values of row `i`.
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let lo = self.pos[i];
        let hi = self.pos[i + 1];
        (&self.crd[lo..hi], &self.vals[lo..hi])
    }

    /// True if every row's column coordinates are strictly increasing.
    pub fn is_sorted(&self) -> bool {
        (0..self.nrows).all(|i| {
            let (c, _) = self.row(i);
            c.windows(2).all(|w| w[0] < w[1])
        })
    }

    /// Sorts every row's entries by column coordinate (stable on values).
    pub fn sort_rows(&mut self) {
        for i in 0..self.nrows {
            let lo = self.pos[i];
            let hi = self.pos[i + 1];
            let mut idx: Vec<usize> = (lo..hi).collect();
            idx.sort_by_key(|&q| self.crd[q]);
            let crd: Vec<usize> = idx.iter().map(|&q| self.crd[q]).collect();
            let vals: Vec<f64> = idx.iter().map(|&q| self.vals[q]).collect();
            self.crd[lo..hi].copy_from_slice(&crd);
            self.vals[lo..hi].copy_from_slice(&vals);
        }
    }

    /// Returns the transposed matrix (CSC of `self`, stored as CSR of the
    /// transpose), with sorted rows.
    pub fn transpose(&self) -> Csr {
        // Counting sort by column: O(nnz + ncols).
        let mut pos = vec![0usize; self.ncols + 1];
        for &c in &self.crd {
            pos[c + 1] += 1;
        }
        for c in 0..self.ncols {
            pos[c + 1] += pos[c];
        }
        let mut crd = vec![0usize; self.nnz()];
        let mut vals = vec![0.0f64; self.nnz()];
        let mut next = pos.clone();
        for i in 0..self.nrows {
            for q in self.pos[i]..self.pos[i + 1] {
                let c = self.crd[q];
                crd[next[c]] = i;
                vals[next[c]] = self.vals[q];
                next[c] += 1;
            }
        }
        Csr { nrows: self.ncols, ncols: self.nrows, pos, crd, vals }
    }

    /// Converts a `(d,s)` or `(d,h)` [`Tensor`] into this flat form, rows as stored.
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor is not rank-2 `(d,s)` or `(d,h)`.
    pub fn from_tensor(t: &Tensor) -> Result<Self> {
        let dh = Format::new(vec![LevelType::Dense, LevelType::Hashed]);
        if ![Format::csr(), dh].contains(t.format()) {
            return Err(TensorError::FormatMismatch { expected: "rank-2 (d,s) or (d,h) tensor" });
        }
        Ok(Csr {
            nrows: t.dim(0),
            ncols: t.dim(1),
            pos: t.pos(1)?.to_vec(),
            crd: t.crd(1)?.to_vec(),
            vals: t.vals().to_vec(),
        })
    }

    /// Converts into a CSR [`Tensor`]. Unsorted rows are sorted and repeated
    /// columns summed, in stored order, by [`TensorBuilder`]; sorted rows are
    /// taken as they are.
    pub fn to_tensor(&self) -> Tensor {
        let shape = vec![self.nrows, self.ncols];
        let (pos, crd, vals) = (&self.pos, &self.crd, Some(&self.vals[..]));
        let built = if self.is_sorted() {
            Tensor::from_appended_level(shape, Format::csr(), pos, crd, None, vals)
        } else {
            TensorBuilder::new(shape, Format::csr()).and_then(|mut b| {
                b.reserve(self.nnz());
                for i in 0..self.nrows {
                    let (crd, vals) = self.row(i);
                    for (&j, &v) in crd.iter().zip(vals) {
                        b.insert(&[i, j], v)?;
                    }
                }
                Ok(b.build())
            })
        };
        built.expect("pos/crd/vals agree by construction (Csr::from_raw's checks)")
    }

    /// Dense `nrows * ncols` row-major image of the matrix (duplicates
    /// summed).
    pub fn to_dense_vec(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.nrows * self.ncols];
        for i in 0..self.nrows {
            let (cs, vs) = self.row(i);
            for (c, v) in cs.iter().zip(vs) {
                out[i * self.ncols + c] += *v;
            }
        }
        out
    }

    /// True if the two matrices represent the same values up to `tol`
    /// (entry order within rows does not matter; duplicates are summed).
    pub fn approx_eq(&self, other: &Csr, tol: f64) -> bool {
        if self.nrows != other.nrows || self.ncols != other.ncols {
            return false;
        }
        let a = self.to_dense_vec();
        let b = other.to_dense_vec();
        a.iter().zip(&b).all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_triplets_sums_duplicates() {
        let a = Csr::from_triplets(2, 2, &[(0, 1, 1.0), (0, 1, 2.0), (1, 0, 4.0)]);
        assert_eq!(a.nnz(), 2);
        assert_eq!(a.row(0), (&[1][..], &[3.0][..]));
    }

    #[test]
    fn empty_rows_have_empty_segments() {
        let a = Csr::from_triplets(4, 4, &[(2, 0, 1.0)]);
        assert_eq!(a.pos(), &[0, 0, 0, 1, 1]);
        assert_eq!(a.row(0).0, &[] as &[usize]);
        assert_eq!(a.row(2).0, &[0]);
    }

    #[test]
    fn sortedness() {
        let mut a = Csr::from_raw(1, 4, vec![0, 3], vec![2, 0, 3], vec![1.0, 2.0, 3.0]);
        assert!(!a.is_sorted());
        a.sort_rows();
        assert!(a.is_sorted());
        assert_eq!(a.crd(), &[0, 2, 3]);
        assert_eq!(a.vals(), &[2.0, 1.0, 3.0]);
    }

    #[test]
    fn tensor_round_trip() {
        let t = Tensor::from_entries(
            vec![3, 4],
            Format::csr(),
            vec![(vec![0, 3], 1.0), (vec![2, 0], 2.0)],
        )
        .unwrap();
        let m = Csr::from_tensor(&t).unwrap();
        assert_eq!(m.nnz(), 2);
        let t2 = m.to_tensor();
        assert_eq!(t, t2);
    }

    #[test]
    fn from_tensor_rejects_wrong_format() {
        let t = Tensor::from_entries(vec![3, 4], Format::dcsr(), vec![(vec![0, 3], 1.0)]).unwrap();
        assert!(Csr::from_tensor(&t).is_err());
        assert!(Csr::from_tensor(&t.convert(Format::csc()).unwrap()).is_err());
    }

    #[test]
    fn a_hashed_tensor_keeps_its_row_order() {
        let dh = Format::new(vec![LevelType::Dense, LevelType::Hashed]);
        let (pos, crd) = ([0usize, 2], [3usize, 1]);
        let t = Tensor::from_appended_level(vec![1, 4], dh, &pos, &crd, None, Some(&[1.0, 2.0]))
            .unwrap();
        let m = Csr::from_tensor(&t).unwrap();
        assert_eq!((m.crd(), m.vals()), (&[3, 1][..], &[1.0, 2.0][..]));
        assert_eq!(m.to_tensor(), t.convert(Format::csr()).unwrap());
    }

    #[test]
    fn approx_eq_ignores_row_order() {
        let a = Csr::from_raw(1, 4, vec![0, 2], vec![3, 1], vec![1.0, 2.0], );
        let b = Csr::from_raw(1, 4, vec![0, 2], vec![1, 3], vec![2.0, 1.0]);
        assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    #[should_panic(expected = "pos must be monotone")]
    fn from_raw_validates_pos() {
        Csr::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = crate::gen::random_csr(13, 17, 0.3, 99);
        let t = a.transpose();
        assert_eq!(t.nrows(), 17);
        assert_eq!(t.ncols(), 13);
        assert!(t.is_sorted());
        assert!(t.transpose().approx_eq(&a, 0.0));
        // Spot-check one entry.
        let ad = a.to_dense_vec();
        let td = t.to_dense_vec();
        for i in 0..13 {
            for j in 0..17 {
                assert_eq!(ad[i * 17 + j], td[j * 13 + i]);
            }
        }
    }

    #[test]
    fn transpose_empty() {
        let a = Csr::zero(3, 5);
        let t = a.transpose();
        assert_eq!((t.nrows(), t.ncols(), t.nnz()), (5, 3, 0));
    }
}
