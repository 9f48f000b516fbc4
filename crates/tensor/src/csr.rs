use crate::storage::{check_crd_level, check_pos_level, check_vals_len};
use crate::{Format, LevelType, ModeStorage, Result, Tensor, TensorError};

/// A compressed sparse row matrix: a rank-2 [`Tensor`] whose arrays are
/// exactly those of Figure 1b of the paper (`pos`, `crd`, `vals`).
///
/// This is the view the hand-written baseline kernels (Gustavson SpGEMM,
/// merge-based addition, ...) read and build. It holds nothing but the
/// tensor: a `(d,s)` one when every row is strictly increasing (like Eigen's
/// products) and a `(d,h)` one when some row is not (like MKL's
/// `mkl_sparse_spmm`); see [`Csr::is_sorted`]. No row repeats a column.
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
pub struct Csr(Tensor);

/// `(d,h)`: the format of a matrix with unsorted rows.
fn unsorted_rows() -> Format {
    Format::new(vec![LevelType::Dense, LevelType::Hashed])
}

/// True when every row `crd[pos[i]..pos[i + 1]]` is strictly increasing;
/// false as well when `pos` does not delimit rows of `crd`.
fn rows_sorted(pos: &[usize], crd: &[usize]) -> bool {
    pos.windows(2)
        .all(|w| crd.get(w[0]..w[1]).is_some_and(|row| row.windows(2).all(|c| c[0] < c[1])))
}

/// The levels of an `n`-row matrix: `(d,s)` when rows are `sorted`.
fn levels(n: usize, sorted: bool, pos: Vec<usize>, crd: Vec<usize>) -> (Format, Vec<ModeStorage>) {
    let format = if sorted { Format::csr() } else { unsorted_rows() };
    (format, vec![ModeStorage::Dense { dim: n }, ModeStorage::Compressed { pos, crd }])
}

impl Csr {
    /// Creates a CSR matrix from raw arrays, taking `pos` and `crd` as they
    /// are and storing each value as `0.0 + v` (so `-0.0` as `+0.0`, as
    /// [`Tensor::from_entries`] stores it).
    ///
    /// # Panics
    ///
    /// Panics if the arrays break an invariant of [`Csr::validate`] other
    /// than finiteness: among them, a row may not repeat a column.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        pos: Vec<usize>,
        crd: Vec<usize>,
        vals: Vec<f64>,
    ) -> Self {
        let sorted = rows_sorted(&pos, &crd);
        let checked = check_pos_level(&pos, crd.len(), nrows, 1)
            .and_then(|()| check_crd_level(&pos, &crd, nrows, ncols, sorted, true, 1))
            .and_then(|()| check_vals_len(&vals, crd.len(), 1));
        if let Err(e) = checked {
            panic!("invalid CSR arrays: {e}");
        }
        let (format, modes) = levels(nrows, sorted, pos, crd);
        let vals = vals.iter().map(|v| v + 0.0).collect();
        Csr(Tensor::assemble(vec![nrows, ncols], format, modes, vals))
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
        let (format, modes) = levels(nrows, rows_sorted(&pos, &crd), pos, crd);
        Csr(Tensor::from_parts_unchecked(vec![nrows, ncols], format, modes, vals))
    }

    /// [`Tensor::validate`] of the matrix's `(d,s)` or `(d,h)` tensor.
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidStorage`] for the first violated invariant.
    pub fn validate(&self) -> Result<()> {
        self.0.validate()
    }

    /// Builds a CSR matrix from `(row, col, value)` triplets, as
    /// [`Tensor::from_entries`] does: duplicates are summed and rows end up
    /// sorted.
    ///
    /// # Panics
    ///
    /// Panics if a triplet is out of bounds.
    pub fn from_triplets(nrows: usize, ncols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let entries = triplets.iter().map(|&(r, c, v)| ([r, c], v));
        match Tensor::pack(vec![nrows, ncols], Format::csr(), entries) {
            Ok(t) => Csr(t),
            Err(e) => panic!("invalid triplet: {e}"),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.0.dim(0)
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.0.dim(1)
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.0.nnz()
    }

    /// The column level's `pos` and `crd` arrays.
    fn columns(&self) -> (&[usize], &[usize]) {
        match self.0.mode_storage(1) {
            ModeStorage::Compressed { pos, crd } => (pos, crd),
            _ => unreachable!("a Csr's column level is compressed or hashed"),
        }
    }

    /// The row-segment position array (`B_pos` in the paper).
    pub fn pos(&self) -> &[usize] {
        self.columns().0
    }

    /// The column coordinate array (`B_crd` in the paper).
    pub fn crd(&self) -> &[usize] {
        self.columns().1
    }

    /// The value array (`B` in the paper).
    pub fn vals(&self) -> &[f64] {
        self.0.vals()
    }

    /// The column coordinates and values of row `i`.
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let (pos, crd) = self.columns();
        let rows = pos[i]..pos[i + 1];
        (&crd[rows.clone()], &self.vals()[rows])
    }

    /// True if the matrix is `(d,s)`: every row's column coordinates are
    /// strictly increasing.
    pub fn is_sorted(&self) -> bool {
        *self.0.format() == Format::csr()
    }

    /// Wraps a `(d,s)` or `(d,h)` [`Tensor`], rows as stored.
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor is not rank-2 `(d,s)` or `(d,h)`.
    pub fn from_tensor(t: &Tensor) -> Result<Self> {
        if ![Format::csr(), unsorted_rows()].contains(t.format()) {
            return Err(TensorError::FormatMismatch { expected: "rank-2 (d,s) or (d,h) tensor" });
        }
        Ok(Csr(t.clone()))
    }

    /// The matrix as a CSR [`Tensor`]: its own tensor when its rows are
    /// sorted, that tensor converted to `(d,s)` when they are not.
    pub fn to_tensor(&self) -> Tensor {
        if self.is_sorted() {
            self.0.clone()
        } else {
            self.0.convert(Format::csr()).expect("a (d,h) matrix converts to (d,s)")
        }
    }

    /// Dense `nrows * ncols` row-major image of the matrix.
    pub fn to_dense_vec(&self) -> Vec<f64> {
        self.0.to_dense().into_data()
    }

    /// True if the two matrices represent the same values up to `tol`
    /// (entry order within rows does not matter).
    pub fn approx_eq(&self, other: &Csr, tol: f64) -> bool {
        self.0.approx_eq(&other.0, tol)
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
        let a = Csr::from_raw(1, 4, vec![0, 3], vec![2, 0, 3], vec![1.0, 2.0, 3.0]);
        assert!(!a.is_sorted());
        let t = a.to_tensor();
        assert_eq!(t.crd(1).unwrap(), &[0, 2, 3]);
        assert_eq!(t.vals(), &[2.0, 1.0, 3.0]);
        assert!(Csr::from_tensor(&t).unwrap().is_sorted());
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
        let (format, modes) = levels(1, false, vec![0, 2], vec![3, 1]);
        let t = Tensor::from_parts(vec![1, 4], format, modes, vec![1.0, 2.0]);
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
    #[should_panic(expected = "pos is not monotone")]
    fn from_raw_validates_pos() {
        Csr::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "repeats coordinate 1")]
    fn from_raw_refuses_a_repeated_column() {
        Csr::from_raw(2, 3, vec![0, 1, 4], vec![0, 1, 2, 1], vec![1.0; 4]);
    }
}
