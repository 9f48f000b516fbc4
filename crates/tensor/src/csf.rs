use crate::{Format, ModeStorage, Result, Tensor, TensorError};

/// A 3-order tensor in compressed sparse fiber (CSF) layout: an `(s,s,s)`
/// [`Tensor`], three levels of `pos`/`crd` arrays over a value array, as
/// used by the MTTKRP kernels in Section VII of the paper (arrays
/// `B1_pos/B1_crd`, `B2_pos/B2_crd`, `B3_pos/B3_crd`, `B`).
///
/// # Example
///
/// ```
/// use taco_tensor::Csf3;
///
/// let b = Csf3::from_quads([2, 2, 2], &[(0, 1, 0, 1.0), (1, 0, 1, 2.0)]);
/// assert_eq!((b.nnz(), b.crd(0)), (2, &[0, 1][..]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csf3(Tensor);

impl Csf3 {
    /// Builds a CSF tensor from `(i, k, l, value)` quadruples (mode order as
    /// in the paper's MTTKRP: `B_ikl`), as [`Tensor::from_entries`] does:
    /// duplicates are summed.
    ///
    /// # Panics
    ///
    /// Panics if a quadruple is out of bounds.
    pub fn from_quads(dims: [usize; 3], quads: &[(usize, usize, usize, f64)]) -> Self {
        let entries = quads.iter().map(|&(i, k, l, v)| ([i, k, l], v));
        match Tensor::pack(dims.to_vec(), Format::csf3(), entries) {
            Ok(t) => Csf3(t),
            Err(e) => panic!("invalid quadruple: {e}"),
        }
    }

    /// Wraps a `{Compressed, Compressed, Compressed}` rank-3 [`Tensor`].
    ///
    /// # Errors
    ///
    /// Returns an error if the tensor is not rank-3 CSF.
    pub fn from_tensor(t: &Tensor) -> Result<Self> {
        if *t.format() != Format::csf3() {
            return Err(TensorError::FormatMismatch { expected: "rank-3 (s,s,s) CSF tensor" });
        }
        Ok(Csf3(t.clone()))
    }

    /// Creates a CSF tensor from raw `(pos, crd)` arrays, outermost level
    /// first, with **no** invariant checks.
    ///
    /// This exists for fault-injection testing: it can represent corrupted
    /// storage that [`Csf3::validate`] rejects. Any other use is a bug —
    /// accessors may panic on tensors built this way.
    pub fn from_raw_unchecked(
        dims: [usize; 3],
        levels: [(Vec<usize>, Vec<usize>); 3],
        vals: Vec<f64>,
    ) -> Self {
        let modes = levels.map(|(pos, crd)| ModeStorage::Compressed { pos, crd }).into();
        Csf3(Tensor::from_parts_unchecked(dims.to_vec(), Format::csf3(), modes, vals))
    }

    /// [`Tensor::validate`] of the `(s,s,s)` tensor: every segment strictly
    /// increasing and in bounds.
    ///
    /// # Errors
    ///
    /// [`TensorError::InvalidStorage`] for the first violated invariant.
    pub fn validate(&self) -> Result<()> {
        self.0.validate()
    }

    /// The tensor as an `(s,s,s)` [`Tensor`].
    pub fn to_tensor(&self) -> Tensor {
        self.0.clone()
    }

    /// The three dimensions.
    pub fn dims(&self) -> [usize; 3] {
        [self.0.dim(0), self.0.dim(1), self.0.dim(2)]
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.0.nnz()
    }

    /// The position array of level `level` (0, 1 or 2).
    pub fn pos(&self, level: usize) -> &[usize] {
        self.0.pos(level).expect("every CSF level is compressed")
    }

    /// The coordinate array of level `level` (0, 1 or 2).
    pub fn crd(&self, level: usize) -> &[usize] {
        self.0.crd(level).expect("every CSF level is compressed")
    }

    /// Value array.
    pub fn vals(&self) -> &[f64] {
        self.0.vals()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quads_round_trip() {
        let b = Csf3::from_quads(
            [3, 4, 5],
            &[(0, 1, 2, 1.0), (0, 1, 4, 2.0), (2, 0, 0, 3.0), (2, 3, 1, 4.0)],
        );
        assert_eq!(b.nnz(), 4);
        assert_eq!(b.crd(0), &[0, 2]);
        let t = b.to_tensor();
        let b2 = Csf3::from_tensor(&t).unwrap();
        assert_eq!(b, b2);
    }

    #[test]
    fn duplicates_summed() {
        let b = Csf3::from_quads([2, 2, 2], &[(1, 1, 1, 1.0), (1, 1, 1, 2.5)]);
        assert_eq!(b.nnz(), 1);
        assert_eq!(b.vals(), &[3.5]);
    }

    #[test]
    fn wrong_format_rejected() {
        let t = Tensor::from_entries(vec![2, 2], Format::csr(), vec![(vec![0, 0], 1.0)]).unwrap();
        assert!(Csf3::from_tensor(&t).is_err());
    }
}
