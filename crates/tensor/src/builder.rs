use crate::{Format, LevelType, ModeStorage, Result, Tensor, TensorError};
use std::sync::Arc;

/// Incremental builder for [`Tensor`] values.
///
/// Entries may be inserted in any order; [`TensorBuilder::build`] sorts them
/// lexicographically, sums duplicates, and packs the per-level `pos`/`crd`
/// arrays.
///
/// # Example
///
/// ```
/// use taco_tensor::{Format, TensorBuilder};
///
/// let mut b = TensorBuilder::new(vec![3, 3], Format::csr())?;
/// b.insert(&[2, 1], 4.0)?;
/// b.insert(&[0, 0], 1.0)?;
/// b.insert(&[2, 1], 1.0)?; // duplicates are summed
/// let t = b.build();
/// assert_eq!(t.nnz(), 2);
/// assert_eq!(t.to_dense().get(&[2, 1]), 5.0);
/// # Ok::<(), taco_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TensorBuilder {
    shape: Vec<usize>,
    format: Format,
    /// Queued coordinates, `rank` per entry back to back, so queueing and
    /// sorting entries allocates nothing per entry.
    coords: Vec<usize>,
    vals: Vec<f64>,
}

impl TensorBuilder {
    /// Creates a builder for a tensor of the given shape and format.
    ///
    /// # Errors
    ///
    /// Returns an error if the format rank does not match the shape rank,
    /// the shape is empty, or the format's level-type chain is unrealizable
    /// (see [`Format::check_level_types`]).
    pub fn new(shape: Vec<usize>, format: Format) -> Result<Self> {
        if shape.is_empty() {
            return Err(TensorError::EmptyShape);
        }
        if shape.len() != format.rank() {
            return Err(TensorError::FormatRankMismatch {
                shape_rank: shape.len(),
                format_rank: format.rank(),
            });
        }
        format.check_level_types()?;
        Ok(TensorBuilder { shape, format, coords: Vec::new(), vals: Vec::new() })
    }

    /// Reserves room for `additional` more entries, so inserting that many
    /// does not regrow the queue.
    pub fn reserve(&mut self, additional: usize) {
        self.coords.reserve(additional * self.shape.len());
        self.vals.reserve(additional);
    }

    /// Queues a component for insertion.
    ///
    /// # Errors
    ///
    /// Returns an error if the coordinate has the wrong rank or is out of
    /// bounds.
    pub fn insert(&mut self, coord: &[usize], value: f64) -> Result<&mut Self> {
        if coord.len() != self.shape.len() {
            return Err(TensorError::RankMismatch {
                expected: self.shape.len(),
                found: coord.len(),
            });
        }
        for (mode, (&c, &d)) in coord.iter().zip(&self.shape).enumerate() {
            if c >= d {
                return Err(TensorError::CoordOutOfBounds { mode, coord: c, dim: d });
            }
        }
        self.coords.extend_from_slice(coord);
        self.vals.push(value);
        Ok(self)
    }

    /// Number of queued entries (before duplicate merging).
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True if no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Sorts, merges and packs the queued entries into a [`Tensor`].
    ///
    /// Entries are sorted by the format's *storage* order (levels outermost
    /// first, each level reading the mode it stores), duplicates are merged
    /// by summation, and each level is packed according to its
    /// [`LevelType`]: dense levels multiply positions out, compressed and
    /// hashed levels group by `(parent, coordinate)`, non-unique compressed
    /// levels (those above singletons) give every component its own
    /// position, and singleton levels store one coordinate per parent
    /// position.
    pub fn build(mut self) -> Tensor {
        let rank = self.shape.len();
        let order = self.format.mode_order();
        let coords = &self.coords;
        let coord = |e: usize| &coords[e * rank..(e + 1) * rank];
        // Entry indices in storage order. Coordinates are compared in place
        // and the sort is stable, so duplicates stay in insertion order.
        let mut merged: Vec<usize> = (0..self.vals.len()).collect();
        merged.sort_by(|&a, &b| {
            let (a, b) = (coord(a), coord(b));
            order.iter().map(|&m| a[m]).cmp(order.iter().map(|&m| b[m]))
        });
        // Merge duplicate coordinates up front: non-unique levels below give
        // every surviving entry its own position, so duplicates must not
        // survive to packing. The first entry of each run of equal
        // coordinates survives and collects the run's sum, in order.
        let queued = &mut self.vals;
        merged.dedup_by(|e, first| {
            let duplicate = coord(*e) == coord(*first);
            if duplicate {
                queued[*first] += queued[*e];
            }
            duplicate
        });

        let n = merged.len();
        let mut modes: Vec<ModeStorage> = Vec::with_capacity(rank);

        // `parent_pos[e]` is the position of entry `e` in the level above the
        // one currently being packed. Level -1 (the root) has one position.
        let mut parent_pos: Vec<usize> = vec![0; n];
        let mut num_parent_positions = 1usize;

        for (level, &mode) in order.iter().enumerate().take(rank) {
            let dim = self.shape[mode];
            let lt = self.format.mode(level);
            match lt {
                LevelType::Dense => {
                    for (pp, e) in parent_pos.iter_mut().zip(&merged) {
                        *pp = *pp * dim + coord(*e)[mode];
                    }
                    num_parent_positions *= dim;
                    modes.push(ModeStorage::Dense { dim });
                }
                LevelType::Compressed | LevelType::Hashed
                    if !self.format.level_unique(level) =>
                {
                    // Non-unique level (a singleton level follows): every
                    // entry keeps its own position even when coordinates
                    // repeat, as in COO's outer coordinate array.
                    let mut pos = vec![0usize; num_parent_positions + 1];
                    let mut crd = Vec::with_capacity(n);
                    for (pp, e) in parent_pos.iter_mut().zip(&merged) {
                        pos[*pp + 1] += 1;
                        crd.push(coord(*e)[mode]);
                        *pp = crd.len() - 1;
                    }
                    for p in 0..num_parent_positions {
                        pos[p + 1] += pos[p];
                    }
                    num_parent_positions = crd.len();
                    modes.push(ModeStorage::Compressed { pos, crd });
                }
                LevelType::Compressed | LevelType::Hashed => {
                    let mut pos = vec![0usize; num_parent_positions + 1];
                    let mut crd = Vec::with_capacity(n);
                    let mut prev: Option<(usize, usize)> = None;
                    for (pp, e) in parent_pos.iter_mut().zip(&merged) {
                        let key = (*pp, coord(*e)[mode]);
                        if prev != Some(key) {
                            // A new (parent, coordinate) group starts here.
                            pos[key.0 + 1] += 1;
                            crd.push(key.1);
                            prev = Some(key);
                        }
                        *pp = crd.len() - 1;
                    }
                    // Prefix-sum the per-parent counts into segment bounds.
                    for p in 0..num_parent_positions {
                        pos[p + 1] += pos[p];
                    }
                    // Outer levels hold fewer groups than entries.
                    crd.shrink_to_fit();
                    num_parent_positions = crd.len();
                    modes.push(ModeStorage::Compressed { pos, crd });
                }
                LevelType::Singleton => {
                    // One coordinate per parent position; positions pass
                    // through unchanged. The parent is non-unique, so each
                    // entry already owns a distinct parent position.
                    let crd: Vec<usize> = merged.iter().map(|e| coord(*e)[mode]).collect();
                    modes.push(ModeStorage::Singleton { crd });
                }
            }
        }

        // Summed straight behind the tensor's `Arc`, never copied into it.
        let mut vals: Arc<[f64]> = std::iter::repeat_n(0.0, num_parent_positions).collect();
        let slots = Arc::get_mut(&mut vals).expect("a fresh Arc has one owner");
        for (pp, e) in parent_pos.iter().zip(&merged) {
            slots[*pp] += queued[*e];
        }

        Tensor::assemble(self.shape, self.format, modes, vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_builder_builds_empty_tensor() {
        let t = TensorBuilder::new(vec![3, 3], Format::csr()).unwrap().build();
        assert_eq!(t.nnz(), 0);
        assert_eq!(t.pos(1).unwrap(), &[0, 0, 0, 0]);
        assert_eq!(t.crd(1).unwrap(), &[] as &[usize]);
    }

    #[test]
    fn empty_dense_tensor_is_all_zero() {
        let t = TensorBuilder::new(vec![2, 2], Format::dense(2)).unwrap().build();
        assert_eq!(t.nnz(), 4);
        assert_eq!(t.vals(), &[0.0; 4]);
    }

    #[test]
    fn out_of_order_insertion_is_sorted() {
        let mut b = TensorBuilder::new(vec![4], Format::svec()).unwrap();
        b.insert(&[3], 3.0).unwrap();
        b.insert(&[0], 0.5).unwrap();
        b.insert(&[1], 1.0).unwrap();
        let t = b.build();
        assert_eq!(t.crd(0).unwrap(), &[0, 1, 3]);
        assert_eq!(t.vals(), &[0.5, 1.0, 3.0]);
    }

    #[test]
    fn duplicates_sum_in_insertion_order() {
        // (1e16 + 1) - 1e16 rounds to 0; any other order of the three gives 1.
        let mut b = TensorBuilder::new(vec![2, 4], Format::csc()).unwrap();
        b.insert(&[1, 2], 1e16).unwrap();
        b.insert(&[0, 3], 7.0).unwrap();
        b.insert(&[1, 2], 1.0).unwrap();
        b.insert(&[1, 0], 5.0).unwrap();
        b.insert(&[1, 2], -1e16).unwrap();
        let t = b.build();
        assert_eq!(t.crd(1).unwrap(), &[1, 1, 0]);
        assert_eq!(t.vals(), &[5.0, 0.0, 7.0]);
    }

    #[test]
    fn rank_mismatch_rejected() {
        let mut b = TensorBuilder::new(vec![4], Format::svec()).unwrap();
        let err = b.insert(&[1, 2], 1.0).unwrap_err();
        assert_eq!(err, TensorError::RankMismatch { expected: 1, found: 2 });
    }

    #[test]
    fn bounds_checked() {
        let mut b = TensorBuilder::new(vec![2, 4], Format::csr()).unwrap();
        let err = b.insert(&[1, 4], 1.0).unwrap_err();
        assert_eq!(err, TensorError::CoordOutOfBounds { mode: 1, coord: 4, dim: 4 });
    }

    #[test]
    fn format_rank_checked() {
        let err = TensorBuilder::new(vec![2, 2], Format::svec()).unwrap_err();
        assert_eq!(err, TensorError::FormatRankMismatch { shape_rank: 2, format_rank: 1 });
    }

    #[test]
    fn dcsr_skips_empty_rows() {
        let mut b = TensorBuilder::new(vec![4, 4], Format::dcsr()).unwrap();
        b.insert(&[0, 1], 1.0).unwrap();
        b.insert(&[3, 2], 2.0).unwrap();
        let t = b.build();
        // Only two rows are stored at the outer level.
        assert_eq!(t.crd(0).unwrap(), &[0, 3]);
        assert_eq!(t.pos(0).unwrap(), &[0, 2]);
        assert_eq!(t.pos(1).unwrap(), &[0, 1, 2]);
    }

    #[test]
    fn dense_inner_level() {
        // Row-major dense columns under compressed rows ({s, d}).
        let mut b = TensorBuilder::new(
            vec![3, 2],
            Format::new(vec![LevelType::Compressed, LevelType::Dense]),
        )
        .unwrap();
        b.insert(&[1, 1], 5.0).unwrap();
        let t = b.build();
        assert_eq!(t.crd(0).unwrap(), &[1]);
        // One stored row of 2 dense values.
        assert_eq!(t.vals(), &[0.0, 5.0]);
    }
}
