use std::fmt;

use crate::{Result, TensorError};

/// Storage type of a single tensor level, following the level-capability
/// decomposition of Chou, Kjolstad & Amarasinghe ("Format Abstraction for
/// Sparse Tensor Algebra Compilers").
///
/// The paper (Section II) classifies per-level formats as *dense* (every
/// component stored) or *sparse/compressed* (only nonzeros stored, using a
/// `pos` array of segment boundaries and a `crd` array of coordinates).
/// The format-abstraction follow-up adds *singleton* levels (one coordinate
/// per parent position — the building block of COO) and *hashed* levels
/// (`pos`/`crd` storage whose segments are unordered).
///
/// Rather than matching on the concrete type, consumers should ask a level
/// for its **properties** ([`LevelType::is_full`], [`LevelType::is_ordered`],
/// [`LevelType::is_branchless`]) and **capabilities**
/// ([`LevelType::has_locate`], [`LevelType::has_pos_array`],
/// [`LevelType::has_append`], [`LevelType::has_insert`]); uniqueness is a
/// property of a level *within* a [`Format`] (see [`Format::level_unique`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LevelType {
    /// Every coordinate in `0..dim` is stored.
    Dense,
    /// Only nonzero coordinates are stored in `pos`/`crd` arrays
    /// (Figure 1b of the paper), ordered within each segment.
    Compressed,
    /// Exactly one coordinate per parent position, stored in a `crd` array
    /// with no `pos` array: child position equals parent position. Chains of
    /// singleton levels under a non-unique compressed level yield COO.
    Singleton,
    /// `pos`/`crd` storage whose segments are *unordered* (hash-bucket
    /// layout flattened to arrays). Coordinates are unique per segment but
    /// carry no order, so hashed levels cannot drive merged co-iteration.
    Hashed,
}

impl LevelType {
    /// **Property — full:** every coordinate in `0..dim` has a stored
    /// position (no compression).
    pub fn is_full(self) -> bool {
        matches!(self, LevelType::Dense)
    }

    /// **Property — ordered:** positions enumerate coordinates in increasing
    /// order, so the level can participate in two-way merge co-iteration.
    pub fn is_ordered(self) -> bool {
        !matches!(self, LevelType::Hashed)
    }

    /// **Property — branchless:** iterating the level introduces no loop of
    /// its own (dense levels are strided address arithmetic, singleton
    /// levels are a single coordinate load per parent position).
    pub fn is_branchless(self) -> bool {
        matches!(self, LevelType::Dense | LevelType::Singleton)
    }

    /// **Capability — locate:** the position of a coordinate can be computed
    /// directly (`pos = parent_pos * dim + coord`), enabling random access.
    pub fn has_locate(self) -> bool {
        matches!(self, LevelType::Dense)
    }

    /// **Capability — position pass-through:** the level stores exactly one
    /// coordinate per parent position, so "iterating" it is a single `crd`
    /// load at the parent position with no loop.
    pub fn is_position_passthrough(self) -> bool {
        matches!(self, LevelType::Singleton)
    }

    /// **Capability — append assembly:** result coordinates can be appended
    /// (in any order to a hashed level), growing `crd`/`vals` and `pos`.
    pub fn has_append(self) -> bool {
        self.has_pos_array()
    }

    /// **Capability — insert assembly:** results can be written by locating
    /// the destination position (requires [`LevelType::has_locate`]).
    pub fn has_insert(self) -> bool {
        matches!(self, LevelType::Dense)
    }

    /// **Capability — position iteration:** the level stores an explicit
    /// `pos` array: per parent position, a contiguous position range.
    pub fn has_pos_array(self) -> bool {
        matches!(self, LevelType::Compressed | LevelType::Hashed)
    }

    /// True if the level stores an explicit `crd` array.
    pub fn has_crd_array(self) -> bool {
        matches!(self, LevelType::Compressed | LevelType::Singleton | LevelType::Hashed)
    }
}

impl fmt::Display for LevelType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LevelType::Dense => write!(f, "d"),
            LevelType::Compressed => write!(f, "s"),
            LevelType::Singleton => write!(f, "q"),
            LevelType::Hashed => write!(f, "h"),
        }
    }
}

/// A tensor storage format: one [`LevelType`] per storage level (outermost
/// first) plus a *mode order* mapping storage levels to tensor modes.
///
/// With the identity order, level `l` stores mode `l` (row-major for
/// matrices). A non-identity order stores modes permuted — CSC is
/// `{Dense, Compressed}` with order `[1, 0]` (columns outer, rows inner).
///
/// # Example
///
/// ```
/// use taco_tensor::{Format, LevelType};
///
/// let csr = Format::csr();
/// assert_eq!(csr.mode(0), LevelType::Dense);
/// assert_eq!(csr.mode(1), LevelType::Compressed);
/// assert_eq!(csr.to_string(), "(d,s)");
///
/// let csc = Format::csc();
/// assert_eq!(csc.mode_of_level(0), 1); // outer level stores mode 1
/// assert_eq!(csc.to_string(), "(d,s|1,0)");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Format {
    modes: Vec<LevelType>,
    /// `order[l]` is the tensor mode stored at level `l`.
    order: Vec<usize>,
}

impl Format {
    /// Creates a format from per-level types, outermost first, storing modes
    /// in identity order (level `l` stores mode `l`).
    pub fn new(modes: Vec<LevelType>) -> Self {
        let order = (0..modes.len()).collect();
        Format { modes, order }
    }

    /// Replaces the mode order: `order[l]` is the tensor mode stored at
    /// level `l`. `order` must be a permutation of `0..rank`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidFormat`] if `order` is not a
    /// permutation of `0..rank`.
    pub fn with_mode_order(mut self, order: Vec<usize>) -> Result<Self> {
        if order.len() != self.modes.len() {
            return Err(TensorError::InvalidFormat {
                detail: format!(
                    "mode order has {} entries for a rank-{} format",
                    order.len(),
                    self.modes.len()
                ),
            });
        }
        let mut seen = vec![false; order.len()];
        for &m in &order {
            if m >= order.len() || seen[m] {
                return Err(TensorError::InvalidFormat {
                    detail: format!("mode order {order:?} is not a permutation"),
                });
            }
            seen[m] = true;
        }
        self.order = order;
        Ok(self)
    }

    /// All-dense format of the given rank.
    pub fn dense(rank: usize) -> Self {
        Format::new(vec![LevelType::Dense; rank])
    }

    /// All-compressed format of the given rank: DCSR for rank 2, CSF for
    /// rank 3 and above (every level stores only nonempty slices).
    pub fn compressed(rank: usize) -> Self {
        Format::new(vec![LevelType::Compressed; rank])
    }

    /// Compressed sparse row: `{Dense, Compressed}`.
    pub fn csr() -> Self {
        Format::new(vec![LevelType::Dense, LevelType::Compressed])
    }

    /// Doubly compressed sparse row: `{Compressed, Compressed}`.
    pub fn dcsr() -> Self {
        Format::compressed(2)
    }

    /// Compressed sparse column: `{Dense, Compressed}` with mode order
    /// `[1, 0]` — columns at the outer level, row coordinates compressed
    /// within each column.
    pub fn csc() -> Self {
        Format::csr().with_mode_order(vec![1, 0]).expect("[1,0] is a permutation")
    }

    /// Doubly compressed sparse column: `{Compressed, Compressed}` with mode
    /// order `[1, 0]` (only nonempty columns stored).
    pub fn dcsc() -> Self {
        Format::dcsr().with_mode_order(vec![1, 0]).expect("[1,0] is a permutation")
    }

    /// Coordinate format of the given rank: a non-unique compressed outer
    /// level followed by singleton levels, i.e. parallel coordinate arrays
    /// with one entry per stored component.
    ///
    /// # Panics
    ///
    /// Panics if `rank == 0`.
    pub fn coo(rank: usize) -> Self {
        assert!(rank > 0, "COO requires rank >= 1");
        let mut modes = vec![LevelType::Compressed];
        modes.extend(vec![LevelType::Singleton; rank - 1]);
        Format::new(modes)
    }

    /// Blocked CSR over a rank-4 blocked tensor: `{Dense, Compressed,
    /// Dense, Dense}`. A rank-2 matrix blocked into `br x bc` tiles (see
    /// [`crate::Tensor::to_blocked`]) stores block rows densely, nonempty
    /// block columns compressed, and each stored block as a dense `br x bc`
    /// tile — contiguous inner loops for vectorizing backends.
    pub fn bcsr() -> Self {
        Format::new(vec![
            LevelType::Dense,
            LevelType::Compressed,
            LevelType::Dense,
            LevelType::Dense,
        ])
    }

    /// Compressed sparse fiber for 3-tensors: `{Compressed, Compressed, Compressed}`.
    pub fn csf3() -> Self {
        Format::compressed(3)
    }

    /// Dense vector: `{Dense}`.
    pub fn dvec() -> Self {
        Format::dense(1)
    }

    /// Sparse (compressed) vector: `{Compressed}`.
    pub fn svec() -> Self {
        Format::compressed(1)
    }

    /// Number of levels (= number of modes) in the format.
    pub fn rank(&self) -> usize {
        self.modes.len()
    }

    /// The level type of storage level `level` (0 = outermost).
    ///
    /// # Panics
    ///
    /// Panics if `level >= self.rank()`. Use [`Format::level`] for a checked
    /// accessor returning a typed error.
    pub fn mode(&self, level: usize) -> LevelType {
        self.modes[level]
    }

    /// The level type of storage level `level`, checked.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LevelOutOfBounds`] if `level >= self.rank()`.
    pub fn level(&self, level: usize) -> Result<LevelType> {
        self.modes.get(level).copied().ok_or(TensorError::LevelOutOfBounds {
            level,
            rank: self.modes.len(),
        })
    }

    /// Per-level types, outermost first.
    pub fn modes(&self) -> &[LevelType] {
        &self.modes
    }

    /// The mode order: `mode_order()[l]` is the tensor mode stored at
    /// level `l`.
    pub fn mode_order(&self) -> &[usize] {
        &self.order
    }

    /// The tensor mode stored at level `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= self.rank()`.
    pub fn mode_of_level(&self, level: usize) -> usize {
        self.order[level]
    }

    /// The storage level holding tensor mode `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `mode >= self.rank()`.
    pub fn level_of_mode(&self, mode: usize) -> usize {
        self.order
            .iter()
            .position(|&m| m == mode)
            .expect("mode order is a permutation of 0..rank")
    }

    /// True if level `l` stores mode `l` for every level.
    pub fn is_identity_order(&self) -> bool {
        self.order.iter().enumerate().all(|(l, &m)| l == m)
    }

    /// **Property — unique:** true if no two positions of level `level`
    /// share (ancestry and) coordinate. A level is non-unique exactly when
    /// the next level is a singleton: COO's outer levels repeat coordinates
    /// because each stored component gets its own position chain.
    pub fn level_unique(&self, level: usize) -> bool {
        self.modes.get(level + 1) != Some(&LevelType::Singleton)
    }

    /// True if every level is dense.
    pub fn is_all_dense(&self) -> bool {
        self.modes.iter().all(|m| *m == LevelType::Dense)
    }

    /// True if any level is compressed (or hashed — any level that needs a
    /// `pos` array).
    pub fn has_compressed(&self) -> bool {
        self.modes.iter().any(|m| m.has_pos_array())
    }

    /// True if any level is a singleton.
    pub fn has_singleton(&self) -> bool {
        self.modes.contains(&LevelType::Singleton)
    }

    /// True if any level is hashed (unordered).
    pub fn has_hashed(&self) -> bool {
        self.modes.contains(&LevelType::Hashed)
    }

    /// True if storage enumerates components in lexicographic coordinate
    /// order: every level is ordered and the mode order is the identity.
    pub fn is_ordered(&self) -> bool {
        self.is_identity_order() && self.modes.iter().all(|m| m.is_ordered())
    }

    /// Checks that the level-type chain is realizable: a singleton level
    /// must follow a compressed, hashed, or singleton level (its parent must
    /// be able to hold one position per stored component — dense parents
    /// enumerate every coordinate and cannot).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidFormat`] describing the first invalid
    /// level.
    pub fn check_level_types(&self) -> Result<()> {
        for (l, m) in self.modes.iter().enumerate() {
            if *m == LevelType::Singleton {
                let parent_ok = l > 0
                    && matches!(
                        self.modes[l - 1],
                        LevelType::Compressed | LevelType::Singleton | LevelType::Hashed
                    );
                if !parent_ok {
                    return Err(TensorError::InvalidFormat {
                        detail: format!(
                            "singleton level {l} must follow a compressed, hashed, or \
                             singleton level"
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, m) in self.modes.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{m}")?;
        }
        if !self.is_identity_order() {
            write!(f, "|")?;
            for (i, m) in self.order.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{m}")?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Format::csr().modes(), &[LevelType::Dense, LevelType::Compressed]);
        assert_eq!(Format::dcsr().modes(), &[LevelType::Compressed; 2]);
        assert_eq!(Format::csf3().rank(), 3);
        assert_eq!(Format::dvec().mode(0), LevelType::Dense);
        assert_eq!(Format::svec().mode(0), LevelType::Compressed);
        assert_eq!(
            Format::coo(3).modes(),
            &[LevelType::Compressed, LevelType::Singleton, LevelType::Singleton]
        );
        assert_eq!(Format::csc().mode_order(), &[1, 0]);
        assert_eq!(Format::bcsr().rank(), 4);
    }

    #[test]
    fn predicates() {
        assert!(Format::dense(3).is_all_dense());
        assert!(!Format::csr().is_all_dense());
        assert!(Format::csr().has_compressed());
        assert!(!Format::dense(2).has_compressed());
        assert!(Format::coo(2).has_singleton());
        assert!(!Format::csr().has_singleton());
        assert!(Format::csr().is_ordered());
        assert!(!Format::csc().is_ordered());
    }

    #[test]
    fn capability_queries() {
        assert!(LevelType::Dense.has_locate());
        assert!(LevelType::Dense.is_full());
        assert!(LevelType::Dense.has_insert());
        assert!(!LevelType::Dense.has_pos_array());
        assert!(LevelType::Compressed.has_pos_array());
        assert!(LevelType::Compressed.has_append());
        assert!(LevelType::Compressed.is_ordered());
        assert!(LevelType::Singleton.is_position_passthrough());
        assert!(LevelType::Singleton.is_branchless());
        assert!(!LevelType::Singleton.has_pos_array());
        assert!(LevelType::Singleton.has_crd_array());
        assert!(LevelType::Hashed.has_pos_array());
        assert!(LevelType::Hashed.has_append());
        assert!(!LevelType::Hashed.is_ordered());
    }

    #[test]
    fn uniqueness_from_chain() {
        let coo = Format::coo(3);
        assert!(!coo.level_unique(0));
        assert!(!coo.level_unique(1));
        assert!(coo.level_unique(2));
        assert!(Format::csr().level_unique(0));
        assert!(Format::csr().level_unique(1));
    }

    #[test]
    fn mode_order_mapping() {
        let csc = Format::csc();
        assert_eq!(csc.mode_of_level(0), 1);
        assert_eq!(csc.mode_of_level(1), 0);
        assert_eq!(csc.level_of_mode(0), 1);
        assert_eq!(csc.level_of_mode(1), 0);
        assert!(Format::csr().is_identity_order());
        assert!(!csc.is_identity_order());
    }

    #[test]
    fn bad_mode_order_rejected() {
        assert!(Format::csr().with_mode_order(vec![0]).is_err());
        assert!(Format::csr().with_mode_order(vec![0, 0]).is_err());
        assert!(Format::csr().with_mode_order(vec![1, 2]).is_err());
    }

    #[test]
    fn checked_level_accessor() {
        let f = Format::csr();
        assert_eq!(f.level(1).unwrap(), LevelType::Compressed);
        assert_eq!(
            f.level(2).unwrap_err(),
            TensorError::LevelOutOfBounds { level: 2, rank: 2 }
        );
    }

    #[test]
    fn level_chain_check() {
        assert!(Format::coo(3).check_level_types().is_ok());
        assert!(Format::csr().check_level_types().is_ok());
        let bad = Format::new(vec![LevelType::Dense, LevelType::Singleton]);
        assert!(bad.check_level_types().is_err());
        let bad2 = Format::new(vec![LevelType::Singleton]);
        assert!(bad2.check_level_types().is_err());
    }

    #[test]
    fn display() {
        assert_eq!(Format::csr().to_string(), "(d,s)");
        assert_eq!(Format::csf3().to_string(), "(s,s,s)");
        assert_eq!(Format::coo(2).to_string(), "(s,q)");
        assert_eq!(Format::csc().to_string(), "(d,s|1,0)");
        assert_eq!(Format::dcsc().to_string(), "(s,s|1,0)");
        assert_eq!(Format::bcsr().to_string(), "(d,s,d,d)");
    }
}
