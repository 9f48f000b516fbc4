use crate::{DenseTensor, Format, LevelType, Result, TensorBuilder, TensorError};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Storage of a single tensor level.
///
/// A tensor of rank *k* is stored as a hierarchy of *k* levels. Each level
/// stores, for every *position* of its parent level, the coordinates present
/// in the mode it holds (see [`Format::mode_order`]). A
/// [`ModeStorage::Dense`] level stores all `0..dim` coordinates implicitly; a
/// [`ModeStorage::Compressed`] level stores a `pos`/`crd` pair exactly as in
/// Figure 1b of the paper: the children of parent position `p` live at
/// positions `pos[p]..pos[p+1]`, and `crd[q]` is the coordinate at position
/// `q`. A [`ModeStorage::Singleton`] level stores one coordinate per parent
/// position with no `pos` array — the child position *is* the parent
/// position. Hashed levels ([`LevelType::Hashed`]) reuse the
/// `pos`/`crd` layout with unordered segments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModeStorage {
    /// Dense level: all coordinates in `0..dim` exist at every parent
    /// position. Child position = `parent_pos * dim + coord`.
    Dense {
        /// Dimension of this level's mode.
        dim: usize,
    },
    /// Compressed (or hashed) level: explicit segment boundaries and
    /// coordinates.
    Compressed {
        /// `pos[p]..pos[p+1]` is the position range of parent position `p`.
        pos: Vec<usize>,
        /// `crd[q]` is the coordinate stored at position `q`.
        crd: Vec<usize>,
    },
    /// Singleton level: exactly one coordinate per parent position. The
    /// child position equals the parent position, so no `pos` array exists.
    Singleton {
        /// `crd[p]` is the coordinate at (parent) position `p`.
        crd: Vec<usize>,
    },
}

impl ModeStorage {
    /// Number of positions (stored entries) at this level given the parent
    /// level had `parent_positions` positions.
    pub fn num_positions(&self, parent_positions: usize) -> usize {
        match self {
            ModeStorage::Dense { dim } => parent_positions * dim,
            ModeStorage::Compressed { pos, .. } => *pos.last().unwrap_or(&0),
            ModeStorage::Singleton { crd } => crd.len(),
        }
    }
}

/// Per-level `pos` invariants shared by every `pos`/`crd` representation
/// (the generic [`Tensor`], the flat [`crate::Csr`] and [`crate::Csf3`]
/// views): starts at 0, one entry per parent position plus one, monotone,
/// ends at `crd_len`.
pub(crate) fn check_pos_level(
    pos: &[usize],
    crd_len: usize,
    parent_positions: usize,
    level: usize,
) -> Result<()> {
    let bad = |detail: String| Err(TensorError::InvalidStorage { level, detail });
    if pos.len() != parent_positions + 1 {
        return bad(format!(
            "pos has {} entries, expected {} (parent positions + 1)",
            pos.len(),
            parent_positions + 1
        ));
    }
    if pos[0] != 0 {
        return bad(format!("pos must start at 0, found {}", pos[0]));
    }
    if let Some(w) = pos.windows(2).find(|w| w[0] > w[1]) {
        return bad(format!("pos is not monotone: segment bound {} follows {}", w[1], w[0]));
    }
    let end = *pos.last().expect("pos nonempty: checked length above");
    if end != crd_len {
        return bad(format!("pos ends at {end} but crd has {crd_len} entries"));
    }
    Ok(())
}

/// Per-level `crd` segment invariants, parameterized by the level's
/// properties: `ordered` requires sorted segments (strictly increasing when
/// also `unique`, non-decreasing otherwise); `unique` without order checks
/// duplicate-freedom; bounds are always checked.
pub(crate) fn check_crd_level(
    pos: &[usize],
    crd: &[usize],
    parent_positions: usize,
    dim: usize,
    ordered: bool,
    unique: bool,
    level: usize,
) -> Result<()> {
    let bad = |detail: String| Err(TensorError::InvalidStorage { level, detail });
    for p in 0..parent_positions {
        let seg = &crd[pos[p]..pos[p + 1]];
        if ordered {
            let violation = seg.windows(2).find(|w| if unique { w[0] >= w[1] } else { w[0] > w[1] });
            if let Some(w) = violation {
                let want = if unique { "strictly increasing" } else { "non-decreasing" };
                return bad(format!(
                    "crd segment of parent position {p} is not {want} ({} then {})",
                    w[0], w[1]
                ));
            }
        } else if unique && seg.len() > 1 {
            let mut sorted = seg.to_vec();
            sorted.sort_unstable();
            if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
                return bad(format!(
                    "crd segment of parent position {p} repeats coordinate {}",
                    w[0]
                ));
            }
        }
        if let Some(c) = seg.iter().find(|c| **c >= dim) {
            return bad(format!("coordinate {c} out of bounds for dimension {dim}"));
        }
    }
    Ok(())
}

/// Value-array length invariant: one value per innermost position.
fn check_vals_len(vals: &[f64], positions: usize, level: usize) -> Result<()> {
    let bad = |detail: String| Err(TensorError::InvalidStorage { level, detail });
    if vals.len() != positions {
        return bad(format!(
            "vals has {} entries, expected one per innermost position ({positions})",
            vals.len()
        ));
    }
    Ok(())
}

/// Value-array invariants: one value per innermost position, all finite.
pub(crate) fn check_vals_level(vals: &[f64], positions: usize, level: usize) -> Result<()> {
    let bad = |detail: String| Err(TensorError::InvalidStorage { level, detail });
    check_vals_len(vals, positions, level)?;
    if let Some(q) = vals.iter().position(|v| !v.is_finite()) {
        return bad(format!("non-finite value {} at position {q}", vals[q]));
    }
    Ok(())
}

/// Sorts every `pos` segment by coordinate (stably) and sums the values of
/// repeated coordinates in their stored order — what [`TensorBuilder`] does
/// to unordered input, confined to one segment at a time. `vals` of `None`
/// stands for all-zero values.
fn normalise_segments(
    pos: &[usize],
    crd: &[usize],
    vals: Option<&[f64]>,
) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let mut out_pos = Vec::with_capacity(pos.len());
    let mut out_crd = Vec::with_capacity(crd.len());
    let mut out_vals: Vec<f64> = Vec::with_capacity(crd.len());
    let mut order: Vec<usize> = Vec::new();
    out_pos.push(0);
    for seg in pos.windows(2) {
        let start = out_crd.len();
        order.clear();
        order.extend(seg[0]..seg[1]);
        order.sort_by_key(|&q| crd[q]);
        for &q in &order {
            let v = vals.map_or(0.0, |vals| vals[q]);
            match out_vals.last_mut() {
                Some(sum) if out_crd.len() > start && out_crd.last() == Some(&crd[q]) => *sum += v,
                _ => {
                    out_crd.push(crd[q]);
                    out_vals.push(v);
                }
            }
        }
        out_pos.push(out_crd.len());
    }
    (out_pos, out_crd, out_vals)
}

/// A validated tensor's index arrays as kernels read them: every `pos` and
/// `crd` array widened from `usize` to `i64` once, each behind an `Arc` that
/// every binding of the tensor shares. See [`Tensor::index_arrays`].
#[derive(Debug, Clone)]
pub struct IndexArrays {
    pos: Vec<Option<Arc<[i64]>>>,
    crd: Vec<Option<Arc<[i64]>>>,
}

impl IndexArrays {
    fn widen(t: &Tensor) -> IndexArrays {
        let widen = |a: &[usize]| a.iter().map(|&x| x as i64).collect::<Arc<[i64]>>();
        let levels = 0..t.rank();
        IndexArrays {
            pos: levels.clone().map(|l| t.pos(l).ok().map(widen)).collect(),
            crd: levels.map(|l| t.crd(l).ok().map(widen)).collect(),
        }
    }

    /// Level `level`'s `pos` array.
    ///
    /// # Errors
    ///
    /// As [`Tensor::pos`]: the level stores no `pos` array.
    pub fn pos(&self, level: usize) -> Result<&Arc<[i64]>> {
        let missing = TensorError::FormatMismatch { expected: "level with a pos array" };
        self.pos.get(level).and_then(Option::as_ref).ok_or(missing)
    }

    /// Level `level`'s `crd` array.
    ///
    /// # Errors
    ///
    /// As [`Tensor::crd`]: the level stores no `crd` array.
    pub fn crd(&self, level: usize) -> Result<&Arc<[i64]>> {
        let missing = TensorError::FormatMismatch { expected: "level with a crd array" };
        self.crd.get(level).and_then(Option::as_ref).ok_or(missing)
    }
}

/// A sparse (or dense) tensor stored level by level.
///
/// The value array stores one `f64` per position of the innermost level, in
/// position order — exactly the layout taco generates code against.
///
/// Construct tensors with [`Tensor::from_entries`], [`TensorBuilder`], or
/// [`Tensor::from_dense`]; convert between formats with [`Tensor::convert`]
/// and [`Tensor::to_blocked`]/[`Tensor::from_blocked`].
///
/// A tensor is immutable once built. Its values sit behind an `Arc`, and a
/// clone or a kernel binding shares them.
#[derive(Clone)]
pub struct Tensor {
    shape: Vec<usize>,
    format: Format,
    modes: Vec<ModeStorage>,
    vals: Arc<[f64]>,
    /// [`Tensor::validate`]'s verdict with, when it passed, the widened
    /// index arrays: made by the first [`Tensor::index_arrays`] call. The
    /// tensor never changes, so neither does this. It takes no part in
    /// equality or `Debug`. Behind an `Arc`, which keeps the tensor small
    /// and lets a clone share it.
    index_arrays: OnceLock<Arc<Result<IndexArrays>>>,
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Tensor) -> bool {
        self.shape == other.shape
            && self.format == other.format
            && self.modes == other.modes
            && self.vals == other.vals
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tensor")
            .field("shape", &self.shape)
            .field("format", &self.format)
            .field("modes", &self.modes)
            .field("vals", &self.vals)
            .finish()
    }
}

impl Tensor {
    /// Creates a tensor directly from its level storage and values, which
    /// are copied once behind the tensor's `Arc`.
    ///
    /// This is the raw constructor; most callers want
    /// [`Tensor::from_entries`].
    ///
    /// # Panics
    ///
    /// Panics if the number of levels does not match the shape/format rank,
    /// or if `vals` does not have one value per innermost position.
    pub fn from_parts(
        shape: Vec<usize>,
        format: Format,
        modes: Vec<ModeStorage>,
        vals: Vec<f64>,
    ) -> Self {
        assert_eq!(shape.len(), format.rank(), "shape/format rank mismatch");
        assert_eq!(shape.len(), modes.len(), "shape/levels rank mismatch");
        let mut positions = 1;
        for m in &modes {
            positions = m.num_positions(positions);
        }
        assert_eq!(positions, vals.len(), "vals length must match innermost positions");
        Tensor::assemble(shape, format, modes, vals.into())
    }

    /// Creates a tensor from its level storage and values with **no**
    /// invariant checks.
    ///
    /// This exists for fault-injection testing (see [`crate::corrupt`]): it
    /// can represent corrupted storage that [`Tensor::validate`] rejects and
    /// [`Tensor::from_parts`] would refuse to build. Any other use is a bug —
    /// methods like [`Tensor::entries`] may panic on tensors built this way.
    pub fn from_parts_unchecked(
        shape: Vec<usize>,
        format: Format,
        modes: Vec<ModeStorage>,
        vals: Vec<f64>,
    ) -> Self {
        Tensor::assemble(shape, format, modes, vals.into())
    }

    /// Every constructor ends here, with the values already behind their
    /// `Arc`. Unchecked, like [`Tensor::from_parts_unchecked`].
    pub(crate) fn assemble(
        shape: Vec<usize>,
        format: Format,
        modes: Vec<ModeStorage>,
        vals: Arc<[f64]>,
    ) -> Self {
        Tensor { shape, format, modes, vals, index_arrays: OnceLock::new() }
    }

    /// Decomposes the tensor into `(shape, format, modes, vals)`, copying
    /// the values out.
    pub fn into_parts(self) -> (Vec<usize>, Format, Vec<ModeStorage>, Vec<f64>) {
        (self.shape, self.format, self.modes, self.vals.to_vec())
    }

    /// Checks every storage invariant the compiled kernels rely on, level by
    /// level according to each level's [`LevelType`] properties:
    ///
    /// * shape, format and level storage agree in rank, the format's
    ///   level-type chain is realizable, and each level's storage variant
    ///   matches its declared type;
    /// * each `pos`-array level's `pos` starts at 0, is monotonically
    ///   non-decreasing, has one entry per parent position plus one, and ends
    ///   exactly at `crd.len()`;
    /// * ordered segments are sorted (strictly increasing for unique levels,
    ///   non-decreasing for the non-unique levels above singletons), hashed
    ///   segments are duplicate-free, and all coordinates are in bounds;
    /// * singleton levels store exactly one coordinate per parent position,
    ///   and formats containing singleton chains enumerate strictly
    ///   increasing coordinate tuples (no hidden duplicate components);
    /// * `vals` holds exactly one value per innermost position, and every
    ///   value is finite.
    ///
    /// This is the full pass, every call. Binding a tensor goes through
    /// [`Tensor::index_arrays`], which runs it once per tensor and keeps the
    /// verdict, so corrupted operands fail with a typed error before any
    /// kernel touches their arrays.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidStorage`] describing the first violated
    /// invariant.
    pub fn validate(&self) -> Result<()> {
        let bad = |level: usize, detail: String| {
            Err(TensorError::InvalidStorage { level, detail })
        };
        if self.shape.is_empty() {
            return Err(TensorError::EmptyShape);
        }
        if self.format.rank() != self.shape.len() || self.modes.len() != self.shape.len() {
            return bad(
                0,
                format!(
                    "rank disagreement: shape has {} modes, format {}, storage {}",
                    self.shape.len(),
                    self.format.rank(),
                    self.modes.len()
                ),
            );
        }
        self.format.check_level_types()?;
        let mut parent_positions = 1usize;
        for (level, mode) in self.modes.iter().enumerate() {
            let lt = self.format.mode(level);
            let dim = self.shape[self.format.mode_of_level(level)];
            match (mode, lt) {
                (ModeStorage::Dense { dim: stored }, LevelType::Dense) => {
                    if *stored != dim {
                        return bad(
                            level,
                            format!("dense level stores dimension {stored}, shape says {dim}"),
                        );
                    }
                    parent_positions = match parent_positions.checked_mul(dim) {
                        Some(p) => p,
                        None => {
                            return bad(level, format!("dense level size overflows ({dim} wide)"))
                        }
                    };
                }
                (
                    ModeStorage::Compressed { pos, crd },
                    LevelType::Compressed | LevelType::Hashed,
                ) => {
                    check_pos_level(pos, crd.len(), parent_positions, level)?;
                    check_crd_level(
                        pos,
                        crd,
                        parent_positions,
                        dim,
                        lt.is_ordered(),
                        // Hashed levels are always unique; compressed levels
                        // are unique unless a singleton level follows.
                        lt == LevelType::Hashed || self.format.level_unique(level),
                        level,
                    )?;
                    parent_positions = crd.len();
                }
                (ModeStorage::Singleton { crd }, LevelType::Singleton) => {
                    if crd.len() != parent_positions {
                        return bad(
                            level,
                            format!(
                                "singleton crd has {} entries, expected one per parent \
                                 position ({parent_positions})",
                                crd.len()
                            ),
                        );
                    }
                    if let Some(c) = crd.iter().find(|c| **c >= dim) {
                        return bad(
                            level,
                            format!("coordinate {c} out of bounds for dimension {dim}"),
                        );
                    }
                    // Position pass-through: the child count equals the
                    // parent count.
                }
                (stored, declared) => {
                    let kind = match stored {
                        ModeStorage::Dense { .. } => "dense",
                        ModeStorage::Compressed { .. } => "compressed",
                        ModeStorage::Singleton { .. } => "singleton",
                    };
                    return bad(
                        level,
                        format!("storage is {kind} but the format declares {declared}"),
                    );
                }
            }
        }
        check_vals_level(&self.vals, parent_positions, self.rank() - 1)?;
        if self.format.has_singleton() && !self.format.has_hashed() {
            // Singleton chains hide per-component coordinates in non-unique
            // levels; confirm the stored tuples are strictly increasing in
            // storage order so no duplicate component can slip through.
            let mut walked = Vec::with_capacity(self.vals.len());
            let mut coord = vec![0usize; self.rank()];
            self.walk(0, 0, &mut coord, &mut |coord, val| walked.push((coord.to_vec(), val)));
            let key = |coord: &[usize]| -> Vec<usize> {
                self.format.mode_order().iter().map(|&m| coord[m]).collect()
            };
            if let Some(w) = walked.windows(2).find(|w| key(&w[0].0) >= key(&w[1].0)) {
                return bad(
                    self.rank() - 1,
                    format!(
                        "components are not strictly increasing in storage order \
                         ({:?} then {:?})",
                        w[0].0, w[1].0
                    ),
                );
            }
        }
        Ok(())
    }

    /// Builds a tensor from `(coordinate, value)` entries.
    ///
    /// Duplicate coordinates are summed; explicit zeros are kept (they are
    /// stored nonzeros, as in taco).
    ///
    /// # Errors
    ///
    /// Returns an error if the format rank does not match the shape, or any
    /// entry is out of bounds.
    pub fn from_entries(
        shape: Vec<usize>,
        format: Format,
        entries: Vec<(Vec<usize>, f64)>,
    ) -> Result<Self> {
        let mut b = TensorBuilder::new(shape, format)?;
        b.reserve(entries.len());
        for (coord, val) in entries {
            b.insert(&coord, val)?;
        }
        Ok(b.build())
    }

    /// Builds a tensor of dense levels above one innermost compressed level
    /// — `(s)`, `(d,s)`, `(d,d,s)`, the formats a kernel can append a result
    /// into — directly from that level's arrays as an append-assembling
    /// producer holds them (a kernel's `i64` buffers, a [`crate::Csr`]'s
    /// `usize` arrays), without decoding them into coordinates.
    ///
    /// The arrays are untrusted and checked in one pass: `pos` has one entry
    /// per parent position plus one, starts at 0, is monotone and ends at
    /// `nnz` when the producer reports one; `crd` and `vals` hold at least
    /// that many entries (growth slack beyond it is ignored); no index is
    /// negative and every coordinate is below the innermost dimension.
    /// `vals` of `None` stores zeros (assembly-only producers).
    ///
    /// Segments need not be sorted or duplicate-free. If any is not strictly
    /// increasing, each segment is stably sorted by coordinate and repeated
    /// coordinates are summed in their stored order. Values land in the
    /// tensor as `0.0 + v`, so `-0.0` is stored as `+0.0`. Both match
    /// [`Tensor::from_entries`] over the same components bit for bit.
    /// Non-finite values are accepted — a computed result may overflow —
    /// so the tensor can fail [`Tensor::validate`] on that rule alone.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::FormatMismatch`] for any other format and
    /// [`TensorError::InvalidStorage`] (at the compressed level) for the
    /// first violated array invariant.
    pub fn from_appended_level<I>(
        shape: Vec<usize>,
        format: Format,
        pos: &[I],
        crd: &[I],
        nnz: Option<I>,
        vals: Option<&[f64]>,
    ) -> Result<Tensor>
    where
        I: Copy + TryInto<usize> + std::fmt::Display,
    {
        let level = shape.len().checked_sub(1).ok_or(TensorError::EmptyShape)?;
        let mut level_types = vec![LevelType::Dense; level];
        level_types.push(LevelType::Compressed);
        if format != Format::new(level_types) {
            return Err(TensorError::FormatMismatch {
                expected: "dense levels above one innermost compressed level",
            });
        }
        let bad = |detail: String| TensorError::InvalidStorage { level, detail };
        let index = |what: &str, v: I| {
            v.try_into().map_err(|_| bad(format!("{what} value {v} is not a valid index")))
        };
        // Sized up front: collecting into a `Result` loses the length hint
        // and would regrow the vector log(n) times.
        let indices = |what: &str, xs: &[I]| {
            let mut out = Vec::with_capacity(xs.len());
            for &v in xs {
                out.push(index(what, v)?);
            }
            Ok::<Vec<usize>, TensorError>(out)
        };
        let parents = shape[..level]
            .iter()
            .try_fold(1usize, |n, d| n.checked_mul(*d))
            .ok_or_else(|| bad(format!("dense parent levels of shape {shape:?} overflow")))?;

        let pos = indices("pos", pos)?;
        let end = pos.last().copied().unwrap_or(0);
        check_pos_level(&pos, end, parents, level)?;
        if let Some(reported) = nnz {
            let reported = index("nnz", reported)?;
            if reported != end {
                return Err(bad(format!(
                    "pos ends at {end} but the producer reported {reported} entries"
                )));
            }
        }
        let crd = crd.get(..end).ok_or_else(|| {
            bad(format!("pos ends at {end} but crd has {} entries", crd.len()))
        })?;
        let crd = indices("crd", crd)?;
        // Bounds only: order and uniqueness are restored below, not required.
        check_crd_level(&pos, &crd, parents, shape[level], false, false, level)?;
        let vals = vals
            .map(|vals| {
                vals.get(..end).ok_or_else(|| {
                    bad(format!("pos ends at {end} but vals has {} entries", vals.len()))
                })
            })
            .transpose()?;

        let strictly_increasing =
            pos.windows(2).all(|seg| crd[seg[0]..seg[1]].windows(2).all(|c| c[0] < c[1]));
        // The builder accumulates into zeroed storage; `-0.0 + 0.0` is `+0.0`.
        // Collected straight behind the `Arc`: one pass, one allocation.
        let plus_zero = |vals: &[f64]| vals.iter().map(|v| v + 0.0).collect::<Arc<[f64]>>();
        let (pos, crd, vals) = if strictly_increasing {
            let zeros = || std::iter::repeat_n(0.0, end).collect();
            (pos, crd, vals.map_or_else(zeros, plus_zero))
        } else {
            let (pos, crd, vals) = normalise_segments(&pos, &crd, vals);
            (pos, crd, plus_zero(&vals))
        };
        let mut modes: Vec<ModeStorage> =
            shape[..level].iter().map(|&dim| ModeStorage::Dense { dim }).collect();
        modes.push(ModeStorage::Compressed { pos, crd });
        Ok(Tensor::assemble(shape, format, modes, vals))
    }

    /// Wraps row-major values as an all-dense tensor: every component is
    /// stored, zeros included. The values are copied once behind the
    /// tensor's `Arc`; pass a slice rather than a fresh `Vec` copy of one.
    ///
    /// # Errors
    ///
    /// Returns an error if the shape is empty or `vals` does not hold exactly
    /// one value per component.
    pub fn from_dense_vals(shape: Vec<usize>, vals: impl Into<Arc<[f64]>>) -> Result<Tensor> {
        let vals = vals.into();
        let level = shape.len().checked_sub(1).ok_or(TensorError::EmptyShape)?;
        let volume = shape.iter().try_fold(1usize, |n, d| n.checked_mul(*d));
        check_vals_len(&vals, volume.unwrap_or(usize::MAX), level)?;
        let modes = shape.iter().map(|&dim| ModeStorage::Dense { dim }).collect();
        let format = Format::dense(shape.len());
        Ok(Tensor::assemble(shape, format, modes, vals))
    }

    /// Converts a dense tensor into this format, keeping only nonzeros in
    /// compressed levels.
    pub fn from_dense(dense: &DenseTensor, format: Format) -> Result<Self> {
        let mut b = TensorBuilder::new(dense.shape().to_vec(), format.clone())?;
        if format.is_all_dense() && format.is_identity_order() {
            // Preserve every component, including zeros.
            return Tensor::from_dense_vals(dense.shape().to_vec(), dense.data());
        }
        for (coord, val) in dense.iter_nonzeros() {
            b.insert(&coord, val)?;
        }
        Ok(b.build())
    }

    /// Repacks this tensor into another format (the `pack`/`convert` kernel
    /// of the format-abstraction paper): enumerate stored components, then
    /// rebuild the level storage for the target format. Values are preserved
    /// exactly — only the storage layout changes.
    ///
    /// # Errors
    ///
    /// Returns an error if the target format's rank does not match or its
    /// level-type chain is unrealizable.
    pub fn convert(&self, format: Format) -> Result<Tensor> {
        if format == *self.format() {
            return Ok(self.clone());
        }
        // Stored components go straight into the builder's queue (in storage
        // order: they are unique, so the packed tensor does not depend on
        // it) — no coordinate tuple is materialized per component.
        let mut b = TensorBuilder::new(self.shape.clone(), format)?;
        b.reserve(self.nnz());
        let mut queued = Ok(());
        self.walk(0, 0, &mut vec![0usize; self.rank()], &mut |coord, val| {
            if queued.is_ok() {
                queued = b.insert(coord, val).map(|_| ());
            }
        });
        queued?;
        Ok(b.build())
    }

    /// Blocks a rank-2 tensor into `br x bc` tiles, producing the rank-4
    /// blocked tensor that [`Format::bcsr`] stores: mode order
    /// `(block row, block col, row-in-block, col-in-block)` with shape
    /// `[m/br, n/bc, br, bc]`. Stored blocks are dense tiles — every
    /// component of a tile containing at least one nonzero is materialized.
    ///
    /// # Errors
    ///
    /// Returns an error unless the tensor is rank 2 with dimensions
    /// divisible by the block size.
    pub fn to_blocked(&self, br: usize, bc: usize) -> Result<Tensor> {
        if self.rank() != 2 {
            return Err(TensorError::FormatMismatch { expected: "rank-2 tensor for blocking" });
        }
        if br == 0 || bc == 0 || !self.shape[0].is_multiple_of(br) || !self.shape[1].is_multiple_of(bc) {
            return Err(TensorError::InvalidFormat {
                detail: format!(
                    "block size {br}x{bc} does not divide shape {}x{}",
                    self.shape[0], self.shape[1]
                ),
            });
        }
        let bshape = vec![self.shape[0] / br, self.shape[1] / bc, br, bc];
        let entries = self
            .entries()
            .into_iter()
            .map(|(c, v)| (vec![c[0] / br, c[1] / bc, c[0] % br, c[1] % bc], v))
            .collect();
        Tensor::from_entries(bshape, Format::bcsr(), entries)
    }

    /// Flattens a rank-4 blocked tensor (see [`Tensor::to_blocked`]) back to
    /// a rank-2 tensor in the given format, dropping the explicit zeros that
    /// padded partially-filled blocks.
    ///
    /// # Errors
    ///
    /// Returns an error unless the tensor is rank 4.
    pub fn from_blocked(&self, format: Format) -> Result<Tensor> {
        if self.rank() != 4 {
            return Err(TensorError::FormatMismatch { expected: "rank-4 blocked tensor" });
        }
        let (br, bc) = (self.shape[2], self.shape[3]);
        let shape = vec![self.shape[0] * br, self.shape[1] * bc];
        let entries = self
            .entries()
            .into_iter()
            .filter(|(_, v)| *v != 0.0)
            .map(|(c, v)| (vec![c[0] * br + c[2], c[1] * bc + c[3]], v))
            .collect();
        Tensor::from_entries(shape, format, entries)
    }

    /// The tensor shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// The dimension of mode `level`.
    pub fn dim(&self, level: usize) -> usize {
        self.shape[level]
    }

    /// The dimension of the mode stored at storage level `level` (these
    /// differ from [`Tensor::dim`] under a non-identity mode order).
    pub fn dim_of_level(&self, level: usize) -> usize {
        self.shape[self.format.mode_of_level(level)]
    }

    /// Number of modes.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// The storage format.
    pub fn format(&self) -> &Format {
        &self.format
    }

    /// The storage of level `level`.
    pub fn mode_storage(&self, level: usize) -> &ModeStorage {
        &self.modes[level]
    }

    /// The `pos` array of a compressed or hashed level.
    ///
    /// # Errors
    ///
    /// Returns an error if the level stores no `pos` array (dense and
    /// singleton levels).
    pub fn pos(&self, level: usize) -> Result<&[usize]> {
        match &self.modes[level] {
            ModeStorage::Compressed { pos, .. } => Ok(pos),
            ModeStorage::Dense { .. } | ModeStorage::Singleton { .. } => {
                Err(TensorError::FormatMismatch { expected: "level with a pos array" })
            }
        }
    }

    /// The `crd` array of a compressed, hashed, or singleton level.
    ///
    /// # Errors
    ///
    /// Returns an error if the level is dense.
    pub fn crd(&self, level: usize) -> Result<&[usize]> {
        match &self.modes[level] {
            ModeStorage::Compressed { crd, .. } | ModeStorage::Singleton { crd } => Ok(crd),
            ModeStorage::Dense { .. } => {
                Err(TensorError::FormatMismatch { expected: "level with a crd array" })
            }
        }
    }

    /// The value array (one value per innermost position).
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }

    /// The value array as the tensor holds it, for a binding to share.
    pub fn shared_vals(&self) -> &Arc<[f64]> {
        &self.vals
    }

    /// The tensor's index arrays as kernels read them, made on the first
    /// call: [`Tensor::validate`] runs once, and if it passes every `pos`
    /// and `crd` array is widened to `i64` once. Later calls, and calls on a
    /// clone made after the first, return the same arrays or the same error.
    ///
    /// # Errors
    ///
    /// [`Tensor::validate`]'s error, every time.
    pub fn index_arrays(&self) -> Result<&IndexArrays> {
        let made = self.index_arrays.get_or_init(|| {
            Arc::new(self.validate().map(|()| IndexArrays::widen(self)))
        });
        made.as_ref().as_ref().map_err(Clone::clone)
    }

    /// Number of stored components.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Collects all stored `(coordinate, value)` entries in lexicographic
    /// coordinate order (coordinates are in *mode* order regardless of the
    /// storage's mode order).
    pub fn entries(&self) -> Vec<(Vec<usize>, f64)> {
        let mut out = Vec::with_capacity(self.vals.len());
        let mut coord = vec![0usize; self.rank()];
        self.walk(0, 0, &mut coord, &mut |coord, val| out.push((coord.to_vec(), val)));
        if !self.format.is_ordered() {
            // Storage order differs from lexicographic mode order under a
            // mode permutation or hashed levels.
            out.sort_by(|a, b| a.0.cmp(&b.0));
        }
        out
    }

    /// Visits every stored component in storage order as `(coordinate in
    /// mode order, value)`.
    fn walk(
        &self,
        level: usize,
        parent_pos: usize,
        coord: &mut [usize],
        visit: &mut impl FnMut(&[usize], f64),
    ) {
        if level == self.rank() {
            visit(coord, self.vals[parent_pos]);
            return;
        }
        let mode = self.format.mode_of_level(level);
        match &self.modes[level] {
            ModeStorage::Dense { dim } => {
                for c in 0..*dim {
                    coord[mode] = c;
                    self.walk(level + 1, parent_pos * dim + c, coord, visit);
                }
            }
            ModeStorage::Compressed { pos, crd } => {
                // Position is threaded to the next level, so the index-based
                // loop is the natural form here.
                #[allow(clippy::needless_range_loop)]
                for p in pos[parent_pos]..pos[parent_pos + 1] {
                    coord[mode] = crd[p];
                    self.walk(level + 1, p, coord, visit);
                }
            }
            ModeStorage::Singleton { crd } => {
                coord[mode] = crd[parent_pos];
                self.walk(level + 1, parent_pos, coord, visit);
            }
        }
    }

    /// Converts to a dense tensor.
    pub fn to_dense(&self) -> DenseTensor {
        let mut out = DenseTensor::zeros(self.shape.clone());
        for (coord, val) in self.entries() {
            out.add(&coord, val);
        }
        out
    }

    /// True if this tensor and `other` represent the same mathematical
    /// tensor up to tolerance `tol`, regardless of format (absent entries
    /// compare as zero).
    pub fn approx_eq(&self, other: &Tensor, tol: f64) -> bool {
        if self.shape != other.shape {
            return false;
        }
        // Merge the two sorted entry streams.
        let a = self.entries();
        let b = other.entries();
        let (mut i, mut j) = (0, 0);
        let close = |x: f64, y: f64| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs()));
        while i < a.len() || j < b.len() {
            if j == b.len() || (i < a.len() && a[i].0 < b[j].0) {
                if !close(a[i].1, 0.0) {
                    return false;
                }
                i += 1;
            } else if i == a.len() || b[j].0 < a[i].0 {
                if !close(0.0, b[j].1) {
                    return false;
                }
                j += 1;
            } else {
                if !close(a[i].1, b[j].1) {
                    return false;
                }
                i += 1;
                j += 1;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The matrix of Figure 1a/1b of the paper.
    fn fig1_matrix() -> Tensor {
        Tensor::from_entries(
            vec![4, 4],
            Format::csr(),
            vec![
                (vec![0, 1], 1.0),
                (vec![0, 3], 2.0),
                (vec![2, 2], 3.0),
                (vec![3, 0], 4.0),
                (vec![3, 1], 5.0),
                (vec![3, 2], 6.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn csr_arrays_match_paper_figure_1b() {
        let b = fig1_matrix();
        assert_eq!(b.pos(1).unwrap(), &[0, 2, 2, 3, 6]);
        assert_eq!(b.crd(1).unwrap(), &[1, 3, 2, 0, 1, 2]);
        assert_eq!(b.vals(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn entries_round_trip() {
        let b = fig1_matrix();
        let entries = b.entries();
        let b2 = Tensor::from_entries(vec![4, 4], Format::csr(), entries).unwrap();
        assert_eq!(b, b2);
    }

    #[test]
    fn to_dense_and_back() {
        let b = fig1_matrix();
        let d = b.to_dense();
        assert_eq!(d.get(&[3, 2]), 6.0);
        assert_eq!(d.get(&[1, 1]), 0.0);
        let b2 = Tensor::from_dense(&d, Format::csr()).unwrap();
        assert!(b.approx_eq(&b2, 0.0));
    }

    #[test]
    fn duplicate_entries_are_summed() {
        let t = Tensor::from_entries(
            vec![3],
            Format::svec(),
            vec![(vec![1], 2.0), (vec![1], 3.0)],
        )
        .unwrap();
        assert_eq!(t.nnz(), 1);
        assert_eq!(t.vals(), &[5.0]);
    }

    #[test]
    fn approx_eq_across_formats() {
        let d = {
            let mut d = DenseTensor::zeros(vec![3, 3]);
            d.set(&[0, 2], 1.5);
            d.set(&[2, 0], -2.5);
            d
        };
        let csr = Tensor::from_dense(&d, Format::csr()).unwrap();
        let dcsr = Tensor::from_dense(&d, Format::dcsr()).unwrap();
        let dense = Tensor::from_dense(&d, Format::dense(2)).unwrap();
        assert!(csr.approx_eq(&dcsr, 0.0));
        assert!(csr.approx_eq(&dense, 0.0));
        assert!(dense.approx_eq(&csr, 0.0));
    }

    #[test]
    fn approx_eq_detects_differences() {
        let a = Tensor::from_entries(vec![3], Format::svec(), vec![(vec![0], 1.0)]).unwrap();
        let b = Tensor::from_entries(vec![3], Format::svec(), vec![(vec![0], 2.0)]).unwrap();
        let c = Tensor::from_entries(vec![3], Format::svec(), vec![(vec![1], 1.0)]).unwrap();
        assert!(!a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&c, 1e-9));
    }

    #[test]
    fn csf3_storage() {
        let t = Tensor::from_entries(
            vec![2, 3, 4],
            Format::csf3(),
            vec![
                (vec![0, 1, 2], 1.0),
                (vec![0, 1, 3], 2.0),
                (vec![1, 0, 0], 3.0),
                (vec![1, 2, 1], 4.0),
            ],
        )
        .unwrap();
        assert_eq!(t.pos(0).unwrap(), &[0, 2]);
        assert_eq!(t.crd(0).unwrap(), &[0, 1]);
        assert_eq!(t.pos(1).unwrap(), &[0, 1, 3]);
        assert_eq!(t.crd(1).unwrap(), &[1, 0, 2]);
        assert_eq!(t.pos(2).unwrap(), &[0, 2, 3, 4]);
        assert_eq!(t.crd(2).unwrap(), &[2, 3, 0, 1]);
        assert_eq!(t.vals(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn dense_format_tensor_stores_zeros() {
        let d = DenseTensor::from_data(vec![2, 2], vec![0.0, 1.0, 0.0, 0.0]);
        let t = Tensor::from_dense(&d, Format::dense(2)).unwrap();
        assert_eq!(t.nnz(), 4); // all positions stored
        assert_eq!(t.vals(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn coo_storage_matches_parallel_arrays() {
        let b = fig1_matrix().convert(Format::coo(2)).unwrap();
        // COO: one outer position per stored component, row coordinates with
        // duplicates, column coordinates in a singleton level.
        assert_eq!(b.pos(0).unwrap(), &[0, 6]);
        assert_eq!(b.crd(0).unwrap(), &[0, 0, 2, 3, 3, 3]);
        assert_eq!(b.crd(1).unwrap(), &[1, 3, 2, 0, 1, 2]);
        assert_eq!(b.vals(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        b.validate().unwrap();
        assert!(b.approx_eq(&fig1_matrix(), 0.0));
    }

    #[test]
    fn csc_stores_columns_outer() {
        let b = fig1_matrix().convert(Format::csc()).unwrap();
        // Columns of Figure 1a: col 0 {r3}, col 1 {r0, r3}, col 2 {r2, r3},
        // col 3 {r0}.
        assert_eq!(b.pos(1).unwrap(), &[0, 1, 3, 5, 6]);
        assert_eq!(b.crd(1).unwrap(), &[3, 0, 3, 2, 3, 0]);
        b.validate().unwrap();
        assert!(b.approx_eq(&fig1_matrix(), 0.0));
        // Entries come back in row-major order despite column-major storage.
        assert_eq!(b.entries(), fig1_matrix().entries());
    }

    #[test]
    fn dcsc_skips_empty_columns() {
        let t = Tensor::from_entries(
            vec![4, 8],
            Format::dcsc(),
            vec![(vec![1, 2], 1.0), (vec![3, 2], 2.0), (vec![0, 7], 3.0)],
        )
        .unwrap();
        assert_eq!(t.crd(0).unwrap(), &[2, 7]); // only nonempty columns
        assert_eq!(t.pos(1).unwrap(), &[0, 2, 3]);
        t.validate().unwrap();
    }

    #[test]
    fn blocked_round_trip() {
        let b = fig1_matrix();
        let blocked = b.to_blocked(2, 2).unwrap();
        assert_eq!(blocked.format(), &Format::bcsr());
        assert_eq!(blocked.shape(), &[2, 2, 2, 2]);
        blocked.validate().unwrap();
        // Stored blocks are dense 2x2 tiles.
        assert_eq!(blocked.nnz() % 4, 0);
        let back = blocked.from_blocked(Format::csr()).unwrap();
        assert!(back.approx_eq(&b, 0.0));
    }

    #[test]
    fn blocking_requires_divisible_dims() {
        let t = Tensor::from_entries(vec![3, 4], Format::csr(), vec![(vec![0, 0], 1.0)]).unwrap();
        assert!(t.to_blocked(2, 2).is_err());
        assert!(t.to_blocked(0, 2).is_err());
        assert!(t.to_blocked(3, 2).is_ok());
    }

    #[test]
    fn convert_round_trips_preserve_values() {
        let b = fig1_matrix();
        for fmt in [
            Format::coo(2),
            Format::csc(),
            Format::dcsc(),
            Format::dcsr(),
            Format::dense(2),
        ] {
            let c = b.convert(fmt.clone()).unwrap();
            c.validate().unwrap();
            let back = c.convert(Format::csr()).unwrap();
            assert!(back.approx_eq(&b, 0.0), "round trip through {fmt} changed values");
        }
    }

    #[test]
    fn singleton_validation_rejects_bad_storage() {
        let good = fig1_matrix().convert(Format::coo(2)).unwrap();
        let (shape, format, mut modes, vals) = good.clone().into_parts();
        if let ModeStorage::Singleton { crd } = &mut modes[1] {
            crd.pop(); // one fewer coordinate than parent positions
        }
        let bad = Tensor::from_parts_unchecked(shape, format, modes, vals);
        assert!(bad.validate().is_err());

        let (shape, format, mut modes, vals) = good.into_parts();
        if let ModeStorage::Singleton { crd } = &mut modes[1] {
            crd[0] = 99; // out of bounds
        }
        let bad = Tensor::from_parts_unchecked(shape, format, modes, vals);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn coo_duplicate_component_rejected() {
        let good = fig1_matrix().convert(Format::coo(2)).unwrap();
        let (shape, format, mut modes, vals) = good.into_parts();
        if let ModeStorage::Singleton { crd } = &mut modes[1] {
            crd[1] = crd[0]; // rows 0/0 now both store column 1
        }
        let bad = Tensor::from_parts_unchecked(shape, format, modes, vals);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn hashed_level_allows_unordered_segments() {
        let f = Format::new(vec![LevelType::Dense, LevelType::Hashed]);
        let t = Tensor::from_parts(
            vec![2, 4],
            f,
            vec![
                ModeStorage::Dense { dim: 2 },
                ModeStorage::Compressed { pos: vec![0, 2, 3], crd: vec![3, 0, 1] },
            ],
            vec![1.0, 2.0, 3.0],
        );
        t.validate().unwrap();
        // Entries are sorted even though storage is not.
        assert_eq!(
            t.entries(),
            vec![(vec![0, 0], 2.0), (vec![0, 3], 1.0), (vec![1, 1], 3.0)]
        );
        // Duplicate coordinates within a segment are rejected.
        let bad = Tensor::from_parts_unchecked(
            vec![2, 4],
            Format::new(vec![LevelType::Dense, LevelType::Hashed]),
            vec![
                ModeStorage::Dense { dim: 2 },
                ModeStorage::Compressed { pos: vec![0, 2, 3], crd: vec![3, 3, 1] },
            ],
            vec![1.0, 2.0, 3.0],
        );
        assert!(bad.validate().is_err());
    }
}
