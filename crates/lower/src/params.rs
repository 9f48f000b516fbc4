//! The kernel-parameter convention: how a tensor's storage appears in a
//! lowered kernel's parameter list. This module is its only owner — the
//! binder, the verifier's assumptions, the cost environment and serve
//! admission all name and value parameters through it.
//!
//! A tensor `X` contributes, per *storage level* `l` (0-based; names are
//! 1-based), the scalar `X{l+1}_dim` and — where the level type has them —
//! the arrays `X{l+1}_pos` and `X{l+1}_crd`; its values array is `X` itself.
//! Levels are not modes: under a mode ordering (CSC/DCSC) level `l` stores
//! mode `mode_of_level(l)`, so a 3×7 CSC operand `B` has `B1_dim = 7`.

use taco_ir::expr::TensorVar;

/// Dimension parameter of storage level `level`; its value is
/// [`level_extent`].
pub fn dim_name(tensor: &str, level: usize) -> String {
    format!("{tensor}{}_dim", level + 1)
}

/// Segment-boundary (`pos`) array of storage level `level`.
pub fn pos_name(tensor: &str, level: usize) -> String {
    format!("{tensor}{}_pos", level + 1)
}

/// Coordinate (`crd`) array of storage level `level`.
pub fn crd_name(tensor: &str, level: usize) -> String {
    format!("{tensor}{}_crd", level + 1)
}

/// The scalar parameter holding the first row of a parallel kernel's range:
/// its top-level loop starts at `max(lo, ROW_LO)` ([`taco_llir::Rows`]).
pub const ROW_LO: &str = "row_lo";

/// The scalar parameter holding the end (exclusive) of a parallel kernel's
/// range: its top-level loop stops at `min(hi, ROW_HI)`.
pub const ROW_HI: &str = "row_hi";

/// True when `array` is some level's `pos` array.
pub fn is_pos_name(array: &str) -> bool {
    array.ends_with("_pos")
}

/// Declared extent of storage level `level` of `var`: the `TensorVar` twin of
/// `Tensor::dim_of_level`, and the value [`dim_name`] is bound to.
pub fn level_extent(var: &TensorVar, level: usize) -> usize {
    var.shape()[var.format().mode_of_level(level)]
}
