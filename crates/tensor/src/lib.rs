//! Sparse tensor storage substrate for the `taco-workspaces` compiler.
//!
//! This crate implements the tensor storage machinery that the CGO 2019 paper
//! *Tensor Algebra Compilation with Workspaces* builds on (its prior work,
//! taco \[4\] and the format abstraction \[5\]): tensors are stored level by
//! level, where each level is a [`LevelType`] — [`LevelType::Dense`] (every
//! coordinate stored), [`LevelType::Compressed`] (only nonzero coordinates,
//! via `pos`/`crd` arrays as in Figure 1b of the paper),
//! [`LevelType::Singleton`] (one coordinate per parent position, the COO
//! building block), or [`LevelType::Hashed`] (`pos`/`crd` with unordered
//! segments). A [`Format`] additionally carries a *mode order* mapping
//! storage levels to tensor modes, which yields column-major layouts.
//!
//! Composing per-level types yields the classic sparse formats:
//!
//! * `{Dense, Compressed}` — CSR (compressed sparse row),
//! * `{Dense, Compressed}` with order `[1, 0]` — CSC,
//! * `{Compressed, Compressed}` — DCSR (order `[1, 0]` — DCSC),
//! * `{Compressed, Singleton, ...}` — COO (parallel coordinate arrays),
//! * `{Dense, Compressed, Dense, Dense}` over a blocked shape — BCSR,
//! * `{Compressed, Compressed, Compressed}` — CSF for 3-tensors,
//! * `{Dense, Dense, ...}` — ordinary dense arrays,
//! * `{Compressed}` — a sparse vector; `{Dense}` — a dense vector.
//!
//! [`Tensor::convert`] repacks any tensor into any realizable format, and
//! [`Tensor::to_blocked`]/[`Tensor::from_blocked`] move between flat and
//! blocked matrices.
//!
//! # Example
//!
//! ```
//! use taco_tensor::{Format, Tensor};
//!
//! // The 4x4 matrix from Figure 1a of the paper.
//! let b = Tensor::from_entries(
//!     vec![4, 4],
//!     Format::csr(),
//!     vec![
//!         (vec![0, 1], 1.0), // a
//!         (vec![0, 3], 2.0), // b
//!         (vec![2, 2], 3.0), // c
//!         (vec![3, 0], 4.0), // d
//!         (vec![3, 1], 5.0), // e
//!         (vec![3, 2], 6.0), // f
//!     ],
//! )
//! .unwrap();
//! assert_eq!(b.nnz(), 6);
//! assert_eq!(b.to_dense().get(&[3, 1]), 5.0);
//! ```

#![warn(missing_docs)]

mod builder;
pub mod corrupt;
mod csf;
mod csr;
pub mod datasets;
mod dense;
mod error;
mod format;
pub mod gen;
pub mod io;
mod storage;

pub use builder::TensorBuilder;
pub use csf::Csf3;
pub use csr::Csr;
pub use dense::DenseTensor;
pub use error::TensorError;
pub use format::{Format, LevelType, ModeFormat};
pub use storage::{IndexArrays, ModeStorage, Tensor};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, TensorError>;
