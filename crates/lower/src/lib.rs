//! Lowering from concrete index notation to imperative IR (Section VI of
//! *Tensor Algebra Compilation with Workspaces*, CGO 2019).
//!
//! The lowerer recurses on concrete index notation statements:
//!
//! * **assignment** statements are emitted as scalar code;
//! * **where** statements emit the producer side followed by the consumer
//!   side, materializing the workspace (dense array, coordinate list and
//!   guard array as needed);
//! * **sequence** statements emit the left-hand side followed by the
//!   right-hand side;
//! * **forall** statements coiterate the sparse data structures of the
//!   tensor modes indexed by the forall's variable, using
//!   [merge lattices](lattice::MergeLattice): multiplications iterate the
//!   intersection of their operands' coordinates, additions the union.
//!
//! Three kernel kinds are generated, mirroring the paper's discussion of
//! assembly (Section VI, Figure 8):
//!
//! * [`KernelKind::Compute`] — result index structures are pre-assembled;
//!   the kernel only computes values (Figures 1c, 1d, 5, 9, 10).
//! * [`KernelKind::Assemble`] — the symbolic kernel that assembles the
//!   result's `pos`/`crd` arrays using workspace coordinate lists and guard
//!   arrays (Figure 8).
//! * [`KernelKind::Fused`] — assembles and computes simultaneously, as the
//!   paper's SpGEMM evaluation does ("the workspace algorithm fuses assembly
//!   of the output matrix with the computation", Section VIII-B).

#![warn(missing_docs)]

mod error;
pub mod lattice;
mod lower;
pub mod params;

pub use error::LowerError;
pub use lower::{lower, KernelKind, LowerOptions, LoweredKernel, WorkspaceMeta};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, LowerError>;
