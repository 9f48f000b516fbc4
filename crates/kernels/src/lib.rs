//! Hand-written sparse kernels used by the evaluation (Section VIII of
//! *Tensor Algebra Compilation with Workspaces*, CGO 2019).
//!
//! Nothing here is what the compiler generates: the figure harness
//! (`taco-bench`) times kernels the engine compiles from scheduled index
//! statements. Two groups live here:
//!
//! * **Library-style baselines** — stand-ins for the closed-source or
//!   C++-only comparison targets: Eigen's sorted SpGEMM
//!   ([`spgemm::spgemm_eigen_style`]), MKL's unsorted `mkl_sparse_spmm`
//!   ([`spgemm::spgemm_mkl_style`]), pairwise library addition
//!   ([`add::add_pairwise`], [`add::add_pairwise_mkl_style`]) and SPLATT's
//!   MTTKRP ([`mttkrp::mttkrp_splatt`]).
//! * **Hand-written references** — [`spgemm::spgemm_workspace_sorted`],
//!   [`add::add_kway_merge`] and [`mttkrp::mttkrp_workspace`], with
//!   [`mttkrp::DenseMat`]: the repo benchmark's `kernels.handwritten_ms`
//!   times them next to the compiled kernels of the same algorithms.
//!
//! See `DESIGN.md` §5 for the substitution rationale.

#![warn(missing_docs)]
// These kernels deliberately mirror the loop structure of the paper's C
// listings, where pos/crd position loops are the idiom; iterator rewrites
// would obscure the correspondence.
#![allow(clippy::needless_range_loop)]

pub mod add;
pub mod mttkrp;
pub mod spgemm;
