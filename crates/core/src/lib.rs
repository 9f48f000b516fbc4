//! End-to-end pipeline of the `taco-workspaces` compiler: the scheduling
//! API of Section III of *Tensor Algebra Compilation with Workspaces*
//! (CGO 2019), compilation through every stage of Figure 6, execution
//! against real tensors, and a dense reference oracle for testing.
//!
//! # Example: Figure 2 of the paper
//!
//! ```
//! use taco_core::IndexStmt;
//! use taco_ir::expr::{sum, IndexVar, TensorVar};
//! use taco_ir::notation::IndexAssignment;
//! use taco_lower::LowerOptions;
//! use taco_tensor::{Format, Tensor};
//!
//! let n = 4;
//! // Create three square CSR matrices.
//! let a = TensorVar::new("A", vec![n, n], Format::csr());
//! let b = TensorVar::new("B", vec![n, n], Format::csr());
//! let c = TensorVar::new("C", vec![n, n], Format::csr());
//!
//! // Compute a sparse matrix multiplication.
//! let (i, j, k) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"));
//! let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
//! let mut matmul = IndexStmt::new(IndexAssignment::assign(
//!     a.access([i.clone(), j.clone()]),
//!     sum(k.clone(), mul.clone()),
//! ))?;
//!
//! // Reorder to linear combinations of rows.
//! matmul.reorder(&k, &j)?;
//!
//! // Precompute the mul expression into a row workspace.
//! let row = TensorVar::new("w", vec![n], Format::dvec());
//! matmul.precompute(&mul, &[(j.clone(), j.clone(), j.clone())], &row)?;
//!
//! // Compile (assembling and computing in one kernel) and run.
//! let kernel = matmul.compile(LowerOptions::fused("spgemm"))?;
//! let bt = Tensor::from_entries(vec![n, n], Format::csr(),
//!     vec![(vec![0, 1], 2.0), (vec![1, 0], 3.0)])?;
//! let ct = Tensor::from_entries(vec![n, n], Format::csr(),
//!     vec![(vec![1, 3], 5.0), (vec![0, 2], 7.0)])?;
//! let result = kernel.run(&[("B", &bt), ("C", &ct)])?;
//! assert_eq!(result.to_dense().get(&[0, 3]), 10.0); // 2 * 5
//! # Ok::<(), taco_core::CoreError>(())
//! ```

#![warn(missing_docs)]

mod bind;
pub mod candidates;
mod error;
pub mod fingerprint;
pub mod ladder;
pub mod oracle;
pub mod parse;
pub mod passes;
mod schedule;

pub use candidates::{enumerate_candidates, enumerate_candidates_for, ScheduleCandidate};
pub use error::CoreError;
pub use fingerprint::fingerprint;
pub use ladder::{stmt_workspaces, DegradeRung};
pub use passes::FrontHalf;
pub use schedule::{default_verify_mode, CompiledKernel, FallbackEvent, IndexStmt};
pub use taco_verify::{
    analyze_cost, Bound, CostEnv, CostReport, Diagnostic, Severity, VerifyError, VerifyMode,
    VerifyReport, WorkspaceCost,
};
pub use taco_llir::{
    Aborted, BudgetResource, CancelToken, ExecReport, Progress, ResourceBudget, RunError,
    Supervisor,
};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
