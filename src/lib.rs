//! # taco-workspaces
//!
//! A from-scratch Rust reproduction of **“Tensor Algebra Compilation with
//! Workspaces”** (Kjolstad, Ahrens, Kamil, Amarasinghe — CGO 2019): a sparse
//! tensor algebra compiler extended with *concrete index notation* and the
//! *workspace transformation*.
//!
//! The facade re-exports the whole stack:
//!
//! | Crate | Paper section | Contents |
//! |-------|---------------|----------|
//! | [`tensor`] | §II | per-level Dense/Compressed storage (CSR/DCSR/CSF), builders, generators, Table I stand-ins |
//! | [`ir`] | §III–V | index notation, concrete index notation, `reorder`, `precompute` (the workspace transformation), result reuse, policy heuristics |
//! | [`lower`] | §VI | merge lattices and lowering to imperative IR; compute / assemble / fused kernels |
//! | [`llir`] | §VI, Fig. 6 | the C-like imperative IR, pretty printer and slot-resolved executor |
//! | [`core`] | §III, §VI | the `IndexStmt` scheduling API, compilation pipeline, execution, dense oracle |
//! | [`verify`] | §VI | static verifier over the imperative IR: definite initialization, symbolic bounds, parallel write-set races (DESIGN.md §12) |
//! | [`native`] | §VI | native codegen backend: compiles the emitted C with the system toolchain into a content-addressed `.so` cache and runs kernels through a stable `extern "C"` ABI (DESIGN.md §15) |
//! | [`kernels`] | §VII–VIII | hand-written baselines (Eigen/MKL/SPLATT stand-ins) and generated-equivalent kernels |
//! | [`runtime`] | §V-C, §VII | the serving layer: concurrent compiled-kernel cache (fingerprint-keyed, single-flight) and the measurement-driven schedule autotuner |
//! | [`serve`] | §VII | multi-tenant serving daemon over the engine: bounded admission, tenant quotas, EDF deadline scheduling, overload shedding, graceful drain (DESIGN.md §14) |
//!
//! ## Quickstart
//!
//! ```
//! use taco_workspaces::prelude::*;
//!
//! // A(i,j) = sum(k, B(i,k) * C(k,j)) with every matrix CSR (Figure 2).
//! let n = 8;
//! let a = TensorVar::new("A", vec![n, n], Format::csr());
//! let b = TensorVar::new("B", vec![n, n], Format::csr());
//! let c = TensorVar::new("C", vec![n, n], Format::csr());
//! let (i, j, k) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"));
//!
//! let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
//! let mut stmt = IndexStmt::new(IndexAssignment::assign(
//!     a.access([i.clone(), j.clone()]),
//!     sum(k.clone(), mul.clone()),
//! ))?;
//!
//! // Schedule: reorder to linear combinations of rows, then precompute the
//! // multiplication into a dense row workspace (the workspace
//! // transformation of Section V).
//! stmt.reorder(&k, &j)?;
//! let w = TensorVar::new("w", vec![n], Format::dvec());
//! stmt.precompute(&mul, &[(j.clone(), j.clone(), j.clone())], &w)?;
//!
//! let kernel = stmt.compile(LowerOptions::fused("spgemm"))?;
//! println!("{}", kernel.to_c()); // the kernel of Figures 1d + 8
//! # Ok::<(), taco_workspaces::core::CoreError>(())
//! ```

pub use taco_core as core;
pub use taco_ir as ir;
pub use taco_kernels as kernels;
pub use taco_llir as llir;
pub use taco_lower as lower;
pub use taco_native as native;
pub use taco_runtime as runtime;
pub use taco_serve as serve;
pub use taco_tensor as tensor;
pub use taco_verify as verify;

/// Commonly used items, for `use taco_workspaces::prelude::*`.
pub mod prelude {
    pub use taco_core::{
        analyze_cost, stmt_workspaces, Aborted, Bound, BudgetResource, CancelToken,
        CompiledKernel, CoreError, CostEnv, CostReport, DegradeRung, ExecReport, FallbackEvent,
        IndexStmt, Progress, ResourceBudget, RunError, Supervisor, VerifyMode, VerifyReport,
    };
    pub use taco_ir::concrete::{AssignOp, ConcreteStmt};
    pub use taco_ir::expr::{sum, IndexExpr, IndexVar, TensorVar};
    pub use taco_ir::notation::IndexAssignment;
    pub use taco_llir::WorkspaceKind;
    pub use taco_lower::{KernelKind, LowerOptions};
    pub use taco_runtime::{
        Backend, CacheStats, Engine, EngineConfig, EngineError, EngineEvent, NativeStats,
        SupervisedRun, TuneKey,
    };
    pub use taco_serve::{
        Outcome, Priority, Rejected, Request, Server, ServerStats, TenantPolicy, Ticket,
    };
    pub use taco_tensor::{Csf3, Csr, DenseTensor, Format, LevelType, Tensor};
}
