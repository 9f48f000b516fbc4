//! Serving-shaped runtime for `taco-workspaces`: a concurrent
//! compiled-kernel cache and a cost-ranked schedule autotuner behind one
//! [`Engine`] façade.
//!
//! The compiler crates answer "how do I compile this statement"; this crate
//! answers "how do I *serve* it": compile once and share the kernel across
//! threads ([`KernelCache`], keyed by the canonical fingerprint of
//! [`taco_core::fingerprint`]), coalesce concurrent compiles of the same
//! kernel into one (single-flight), evict cold kernels against byte/entry
//! budgets, and — when the caller does not want to schedule by hand — pick
//! the workspace placement and loop order by ranking the Section V-C
//! candidate space with the cost analyzer's iteration bounds on the real
//! operands, and checking the prediction against the runner-up once
//! ([`Engine::run_tuned`]).
//!
//! # Quickstart
//!
//! ```
//! use taco_runtime::Engine;
//! use taco_core::IndexStmt;
//! use taco_ir::expr::{sum, IndexVar, TensorVar};
//! use taco_ir::notation::IndexAssignment;
//! use taco_lower::LowerOptions;
//! use taco_tensor::{Format, Tensor};
//!
//! let n = 8;
//! let a = TensorVar::new("A", vec![n, n], Format::csr());
//! let b = TensorVar::new("B", vec![n, n], Format::csr());
//! let c = TensorVar::new("C", vec![n, n], Format::csr());
//! let (i, j, k) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"));
//! let spgemm = IndexStmt::new(IndexAssignment::assign(
//!     a.access([i.clone(), j.clone()]),
//!     sum(k.clone(), b.access([i, k.clone()]) * c.access([k, j])),
//! ))?;
//!
//! let bt = Tensor::from_entries(vec![n, n], Format::csr(),
//!     vec![(vec![0, 1], 2.0), (vec![1, 0], 3.0)])?;
//! let ct = Tensor::from_entries(vec![n, n], Format::csr(),
//!     vec![(vec![1, 3], 5.0), (vec![0, 2], 7.0)])?;
//!
//! // No manual schedule: the engine tunes one (here Gustavson's algorithm
//! // with a row workspace), remembers the decision, and caches the kernel.
//! let engine = Engine::new();
//! let out = engine.run_tuned(&spgemm, LowerOptions::fused("spgemm"), &[("B", &bt), ("C", &ct)])?;
//! assert!(out.tuned);
//! assert_eq!(out.result.to_dense().get(&[0, 3]), 10.0);
//!
//! // Same expression, same operands: decision and kernel both reused.
//! let again = engine.run_tuned(&spgemm, LowerOptions::fused("spgemm"), &[("B", &bt), ("C", &ct)])?;
//! assert!(!again.tuned);
//! assert!(engine.cache_stats().hits > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod native;
pub mod tuner;

pub use cache::{entry_weight, CacheStats, CachedKernel, KernelCache};
pub use engine::{Engine, EngineBuilder, EngineConfig, EngineEvent, SupervisedRun, TunedOutcome};
pub use native::{Backend, NativeStats};
pub use taco_core::{VerifyMode, VerifyReport};
pub use tuner::{Autotuner, TuneDecision, TuneKey};

use taco_core::CoreError;

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, EngineError>;

/// Errors surfaced by the runtime engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum EngineError {
    /// A compile or run error from the compiler pipeline.
    Core(CoreError),
    /// This thread coalesced onto another thread's compile of the same
    /// kernel, and that compile failed. The message is the leader's error;
    /// retrying the call re-runs the compile.
    SharedCompileFailed {
        /// Rendered error from the compiling thread.
        message: String,
    },
    /// Autotuning found no schedule that both compiles and runs.
    NoViableCandidate {
        /// How many candidates were tried.
        candidates: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Core(e) => write!(f, "{e}"),
            EngineError::SharedCompileFailed { message } => {
                write!(f, "shared compile failed: {message}")
            }
            EngineError::NoViableCandidate { candidates } => {
                write!(f, "autotuning found no viable schedule among {candidates} candidates")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> EngineError {
        EngineError::Core(e)
    }
}
