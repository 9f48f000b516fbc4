//! Static verification of lowered kernels.
//!
//! This crate checks the imperative kernels produced by `taco-lower` (and
//! arbitrary hand-built [`taco_llir::Kernel`]s) *before* they run, by one
//! abstract-interpretation walk over the LLIR with one expression
//! evaluator:
//!
//! * **definite initialization** — every array read and every workspace
//!   scatter or drain is dominated by an initialization on all paths;
//! * **zeroness** — the where-consumer reset obligation of Section VI is
//!   discharged between iterations of every top-level loop;
//! * **symbolic bounds** — loop variables and `pos`-array accesses carry
//!   symbolic intervals, proving every index in bounds;
//! * **monotonicity** — every append counter stored into a `pos` array
//!   never decreases;
//! * **race freedom** — each `parallelize`d loop's per-iteration write set
//!   is checked for disjointness modulo the declared merge strategy
//!   (privatization and append merges), re-deriving the
//!   `ReductionNotPrivatized` legality verdict at the LLIR level, and no
//!   worker-local workspace is discarded undrained.
//!
//! Findings are typed [`VerifyError`]s wrapped in provenance-carrying
//! [`Diagnostic`]s; a proven violation *denies* the kernel, an
//! undischarged obligation only warns. [`VerifyMode`] selects how the
//! compile path enforces the verdict. The compile path holds one
//! [`Analysis`] per lowering: the assumptions derived once, the cost
//! report under them, and the verdict under the same assumptions when it is
//! asked for.
//!
//! # Example
//!
//! ```
//! use taco_ir::concretize::concretize;
//! use taco_ir::expr::{sum, IndexVar, TensorVar};
//! use taco_ir::notation::IndexAssignment;
//! use taco_lower::{lower, LowerOptions};
//! use taco_tensor::Format;
//!
//! // y(i) = Σ_j B(i,j) * x(j), CSR matrix-vector product.
//! let y = TensorVar::new("y", vec![4], Format::dense(1));
//! let b = TensorVar::new("B", vec![4, 5], Format::csr());
//! let x = TensorVar::new("x", vec![5], Format::dense(1));
//! let (i, j) = (IndexVar::new("i"), IndexVar::new("j"));
//! let stmt = concretize(&IndexAssignment::assign(
//!     y.access([i.clone()]),
//!     sum(j.clone(), b.access([i.clone(), j.clone()]) * x.access([j.clone()])),
//! ))?;
//! let lowered = lower(&stmt, &LowerOptions::fused("spmv"))?;
//! let report = taco_verify::verify_lowered(&lowered);
//! assert!(report.accepted(), "{report}");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod assume;
mod cost;
mod dataflow;
mod error;
mod race;
mod sym;

pub use assume::{ArrayFacts, Assumptions};
pub use cost::{analyze_cost, Bound, CostEnv, CostReport, WorkspaceCost};
pub use error::{Diagnostic, Severity, VerifyError, VerifyMode, VerifyReport};
pub use sym::{Atom, Sym};

use taco_llir::Kernel;
use taco_lower::LoweredKernel;

/// One lowering and what the compile path derives from it before it runs:
/// the assumption environment, derived once, and the cost report derived
/// under it. The verifier walks under the same assumptions, and only when
/// asked ([`Analysis::verify`]), so costing runs no verifier walk.
#[derive(Debug, Clone)]
pub struct Analysis {
    lowered: LoweredKernel,
    assume: Assumptions,
    cost: CostReport,
}

impl Analysis {
    /// Derives the assumptions of `lowered` and costs it under them.
    #[must_use]
    pub fn new(lowered: LoweredKernel) -> Analysis {
        let assume = Assumptions::for_lowered(&lowered);
        let cost = cost::analyze(&lowered, &assume);
        Analysis { lowered, assume, cost }
    }

    /// The lowered kernel and binding metadata.
    #[must_use]
    pub fn lowered(&self) -> &LoweredKernel {
        &self.lowered
    }

    /// The symbolic cost report: [`analyze_cost`] of the lowering.
    #[must_use]
    pub fn cost(&self) -> &CostReport {
        &self.cost
    }

    /// The verifier's report on the lowering: [`verify_lowered`] of it,
    /// under the assumptions its cost was derived under.
    #[must_use]
    pub fn verify(&self) -> VerifyReport {
        run(&self.lowered.kernel, &self.assume)
    }
}

/// Verifies a lowered kernel, deriving the assumption environment (storage
/// invariants the runtime validates at bind time) from the operand and
/// result tensor formats.
#[must_use]
pub fn verify_lowered(lk: &LoweredKernel) -> VerifyReport {
    run(&lk.kernel, &Assumptions::for_lowered(lk))
}

/// Verifies a bare kernel with no format-derived assumptions. Hand-built
/// kernels get the same checks but fewer facts, so more obligations end up
/// as warns.
#[must_use]
pub fn verify_kernel(kernel: &Kernel) -> VerifyReport {
    run(kernel, &Assumptions::default())
}

fn run(kernel: &Kernel, assume: &Assumptions) -> VerifyReport {
    let mut az = dataflow::Analyzer::new(kernel, assume);
    az.walk_block(&kernel.body);
    let mut diags = az.diags;

    // One diagnostic per distinct finding, deny severity first, then by
    // statement path.
    let mut seen = std::collections::HashSet::new();
    diags.retain(|d| seen.insert((d.error.clone(), d.path.clone())));
    diags.sort_by(|a, b| b.severity.cmp(&a.severity).then_with(|| a.path.cmp(&b.path)));

    let mut notes = az.notes;
    notes.sort();
    notes.dedup();
    let mut assumptions = assume.notes.clone();
    assumptions.extend(notes);
    assumptions.dedup();
    VerifyReport { kernel: kernel.name.clone(), diagnostics: diags, assumptions }
}
