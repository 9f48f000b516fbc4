//! The compile pass list, written once. The front half, `lower → verify →
//! cost`, yields a value ([`FrontHalf`]); the back half, `fit the workspace
//! budget → exec-compile → fingerprint` ([`FrontHalf::finish`]), turns it
//! into a [`CompiledKernel`]. Each half is a `?`-chain of one function per
//! pass, and this module holds the compiler's and the runtime's only calls
//! of `taco_lower::lower`, `taco_verify::verify_lowered` and
//! `taco_verify::analyze_cost`: the compile driver
//! ([`IndexStmt::compile_checked`]), the budget chain
//! ([`arbitrate_workspaces`]), the candidate enumerator
//! ([`enumerate_candidates_for`](crate::candidates::enumerate_candidates_for),
//! and through it the autotuner) and serve admission build a `FrontHalf`
//! and hand it on instead of running the passes again.

use crate::ladder::arbitrate_workspaces;
use crate::schedule::{CompiledKernel, IndexStmt};
use crate::{CoreError, Result};
use taco_ir::concrete::ConcreteStmt;
use taco_llir::{Executable, ResourceBudget};
use taco_lower::{LowerOptions, LoweredKernel};
use taco_verify::{CostReport, VerifyMode, VerifyReport};

/// The verify pass: runs the static verifier over a lowered kernel under
/// `mode`, stamping the concrete statement it was lowered from into every
/// diagnostic. `Deny` turns a rejected report into [`CoreError::Verify`];
/// `Off` skips the pass.
fn verify(
    lowered: &LoweredKernel,
    origin: &ConcreteStmt,
    mode: VerifyMode,
) -> Result<Option<VerifyReport>> {
    if mode == VerifyMode::Off {
        return Ok(None);
    }
    let report = taco_verify::verify_lowered(lowered).with_origin(&origin.to_string());
    if mode == VerifyMode::Deny && !report.accepted() {
        return Err(CoreError::Verify(report));
    }
    Ok(Some(report))
}

/// The product of the front half for one concrete statement under one
/// [`LowerOptions`]: the lowered kernel, the verifier's report on it (`None`
/// when the pass was skipped) and its symbolic cost report.
#[derive(Debug, Clone)]
pub struct FrontHalf {
    pub(crate) opts: LowerOptions,
    pub(crate) lowered: LoweredKernel,
    pub(crate) verify: Option<VerifyReport>,
    pub(crate) cost: CostReport,
}

impl FrontHalf {
    /// Runs `lower → verify → cost` on `concrete` under `opts`.
    ///
    /// # Errors
    ///
    /// A lowering error if the schedule is not realizable under `opts`, or
    /// [`CoreError::Verify`] under [`VerifyMode::Deny`].
    pub fn build(
        concrete: &ConcreteStmt,
        opts: LowerOptions,
        mode: VerifyMode,
    ) -> Result<FrontHalf> {
        let lowered = taco_lower::lower(concrete, &opts)?;
        let verify = verify(&lowered, concrete, mode)?;
        let cost = taco_verify::analyze_cost(&lowered);
        Ok(FrontHalf { opts, lowered, verify, cost })
    }

    /// The lowered kernel and binding metadata.
    pub fn lowered(&self) -> &LoweredKernel {
        &self.lowered
    }

    /// The symbolic cost report.
    pub fn cost_report(&self) -> &CostReport {
        &self.cost
    }

    /// The back half, for the front half of `stmt` as scheduled: fits it to
    /// the budget's workspace limit ([`arbitrate_workspaces`], which may
    /// replace it by a sparse-backend or direct-merge product built under
    /// `mode`), compiles it for the interpreter and fingerprints the request.
    ///
    /// # Errors
    ///
    /// [`CoreError::BudgetExceeded`] when no rung of the budget chain fits,
    /// or an internal exec-compile error.
    pub fn finish(
        self,
        stmt: &IndexStmt,
        budget: ResourceBudget,
        mode: VerifyMode,
    ) -> Result<CompiledKernel> {
        let limit = budget.max_workspace_bytes;
        let (front, fallbacks) = arbitrate_workspaces(stmt, self, limit, mode)?;
        let exe = Executable::compile(&front.lowered.kernel)?;
        let fingerprint = crate::fingerprint::fingerprint(stmt.concrete(), &front.opts, &budget);
        Ok(CompiledKernel { front, exe, budget, fallbacks, fingerprint })
    }
}
