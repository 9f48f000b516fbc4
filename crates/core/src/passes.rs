//! The compile pass list, written once: `lower → cost` yields a value
//! ([`FrontHalf`]), `fit the workspace budget → verify → exec-compile →
//! fingerprint` ([`FrontHalf::finish`]) turns it into a [`CompiledKernel`],
//! one function per pass and `?` between them. This module holds the only
//! calls of `taco_lower::lower`, `taco_verify::verify_lowered` and
//! `taco_verify::analyze_cost` in the compiler, the runtime and the daemon;
//! everything else builds a `FrontHalf` and reads it or hands it on
//! (DESIGN.md §3 lists the consumers).
//!
//! The budget walk decides on costs alone, so the compile driver verifies
//! *after* it, only what is kept; the enumerator verifies up front, because
//! acceptance is what makes a schedule a candidate (DESIGN.md §3).

use crate::ladder::arbitrate_workspaces;
use crate::schedule::{CompiledKernel, IndexStmt};
use crate::{CoreError, Result};
use taco_llir::{Executable, ResourceBudget};
use taco_lower::{LowerOptions, LoweredKernel};
use taco_verify::{CostReport, VerifyMode, VerifyReport};

/// The product of the front half: the statement and options it answers
/// (owned: [`FrontHalf::finish`] takes no second copy to disagree with),
/// the lowered kernel, its cost report and, once verified, the verdict.
#[derive(Debug, Clone)]
pub struct FrontHalf {
    pub(crate) stmt: IndexStmt,
    pub(crate) opts: LowerOptions,
    pub(crate) lowered: LoweredKernel,
    pub(crate) cost: CostReport,
    pub(crate) verify: Option<VerifyReport>,
}

impl FrontHalf {
    /// The lower and cost passes.
    ///
    /// # Errors
    ///
    /// Only a lowering error: the schedule is not realizable under `opts`.
    pub fn unverified(stmt: &IndexStmt, opts: LowerOptions) -> Result<FrontHalf> {
        let lowered = taco_lower::lower(stmt.concrete(), &opts)?;
        let cost = taco_verify::analyze_cost(&lowered);
        Ok(FrontHalf { stmt: stmt.clone(), opts, lowered, cost, verify: None })
    }

    /// The verify pass under `mode`, stamping the concrete statement into
    /// every diagnostic. A report already carried is kept, not recomputed.
    ///
    /// # Errors
    ///
    /// [`CoreError::Verify`] under [`VerifyMode::Deny`] on a rejected report.
    pub fn verified(mut self, mode: VerifyMode) -> Result<FrontHalf> {
        if self.verify.is_none() {
            let origin = self.stmt.concrete().to_string();
            self.verify = Some(taco_verify::verify_lowered(&self.lowered).with_origin(&origin));
        }
        match self.verify {
            Some(report) if mode == VerifyMode::Deny && !report.accepted() => {
                Err(CoreError::Verify(report))
            }
            _ => Ok(self),
        }
    }

    /// The [fingerprint](crate::fingerprint::fingerprint) of the request this
    /// product answers, as a cache keys it (before any budget fallback).
    pub fn request_fingerprint(&self, budget: &ResourceBudget) -> u64 {
        crate::fingerprint::fingerprint(self.stmt.concrete(), &self.opts, budget)
    }

    /// The lowered kernel and binding metadata.
    pub fn lowered(&self) -> &LoweredKernel {
        &self.lowered
    }

    /// The symbolic cost report.
    pub fn cost_report(&self) -> &CostReport {
        &self.cost
    }

    /// The back half: fits the product to the budget's workspace limit
    /// ([`arbitrate_workspaces`], which may replace it with a lower rung's),
    /// verifies the one kept, compiles it for the interpreter and
    /// fingerprints the request.
    ///
    /// # Errors
    ///
    /// [`CoreError::BudgetExceeded`] when no rung of the ladder fits,
    /// [`CoreError::Verify`] under [`VerifyMode::Deny`], or an internal
    /// exec-compile error.
    pub fn finish(self, budget: ResourceBudget, mode: VerifyMode) -> Result<CompiledKernel> {
        let replaced = arbitrate_workspaces(&self, budget.max_workspace_bytes)?;
        // Fingerprinted: the request's own statement, the kept product's options.
        let opts = replaced.as_ref().map_or(&self.opts, |(front, _)| &front.opts);
        let fingerprint = crate::fingerprint::fingerprint(self.stmt.concrete(), opts, &budget);
        let (front, fallbacks) = replaced.unwrap_or((self, Vec::new()));
        let front = front.verified(mode)?;
        let exe = Executable::compile(&front.lowered.kernel)?;
        Ok(CompiledKernel { front, exe, budget, fallbacks, fingerprint })
    }
}
