//! The compile pass list, written once: `lower → cost` yields a value
//! ([`FrontHalf`]), `fit the workspace budget → verify → exec-compile →
//! fingerprint` ([`FrontHalf::finish`]) turns it into a [`CompiledKernel`],
//! one function per pass and `?` between them. This module holds the only
//! calls of `taco_lower::lower` and `taco_verify::Analysis::new` in the
//! compiler, the runtime and the daemon; everything else builds a
//! `FrontHalf` and reads it or hands it on (DESIGN.md §3 lists the
//! consumers).
//!
//! The analysis derives the lowering's assumptions once; its cost is read
//! at once, its verdict on first read ([`FrontHalf::verify_report`]). The
//! budget walk decides on costs alone, so a product it replaces and one
//! that serve admission only costs never run the verifier (DESIGN.md §3).

use std::sync::OnceLock;

use crate::ladder::arbitrate_workspaces;
use crate::schedule::{CompiledKernel, IndexStmt};
use crate::{CoreError, Result};
use taco_llir::{Executable, ResourceBudget};
use taco_lower::{LowerOptions, LoweredKernel};
use taco_verify::{Analysis, CostReport, VerifyMode, VerifyReport};

/// The product of the front half: the statement and options it answers
/// (owned: [`FrontHalf::finish`] takes no second copy to disagree with),
/// the analysis of its lowering, and the verdict once it is read.
#[derive(Debug, Clone)]
pub struct FrontHalf {
    pub(crate) stmt: IndexStmt,
    pub(crate) opts: LowerOptions,
    analysis: Analysis,
    verdict: OnceLock<VerifyReport>,
}

impl FrontHalf {
    /// The lower and cost passes.
    ///
    /// # Errors
    ///
    /// Only a lowering error: the schedule is not realizable under `opts`.
    pub fn new(stmt: &IndexStmt, opts: LowerOptions) -> Result<FrontHalf> {
        let analysis = Analysis::new(taco_lower::lower(stmt.concrete(), &opts)?);
        Ok(FrontHalf { stmt: stmt.clone(), opts, analysis, verdict: OnceLock::new() })
    }

    /// The verify pass, run on first read under the assumptions the cost
    /// was derived under, with the concrete statement stamped into every
    /// diagnostic.
    pub fn verify_report(&self) -> &VerifyReport {
        self.verdict.get_or_init(|| {
            self.analysis.verify().with_origin(&self.stmt.concrete().to_string())
        })
    }

    /// The [fingerprint](crate::fingerprint::fingerprint) of the request this
    /// product answers, as a cache keys it (before any budget fallback).
    pub fn request_fingerprint(&self, budget: &ResourceBudget) -> u64 {
        crate::fingerprint::fingerprint(self.stmt.concrete(), &self.opts, budget)
    }

    /// The lowered kernel and binding metadata.
    pub fn lowered(&self) -> &LoweredKernel {
        self.analysis.lowered()
    }

    /// The symbolic cost report.
    pub fn cost_report(&self) -> &CostReport {
        self.analysis.cost()
    }

    /// The back half: fits the product to the budget's workspace limit
    /// ([`arbitrate_workspaces`], which may replace it with a lower rung's),
    /// holds the one kept to its verdict under [`VerifyMode::Deny`],
    /// compiles it for the interpreter and fingerprints the request.
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
        if mode == VerifyMode::Deny && !front.verify_report().accepted() {
            return Err(CoreError::Verify(front.verify_report().clone()));
        }
        let exe = Executable::compile(&front.lowered().kernel)?;
        Ok(CompiledKernel { front, exe, budget, fallbacks, fingerprint })
    }
}
