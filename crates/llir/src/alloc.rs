//! Unified allocation accounting for every execution backend.
//!
//! The interpreter ([`Executable::run`](crate::Executable::run)) and the
//! native backend (`taco-native`) both allocate output and workspace arrays
//! while a kernel runs, and both must abort with *identical* typed
//! [`RunError::BudgetExceeded`] payloads when a [`ResourceBudget`] limit is
//! crossed — a serving tier keys retry/degrade decisions off those payloads,
//! so backends may not disagree about when or how a budget trips.
//!
//! What guarantees the agreement is that there is one meter type:
//! [`run_body`](crate::run_body) creates one [`BudgetMeter`] per run and hands
//! it to whichever [`KernelBody`](crate::KernelBody) executes —
//!
//! * the interpreter's machine threads each `Alloc`/`Realloc`/map-growth
//!   through it, and
//! * the native host's `extern "C"` allocation callbacks charge it before
//!   touching any buffer.
//!
//! The meter also carries the loop-iteration fuse so the native poll
//! callback can consume iterations in supervision-stride batches and still
//! abort on exactly the same iteration count as the interpreter, and it is
//! where a run's [`Progress`] counters are read from, committed or aborted.

use crate::budget::{BudgetResource, ResourceBudget};
use crate::error::RunError;
use crate::{ArrayTy, Progress};

/// Bytes charged per element of an array of type `ty`. Both backends size
/// allocations from this table so their byte charges agree exactly.
pub fn elem_bytes(ty: ArrayTy) -> u64 {
    match ty {
        ArrayTy::Int => 8,
        ArrayTy::F64 => 8,
        ArrayTy::F32 => 4,
        ArrayTy::Bool => 1,
    }
}

/// Mutable budget accounting for one run. Limits of `u64::MAX`/`u32::MAX`
/// mean "unbounded" so the hot-path checks stay branch-cheap.
///
/// Constructed from a [`ResourceBudget`] at run start; consumed by exactly
/// one run (counters are cumulative within the run, never refunded).
#[derive(Debug, Clone)]
pub struct BudgetMeter {
    pub(crate) iterations_left: u64,
    pub(crate) max_iterations: u64,
    pub(crate) max_single_bytes: u64,
    pub(crate) max_total_bytes: u64,
    pub(crate) total_bytes: u64,
    pub(crate) peak_single_bytes: u64,
    pub(crate) peak_map_bytes: u64,
}

impl BudgetMeter {
    /// Creates a meter for one run.
    pub fn new(budget: &ResourceBudget) -> BudgetMeter {
        let max_iterations = budget.max_loop_iterations.unwrap_or(u64::MAX);
        BudgetMeter {
            iterations_left: max_iterations,
            max_iterations,
            max_single_bytes: budget.max_workspace_bytes.unwrap_or(u64::MAX),
            max_total_bytes: budget.max_total_bytes.unwrap_or(u64::MAX),
            total_bytes: 0,
            peak_single_bytes: 0,
            peak_map_bytes: 0,
        }
    }

    /// The run's counters so far: iterations recovered from the fuse,
    /// cumulative bytes charged, and the allocation high-water marks the
    /// static cost analysis must dominate.
    pub fn progress(&self) -> Progress {
        Progress {
            iterations: self.max_iterations - self.iterations_left,
            allocated_bytes: self.total_bytes,
            peak_single_bytes: self.peak_single_bytes,
            peak_map_bytes: self.peak_map_bytes,
            workers: 0,
        }
    }

    /// Grants a batch of up to `want` loop iterations for coarse-grained
    /// (native) supervision. Returns `min(want, fuse + 1)`: when the fuse
    /// has fewer than `want` iterations left, the grant still includes the
    /// first over-budget iteration so the *charge* of the batch trips the
    /// fuse on exactly the same iteration count as the interpreter's
    /// one-at-a-time accounting.
    pub fn grant_iterations(&self, want: u64) -> u64 {
        want.min(self.iterations_left.saturating_add(1))
    }

    /// Consumes `n` loop iterations from the fuse: one per back-edge on the
    /// interpreter, a supervision-stride batch on the native backend, with
    /// the same error payload. A trip spends what was left of the fuse, so
    /// both report the same iteration count in an abort's [`Progress`].
    #[inline]
    pub fn consume_iterations(&mut self, n: u64) -> Result<(), RunError> {
        match self.iterations_left.checked_sub(n) {
            Some(left) => {
                self.iterations_left = left;
                Ok(())
            }
            None => {
                self.iterations_left = 0;
                Err(RunError::BudgetExceeded {
                    resource: BudgetResource::LoopIterations,
                    limit: self.max_iterations,
                    requested: self.max_iterations.saturating_add(1),
                    array: None,
                })
            }
        }
    }

    /// Charges `new_bytes` of fresh allocation for the array `name` against
    /// the single-allocation and cumulative byte limits.
    pub fn charge_array_bytes(&mut self, name: &str, new_bytes: u64) -> Result<(), RunError> {
        if new_bytes > self.max_single_bytes {
            return Err(RunError::BudgetExceeded {
                resource: BudgetResource::WorkspaceBytes,
                limit: self.max_single_bytes,
                requested: new_bytes,
                array: Some(name.to_string()),
            });
        }
        let total = self.total_bytes.saturating_add(new_bytes);
        if total > self.max_total_bytes {
            return Err(RunError::BudgetExceeded {
                resource: BudgetResource::TotalBytes,
                limit: self.max_total_bytes,
                requested: total,
                array: Some(name.to_string()),
            });
        }
        self.total_bytes = total;
        self.peak_single_bytes = self.peak_single_bytes.max(new_bytes);
        Ok(())
    }

    /// Charges map-workspace growth: the map's whole `footprint` must fit
    /// the single-workspace limit, and the growth `delta` counts toward the
    /// cumulative total.
    pub fn charge_map_bytes(
        &mut self,
        name: &str,
        footprint: u64,
        delta: u64,
    ) -> Result<(), RunError> {
        if footprint > self.max_single_bytes {
            return Err(RunError::BudgetExceeded {
                resource: BudgetResource::WorkspaceBytes,
                limit: self.max_single_bytes,
                requested: footprint,
                array: Some(name.to_string()),
            });
        }
        let total = self.total_bytes.saturating_add(delta);
        if total > self.max_total_bytes {
            return Err(RunError::BudgetExceeded {
                resource: BudgetResource::TotalBytes,
                limit: self.max_total_bytes,
                requested: total,
                array: Some(name.to_string()),
            });
        }
        self.total_bytes = total;
        self.peak_map_bytes = self.peak_map_bytes.max(footprint);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_allocation_limit_trips_with_array_name() {
        let budget = ResourceBudget::unlimited().with_max_workspace_bytes(100);
        let mut m = BudgetMeter::new(&budget);
        assert!(m.charge_array_bytes("w", 100).is_ok());
        let err = m.charge_array_bytes("w", 101).unwrap_err();
        match err {
            RunError::BudgetExceeded { resource, limit, requested, array } => {
                assert_eq!(resource, BudgetResource::WorkspaceBytes);
                assert_eq!(limit, 100);
                assert_eq!(requested, 101);
                assert_eq!(array.as_deref(), Some("w"));
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn cumulative_limit_counts_across_arrays() {
        let budget = ResourceBudget::unlimited().with_max_total_bytes(150);
        let mut m = BudgetMeter::new(&budget);
        assert!(m.charge_array_bytes("a", 100).is_ok());
        let err = m.charge_array_bytes("b", 100).unwrap_err();
        match err {
            RunError::BudgetExceeded { resource, requested, .. } => {
                assert_eq!(resource, BudgetResource::TotalBytes);
                assert_eq!(requested, 200);
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn batched_iteration_fuse_matches_per_iteration_payload() {
        let budget = ResourceBudget::unlimited().with_max_loop_iterations(500);
        let mut m = BudgetMeter::new(&budget);
        let g = m.grant_iterations(1024);
        assert_eq!(g, 501, "grant includes the first over-budget iteration");
        let err = m.consume_iterations(g).unwrap_err();
        match err {
            RunError::BudgetExceeded { resource, limit, requested, array } => {
                assert_eq!(resource, BudgetResource::LoopIterations);
                assert_eq!(limit, 500);
                assert_eq!(requested, 501);
                assert_eq!(array, None);
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn peak_high_water_marks_track_largest_charges() {
        let budget = ResourceBudget::unlimited();
        let mut m = BudgetMeter::new(&budget);
        m.charge_array_bytes("a", 100).unwrap();
        m.charge_array_bytes("b", 40).unwrap();
        assert_eq!(m.progress().peak_single_bytes, 100);
        m.charge_map_bytes("w", 64, 64).unwrap();
        m.charge_map_bytes("w", 256, 192).unwrap();
        m.charge_map_bytes("w2", 32, 32).unwrap();
        assert_eq!(m.progress().peak_map_bytes, 256);
        assert_eq!(m.progress().allocated_bytes, 100 + 40 + 64 + 192 + 32);
    }
}
