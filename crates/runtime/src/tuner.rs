//! Autotune bookkeeping: decision keys, cached decisions, and the counters
//! that prove tuning happens exactly once per key.
//!
//! The search itself (enumerate → finish → time → pick) lives in
//! [`Engine::run_tuned`](crate::Engine::run_tuned); this module owns the
//! *memory* of it. Decisions are keyed by what actually changes the best
//! schedule — the expression being computed, the operand formats, and how
//! sparse the operands are — so a decision made for one SpGEMM carries over
//! to every later SpGEMM on same-shaped data of similar density, but not to
//! a dense matmul or to operands three orders of magnitude denser.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use taco_core::fingerprint::fingerprint_stmt;
use taco_core::{IndexStmt, ScheduleCandidate};
use taco_tensor::{LevelType, Tensor};

/// The identity of one autotune decision: *which* computation, on *what
/// kind* of data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TuneKey {
    /// Structural fingerprint of the **unscheduled** statement (the direct
    /// concretization of the source assignment), so every scheduling of the
    /// same expression shares one decision. Includes operand formats, ranks
    /// and dimensions.
    pub expr: u64,
    /// Hash of the runtime operands' formats and shapes, in binding order.
    pub formats: u64,
    /// Order-of-magnitude sparsity class of the operands:
    /// `round(-log10(geometric mean density))`, clamped to `0..=15`.
    /// Dense data is bucket 0; ~0.1% dense data is bucket 3.
    pub sparsity_bucket: u8,
}

impl TuneKey {
    /// Builds the key for a statement and the operands it will run on.
    ///
    /// Falls back to fingerprinting the statement as scheduled if the
    /// source fails to re-concretize (it was concretized once already, so
    /// this effectively cannot happen).
    pub fn new(stmt: &IndexStmt, inputs: &[(&str, &Tensor)]) -> TuneKey {
        let expr = match IndexStmt::new(stmt.source().clone()) {
            Ok(direct) => fingerprint_stmt(direct.concrete()),
            Err(_) => fingerprint_stmt(stmt.concrete()),
        };
        TuneKey {
            expr,
            formats: format_signature(inputs),
            sparsity_bucket: sparsity_bucket(inputs),
        }
    }
}

impl std::fmt::Display for TuneKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "expr {:016x} / formats {:016x} / sparsity 1e-{}",
            self.expr, self.formats, self.sparsity_bucket
        )
    }
}

/// FNV-1a over the operand names, shapes and per-mode formats.
fn format_signature(inputs: &[(&str, &Tensor)]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut byte = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    };
    for (name, t) in inputs {
        for b in name.bytes() {
            byte(b);
        }
        byte(0xff);
        for &d in t.shape() {
            for b in (d as u64).to_le_bytes() {
                byte(b);
            }
        }
        for m in t.format().modes() {
            byte(match m {
                LevelType::Dense => 1,
                LevelType::Compressed => 2,
                LevelType::Singleton => 3,
                LevelType::Hashed => 4,
            });
        }
        // Mode order distinguishes CSR from CSC (same level chain).
        for &m in t.format().mode_order() {
            for b in (m as u64).to_le_bytes() {
                byte(b);
            }
        }
        byte(0xfe);
    }
    h
}

/// `round(-log10(geometric mean density))` over all operands, clamped to
/// `0..=15`. Empty operands count as maximally sparse.
fn sparsity_bucket(inputs: &[(&str, &Tensor)]) -> u8 {
    if inputs.is_empty() {
        return 0;
    }
    let mut log_sum = 0.0f64;
    for (_, t) in inputs {
        let size: f64 = t.shape().iter().map(|&d| d as f64).product();
        let density = if size > 0.0 { t.nnz() as f64 / size } else { 0.0 };
        // Floor the density so log10 stays finite for empty tensors.
        log_sum += density.max(1e-15).log10();
    }
    let mean_log = log_sum / inputs.len() as f64;
    (-mean_log).round().clamp(0.0, 15.0) as u8
}

/// A remembered winner for one [`TuneKey`]: the winning candidate itself,
/// so replaying the decision is running that candidate's statement — no
/// search space is consulted again.
#[derive(Debug, Clone)]
pub struct TuneDecision {
    /// The winning candidate: its name, scheduled statement, workspace
    /// backend and the operand conversions it runs on.
    pub candidate: ScheduleCandidate,
    /// Pinned worker-thread count of the winner, when the winning schedule
    /// was a parallel candidate timed at an explicit thread count. `None`
    /// means the winner was serial (or parallel with automatic thread
    /// resolution); reuse then runs the schedule unpinned.
    pub threads: Option<usize>,
    /// Measured wall-clock nanoseconds of the winner during tuning.
    pub best_nanos: u64,
}

/// Thread-safe store of autotune decisions.
#[derive(Debug, Default)]
pub struct Autotuner {
    decisions: Mutex<HashMap<TuneKey, Arc<TuneDecision>>>,
    tunings: AtomicU64,
}

impl Autotuner {
    /// An empty decision store.
    pub fn new() -> Autotuner {
        Autotuner::default()
    }

    /// The remembered decision for `key`, if one exists.
    pub fn decision(&self, key: &TuneKey) -> Option<Arc<TuneDecision>> {
        self.decisions.lock().unwrap_or_else(|p| p.into_inner()).get(key).cloned()
    }

    /// Records a tuning outcome. Counts as one tuning run even if it
    /// overwrites an earlier decision for the same key.
    pub fn record(&self, key: TuneKey, decision: TuneDecision) {
        self.tunings.fetch_add(1, Ordering::Relaxed);
        self.decisions.lock().unwrap_or_else(|p| p.into_inner()).insert(key, Arc::new(decision));
    }

    /// Number of tuning searches actually executed (decision-cache misses).
    pub fn tunings(&self) -> u64 {
        self.tunings.load(Ordering::Relaxed)
    }

    /// Number of distinct keys with a remembered decision.
    pub fn decisions_len(&self) -> usize {
        self.decisions.lock().unwrap_or_else(|p| p.into_inner()).len()
    }
}
