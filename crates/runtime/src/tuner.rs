//! Autotune bookkeeping: decision keys, cached decisions, and the counters
//! that prove tuning happens exactly once per key.
//!
//! The search itself (enumerate → rank → reply → check) lives in
//! [`Engine::run_tuned`](crate::Engine::run_tuned); this module owns what it
//! ranks by ([`Ranked`], [`ConversionSet`]) and the *memory* of it.
//! Decisions are keyed by what actually changes the best schedule — the
//! expression being computed, the operand formats, and how sparse the
//! operands are — so a decision made for one SpGEMM carries over to every
//! later SpGEMM on same-shaped data of similar density, but not to a dense
//! matmul or to operands three orders of magnitude denser.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use taco_core::fingerprint::{fingerprint_stmt, Fnv64};
use taco_core::{CostEnv, FrontHalf, IndexStmt, ScheduleCandidate};
use taco_llir::Binding;
use taco_lower::params::{crd_name, pos_name};
use taco_lower::LoweredKernel;
use taco_tensor::{Format, LevelType, Tensor};

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
    let mut h = Fnv64::new();
    for (name, t) in inputs {
        h.write(name.as_bytes()).write_tag(0xff);
        for &d in t.shape() {
            h.write_u64(d as u64);
        }
        for m in t.format().modes() {
            h.write_tag(match m {
                LevelType::Dense => 1,
                LevelType::Compressed => 2,
                LevelType::Singleton => 3,
                LevelType::Hashed => 4,
            });
        }
        // Mode order distinguishes CSR from CSC (same level chain).
        for &m in t.format().mode_order() {
            h.write_u64(m as u64);
        }
        h.write_tag(0xfe);
    }
    h.finish()
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
    /// The winning candidate: its name, scheduled statement and the operand
    /// conversions it runs on.
    pub candidate: ScheduleCandidate,
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
}

/// A candidate and its place in a search's ranking.
pub(crate) struct Ranked {
    /// Predicted cost: the iteration bound on the actual operands plus the
    /// entries its conversions touch (`u64::MAX` when there is no bound).
    pub(crate) predicted: u64,
    /// What its operand conversions cost: entries touched, and nanoseconds
    /// during the search ([`ConversionSet`]; zeros for a candidate that runs
    /// the operands as they are).
    pub(crate) conversion: (u64, u64),
    pub(crate) cand: ScheduleCandidate,
    /// The front half it was enumerated with, until its first compile
    /// finishes it.
    pub(crate) front: Option<FrontHalf>,
}

/// One completed run of a ranked candidate, its conversions included in both
/// measures.
pub(crate) struct TunedRun {
    pub(crate) result: Tensor,
    pub(crate) nanos: u64,
    /// Metered loop iterations plus conversion entries: what the predicted
    /// cost bounds.
    pub(crate) work: u64,
}

/// What a search knows about the operands one set of conversions yields —
/// shared by every candidate that asks for that set.
pub(crate) struct ConversionSet {
    /// The bind-time cost environment: the candidates' declared dimensions,
    /// and what [`CostEnv::from_binding`] reads off the (converted) operands' index
    /// arrays, bound alone (shared, as a kernel binds them) under their
    /// [`taco_lower::params`] names. A failed conversion or an operand that
    /// fails validation leaves the arrays out, and bounds over them unvalued.
    pub(crate) env: CostEnv,
    /// What the conversions cost per request in the unit of the iteration
    /// bound: stored entries × levels of every operand they change.
    pub(crate) entries: u64,
    /// What they cost on the clock when the search made them.
    pub(crate) nanos: u64,
}

impl ConversionSet {
    pub(crate) fn of(
        lowered: &LoweredKernel,
        inputs: &[(&str, &Tensor)],
        conversions: &[(String, Format)],
        converted: &mut HashMap<(String, Format), Tensor>,
    ) -> ConversionSet {
        let clock = Instant::now();
        let operands = converted_inputs(converted, inputs, conversions).unwrap_or_default();
        let nanos = clock.elapsed().as_nanos() as u64;
        let (mut index_arrays, mut entries) = (Binding::new(), 0);
        for ((name, t), (_, given)) in operands.iter().zip(inputs) {
            if t.format() != given.format() {
                entries += (given.nnz() * given.rank()) as u64;
            }
            let Ok(arrays) = t.index_arrays() else { continue };
            for l in 0..t.rank() {
                if let Ok(pos) = arrays.pos(l) {
                    index_arrays.set_shared_int(pos_name(name, l), Arc::clone(pos));
                }
                if let Ok(crd) = arrays.crd(l) {
                    index_arrays.set_shared_int(crd_name(name, l), Arc::clone(crd));
                }
            }
        }
        let arrays = CostEnv::from_binding(&index_arrays);
        let env = CostEnv { lens: arrays.lens, segs: arrays.segs, ..CostEnv::from_shapes(lowered) };
        ConversionSet { env, entries, nanos }
    }
}

/// `inputs` with every operand a conversion names (and whose format it
/// actually changes) replaced by its converted copy, made on first use and
/// kept in `converted` for the other candidates of the search that ask for it.
pub(crate) fn converted_inputs<'r>(
    converted: &'r mut HashMap<(String, Format), Tensor>,
    inputs: &[(&'r str, &'r Tensor)],
    conversions: &[(String, Format)],
) -> std::result::Result<Vec<(&'r str, &'r Tensor)>, taco_tensor::TensorError> {
    let wanted = |name: &str, t: &Tensor| {
        conversions.iter().find(|(n, f)| n == name && t.format() != f).cloned()
    };
    for (name, t) in inputs {
        if let Some(key) = wanted(name, t) {
            if let Entry::Vacant(slot) = converted.entry(key) {
                let tensor = t.convert(slot.key().1.clone())?;
                slot.insert(tensor);
            }
        }
    }
    let converted = &*converted;
    Ok(inputs
        .iter()
        .map(|&(name, t)| (name, wanted(name, t).and_then(|key| converted.get(&key)).unwrap_or(t)))
        .collect())
}
