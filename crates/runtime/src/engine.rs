//! The [`Engine`]: one front door for compile-with-caching, supervised
//! execution, and schedule autotuning.

use crate::cache::{
    CacheStats, CachedKernel, KernelCache, ENGINE_CACHE_MAX_BYTES, ENGINE_CACHE_MAX_ENTRIES,
};
use crate::native::{Backend, NativeStore};
use crate::tuner::{converted_inputs, Autotuner, ConversionSet, Ranked, TuneKey};
use crate::{EngineError, Result};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use taco_core::{
    enumerate_candidates_for, CompiledKernel, CoreError, DegradeRung, ExecReport, FallbackEvent,
    FrontHalf, IndexStmt, ResourceBudget, ScheduleCandidate, Supervisor, VerifyMode,
};
use taco_lower::{LowerError, LowerOptions};
use taco_tensor::{Format, Tensor};

/// Engine construction parameters. `EngineConfig::default()` is sized for a
/// long-lived process serving many kernels.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Resource budget applied to every compile and run issued through the
    /// engine (and folded into the cache key, so the same statement under a
    /// different budget class is a different kernel). Default unlimited.
    pub budget: ResourceBudget,
    /// Ring-buffer capacity of [`Engine::last_events`]; oldest events are
    /// dropped beyond it. Default 256.
    pub max_events: usize,
    /// Enforcement mode for the static verifier on every compile issued
    /// through the engine. The verdict is recorded on the compiled kernel
    /// (and therefore cached alongside its fingerprint) and surfaced as an
    /// [`EngineEvent::Verified`]; under [`VerifyMode::Deny`] a kernel with
    /// a proven violation fails to compile. Default
    /// [`taco_core::default_verify_mode`]: deny in debug builds, warn in
    /// release.
    pub verify: VerifyMode,
    /// Which execution backend runs kernels: the interpreter, or native
    /// shared objects compiled from the emitted C (with the interpreter as
    /// verify-gated correctness oracle and fallback — see
    /// [`crate::Backend`]). Default: [`Backend::from_env`], i.e. the
    /// `TACO_BACKEND` environment knob (`auto` when unset).
    pub backend: Backend,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            budget: ResourceBudget::unlimited(),
            max_events: 256,
            verify: taco_core::default_verify_mode(),
            backend: Backend::from_env(),
        }
    }
}

/// Fluent construction for [`Engine`]: `Engine::builder()` starts from
/// [`EngineConfig::default`], each method overrides one knob, and
/// [`EngineBuilder::build`] produces the engine.
///
/// ```
/// use taco_runtime::{Engine, VerifyMode};
///
/// let engine = Engine::builder().verify(VerifyMode::Deny).build();
/// assert_eq!(engine.config().verify, VerifyMode::Deny);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EngineBuilder {
    config: EngineConfig,
}

impl EngineBuilder {
    /// Sets the static-verification enforcement mode for every compile.
    #[must_use]
    pub fn verify(mut self, mode: VerifyMode) -> EngineBuilder {
        self.config.verify = mode;
        self
    }

    /// Sets the resource budget applied to every compile and run.
    #[must_use]
    pub fn budget(mut self, budget: ResourceBudget) -> EngineBuilder {
        self.config.budget = budget;
        self
    }

    /// Accepted and ignored: an autotune search ranks and replies, and runs
    /// nothing on a clock that a deadline could cap. Kept only because the
    /// repository benchmark's adapter (`benchmark/src/sut.rs`) is pinned to
    /// this builder surface; it goes when that adapter is repinned.
    #[must_use]
    pub fn tuning_deadline(self, _ignored: Duration) -> EngineBuilder {
        self
    }

    /// Sets the ring-buffer capacity of [`Engine::last_events`]. Size this
    /// to the event rate of the workload: once the buffer wraps, the oldest
    /// events are dropped (counted by [`Engine::dropped_events`]).
    #[must_use]
    pub fn max_events(mut self, capacity: usize) -> EngineBuilder {
        self.config.max_events = capacity;
        self
    }

    /// Sets the execution backend ([`EngineConfig::backend`]), overriding
    /// the `TACO_BACKEND` environment default.
    #[must_use]
    pub fn backend(mut self, backend: Backend) -> EngineBuilder {
        self.config.backend = backend;
        self
    }

    /// Builds the engine.
    #[must_use]
    pub fn build(self) -> Engine {
        Engine {
            config: self.config,
            cache: KernelCache::new(ENGINE_CACHE_MAX_BYTES, ENGINE_CACHE_MAX_ENTRIES),
            tuner: Autotuner::new(),
            events: Mutex::new(EventLog::default()),
            native: NativeStore::default(),
        }
    }
}

/// Something the engine did on the caller's behalf that changed how a
/// result was produced: a compile-time or runtime fallback, or an autotune
/// decision (fresh or reused). All such events flow through one query path,
/// [`Engine::last_events`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EngineEvent {
    /// A kernel was compiled or retried in degraded form (see
    /// [`FallbackEvent`]). Recorded once per actual compile or supervised
    /// retry — cache hits on a degraded kernel do not repeat it.
    Fallback(FallbackEvent),
    /// An autotune search ranked the candidates and picked a schedule.
    Autotuned {
        /// The decision key (expression × formats × sparsity class).
        key: TuneKey,
        /// Name of the winning candidate schedule.
        schedule: String,
        /// Candidates enumerated, all of them ranked.
        candidates: usize,
        /// Candidates that were compiled and ran to completion: always 1,
        /// the reply. The ones ranked above it that failed to compile or
        /// aborted are in neither this count nor `pruned`.
        viable: usize,
        /// Candidates ranked out: never compiled, never run.
        pruned: usize,
        /// Measured nanoseconds of the reply's run
        /// ([`ExecReport::elapsed`]; its operand conversions are not timed).
        best_nanos: u64,
        /// The winner's predicted cost: its iteration bound on the actual
        /// operands plus the entries its conversions touch (`u64::MAX` when
        /// the analyzer has no bound for it).
        predicted: u64,
    },
    /// A previously tuned decision was reused without searching.
    AutotuneReused {
        /// The decision key that hit.
        key: TuneKey,
        /// The remembered schedule.
        schedule: String,
    },
    /// A freshly compiled kernel was run through the static verifier.
    /// Recorded once per actual compile — cache hits reuse the verdict
    /// stored on the kernel
    /// ([`CompiledKernel::verify_report`]) without repeating the event.
    Verified {
        /// The kernel's canonical fingerprint (the cache key).
        fingerprint: u64,
        /// Deny-severity findings. Nonzero only under [`VerifyMode::Warn`]
        /// (under deny the compile fails instead).
        denies: usize,
        /// Warn-severity findings (undischarged obligations).
        warns: usize,
    },
    /// A kernel's emitted C was compiled to a native shared object and
    /// loaded (still untrusted until its differential check passes).
    /// Recorded once per cache residency.
    NativeCompiled {
        /// The kernel's canonical fingerprint.
        fingerprint: u64,
        /// Wall-clock nanoseconds the C compiler took (0 when the shared
        /// object was served from the on-disk artifact cache).
        compile_nanos: u64,
    },
    /// A kernel was refused the native backend — by the verify gate or a
    /// failed differential check — and will run on the
    /// interpreter. Recorded once per cache residency. Toolchain failures are
    /// recorded as [`FallbackEvent::NativeUnavailable`] instead.
    NativeRejected {
        /// The kernel's canonical fingerprint.
        fingerprint: u64,
        /// Why the native form was refused.
        reason: String,
    },
}

impl std::fmt::Display for EngineEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineEvent::Fallback(e) => write!(f, "fallback: {e}"),
            EngineEvent::Autotuned {
                key,
                schedule,
                candidates,
                viable,
                pruned,
                best_nanos,
                predicted,
            } => write!(
                f,
                "autotuned [{key}]: chose `{schedule}` (ranked {candidates}, ran {}, {viable} to \
                 completion; predicted {predicted}, measured {:.3} ms)",
                candidates - pruned,
                *best_nanos as f64 / 1e6
            ),
            EngineEvent::AutotuneReused { key, schedule } => {
                write!(f, "autotune reused [{key}]: `{schedule}`")
            }
            EngineEvent::Verified { fingerprint, denies, warns } => {
                write!(f, "verified kernel {fingerprint:016x}: {denies} deny, {warns} warn")
            }
            EngineEvent::NativeCompiled { fingerprint, compile_nanos } => {
                if *compile_nanos == 0 {
                    write!(f, "native kernel {fingerprint:016x} loaded from the artifact cache")
                } else {
                    write!(
                        f,
                        "native kernel {fingerprint:016x} compiled in {:.3} ms",
                        *compile_nanos as f64 / 1e6
                    )
                }
            }
            EngineEvent::NativeRejected { fingerprint, reason } => {
                write!(f, "native kernel {fingerprint:016x} rejected: {reason}")
            }
        }
    }
}

/// The result of [`Engine::run_supervised`]: the tensor, the run report of
/// the rung that committed, which rung that was, the fallback trail
/// explaining any degradation, and the request-level warm-kernel and
/// backend signals.
#[derive(Debug, Clone)]
pub struct SupervisedRun {
    /// The computed tensor.
    pub result: Tensor,
    /// Wall-clock and progress counters of the committing run.
    pub report: ExecReport,
    /// The degradation-ladder rung whose kernel produced the result
    /// ([`CompiledKernel::rung`]: a kernel the compile-time walk degraded
    /// reports the rung it compiled).
    pub rung: DegradeRung,
    /// Compile-time workspace fallbacks and aborted rungs, in order.
    pub fallbacks: Vec<FallbackEvent>,
    /// True when the first attempted rung's kernel was served from the
    /// cache (hit or coalesced) rather than compiled by this call.
    pub cache_hit: bool,
    /// True when the committing run executed on a trusted native kernel
    /// rather than the interpreter. (A differential trust-check run counts
    /// as interpreted: the interpreter's result is what committed.)
    pub native: bool,
}

impl SupervisedRun {
    /// A human-readable account of the run: how it committed and why it was
    /// degraded, if it was.
    pub fn summary(&self) -> String {
        let mut s = format!("{} kernel {}", self.rung, self.report.summary());
        for event in &self.fallbacks {
            s.push_str("\n  - ");
            s.push_str(&event.to_string());
        }
        s
    }
}

/// The result of [`Engine::run_tuned`].
#[derive(Debug, Clone)]
pub struct TunedOutcome {
    /// The computed tensor.
    pub result: Tensor,
    /// Name of the schedule that produced it.
    pub schedule: String,
    /// True if this call ran the search; false if a cached decision was
    /// reused.
    pub tuned: bool,
}

/// The bounded event ring plus a monotonic count of everything it has had
/// to forget, so overload diagnosis can trust the stream: `dropped == 0`
/// means [`Engine::last_events`] is the complete history.
#[derive(Debug, Default)]
struct EventLog {
    buf: VecDeque<EngineEvent>,
    dropped: u64,
}

/// A long-lived kernel engine: compiled-kernel cache, autotuner, and event
/// log behind one thread-safe façade. Share it across threads with an
/// `Arc<Engine>`; every method takes `&self`.
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    cache: KernelCache,
    tuner: Autotuner,
    events: Mutex<EventLog>,
    pub(crate) native: NativeStore,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

impl Engine {
    /// An engine with [`EngineConfig::default`].
    pub fn new() -> Engine {
        Engine::builder().build()
    }

    /// Fluent construction: `Engine::builder().verify(VerifyMode::Deny).build()`.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Compiles a statement through the cache.
    ///
    /// The cache key is the kernel's canonical fingerprint
    /// ([`CompiledKernel::fingerprint`]): statement structure, applied
    /// schedule, operand formats/dimensions, lowering options, and the
    /// engine's budget class. A hit returns the shared kernel without
    /// touching the compile pipeline; concurrent misses of one key coalesce
    /// into a single compile.
    ///
    /// # Errors
    ///
    /// Propagates compile errors; waiters that coalesced onto a failed
    /// compile get [`EngineError::SharedCompileFailed`].
    pub fn compile(&self, stmt: &IndexStmt, opts: LowerOptions) -> Result<Arc<CompiledKernel>> {
        self.compile_traced(stmt, opts, None).map(|(record, _)| Arc::clone(record.kernel()))
    }

    /// [`Engine::compile`], returning the kernel's cache record (the kernel
    /// and its native form) and whether it was served warm: `true` means a
    /// cache hit or a coalesced wait on a concurrent compile of the same
    /// fingerprint, `false` means this call ran the compile pipeline. A miss
    /// finishes `front`, the front half of `stmt` under `opts`, when the
    /// caller already holds it.
    fn compile_traced(
        &self,
        stmt: &IndexStmt,
        opts: LowerOptions,
        front: Option<FrontHalf>,
    ) -> Result<(Arc<CachedKernel>, bool)> {
        let (budget, verify) = (self.config.budget, self.config.verify);
        let key = taco_core::fingerprint(stmt.concrete(), &opts, &budget);
        debug_assert!(front.as_ref().is_none_or(|f| f.request_fingerprint(&budget) == key));
        let mut compiled_now = false;
        let record = self.cache.get_or_compile(key, || {
            compiled_now = true;
            front.map_or_else(|| FrontHalf::new(stmt, opts), Ok)?.finish(budget, verify)
        })?;
        if compiled_now {
            let kernel = record.kernel();
            for e in kernel.fallback_events() {
                self.push_event(EngineEvent::Fallback(e.clone()));
            }
            let report = kernel.verify_report();
            self.push_event(EngineEvent::Verified {
                fingerprint: kernel.fingerprint(),
                denies: report.denies(),
                warns: report.warns(),
            });
        }
        Ok((record, !compiled_now))
    }

    /// Compiles (through the cache) and runs a statement.
    ///
    /// # Errors
    ///
    /// Compile errors, or the usual bind/run errors.
    pub fn run(&self, stmt: &IndexStmt, opts: LowerOptions, inputs: &[(&str, &Tensor)]) -> Result<Tensor> {
        let (record, _) = self.compile_traced(stmt, opts, None)?;
        let (result, ..) = self.run_kernel(&record, inputs, None, None)?;
        Ok(result)
    }

    /// Runs a statement under a [`Supervisor`], descending the degradation
    /// ladder ([`DegradeRung::LADDER`]) on retryable aborts. No other code
    /// walks the ladder at run time.
    ///
    /// The first rung compiles the statement as scheduled (under the
    /// engine's budget, so an over-budget workspace already walks down the
    /// ladder at compile time, and the kernel stands for the rung it
    /// compiled: [`CompiledKernel::rung`]). If the run aborts with a
    /// *retryable* reason — a missed deadline or an exhausted resource
    /// budget — the request of the next rung below the one that ran
    /// ([`DegradeRung::request`]) is compiled and run with a fresh
    /// deadline: coordinate-list workspace, then direct merge. No rung at or
    /// above one already run is compiled. The first rung to commit wins.
    /// Every abandoned rung is recorded as a
    /// [`FallbackEvent::DegradedRetry`] in the returned run and in the
    /// engine's event log. Cancellation, runtime failures and bind errors
    /// are not fixed by a degraded schedule and are not retried.
    ///
    /// Every rung is compiled *through the kernel cache* under
    /// [`EngineConfig::verify`] and run on [`EngineConfig::backend`], so a
    /// serving workload coalesces onto warm kernels: N concurrent requests
    /// for one statement cost one compile (single-flight), and a rung that
    /// aborted for an earlier request retries from a cached kernel for the
    /// next. [`SupervisedRun::cache_hit`] says whether the *first attempted
    /// rung* was served from the cache (the request-level coalesce/warm
    /// signal).
    ///
    /// # Errors
    ///
    /// A rung that does not compile is skipped, remembering the *earliest*
    /// such error; a retryable abort replaces it. When no rung commits, the
    /// remembered error is returned: [`CoreError::Aborted`] via
    /// [`EngineError::Core`] when every viable rung aborted, or the compile
    /// error no rung could fix. Bind and runtime errors return immediately.
    pub fn run_supervised(
        &self,
        stmt: &IndexStmt,
        opts: LowerOptions,
        supervisor: &Supervisor,
        inputs: &[(&str, &Tensor)],
        output_structure: Option<&Tensor>,
    ) -> Result<SupervisedRun> {
        let mut fallbacks: Vec<FallbackEvent> = Vec::new();
        let mut last_err: Option<EngineError> = None;
        let mut cache_hit: Option<bool> = None;
        // The lowest rung run so far.
        let mut ran: Option<DegradeRung> = None;
        for rung in DegradeRung::LADDER {
            if ran >= Some(rung) {
                continue;
            }
            let Some((rung_stmt, rung_opts)) = rung.request(stmt, &opts) else {
                continue;
            };
            let record = match self.compile_traced(&rung_stmt, rung_opts, None) {
                Ok((record, warm)) => {
                    cache_hit.get_or_insert(warm);
                    record
                }
                // Rung not realizable (e.g. direct sparse scatter): try the
                // next one, but remember why in case nothing works.
                Err(e) => {
                    last_err.get_or_insert(e);
                    continue;
                }
            };
            let rung = rung.max(record.kernel().rung());
            ran = Some(rung);
            fallbacks.extend(record.kernel().fallback_events().iter().cloned());
            let run = self.run_kernel(&record, inputs, output_structure, Some(supervisor));
            match run {
                Ok((result, report, native)) => {
                    let cache_hit = cache_hit.unwrap_or(false);
                    return Ok(SupervisedRun { result, report, rung, fallbacks, cache_hit, native });
                }
                Err(CoreError::Aborted(aborted)) if aborted.reason.is_retryable() => {
                    let event = FallbackEvent::DegradedRetry { rung, reason: aborted.reason.clone() };
                    self.push_event(EngineEvent::Fallback(event.clone()));
                    fallbacks.push(event);
                    last_err = Some(CoreError::Aborted(aborted).into());
                }
                Err(other) => return Err(other.into()),
            }
        }
        // The as-scheduled rung always has a request, so an exhausted ladder
        // has recorded an error; the fallback only keeps this total without
        // a panic.
        Err(last_err.unwrap_or_else(|| {
            let none_applies = "no degradation-ladder rung applies to this statement";
            CoreError::Lower(LowerError::Unsupported(none_applies.to_string())).into()
        }))
    }

    /// Picks a schedule for a statement by predicted cost and replies with
    /// it.
    ///
    /// On the first call for a [`TuneKey`] (expression fingerprint × operand
    /// format signature × sparsity bucket) the engine enumerates the
    /// candidates that compile under `opts` ([`enumerate_candidates_for`],
    /// each with its front half already built) and **ranks** them: a
    /// candidate's predicted cost is the cost analyzer's iteration bound
    /// evaluated on the *actual operands* (no bound = last), plus, for a
    /// format-conversion candidate, the stored entries × levels of every
    /// operand it makes the engine convert on each request. The sort is
    /// stable, so equal predictions keep enumeration order: simplest first.
    ///
    /// The **reply** is a run of the predicted best under the engine budget,
    /// finished from the front half it was enumerated with. The ranking is
    /// walked further only when a candidate fails to compile or aborts, so a
    /// decision depends on the candidates and the operands alone, and a
    /// search compiles and runs exactly the candidates it walked: one, unless
    /// a better-ranked one failed. Nothing else is run and no clock is read
    /// to decide; [`EngineEvent::Autotuned`] says what was predicted and what
    /// the reply measured. Every candidate compiles under `opts` as given,
    /// workspace kind included: storage is the caller's and the budget's
    /// choice, not a point of the search.
    ///
    /// The decision — the winning [`ScheduleCandidate`] itself — is
    /// remembered: later calls with the same key skip the search
    /// (`tuned == false` in the outcome, one
    /// [`EngineEvent::AutotuneReused`] logged) and are an [`Engine::run`] of
    /// the remembered statement on the operands it asks for.
    ///
    /// # Errors
    ///
    /// [`EngineError::NoViableCandidate`] when nothing compiles and runs;
    /// otherwise the usual compile/run errors.
    pub fn run_tuned(
        &self,
        stmt: &IndexStmt,
        opts: LowerOptions,
        inputs: &[(&str, &Tensor)],
    ) -> Result<TunedOutcome> {
        let key = TuneKey::new(stmt, inputs);
        let mut converted: HashMap<(String, Format), Tensor> = HashMap::new();
        if let Some(cand) = self.tuner.decision(&key) {
            let schedule = cand.name.clone();
            self.push_event(EngineEvent::AutotuneReused { key, schedule: schedule.clone() });
            let run_inputs = converted_inputs(&mut converted, inputs, &cand.conversions)
                .map_err(|e| EngineError::Core(CoreError::Tensor(e)))?;
            let result = self.run(&cand.stmt, opts, &run_inputs)?;
            return Ok(TunedOutcome { result, schedule, tuned: false });
        }

        let candidates = enumerate_candidates_for(stmt, &opts);
        let total = candidates.len();
        let mut sets: HashMap<Vec<(String, Format)>, ConversionSet> = HashMap::new();
        let mut ranked: Vec<Ranked> = Vec::with_capacity(total);
        for (cand, front) in candidates {
            let set = sets.entry(cand.conversions.clone()).or_insert_with(|| {
                ConversionSet::of(front.lowered(), inputs, &cand.conversions, &mut converted)
            });
            let iterations = front.cost_report().iterations.concrete(&set.env);
            let predicted = iterations.map_or(u64::MAX, |n| n.saturating_add(set.entries));
            ranked.push(Ranked { predicted, cand, front });
        }
        ranked.sort_by_key(|r| r.predicted);

        let mut ran = 0usize;
        let reply = ranked.into_iter().find_map(|Ranked { predicted, cand, front }| {
            ran += 1;
            let run = self.tuning_run(&opts, &cand, front, inputs, &mut converted)?;
            Some((predicted, cand, run))
        });
        let Some((predicted, candidate, (result, report))) = reply else {
            return Err(EngineError::NoViableCandidate { candidates: total });
        };
        let schedule = candidate.name.clone();
        self.tuner.record(key, candidate);
        self.push_event(EngineEvent::Autotuned {
            key,
            schedule: schedule.clone(),
            candidates: total,
            viable: 1,
            pruned: total - ran,
            best_nanos: report.elapsed.as_nanos() as u64,
            predicted,
        });
        Ok(TunedOutcome { result, schedule, tuned: true })
    }

    /// Finishes a ranked candidate through the kernel cache from the front
    /// half it was enumerated with, and runs it once under the engine budget
    /// on the operands it asks for. `None` when it does not compile, its
    /// conversions fail, or the run aborts.
    fn tuning_run(
        &self,
        opts: &LowerOptions,
        cand: &ScheduleCandidate,
        front: FrontHalf,
        inputs: &[(&str, &Tensor)],
        converted: &mut HashMap<(String, Format), Tensor>,
    ) -> Option<(Tensor, ExecReport)> {
        let (record, _) = self.compile_traced(&cand.stmt, opts.clone(), Some(front)).ok()?;
        let supervisor = Supervisor::new().with_budget(self.config.budget);
        let operands = converted_inputs(converted, inputs, &cand.conversions).ok()?;
        let (result, report, _) =
            self.run_kernel(&record, &operands, None, Some(&supervisor)).ok()?;
        Some((result, report))
    }

    /// Snapshot of the kernel-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The autotune decision store (for inspecting decisions and the
    /// tuning-run count).
    pub fn tuner(&self) -> &Autotuner {
        &self.tuner
    }

    /// The engine's event log, oldest first: every fallback and autotune
    /// decision since construction, up to [`EngineConfig::max_events`].
    pub fn last_events(&self) -> Vec<EngineEvent> {
        self.events.lock().unwrap_or_else(|p| p.into_inner()).buf.iter().cloned().collect()
    }

    /// Monotonic count of events the ring buffer has dropped since
    /// construction. Zero means [`Engine::last_events`] is the complete
    /// event history; nonzero tells an overload investigation exactly how
    /// much of the stream is missing (and to raise
    /// [`EngineBuilder::max_events`]).
    pub fn dropped_events(&self) -> u64 {
        self.events.lock().unwrap_or_else(|p| p.into_inner()).dropped
    }

    pub(crate) fn push_event(&self, event: EngineEvent) {
        let mut events = self.events.lock().unwrap_or_else(|p| p.into_inner());
        while events.buf.len() >= self.config.max_events.max(1) {
            events.buf.pop_front();
            events.dropped += 1;
        }
        events.buf.push_back(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NativeStats;
    use taco_ir::expr::{sum, IndexVar, TensorVar};
    use taco_ir::notation::IndexAssignment;
    use taco_tensor::gen::random_csr;

    /// Gustavson's SpGEMM (reorder + row workspace) over `n`×`n` CSR.
    fn spgemm(n: usize) -> IndexStmt {
        let [a, b, c] = ["A", "B", "C"].map(|name| TensorVar::new(name, vec![n, n], Format::csr()));
        let (i, j, k) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"));
        let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
        let assign = IndexAssignment::assign(a.access([i, j.clone()]), sum(k.clone(), mul.clone()));
        let mut stmt = IndexStmt::new(assign).unwrap();
        stmt.reorder(&k, &j).unwrap();
        let w = TensorVar::new("w", vec![n], Format::dvec());
        stmt.precompute(&mul, &[(j.clone(), j.clone(), j)], &w).unwrap();
        stmt
    }

    /// A kernel's native form lives in its cache entry: a kernel evicted
    /// and compiled again is acquired and trusted anew, and no reply runs
    /// from a shared object whose kernel the cache has let go.
    #[test]
    fn eviction_drops_the_native_form() {
        let engine = Engine {
            cache: KernelCache::new(u64::MAX, 1),
            ..Engine::builder().backend(Backend::Native).build()
        };
        for n in [8, 9, 8, 10, 8] {
            let (b, c) = (random_csr(n, n, 0.3, 1).to_tensor(), random_csr(n, n, 0.3, 2).to_tensor());
            engine.run(&spgemm(n), LowerOptions::fused("spgemm"), &[("B", &b), ("C", &c)]).unwrap();
        }
        let cache = engine.cache_stats();
        assert_eq!((cache.compiles, cache.evictions, cache.entries), (5, 4, 1), "{cache}");
        let native = engine.native_stats();
        if native.unavailable > 0 {
            eprintln!("SKIPPED eviction_drops_the_native_form: no C toolchain ({native:?})");
            return;
        }
        let NativeStats { compiled, trusted, native_runs, .. } = native;
        assert_eq!((compiled, trusted, native_runs), (5, 5, 0), "{native:?}");
    }
}
