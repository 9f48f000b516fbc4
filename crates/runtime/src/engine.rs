//! The [`Engine`]: one front door for compile-with-caching, supervised
//! execution, and schedule autotuning.

use crate::cache::{
    CacheStats, KernelCache, ENGINE_CACHE_MAX_BYTES, ENGINE_CACHE_MAX_ENTRIES, ENGINE_CACHE_SHARDS,
};
use crate::native::{Backend, NativeStore};
use crate::tuner::{Autotuner, TuneDecision, TuneKey};
use crate::{EngineError, Result};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use taco_core::{
    enumerate_candidates_for, ladder, CompiledKernel, CoreError, FallbackEvent, FrontHalf,
    IndexStmt, ResourceBudget, ScheduleCandidate, Supervisor, SupervisedOutcome, VerifyMode,
};
use taco_llir::WorkspaceKind;
use taco_lower::LowerOptions;
use taco_tensor::{Format, Tensor};

/// Engine construction parameters. `EngineConfig::default()` is sized for a
/// long-lived process serving many kernels.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Resource budget applied to every compile and run issued through the
    /// engine (and folded into the cache key, so the same statement under a
    /// different budget class is a different kernel). Default unlimited.
    pub budget: ResourceBudget,
    /// Wall-clock budget for one autotune search. Once a viable candidate
    /// is in hand, no new candidate is timed past this deadline. Default
    /// 250 ms.
    pub tuning_deadline: Duration,
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
            tuning_deadline: Duration::from_millis(250),
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

    /// Sets the wall-clock budget for one autotune search.
    #[must_use]
    pub fn tuning_deadline(mut self, deadline: Duration) -> EngineBuilder {
        self.config.tuning_deadline = deadline;
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
        Engine::with_config(self.config)
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
    /// An autotune search ran and picked a schedule.
    Autotuned {
        /// The decision key (expression × formats × sparsity class).
        key: TuneKey,
        /// Name of the winning candidate schedule.
        schedule: String,
        /// Candidates enumerated.
        candidates: usize,
        /// Candidates that compiled and ran to completion.
        viable: usize,
        /// Candidates skipped without a timing run because the symbolic
        /// cost analyzer proved their peak allocation charge at least
        /// [`Engine::TUNE_PRUNE_MARGIN`] times the incumbent's measured
        /// peak — statically dominated on memory, not worth racing.
        pruned: usize,
        /// Measured nanoseconds of the winner.
        best_nanos: u64,
        /// Pinned thread count of the winner (`None` = serial/auto).
        threads: Option<usize>,
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
    /// Recorded once per fingerprint.
    NativeCompiled {
        /// The kernel's canonical fingerprint.
        fingerprint: u64,
        /// Wall-clock nanoseconds the C compiler took (0 when the shared
        /// object was served from the on-disk artifact cache).
        compile_nanos: u64,
    },
    /// A kernel was refused the native backend — by the verify gate, the
    /// emitter, or a failed differential check — and will run on the
    /// interpreter. Recorded once per fingerprint. Toolchain failures are
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
                threads,
            } => {
                write!(
                    f,
                    "autotuned [{key}]: chose `{schedule}` ({viable}/{candidates} runs viable, \
                     {pruned} statically pruned, best {:.3} ms",
                    *best_nanos as f64 / 1e6
                )?;
                match threads {
                    Some(n) => write!(f, ", {n} threads)"),
                    None => write!(f, ")"),
                }
            }
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

/// The result of [`Engine::run_supervised`]: the committed ladder outcome
/// plus the request-level warm-kernel and backend signals.
#[derive(Debug, Clone)]
pub struct SupervisedRun {
    /// The committed result, rung, run report, and fallback trail.
    pub outcome: SupervisedOutcome,
    /// True when the first attempted rung's kernel was served from the
    /// cache (hit or coalesced) rather than compiled by this call.
    pub cache_hit: bool,
    /// True when the committing run executed on a trusted native kernel
    /// rather than the interpreter. (A differential trust-check run counts
    /// as interpreted: the interpreter's result is what committed.)
    pub native: bool,
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
    /// Static-pruning margin of the autotune search: a candidate is skipped
    /// without a timing run when its proven peak-allocation bound is at
    /// least this many times the incumbent's *measured* peak. Chosen well
    /// above the analyzer's typical bound-tightness ratio so a loose (but
    /// sound) bound never prunes a genuinely competitive schedule.
    pub const TUNE_PRUNE_MARGIN: u64 = 4;

    /// An engine with [`EngineConfig::default`].
    pub fn new() -> Engine {
        Engine::with_config(EngineConfig::default())
    }

    /// Fluent construction: `Engine::builder().verify(VerifyMode::Deny).build()`.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// An engine with explicit configuration.
    pub fn with_config(config: EngineConfig) -> Engine {
        Engine {
            config,
            cache: KernelCache::new(
                ENGINE_CACHE_MAX_BYTES,
                ENGINE_CACHE_MAX_ENTRIES,
                ENGINE_CACHE_SHARDS,
            ),
            tuner: Autotuner::new(),
            events: Mutex::new(EventLog::default()),
            native: NativeStore::default(),
        }
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
        self.compile_traced(stmt, opts, None).map(|(kernel, _)| kernel)
    }

    /// [`Engine::compile`], additionally reporting whether the kernel was
    /// served warm: `true` means a cache hit or a coalesced wait on a
    /// concurrent compile of the same fingerprint, `false` means this call
    /// ran the compile pipeline. A miss finishes `front`, the front half of
    /// `stmt` under `opts`, when the caller already holds it.
    fn compile_traced(
        &self,
        stmt: &IndexStmt,
        opts: LowerOptions,
        front: Option<FrontHalf>,
    ) -> Result<(Arc<CompiledKernel>, bool)> {
        let (budget, verify) = (self.config.budget, self.config.verify);
        let key = taco_core::fingerprint(stmt.concrete(), &opts, &budget);
        debug_assert!(front.as_ref().is_none_or(|f| f.request_fingerprint(&budget) == key));
        let mut compiled_now = false;
        let kernel = self.cache.get_or_compile(key, || {
            compiled_now = true;
            front.map_or_else(|| FrontHalf::unverified(stmt, opts), Ok)?.finish(budget, verify)
        })?;
        if compiled_now {
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
        Ok((kernel, !compiled_now))
    }

    /// Compiles (through the cache) and runs a statement.
    ///
    /// # Errors
    ///
    /// Compile errors, or the usual bind/run errors.
    pub fn run(&self, stmt: &IndexStmt, opts: LowerOptions, inputs: &[(&str, &Tensor)]) -> Result<Tensor> {
        let kernel = self.compile(stmt, opts)?;
        let (result, ..) = self.run_kernel(&kernel, inputs, None, None, self.config.backend)?;
        Ok(result)
    }

    /// Runs a statement under a [`Supervisor`], descending the
    /// degrade-and-retry ladder ([`taco_core::ladder::descend`]) on
    /// retryable aborts with every rung compiled *through the kernel
    /// cache*, so a serving workload coalesces onto warm kernels: N
    /// concurrent requests for one statement cost one compile
    /// (single-flight), and a rung that aborted for an earlier request
    /// retries from a cached kernel for the next. Every retry is recorded
    /// in the engine's event log.
    ///
    /// `verify` is enforced per call, on top of the engine-wide
    /// [`EngineConfig::verify`] applied at compile time: under
    /// [`VerifyMode::Deny`], a *cached* kernel whose recorded report carries
    /// deny-severity findings (possible when the engine compiled it under
    /// [`VerifyMode::Warn`]) is refused for this caller with
    /// [`EngineError::VerifyDenied`] and the ladder moves on. This is what
    /// lets one shared engine serve tenants with different verification
    /// policies; pass [`EngineConfig::verify`] for the engine's own floor.
    ///
    /// `backend` is a per-call preference (e.g. a tenant policy):
    /// [`Backend::Auto`] defers to [`EngineConfig::backend`], anything else
    /// wins for this call. The trust ledger and compiled shared objects are
    /// engine-wide, so a native-preferring tenant warms them for every
    /// other tenant.
    ///
    /// Returns the committed [`SupervisedOutcome`] plus whether the *first
    /// attempted rung* was served from the cache (the request-level
    /// coalesce/warm signal).
    ///
    /// # Errors
    ///
    /// [`CoreError::Aborted`] via [`EngineError::Core`] when every viable
    /// rung aborted; compile/bind errors for problems no rung can fix;
    /// [`EngineError::VerifyDenied`] when the only viable kernels are
    /// verify-denied for this caller.
    #[allow(clippy::too_many_arguments)]
    pub fn run_supervised(
        &self,
        stmt: &IndexStmt,
        opts: LowerOptions,
        supervisor: &Supervisor,
        inputs: &[(&str, &Tensor)],
        output_structure: Option<&Tensor>,
        verify: VerifyMode,
        backend: Backend,
    ) -> Result<SupervisedRun> {
        let backend = backend.resolve_with(self.config.backend);
        let mut first_rung_warm: Option<bool> = None;
        let mut native = false;
        let outcome = ladder::descend(
            stmt,
            &opts,
            |rung_stmt, rung_opts| {
                let (kernel, warm) = self.compile_traced(rung_stmt, rung_opts, None)?;
                first_rung_warm.get_or_insert(warm);
                let denies = kernel.verify_report().denies();
                if verify == VerifyMode::Deny && denies > 0 {
                    return Err(EngineError::VerifyDenied {
                        fingerprint: kernel.fingerprint(),
                        denies,
                    });
                }
                Ok(kernel)
            },
            |kernel| {
                let (result, report, on_native) =
                    self.run_kernel(kernel, inputs, output_structure, Some(supervisor), backend)?;
                native = on_native;
                Ok((result, report))
            },
            |event| self.push_event(EngineEvent::Fallback(event.clone())),
        )?;
        Ok(SupervisedRun { outcome, cache_hit: first_rung_warm.unwrap_or(false), native })
    }

    /// Picks the best schedule for a statement by measurement, then runs it.
    ///
    /// On the first call for a [`TuneKey`] (expression fingerprint × operand
    /// format signature × sparsity bucket) the engine enumerates the
    /// candidates that compile under `opts` ([`enumerate_candidates_for`],
    /// each with its front half already built), finishes each through the
    /// kernel cache — one compile per candidate and pinned thread count,
    /// shared by the static-pruning probe and the timing runs — times it on
    /// the *actual operands* under the engine budget (best of up to three
    /// runs, so one scheduler stall cannot flip the decision), and picks the
    /// fastest. Candidates that abort count as infinitely slow. Once one
    /// viable candidate is in hand, no new candidate starts after
    /// [`EngineConfig::tuning_deadline`]; later candidates race under the
    /// remaining time.
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
        if let Some(decision) = self.tuner.decision(&key) {
            let cand = &decision.candidate;
            let schedule = cand.name.clone();
            self.push_event(EngineEvent::AutotuneReused { key, schedule: schedule.clone() });
            let run_inputs = converted_inputs(&mut converted, inputs, &cand.conversions)
                .map_err(|e| EngineError::Core(CoreError::Tensor(e)))?;
            let opts = candidate_opts(&opts, cand, decision.threads);
            let result = self.run(&cand.stmt, opts, &run_inputs)?;
            return Ok(TunedOutcome { result, schedule, tuned: false });
        }

        let started = Instant::now();
        let candidates = enumerate_candidates_for(stmt, &opts);
        let total = candidates.len();
        let mut viable = 0usize;
        let mut pruned = 0usize;
        let mut best: Option<(ScheduleCandidate, Option<usize>, Tensor, u64)> = None;
        // Measured peak allocation charge of the incumbent, for static
        // pruning (0 until a run reports one).
        let mut best_peak: u64 = 0;
        'candidates: for (cand, front) in candidates {
            // The carried front half was built under the unpinned options,
            // so it finishes the unpinned request; a pinned thread count is
            // another request and compiles as one.
            let mut front = Some(front);
            for (nth, threads) in tuning_thread_counts(&cand).into_iter().enumerate() {
                let remaining = self.config.tuning_deadline.saturating_sub(started.elapsed());
                if best.is_some() && remaining.is_zero() {
                    break 'candidates;
                }
                let carried = if threads.is_none() { front.take() } else { None };
                let run_opts = candidate_opts(&opts, &cand, threads);
                let Ok((kernel, _)) = self.compile_traced(&cand.stmt, run_opts, carried) else {
                    continue;
                };
                // Format-conversion candidates run on converted copies of
                // the named operands, made once per search and outside the
                // timed region; a conversion that fails drops the candidate.
                let Ok(cand_inputs) = converted_inputs(&mut converted, inputs, &cand.conversions)
                else {
                    continue 'candidates;
                };
                // Static pruning: once an incumbent has been timed, a candidate
                // whose *proven* peak allocation bound — evaluated against the
                // actual operands — is at least `TUNE_PRUNE_MARGIN` times the
                // incumbent's measured peak is dominated on memory by a margin
                // no timing upset can justify, so it is skipped without a run.
                // Unknown bounds are never pruned: degradation is conservative.
                if nth == 0 && best_peak > 0 {
                    let bound = kernel
                        .bind(&cand_inputs, None)
                        .ok()
                        .and_then(|binding| kernel.static_peak_bytes(&binding));
                    let dominated = best_peak.saturating_mul(Self::TUNE_PRUNE_MARGIN);
                    if bound.is_some_and(|bound| bound >= dominated) {
                        pruned += 1;
                        continue 'candidates;
                    }
                }
                // Timing a candidate once makes the decision hostage to a
                // single scheduler stall: the displacement margin is 5% and
                // one preempted run easily exceeds that. Each candidate gets
                // up to TUNE_REPS runs and the minimum counts — the first
                // run of the first viable candidate still ignores the
                // deadline so a slow search budget can never turn a tunable
                // statement into an error; every other rep only spends
                // remaining search time.
                const TUNE_REPS: usize = 3;
                let mut measured: Option<(Tensor, u64, u64)> = None;
                for rep in 0..TUNE_REPS {
                    let remaining =
                        self.config.tuning_deadline.saturating_sub(started.elapsed());
                    if rep > 0 && remaining.is_zero() {
                        break;
                    }
                    let mut supervisor = Supervisor::new().with_budget(self.config.budget);
                    if best.is_some() || rep > 0 {
                        supervisor = supervisor.with_deadline(remaining);
                    }
                    // The native backend competes on equal footing: once a
                    // candidate's kernel is differential-trusted, later reps
                    // (and the remembered decision's reuse path) time the
                    // compiled shared object instead of the interpreter.
                    let run = self.run_kernel(
                        &kernel,
                        &cand_inputs,
                        None,
                        Some(&supervisor),
                        self.config.backend,
                    );
                    match run {
                        Ok((result, report, _)) => {
                            let nanos = report.elapsed.as_nanos() as u64;
                            let peak = report.progress.peak_bytes();
                            measured = Some(match measured.take() {
                                Some((first, b, p)) => (first, b.min(nanos), p.max(peak)),
                                None => (result, nanos, peak),
                            });
                        }
                        Err(_) => break,
                    }
                }
                let Some((result, nanos, peak)) = measured else { continue };
                viable += 1;
                // A challenger displaces the incumbent only by a clear
                // margin (5%): candidates are enumerated simplest-first, so
                // near-ties deterministically keep the simpler schedule
                // instead of flipping on timing noise. Sparse workspace
                // backends need a decisive win (40%): on small operands
                // their times sit within noise of their dense twin, and
                // their real role is the budget ladder, not shaving
                // single-digit percents here. Format-conversion candidates
                // need the same decisive win: their conversion cost is paid
                // outside the timed region, so a noise-level advantage would
                // pick a schedule whose end-to-end cost is strictly worse.
                let margin = if cand.workspace_kind != WorkspaceKind::Dense
                    || !cand.conversions.is_empty()
                {
                    60
                } else {
                    95
                };
                if best.as_ref().is_none_or(|(.., b)| nanos * 100 < *b * margin) {
                    best = Some((cand.clone(), threads, result, nanos));
                    best_peak = peak;
                }
            }
        }
        let Some((candidate, threads, result, best_nanos)) = best else {
            return Err(EngineError::NoViableCandidate { candidates: total });
        };
        let schedule = candidate.name.clone();
        self.tuner.record(key, TuneDecision { candidate, threads, best_nanos });
        self.push_event(EngineEvent::Autotuned {
            key,
            schedule: schedule.clone(),
            candidates: total,
            viable,
            pruned,
            best_nanos,
            threads,
        });
        Ok(TunedOutcome { result, schedule, tuned: true })
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

/// The caller's options with the candidate's workspace backend and, for a
/// parallel candidate timed at an explicit width, that thread count pinned.
fn candidate_opts(
    opts: &LowerOptions,
    cand: &ScheduleCandidate,
    threads: Option<usize>,
) -> LowerOptions {
    let opts = opts.clone().with_workspace_kind(cand.workspace_kind);
    match threads {
        Some(n) => opts.with_threads(n),
        None => opts,
    }
}

/// The thread counts a search times a candidate at: explicit ones (two and
/// the machine width) for a parallel candidate, so the remembered decision
/// also says how wide to run it, one unpinned run for a serial one. On a
/// single core a parallel candidate can only repeat its serial twin's exact
/// work, so it gets no run — timing duplicates would decide on noise.
fn tuning_thread_counts(cand: &ScheduleCandidate) -> Vec<Option<usize>> {
    if !cand.name.contains("parallelize") {
        return vec![None];
    }
    match std::thread::available_parallelism().map_or(1, |n| n.get()) {
        0 | 1 => Vec::new(),
        2 => vec![Some(2)],
        avail => vec![Some(2), Some(avail)],
    }
}

/// `inputs` with every operand a conversion names (and whose format it
/// actually changes) replaced by its converted copy, made on first use and
/// kept in `converted` for the other candidates of the search that ask for it.
fn converted_inputs<'r>(
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
