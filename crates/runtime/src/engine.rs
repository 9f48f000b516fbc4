//! The [`Engine`]: one front door for compile-with-caching, supervised
//! execution, and schedule autotuning.

use crate::cache::{
    CacheStats, KernelCache, ENGINE_CACHE_MAX_BYTES, ENGINE_CACHE_MAX_ENTRIES, ENGINE_CACHE_SHARDS,
};
use crate::native::{Backend, NativeStore};
use crate::tuner::{
    converted_inputs, Autotuner, ConversionSet, Ranked, TuneDecision, TuneKey, TunedRun,
};
use crate::{EngineError, Result};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use taco_core::{
    enumerate_candidates_for, ladder, CompiledKernel, CoreError, FallbackEvent, FrontHalf,
    IndexStmt, ResourceBudget, Supervisor, SupervisedOutcome, VerifyMode,
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
    /// An autotune search ranked the candidates and picked a schedule.
    Autotuned {
        /// The decision key (expression × formats × sparsity class).
        key: TuneKey,
        /// Name of the winning candidate schedule.
        schedule: String,
        /// Candidates enumerated, all of them ranked.
        candidates: usize,
        /// Candidates that were compiled and ran to completion (at most
        /// two: the reply and the check).
        viable: usize,
        /// Candidates ranked out: never compiled, never run.
        pruned: usize,
        /// Measured nanoseconds of the winner, its operand conversions
        /// included.
        best_nanos: u64,
        /// The winner's predicted cost: its iteration bound on the actual
        /// operands plus the entries its conversions touch (`u64::MAX` when
        /// the analyzer has no bound for it).
        predicted: u64,
        /// The check: the name of the best candidate predicted strictly worse
        /// than the reply, its predicted cost, and its measured nanoseconds
        /// — `None` when it was cut at the reply's time or aborted. Absent
        /// when no candidate is predicted worse or the search deadline had
        /// passed.
        checked: Option<(String, u64, Option<u64>)>,
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
    /// A kernel was refused the native backend — by the verify gate or a
    /// failed differential check — and will run on the
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
                predicted,
                checked,
            } => {
                write!(
                    f,
                    "autotuned [{key}]: chose `{schedule}` (ranked {candidates}, ran {}, {viable} \
                     to completion; predicted {predicted}, measured {:.3} ms",
                    candidates - pruned,
                    *best_nanos as f64 / 1e6
                )?;
                let Some((name, predicted, nanos)) = checked else {
                    return write!(f, "; nothing checked)");
                };
                write!(f, "; checked `{name}`: predicted {predicted}, ")?;
                match nanos {
                    Some(nanos) => write!(f, "measured {:.3} ms)", *nanos as f64 / 1e6),
                    None => write!(f, "cut at that time)"),
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

    /// Picks a schedule for a statement by predicted cost, replies with it,
    /// and checks the prediction against the runner-up once.
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
    /// The **reply** is a run of the predicted best under the engine budget;
    /// the ranking is walked further only when a candidate fails to compile
    /// or aborts. Then, if [`EngineConfig::tuning_deadline`] has not passed,
    /// the best dense-workspace candidate predicted *strictly worse* is the
    /// **check**: it is finished and run once, its own conversion on the
    /// clock, with the leader's time as its deadline. It takes the decision
    /// only if it completes having done *less work* than the leader (metered
    /// iterations plus conversion entries — the bound that ranked it was
    /// loose), faster, *and* the leader, run again with the challenger's time
    /// as its deadline, does not complete. The deadline only ends a lost run
    /// early; the comparisons decide, and the clock can confirm a misranking
    /// the meter has shown but never make one. Both check runs stay on the
    /// interpreter, which is what timed the leader's first run, so a losing
    /// candidate is never handed to the C compiler.
    ///
    /// Candidates predicted *equal* to the leader are never run: the model
    /// has called them the same, and letting the clock break that tie is the
    /// race this search replaces. Sparse-workspace variants are not checked
    /// either: their drain bounds are loose by orders of magnitude, so where
    /// they fall in the ranking says nothing. Both kinds reply when the
    /// ranking is walked to them. A search therefore compiles and runs at
    /// most two candidates, each from the front half it was enumerated with,
    /// and [`EngineEvent::Autotuned`] says what was predicted and what was
    /// measured for both.
    ///
    /// The decision — the winning
    /// [`ScheduleCandidate`](taco_core::ScheduleCandidate) itself — is
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
            let opts = opts.with_workspace_kind(cand.workspace_kind);
            let result = self.run(&cand.stmt, opts, &run_inputs)?;
            return Ok(TunedOutcome { result, schedule, tuned: false });
        }

        let started = Instant::now();
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
            let conversion = (set.entries, set.nanos);
            ranked.push(Ranked { predicted, conversion, cand, front: Some(front) });
        }
        ranked.sort_by_key(|r| r.predicted);

        let mut ranked = ranked.into_iter();
        let mut ran = 0usize;
        let mut attempt = |of: &mut Ranked, deadline, backend| {
            ran += 1;
            self.tuning_run(&opts, of, inputs, &mut converted, deadline, backend)
        };
        let leader = ranked.by_ref().find_map(|mut of| {
            attempt(&mut of, None, self.config.backend).map(|run| (of, run))
        });
        let Some((mut best, mut reply)) = leader else {
            return Err(EngineError::NoViableCandidate { candidates: total });
        };
        let (mut viable, mut checked) = (1usize, None);
        // The check is the best dense-workspace candidate predicted strictly
        // worse: between equal predictions enumeration order has already
        // decided, and a sparse workspace's bound counts the iterations of
        // its loops, not what its map operations cost next to the dense
        // scatters they replace. It measures, it does not reply: its runs
        // stay on the interpreter, which is what timed the leader's first
        // run (an untrusted native kernel commits the interpreter's result),
        // so a candidate about to lose never costs a compiler run.
        let in_time = started.elapsed() < self.config.tuning_deadline;
        let checkable = |r: &Ranked| {
            r.predicted > best.predicted && r.cand.workspace_kind == WorkspaceKind::Dense
        };
        if let Some(mut of) = ranked.find(checkable).filter(|_| in_time) {
            let interp = Backend::Interp;
            let run = attempt(&mut of, Some(reply.nanos), interp);
            viable += usize::from(run.is_some());
            checked = Some((of.cand.name.clone(), of.predicted, run.as_ref().map(|run| run.nanos)));
            // The clock may confirm a misranking the meter has shown — the
            // challenger did less work than the leader, so a loose bound
            // misplaced it — never make one: schedules that do the same work
            // trade places on the clock from run to run.
            if let Some(run) = run.filter(|run| run.work < reply.work && run.nanos < reply.nanos) {
                let limit = Some(run.nanos);
                let again =
                    self.tuning_run(&opts, &mut best, inputs, &mut converted, limit, interp);
                if again.is_none() {
                    (best, reply) = (of, run);
                }
            }
        }
        let TunedRun { result, nanos, .. } = reply;
        let Ranked { predicted, cand: candidate, .. } = best;
        let schedule = candidate.name.clone();
        self.tuner.record(key, TuneDecision { candidate, best_nanos: nanos });
        self.push_event(EngineEvent::Autotuned {
            key,
            schedule: schedule.clone(),
            candidates: total,
            viable,
            pruned: total - ran,
            best_nanos: nanos,
            predicted,
            checked,
        });
        Ok(TunedOutcome { result, schedule, tuned: true })
    }

    /// Finishes a ranked candidate through the kernel cache — from the front
    /// half it was enumerated with, on its first run — and runs it once under
    /// the engine budget, on the operands it asks for. `None` when it does
    /// not compile or aborts — at `deadline`, which its conversion time
    /// counts against, or for any other reason.
    fn tuning_run(
        &self,
        opts: &LowerOptions,
        of: &mut Ranked,
        inputs: &[(&str, &Tensor)],
        converted: &mut HashMap<(String, Format), Tensor>,
        deadline: Option<u64>,
        backend: Backend,
    ) -> Option<TunedRun> {
        let (conversion_entries, conversion_nanos) = of.conversion;
        let mut supervisor = Supervisor::new().with_budget(self.config.budget);
        if let Some(limit) = deadline {
            let left = limit.checked_sub(conversion_nanos)?;
            supervisor = supervisor.with_deadline(Duration::from_nanos(left));
        }
        let run_opts = opts.clone().with_workspace_kind(of.cand.workspace_kind);
        let (kernel, _) = self.compile_traced(&of.cand.stmt, run_opts, of.front.take()).ok()?;
        let operands = converted_inputs(converted, inputs, &of.cand.conversions).ok()?;
        let (result, report, _) =
            self.run_kernel(&kernel, &operands, None, Some(&supervisor), backend).ok()?;
        Some(TunedRun {
            result,
            nanos: conversion_nanos.saturating_add(report.elapsed.as_nanos() as u64),
            work: conversion_entries.saturating_add(report.progress.iterations),
        })
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
