//! Native codegen backend dispatch: compile-and-dlopen the emitted C for a
//! cached kernel, with the interpreter as the portable fallback and the
//! correctness oracle.
//!
//! The engine owns one [`NativeStore`]: a lazily resolved system C compiler
//! and the [`NativeStats`] counters. Resolving spawns nothing and a cached
//! artifact is loaded without the compiler, so a restart over a warm cache
//! runs `cc` zero times; a missing `$CC` is found at resolution and a
//! present-but-broken one by the first build, whose verdict the compiler
//! value remembers — either way the toolchain costs O(1) spawns per engine,
//! not one per kernel (see `taco_native`'s `cc` module for the protocol).
//!
//! A kernel's native form and its trust state are fields of its cache
//! record ([`CachedKernel`]), so they live exactly as long as the kernel is
//! resident: an eviction drops the shared object with the kernel, and a
//! kernel compiled again starts over from `Untried` (its `.so` is then
//! loaded from the on-disk artifact cache, not rebuilt, and must pass the
//! differential check again).
//! Within one residency the native form moves through four states:
//!
//! ```text
//! Untried ──build──▶ Untrusted ──differential check──▶ Trusted
//!    │                   │
//!    └──verify gate /    └── mismatch / native error ──▶ Rejected
//!        toolchain
//!        failure ─▶ Rejected
//! ```
//!
//! * **Untried**: no native request has reached the record yet. The first
//!   one builds the native form under the record's lock, so concurrent
//!   requests for one resident kernel run the C compiler once.
//! * **Untrusted**: the shared object compiled and loaded, but has never
//!   produced a result. The first run is *differential*: the interpreter
//!   runs on the actual operands first, then the native kernel on a fresh
//!   binding, and the results are compared byte-for-byte. The caller always
//!   receives the interpreter's result on this run.
//! * **Trusted**: the differential check passed; later runs go straight to
//!   the native kernel, under the same budget/deadline/cancel supervision.
//! * **Rejected**: the verify gate, the toolchain, or the differential
//!   check refused the kernel. Recorded once per cache residency, so the
//!   refusal costs nothing on later runs.
//!
//! Only statically *verified* kernels (an accepted [`VerifyReport`] with
//! zero deny-severity findings recorded at compile time) are eligible: the
//! emitted C elides the bounds checks the interpreter performs, so the
//! verifier's proof is what stands in for them.
//!
//! [`VerifyReport`]: taco_core::VerifyReport

use crate::cache::{lock, CachedKernel};
use crate::engine::EngineEvent;
use crate::Engine;
use std::sync::{Arc, Mutex, MutexGuard};
use taco_core::{CompiledKernel, CoreError, FallbackEvent, Supervisor};
use taco_llir::{emit_native, ExecReport};
use taco_native::{NativeCompiler, NativeKernel};
use taco_tensor::Tensor;

/// Which execution backend the engine dispatches kernel runs to.
///
/// The interpreter is always the fallback: `Native` and `Auto` *attempt*
/// the native path and degrade to the interpreter — recording a
/// [`FallbackEvent::NativeUnavailable`] — whenever the toolchain or the
/// trust protocol refuses a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Let the engine decide: native when a working C toolchain is present
    /// and the kernel passes the trust protocol, interpreter otherwise.
    /// In [`crate::EngineConfig`] this currently behaves like `Native`.
    #[default]
    Auto,
    /// Interpreter only; the native backend is never consulted.
    Interp,
    /// Prefer compiled native kernels, interpreter fallback on any failure.
    Native,
}

impl Backend {
    /// Reads `TACO_BACKEND` (`auto` | `interp` | `native`); unset, empty,
    /// or unrecognized values mean [`Backend::Auto`].
    pub fn from_env() -> Backend {
        match std::env::var("TACO_BACKEND").as_deref() {
            Ok("interp") => Backend::Interp,
            Ok("native") => Backend::Native,
            _ => Backend::Auto,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Backend::Auto => write!(f, "auto"),
            Backend::Interp => write!(f, "interp"),
            Backend::Native => write!(f, "native"),
        }
    }
}

/// The trust state of a resident kernel's native form, a field of its
/// [`CachedKernel`] record.
#[derive(Debug)]
pub(crate) enum NativeState {
    /// No native build attempted in this residency.
    Untried,
    /// Compiled and loaded, but not yet differentially validated.
    Untrusted(Arc<NativeKernel>),
    /// Differential check passed; runs go straight to the native kernel.
    Trusted(Arc<NativeKernel>),
    /// Refused (verify gate, toolchain, or differential mismatch).
    Rejected,
}

/// Counters describing what the native backend has done so far; see
/// [`Engine::native_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct NativeStats {
    /// Shared objects compiled (or re-loaded from the on-disk cache).
    pub compiled: u64,
    /// Kernels promoted to trusted by a passing differential check.
    pub trusted: u64,
    /// Kernels refused by the verify gate or a failed differential check.
    pub rejected: u64,
    /// Kernels that fell back to the interpreter because the toolchain was
    /// missing or the compile/load failed.
    pub unavailable: u64,
    /// Runs served by a trusted native kernel.
    pub native_runs: u64,
}

/// The engine's native-backend state: one lazily resolved compiler and the
/// counters. Each kernel's native form lives in its cache record.
#[derive(Debug, Default)]
pub(crate) struct NativeStore {
    /// `None` = not resolved yet; `Some(Err)` = `$CC` names no executable
    /// (rendered reason), remembered so it is never resolved again. A
    /// compiler that resolves but cannot build remembers that itself.
    compiler: Mutex<Option<Result<NativeCompiler, String>>>,
    counts: Mutex<NativeStats>,
}

impl NativeStore {
    fn compiler(&self) -> Result<NativeCompiler, String> {
        lock(&self.compiler)
            .get_or_insert_with(|| NativeCompiler::from_env().map_err(|e| e.to_string()))
            .clone()
    }

    fn count(&self) -> MutexGuard<'_, NativeStats> {
        lock(&self.counts)
    }
}

/// What one kernel run produced: the result, the run report (default for an
/// unsupervised interpreter run, which measures nothing), and whether a
/// trusted native kernel served it.
pub(crate) type KernelRun = std::result::Result<(Tensor, ExecReport, bool), CoreError>;

impl Engine {
    /// Counters for the native backend: compiles, trust promotions,
    /// rejections, toolchain fallbacks, and runs served natively.
    pub fn native_stats(&self) -> NativeStats {
        *self.native.count()
    }

    /// Runs a resident kernel on the engine's [`Backend`]: the one step
    /// every engine entry point shares, and every run in it is
    /// [`CompiledKernel::run_with_body`] — with the interpreter as the body,
    /// or with the kernel's native build. A kernel the native path is off
    /// for or has rejected runs on the interpreter; a trusted one runs
    /// native; an untrusted one runs both, for the differential check.
    /// `supervisor: None` is a plain run under the kernel's own budget.
    /// Supervised failures arrive as [`CoreError::Aborted`] with the meter's
    /// counters whichever body ran, so the degrade-and-retry ladder treats
    /// both backends identically.
    pub(crate) fn run_kernel(
        &self,
        record: &CachedKernel,
        inputs: &[(&str, &Tensor)],
        output_structure: Option<&Tensor>,
        supervisor: Option<&Supervisor>,
    ) -> KernelRun {
        let kernel = record.kernel();
        let interpreted = || {
            let run =
                kernel.run_with_body(kernel.executable(), inputs, output_structure, supervisor);
            run.map(|(result, report)| (result, report, false))
        };
        let Some((nk, trusted)) = self.native_form(record) else {
            return interpreted();
        };
        let native = || kernel.run_with_body(&*nk, inputs, output_structure, supervisor);
        if trusted {
            self.native.count().native_runs += 1;
            return native().map(|(result, report)| (result, report, true));
        }

        // Differential trust check: interpreter first (its result is what
        // the caller gets), then the native kernel on a fresh binding. When
        // the interpreter itself fails (deadline, budget, bad operands) the
        // check is inconclusive: the error propagates and the kernel stays
        // untrusted for the next attempt.
        let reference = interpreted();
        if let Ok((ref_result, ..)) = &reference {
            let verdict = match native() {
                Ok((native_result, _)) if native_result == *ref_result => Ok(()),
                Ok(_) => Err(
                    "differential check failed: native result differs from the interpreter"
                        .to_string(),
                ),
                Err(e) => Err(format!("native run failed where the interpreter succeeded: {e}")),
            };
            // Only the first check to finish settles the record: a
            // concurrent one of the same residency finds it settled.
            let mut state = lock(&record.native);
            if matches!(*state, NativeState::Untrusted(_)) {
                *state = match verdict {
                    Ok(()) => {
                        self.native.count().trusted += 1;
                        NativeState::Trusted(nk)
                    }
                    Err(reason) => self.reject_native(kernel.fingerprint(), reason),
                };
            }
        }
        reference
    }

    /// The kernel's native build and whether it is trusted, building it on
    /// the record's first native request. `None` means the interpreter
    /// serves this kernel: the backend is off or the kernel is rejected.
    fn native_form(&self, record: &CachedKernel) -> Option<(Arc<NativeKernel>, bool)> {
        if self.config().backend == Backend::Interp {
            return None;
        }
        let mut state = lock(&record.native);
        if let NativeState::Untried = *state {
            *state = self.acquire_native(record.kernel());
        }
        match &*state {
            NativeState::Trusted(nk) => Some((Arc::clone(nk), true)),
            NativeState::Untrusted(nk) => Some((Arc::clone(nk), false)),
            NativeState::Untried | NativeState::Rejected => None,
        }
    }

    /// Verify-gates, emits, and compiles the native form of a kernel,
    /// recording the outcome in the counters and the event log; the state
    /// returned goes into the kernel's record.
    fn acquire_native(&self, kernel: &CompiledKernel) -> NativeState {
        let fingerprint = kernel.fingerprint();
        // Trust gate: the emitted C elides the interpreter's bounds checks,
        // so only kernels the static verifier accepted may go native.
        let denies = kernel.verify_report().denies();
        if denies > 0 {
            return self.reject_native(
                fingerprint,
                format!("{denies} deny-severity findings on the kernel's verification report"),
            );
        }
        let Ok(source) = emit_native(kernel.executable());
        let built = self.native.compiler().and_then(|compiler| {
            compiler.compile(&source, fingerprint).map_err(|e| e.to_string())
        });
        match built {
            Ok(nk) => {
                self.native.count().compiled += 1;
                self.push_event(EngineEvent::NativeCompiled {
                    fingerprint,
                    compile_nanos: nk.compile_nanos,
                });
                NativeState::Untrusted(Arc::new(nk))
            }
            Err(reason) => self.native_unavailable(reason),
        }
    }

    /// Records a per-kernel rejection (verify gate, differential check).
    fn reject_native(&self, fingerprint: u64, reason: String) -> NativeState {
        self.native.count().rejected += 1;
        self.push_event(EngineEvent::NativeRejected { fingerprint, reason });
        NativeState::Rejected
    }

    /// Records a toolchain/compile/load failure (a `$CC` that did not
    /// resolve, or any error of `NativeCompiler::compile`): the kernel runs
    /// on the interpreter, and the degradation is visible as a fallback event.
    fn native_unavailable(&self, reason: String) -> NativeState {
        // `NativeError::Unavailable` renders with the same preamble the
        // fallback event adds; strip it so the log line reads once.
        let reason = match reason.strip_prefix("native backend unavailable: ") {
            Some(trimmed) => trimmed.to_string(),
            None => reason,
        };
        self.native.count().unavailable += 1;
        self.push_event(EngineEvent::Fallback(FallbackEvent::NativeUnavailable { reason }));
        NativeState::Rejected
    }
}
