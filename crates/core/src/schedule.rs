//! The scheduling API (paper Section III), compiled-kernel execution, and
//! supervised degrade-and-retry execution.

use crate::bind::{bind_operand, bind_result, extract_result};
use crate::ladder::{self, DegradeRung};
use crate::passes::FrontHalf;
use crate::Result;
use taco_ir::concrete::ConcreteStmt;
use taco_ir::concretize::concretize;
use taco_ir::expr::{IndexExpr, IndexVar, TensorVar};
use taco_ir::heuristics::{suggest, Suggestion};
use taco_ir::notation::IndexAssignment;
use taco_ir::transform;
use taco_llir::{
    run_body, AbortReason, Binding, Executable, ExecReport, KernelBody, ResourceBudget,
    RunControls, Supervisor, WorkspaceKind,
};
use taco_lower::{KernelKind, LowerOptions, LoweredKernel};
use taco_tensor::Tensor;
use taco_verify::{CostReport, VerifyMode, VerifyReport};

/// The default enforcement mode for the static verifier on the compile
/// path: debug builds fail compilation on any proven violation
/// ([`VerifyMode::Deny`]), release builds record the report without
/// failing ([`VerifyMode::Warn`]). Pass an explicit mode to
/// [`IndexStmt::compile_checked`] to override.
#[must_use]
pub fn default_verify_mode() -> VerifyMode {
    if cfg!(debug_assertions) {
        VerifyMode::Deny
    } else {
        VerifyMode::Warn
    }
}

/// An index notation statement under scheduling — the `IndexStmt` of the
/// paper's C++ API (Figure 2), with `reorder` and `precompute` methods.
#[derive(Debug, Clone)]
pub struct IndexStmt {
    source: IndexAssignment,
    concrete: ConcreteStmt,
}

impl IndexStmt {
    /// Concretizes an index notation assignment (paper Section VI).
    ///
    /// # Errors
    ///
    /// Returns an error if the statement is not valid index notation.
    pub fn new(source: IndexAssignment) -> Result<IndexStmt> {
        let concrete = concretize(&source)?;
        Ok(IndexStmt { source, concrete })
    }

    /// Rebuilds a statement from a source assignment and an
    /// already-transformed concrete statement (used by the candidate
    /// enumerator to materialize alternative schedules).
    pub(crate) fn from_parts(source: IndexAssignment, concrete: ConcreteStmt) -> IndexStmt {
        IndexStmt { source, concrete }
    }

    /// The current concrete index notation.
    pub fn concrete(&self) -> &ConcreteStmt {
        &self.concrete
    }

    /// The original index notation statement.
    pub fn source(&self) -> &IndexAssignment {
        &self.source
    }

    /// Exchanges two index variables in their forall chain
    /// (paper Sections III and IV-B).
    ///
    /// # Errors
    ///
    /// Returns an error if the exchange is not defined (different chains or
    /// sequences in the body).
    pub fn reorder(&mut self, a: &IndexVar, b: &IndexVar) -> Result<&mut IndexStmt> {
        self.concrete = transform::reorder(&self.concrete, a, b)?;
        Ok(self)
    }

    /// Marks the forall over `var` parallel: its iterations are distributed
    /// over worker threads, each with private clones of the workspaces
    /// allocated inside the loop, and merged back deterministically
    /// (byte-identical to the serial schedule).
    ///
    /// Apply this **last**: other transformations (`reorder`, `precompute`)
    /// rebuild foralls and drop the parallel flag.
    ///
    /// # Errors
    ///
    /// Returns [`IrError::ReductionNotPrivatized`](taco_ir::IrError) when
    /// iterations of `var` reduce into a tensor no workspace inside the loop
    /// privatizes — precompute it into a workspace first (Section V of the
    /// paper) — and an error if `var` is not a forall variable.
    pub fn parallelize(&mut self, var: &IndexVar) -> Result<&mut IndexStmt> {
        self.concrete = transform::parallelize(&self.concrete, var)?;
        Ok(self)
    }

    /// Applies the workspace transformation (paper Sections III and V):
    /// precomputes `expr` into `workspace` over the `splits` variables.
    ///
    /// # Errors
    ///
    /// Returns an error if the expression is not found or the transformation
    /// preconditions fail.
    pub fn precompute(
        &mut self,
        expr: &IndexExpr,
        splits: &[(IndexVar, IndexVar, IndexVar)],
        workspace: &TensorVar,
    ) -> Result<&mut IndexStmt> {
        self.concrete = transform::precompute(&self.concrete, expr, splits, workspace)?;
        Ok(self)
    }

    /// Runs the Section V-C policy heuristics on the current statement.
    pub fn suggestions(&self) -> Vec<Suggestion> {
        suggest(&self.concrete)
    }

    /// Lowers and compiles the statement into a runnable kernel with no
    /// resource limits.
    ///
    /// # Errors
    ///
    /// Returns a lowering error if the schedule is not realizable — e.g.
    /// scattering into a sparse result without a workspace.
    pub fn compile(&self, opts: LowerOptions) -> Result<CompiledKernel> {
        self.compile_with_budget(opts, ResourceBudget::unlimited())
    }

    /// Lowers and compiles the statement under a [`ResourceBudget`].
    ///
    /// The budget applies at both ends of the pipeline. At compile time the
    /// dense-workspace footprint of every `where` statement is *proven* by
    /// the symbolic cost analyzer ([`taco_verify::analyze_cost`]) over the
    /// lowered kernel and evaluated against the declared dimensions; if the
    /// total exceeds `max_workspace_bytes`, the cheapest sparse workspace
    /// backend whose proven initial footprint fits — hash map first, then
    /// coordinate list — is
    /// compiled instead, keeping the schedule and recording one
    /// [`FallbackEvent::WorkspaceDowngraded`] per workspace. Only when no
    /// sparse backend is lowerable either are the schedule's transformations
    /// dropped and the original statement lowered directly — the slower
    /// merge kernel — with one [`FallbackEvent::WorkspaceOverBudget`]
    /// recorded per skipped workspace. At run time the compiled kernel
    /// enforces the budget's allocation and iteration limits on every
    /// [`CompiledKernel::run`].
    ///
    /// # Errors
    ///
    /// Returns a lowering error if the schedule is not realizable, or
    /// [`CoreError::BudgetExceeded`](crate::CoreError::BudgetExceeded) if the
    /// workspaces are over budget *and* the untransformed statement cannot be
    /// lowered either (e.g. it scatters into a sparse result, which is only
    /// realizable through a workspace).
    pub fn compile_with_budget(
        &self,
        opts: LowerOptions,
        budget: ResourceBudget,
    ) -> Result<CompiledKernel> {
        self.compile_checked(opts, budget, default_verify_mode())
    }

    /// Lowers, statically verifies, and compiles the statement — the driver
    /// of the pass list ([`crate::passes`]): `lower → cost`, then `fit the
    /// workspace budget → verify → exec-compile → fingerprint`.
    ///
    /// This is [`IndexStmt::compile_with_budget`] with an explicit
    /// [`VerifyMode`]: the lowered kernel is run through the
    /// `taco-verify` abstract interpreter (definite initialization,
    /// symbolic bounds, parallel write-set disjointness) before it is
    /// compiled. Under [`VerifyMode::Warn`] the report is recorded on the
    /// kernel ([`CompiledKernel::verify_report`]); under
    /// [`VerifyMode::Deny`] a report with any deny-severity finding fails
    /// the compile. The verdict never changes the generated code, so it
    /// does not participate in the kernel
    /// [fingerprint](CompiledKernel::fingerprint).
    ///
    /// # Errors
    ///
    /// Everything [`IndexStmt::compile_with_budget`] returns, plus
    /// [`CoreError::Verify`](crate::CoreError::Verify) under `Deny`.
    pub fn compile_checked(
        &self,
        opts: LowerOptions,
        budget: ResourceBudget,
        verify: VerifyMode,
    ) -> Result<CompiledKernel> {
        FrontHalf::unverified(self, opts)?.finish(budget, verify)
    }

    /// Runs the statement under a [`Supervisor`], descending the degradation
    /// ladder on retryable aborts.
    ///
    /// The first rung compiles the statement as scheduled (under the
    /// supervisor's budget, so an over-budget workspace already falls back
    /// at compile time). If the run aborts with a *retryable* reason — a
    /// missed deadline or an exhausted resource budget — the statement is
    /// re-lowered one rung down the ladder and retried with a fresh
    /// deadline:
    ///
    /// 1. [`DegradeRung::AsScheduled`] — the full schedule (workspace
    ///    precompute, sorted output);
    /// 2. [`DegradeRung::HashWorkspace`] — the schedule kept but every
    ///    workspace stored as a hash map (unordered accumulate, sorted
    ///    drain) whose footprint scales with the entries touched;
    /// 3. [`DegradeRung::CoordListWorkspace`] — likewise, with the
    ///    coordinate-list backend (ordered append with dedup);
    /// 4. [`DegradeRung::UnsortedAssembly`] — the schedule kept but the
    ///    output-sort pass dropped (paper §VI, unsorted kernels);
    /// 5. [`DegradeRung::DirectMerge`] — every transformation dropped and
    ///    the original statement lowered to the direct merge kernel (the
    ///    reverse of the Section V-C heuristics).
    ///
    /// Every abandoned rung is recorded as a
    /// [`FallbackEvent::DegradedRetry`] in the returned
    /// [`SupervisedOutcome`], so callers can query *why* a result was
    /// slower than scheduled. Cancellation and genuine runtime failures are
    /// not retried.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Aborted`](crate::CoreError::Aborted) when every
    /// viable rung aborted (carrying the last abort), or the usual
    /// compile/bind errors for problems no rung can fix.
    pub fn run_supervised(
        &self,
        opts: LowerOptions,
        supervisor: &Supervisor,
        inputs: &[(&str, &Tensor)],
        output_structure: Option<&Tensor>,
    ) -> Result<SupervisedOutcome> {
        let budget = supervisor.budget();
        ladder::descend(
            self,
            &opts,
            |stmt, opts| stmt.compile_with_budget(opts, budget),
            |kernel: &CompiledKernel| kernel.run_supervised(inputs, output_structure, supervisor),
            |_| {},
        )
    }
}

/// Why a kernel was compiled or retried in a degraded form. Queryable via
/// [`CompiledKernel::fallback_events`] and
/// [`SupervisedOutcome::fallbacks`], and printable for operator-facing
/// output.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FallbackEvent {
    /// A workspace was skipped at compile time because its estimated
    /// footprint exceeded the budget and no sparse backend fit either (see
    /// [`IndexStmt::compile_with_budget`]).
    WorkspaceOverBudget {
        /// Name of the workspace tensor that was not materialized.
        workspace: String,
        /// Dense dimensions the workspace would have had.
        dims: Vec<usize>,
        /// Estimated bytes the workspace would have allocated.
        estimated_bytes: u64,
        /// The `max_workspace_bytes` limit in force.
        budget_bytes: u64,
        /// The ladder rung the compile fell back to instead.
        fallback: DegradeRung,
    },
    /// A dense workspace was over budget but a sparse backend fit, so the
    /// schedule was kept and only the workspace storage was downgraded (see
    /// [`IndexStmt::compile_with_budget`]).
    WorkspaceDowngraded {
        /// Name of the workspace tensor whose storage was downgraded.
        workspace: String,
        /// The storage backend the schedule asked for.
        from: WorkspaceKind,
        /// The sparse backend that was compiled instead.
        to: WorkspaceKind,
        /// Estimated bytes the `from` backend would have allocated.
        estimated_bytes: u64,
        /// Initial footprint of the `to` backend (growth is budget-charged
        /// at run time).
        downgraded_bytes: u64,
        /// The `max_workspace_bytes` limit in force.
        budget_bytes: u64,
    },
    /// A supervised run of one degradation-ladder rung aborted and the next
    /// rung was tried (see [`IndexStmt::run_supervised`]).
    DegradedRetry {
        /// The rung that aborted.
        rung: DegradeRung,
        /// Why it was abandoned.
        reason: AbortReason,
    },
    /// The native codegen backend could not serve this kernel — no working
    /// C toolchain, a compile failure, or a shared-object load failure —
    /// and the run proceeded on the interpreter with identical semantics.
    /// This is a degradation, never an error: the interpreter is the
    /// portable fallback for every kernel.
    NativeUnavailable {
        /// Why the native backend was unavailable.
        reason: String,
    },
}

impl std::fmt::Display for FallbackEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FallbackEvent::WorkspaceOverBudget {
                workspace,
                dims,
                estimated_bytes,
                budget_bytes,
                fallback,
            } => write!(
                f,
                "workspace `{workspace}` (dims {dims:?}, ~{estimated_bytes} bytes) exceeds the \
                 {budget_bytes}-byte workspace budget; compiled the {fallback} kernel instead",
            ),
            FallbackEvent::WorkspaceDowngraded {
                workspace,
                from,
                to,
                estimated_bytes,
                downgraded_bytes,
                budget_bytes,
            } => write!(
                f,
                "workspace `{workspace}` downgraded {from} -> {to}: ~{estimated_bytes} bytes \
                 exceeds the {budget_bytes}-byte workspace budget, {to} starts at \
                 {downgraded_bytes} bytes",
            ),
            FallbackEvent::DegradedRetry { rung, reason } => {
                write!(f, "{rung} kernel aborted ({reason}); retried one rung down the ladder")
            }
            FallbackEvent::NativeUnavailable { reason } => {
                write!(f, "native backend unavailable ({reason}); ran on the interpreter")
            }
        }
    }
}

/// The committed result of [`IndexStmt::run_supervised`]: the tensor, the
/// run report of the rung that committed, which rung that was, and the
/// fallback trail explaining any degradation.
#[derive(Debug, Clone)]
pub struct SupervisedOutcome {
    /// The computed tensor.
    pub result: Tensor,
    /// Wall-clock, progress counters and heartbeat samples of the
    /// committing run.
    pub report: ExecReport,
    /// The degradation-ladder rung that produced the result.
    pub rung: DegradeRung,
    /// Compile-time workspace skips and aborted rungs, in order.
    pub fallbacks: Vec<FallbackEvent>,
}

impl SupervisedOutcome {
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

impl std::fmt::Display for IndexStmt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.concrete)
    }
}

/// A fully compiled kernel, ready to run against tensors.
///
/// `CompiledKernel` is `Send + Sync` and cheap to share behind an `Arc`
/// (the runtime engine's kernel cache does exactly that): the executable's
/// statement tree is reference-counted and a run only borrows it.
#[derive(Debug)]
pub struct CompiledKernel {
    pub(crate) front: FrontHalf,
    pub(crate) exe: Executable,
    pub(crate) budget: ResourceBudget,
    pub(crate) fallbacks: Vec<FallbackEvent>,
    pub(crate) fingerprint: u64,
}

impl CompiledKernel {
    /// The generated C source (paper-style listing).
    pub fn to_c(&self) -> String {
        self.front.lowered.kernel.to_c()
    }

    /// The canonical structural fingerprint of the compilation request this
    /// kernel answers: concrete statement (applied schedule + operand
    /// format/dimension signature) × lowering options × budget class. See
    /// [`crate::fingerprint::fingerprint`]. Equal fingerprints mean the
    /// compile pipeline would regenerate identical code, so the runtime
    /// kernel cache keys on this value.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The lowered kernel and binding metadata.
    pub fn lowered(&self) -> &LoweredKernel {
        &self.front.lowered
    }

    /// The compiled imperative program. Alternate execution backends feed
    /// this to [`taco_llir::emit_native`] to generate the ABI-wrapped C
    /// translation unit for the same kernel the interpreter runs.
    pub fn executable(&self) -> &Executable {
        &self.exe
    }

    /// Extracts the result tensor from a binding this kernel has already
    /// executed on — the last step of [`CompiledKernel::run_with_body`],
    /// exposed for callers that time or inspect the steps separately.
    ///
    /// # Errors
    ///
    /// Returns an error if the binding's result buffers are missing or
    /// malformed (e.g. the kernel was never run on it).
    pub fn extract(
        &self,
        binding: &Binding,
        output_structure: Option<&Tensor>,
    ) -> Result<Tensor> {
        let lowered = self.lowered();
        extract_result(
            binding,
            &lowered.result,
            lowered.kind,
            output_structure,
            lowered.nnz_output.as_deref(),
        )
    }

    /// The resource budget every run of this kernel is held to.
    pub fn budget(&self) -> ResourceBudget {
        self.budget
    }

    /// Workspaces that were skipped at compile time because their estimated
    /// footprint exceeded the budget. Empty when the kernel was compiled as
    /// scheduled.
    pub fn fallback_events(&self) -> &[FallbackEvent] {
        &self.fallbacks
    }

    /// The static-verification report recorded when this kernel was
    /// compiled. A kernel compiled under [`VerifyMode::Deny`] always carries
    /// an accepted report — rejected kernels never compile.
    pub fn verify_report(&self) -> &VerifyReport {
        self.front.verify.as_ref().expect("FrontHalf::finish verifies the product it keeps")
    }

    /// The symbolic cost report derived when this kernel was compiled:
    /// provable upper bounds on every metered charge, the workspace
    /// footprints, iteration count and drain work, as polynomials over
    /// dimension and operand-length atoms. Evaluate them with
    /// [`taco_verify::CostEnv::from_shapes`] at compile time or
    /// [`crate::cost::binding_env`] once operands are bound.
    pub fn cost_report(&self) -> &CostReport {
        &self.front.cost
    }

    /// The proven ceiling on the largest single allocation charge a run of
    /// this kernel can put through the budget meter, evaluated against a
    /// concrete binding — the static counterpart of the meter's observed
    /// peak. `None` when some charge site could not be bounded (the bound
    /// degrades conservatively, it is never silently wrong).
    pub fn static_peak_bytes(&self, binding: &Binding) -> Option<u64> {
        self.cost_report().peak_bytes(&crate::cost::binding_env(binding))
    }

    /// Runs the kernel on named operand tensors and returns the result.
    ///
    /// Operands are matched to tensor variables by name; every operand of
    /// the kernel must be supplied (order does not matter).
    ///
    /// # Errors
    ///
    /// Returns an error for missing/mismatched operands, or if a compute
    /// kernel with a sparse result is run without a pre-assembled structure
    /// (use [`CompiledKernel::run_with`]).
    pub fn run(&self, inputs: &[(&str, &Tensor)]) -> Result<Tensor> {
        self.run_with(inputs, None)
    }

    /// Runs the kernel, supplying a pre-assembled output structure for
    /// compute kernels with sparse results (the paper's pre-assembled
    /// `A_pos`/`A_crd`, Figure 1d).
    ///
    /// # Errors
    ///
    /// See [`CompiledKernel::run`].
    pub fn run_with(
        &self,
        inputs: &[(&str, &Tensor)],
        output_structure: Option<&Tensor>,
    ) -> Result<Tensor> {
        self.run_with_body(&self.exe, inputs, output_structure, None).map(|(result, _)| result)
    }

    /// Runs the kernel once under a [`Supervisor`]: transactional outputs,
    /// deadline and cancellation checked at loop back-edges, and the
    /// tighter of the supervisor's and this kernel's budgets enforced. No
    /// degrade-and-retry — see [`IndexStmt::run_supervised`] for the ladder.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Aborted`](crate::CoreError::Aborted) on
    /// deadline, cancellation, budget exhaustion or runtime failure, plus
    /// the usual bind errors.
    pub fn run_supervised(
        &self,
        inputs: &[(&str, &Tensor)],
        output_structure: Option<&Tensor>,
        supervisor: &Supervisor,
    ) -> Result<(Tensor, ExecReport)> {
        self.run_with_body(&self.exe, inputs, output_structure, Some(supervisor))
    }

    /// Bind → run → extract, the one way a kernel meets its operands: every
    /// `run*` method is this with the interpreter ([`Self::executable`]) as
    /// `body`, and the runtime passes a native build of the same kernel
    /// instead. `supervisor: None` is a plain run under the kernel's own
    /// budget, which measures nothing (a default [`ExecReport`]).
    ///
    /// `body` must execute *this* kernel; a body of another kernel fails
    /// parameter validation at best.
    ///
    /// # Errors
    ///
    /// Bind errors, then what [`CompiledKernel::run_bound_supervised`] or
    /// [`CompiledKernel::run_bound`] return, then extraction errors.
    pub fn run_with_body<B: KernelBody>(
        &self,
        body: &B,
        inputs: &[(&str, &Tensor)],
        output_structure: Option<&Tensor>,
        supervisor: Option<&Supervisor>,
    ) -> Result<(Tensor, ExecReport)> {
        let mut binding = self.bind(inputs, output_structure)?;
        let report = self.run_bound_with_body(body, &mut binding, supervisor)?;
        Ok((self.extract(&binding, output_structure)?, report))
    }

    /// Builds the binding without running — used by benchmarks that want to
    /// time [`CompiledKernel::run_bound`] alone.
    ///
    /// # Errors
    ///
    /// Returns an error for missing or mismatched operands.
    pub fn bind(
        &self,
        inputs: &[(&str, &Tensor)],
        output_structure: Option<&Tensor>,
    ) -> Result<Binding> {
        let mut binding = Binding::new();
        let lowered = self.lowered();
        let with_vals = lowered.kind != KernelKind::Assemble;
        for var in &lowered.operands {
            let t = inputs
                .iter()
                .find(|(n, _)| *n == var.name())
                .map(|(_, t)| *t)
                .ok_or_else(|| crate::CoreError::UnknownOperand(var.name().to_string()))?;
            bind_operand(&mut binding, var, t, with_vals)?;
        }
        bind_result(&mut binding, &lowered.result, lowered.kind, output_structure)?;
        Ok(binding)
    }

    /// Runs against an existing binding (for benchmarking). The caller must
    /// re-bind result buffers between runs of fused kernels. A failed run
    /// leaves its partial state in the binding.
    ///
    /// # Errors
    ///
    /// Propagates kernel runtime errors.
    pub fn run_bound(&self, binding: &mut Binding) -> Result<()> {
        self.run_bound_with_body(&self.exe, binding, None).map(drop)
    }

    /// Runs against an existing binding under a [`Supervisor`], which is
    /// given the tighter of its own and this kernel's budgets. On abort the
    /// binding is byte-identical to its pre-run state and the error carries
    /// the budget meter's counters at the stop (the transactional guarantee
    /// of [`Supervisor::run`], the same on either backend).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Aborted`](crate::CoreError::Aborted) on any
    /// abort.
    pub fn run_bound_supervised(
        &self,
        binding: &mut Binding,
        supervisor: &Supervisor,
    ) -> Result<ExecReport> {
        self.run_bound_with_body(&self.exe, binding, Some(supervisor))
    }

    /// The run step of [`CompiledKernel::run_with_body`].
    fn run_bound_with_body<B: KernelBody>(
        &self,
        body: &B,
        binding: &mut Binding,
        supervisor: Option<&Supervisor>,
    ) -> Result<ExecReport> {
        match supervisor {
            Some(supervisor) => {
                let combined = supervisor.budget().min_with(&self.budget);
                Ok(supervisor.clone().with_budget(combined).run(body, binding)?)
            }
            None => {
                run_body(body, binding, &self.budget, RunControls::default()).1?;
                Ok(ExecReport::default())
            }
        }
    }
}
