//! The scheduling API (paper Section III), the compile pipeline's entry
//! points, and compiled-kernel execution.

use crate::bind::{bind_operand, bind_result, extract_result};
use crate::ladder::DegradeRung;
use crate::passes::FrontHalf;
use crate::Result;
use taco_ir::concrete::ConcreteStmt;
use taco_ir::concretize::concretize;
use taco_ir::expr::{IndexExpr, IndexVar, TensorVar};
use taco_ir::heuristics::{suggest, Suggestion};
use taco_ir::notation::IndexAssignment;
use taco_ir::transform;
use taco_llir::{
    run_body, Binding, Executable, ExecReport, KernelBody, ResourceBudget, RunControls, RunError,
    Supervisor,
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
    /// resource limits, verified under [`default_verify_mode`].
    ///
    /// # Errors
    ///
    /// Returns a lowering error if the schedule is not realizable — e.g.
    /// scattering into a sparse result without a workspace.
    pub fn compile(&self, opts: LowerOptions) -> Result<CompiledKernel> {
        self.compile_checked(opts, ResourceBudget::unlimited(), default_verify_mode())
    }

    /// Lowers, statically verifies, and compiles the statement under a
    /// [`ResourceBudget`], running the pass list ([`crate::passes`]):
    /// `lower → cost`, then `fit the workspace budget → verify →
    /// exec-compile → fingerprint`.
    ///
    /// The budget applies at both ends of the pipeline. At compile time the
    /// workspace-byte limit is arbitrated by the walk down the degrade
    /// ladder ([`crate::ladder::arbitrate_workspaces`]): the initial
    /// workspace footprint of the as-scheduled kernel is *proven* by the
    /// symbolic cost analyzer ([`taco_verify::analyze_cost`]) and evaluated
    /// against the declared dimensions; if it exceeds `max_workspace_bytes`,
    /// the first lower rung whose proven footprint fits is compiled instead —
    /// the schedule over coordinate-list workspaces, else the original
    /// statement lowered directly (the slower merge kernel) — with one
    /// [`FallbackEvent::OverBudget`] per workspace naming that rung. At run
    /// time the compiled kernel enforces the budget's allocation and
    /// iteration limits on every [`CompiledKernel::run`].
    ///
    /// The kernel it keeps is checked by the `taco-verify` abstract
    /// interpreter (definite initialization, symbolic bounds, parallel
    /// write-set disjointness), under the assumptions its cost was derived
    /// under. Under [`VerifyMode::Deny`] the report is read before the
    /// kernel is compiled, and any deny-severity finding fails the compile;
    /// under [`VerifyMode::Warn`] it is derived on the first read of
    /// [`CompiledKernel::verify_report`]. The verdict never changes the
    /// generated code, so it does not participate in the kernel
    /// [fingerprint](CompiledKernel::fingerprint).
    ///
    /// # Errors
    ///
    /// Returns a lowering error if the schedule is not realizable,
    /// [`CoreError::BudgetExceeded`](crate::CoreError::BudgetExceeded) if the
    /// workspaces are over budget *and* the untransformed statement cannot be
    /// lowered either (e.g. it scatters into a sparse result, which is only
    /// realizable through a workspace), or
    /// [`CoreError::Verify`](crate::CoreError::Verify) under `Deny`.
    pub fn compile_checked(
        &self,
        opts: LowerOptions,
        budget: ResourceBudget,
        verify: VerifyMode,
    ) -> Result<CompiledKernel> {
        FrontHalf::new(self, opts)?.finish(budget, verify)
    }
}

/// Why a kernel was compiled or retried in a degraded form. Queryable via
/// [`CompiledKernel::fallback_events`] and on the supervised runs of the
/// runtime's engine, and printable for operator-facing
/// output.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FallbackEvent {
    /// The as-scheduled workspaces were over the budget at compile time, so
    /// the compile walked down the ladder (see
    /// [`IndexStmt::compile_checked`]). One event per workspace.
    OverBudget {
        /// Name of the as-scheduled workspace tensor.
        workspace: String,
        /// Proven bytes the workspace would have allocated.
        estimated_bytes: u64,
        /// The `max_workspace_bytes` limit in force.
        budget_bytes: u64,
        /// The ladder rung compiled instead.
        rung: DegradeRung,
    },
    /// A supervised run of one degradation-ladder rung aborted and the next
    /// rung was tried (the runtime engine's `run_supervised` walks the
    /// ladder).
    DegradedRetry {
        /// The rung that aborted.
        rung: DegradeRung,
        /// Why it was abandoned (a retryable [`RunError`]).
        reason: RunError,
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
            FallbackEvent::OverBudget { workspace, estimated_bytes, budget_bytes, rung } => {
                write!(
                    f,
                    "workspace `{workspace}` (~{estimated_bytes} bytes) exceeds the \
                     {budget_bytes}-byte workspace budget; compiled the {rung} kernel instead",
                )
            }
            FallbackEvent::DegradedRetry { rung, reason } => {
                write!(f, "{rung} kernel aborted ({reason}); retried one rung down the ladder")
            }
            FallbackEvent::NativeUnavailable { reason } => {
                write!(f, "native backend unavailable ({reason}); ran on the interpreter")
            }
        }
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
        self.front.lowered().kernel.to_c()
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
        self.front.lowered()
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

    /// Why the compile walked down the ladder: one
    /// [`FallbackEvent::OverBudget`] per as-scheduled workspace over the
    /// budget. Empty when the kernel was compiled as scheduled.
    pub fn fallback_events(&self) -> &[FallbackEvent] {
        &self.fallbacks
    }

    /// The ladder rung this kernel stands for: the highest rung among its
    /// [`FallbackEvent::OverBudget`] events, as scheduled when it has none.
    pub fn rung(&self) -> DegradeRung {
        self.fallbacks
            .iter()
            .filter_map(|e| match e {
                FallbackEvent::OverBudget { rung, .. } => Some(*rung),
                _ => None,
            })
            .max()
            .unwrap_or(DegradeRung::AsScheduled)
    }

    /// The static-verification report on this kernel, derived on first
    /// read ([`FrontHalf::verify_report`]). A kernel compiled under
    /// [`VerifyMode::Deny`] always carries an accepted report — rejected
    /// kernels never compile.
    pub fn verify_report(&self) -> &VerifyReport {
        self.front.verify_report()
    }

    /// The symbolic cost report derived when this kernel was compiled:
    /// provable upper bounds on its iterations, on every metered single
    /// charge and on each workspace's initial footprint, as polynomials
    /// over dimension and operand-length atoms. Evaluate them with a
    /// [`CostEnv`](taco_verify::CostEnv): `from_shapes` at compile time,
    /// `from_binding` once operands are bound.
    pub fn cost_report(&self) -> &CostReport {
        self.front.cost_report()
    }

    /// The proven ceiling on the largest single allocation charge a run of
    /// this kernel can put through the budget meter, evaluated against a
    /// concrete binding — the static counterpart of the meter's observed
    /// peak. `None` when some charge site could not be bounded (the bound
    /// degrades conservatively, it is never silently wrong).
    pub fn static_peak_bytes(&self, binding: &Binding) -> Option<u64> {
        self.cost_report().peak_bytes(&taco_verify::CostEnv::from_binding(binding))
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
    /// degrade-and-retry: the runtime engine's `run_supervised` walks the
    /// ladder.
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
