use std::error::Error;
use std::fmt;

/// Errors from the end-to-end pipeline: wraps the per-stage errors plus
/// binding-time validation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// Index-notation or transformation error.
    Ir(taco_ir::IrError),
    /// Lowering error.
    Lower(taco_lower::LowerError),
    /// Imperative-IR compilation error (indicates a lowering bug).
    Compile(taco_llir::CompileError),
    /// Runtime error while executing a kernel.
    Run(taco_llir::RunError),
    /// Tensor construction error while extracting results.
    Tensor(taco_tensor::TensorError),
    /// An operand was not supplied or not declared.
    UnknownOperand(String),
    /// A bound tensor does not match its declared shape or format.
    OperandMismatch {
        /// Tensor name.
        name: String,
        /// What was expected.
        expected: String,
    },
    /// A compute kernel with a sparse result needs a pre-assembled output
    /// structure.
    MissingOutputStructure,
    /// The compile-time budget walk found no rung of the degrade ladder
    /// whose proven initial workspace footprint fits the budget. A run that
    /// hits a budget stops with [`CoreError::Run`] (or
    /// [`CoreError::Aborted`] under a supervisor) and its
    /// `RunError::BudgetExceeded`.
    BudgetExceeded {
        /// Which budgeted resource was exhausted.
        resource: taco_llir::BudgetResource,
        /// The configured limit.
        limit: u64,
        /// The amount that was requested or reached.
        requested: u64,
        /// The first workspace of the kernel as scheduled.
        context: Option<String>,
    },
    /// A supervised run was rolled back (deadline, cancellation, budget, or
    /// runtime failure) and every rung of the degradation ladder that was
    /// tried also aborted. The payload describes the *last* abort; the
    /// output tensors were never mutated.
    Aborted(taco_llir::Aborted),
    /// The static verifier found a proven violation in the lowered kernel
    /// and the compile ran under
    /// [`VerifyMode::Deny`](taco_verify::VerifyMode::Deny). The payload
    /// carries every finding with statement provenance.
    Verify(taco_verify::VerifyReport),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Ir(e) => write!(f, "{e}"),
            CoreError::Lower(e) => write!(f, "{e}"),
            CoreError::Compile(e) => write!(f, "internal: generated kernel failed to compile: {e}"),
            CoreError::Run(e) => write!(f, "kernel execution failed: {e}"),
            CoreError::Tensor(e) => write!(f, "{e}"),
            CoreError::UnknownOperand(n) => write!(f, "operand `{n}` was not supplied"),
            CoreError::OperandMismatch { name, expected } => {
                write!(f, "operand `{name}` does not match its declaration: expected {expected}")
            }
            CoreError::MissingOutputStructure => write!(
                f,
                "compute kernels with sparse results require a pre-assembled output structure; \
                 pass one with `run_with` or use a fused kernel"
            ),
            CoreError::BudgetExceeded { resource, limit, requested, context } => {
                let ws = context.as_deref().unwrap_or("?");
                write!(
                    f,
                    "no rung of the degrade ladder fits the {resource} budget: \
                     `{ws}` needs {requested} as scheduled, limit {limit}"
                )
            }
            CoreError::Aborted(a) => write!(f, "supervised execution {a}"),
            CoreError::Verify(report) => {
                write!(f, "kernel failed static verification ({report})")?;
                if let Some(d) = report.first_deny() {
                    write!(f, ": {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Ir(e) => Some(e),
            CoreError::Lower(e) => Some(e),
            CoreError::Compile(e) => Some(e),
            CoreError::Run(e) => Some(e),
            CoreError::Tensor(e) => Some(e),
            CoreError::Aborted(a) => Some(a),
            _ => None,
        }
    }
}

impl From<taco_llir::Aborted> for CoreError {
    fn from(a: taco_llir::Aborted) -> Self {
        CoreError::Aborted(a)
    }
}

impl From<taco_ir::IrError> for CoreError {
    fn from(e: taco_ir::IrError) -> Self {
        CoreError::Ir(e)
    }
}
impl From<taco_lower::LowerError> for CoreError {
    fn from(e: taco_lower::LowerError) -> Self {
        CoreError::Lower(e)
    }
}
impl From<taco_llir::CompileError> for CoreError {
    fn from(e: taco_llir::CompileError) -> Self {
        CoreError::Compile(e)
    }
}
impl From<taco_llir::RunError> for CoreError {
    fn from(e: taco_llir::RunError) -> Self {
        CoreError::Run(e)
    }
}
impl From<taco_tensor::TensorError> for CoreError {
    fn from(e: taco_tensor::TensorError) -> Self {
        CoreError::Tensor(e)
    }
}
