use crate::{ArrayTy, BudgetResource};
use std::error::Error;
use std::fmt;
use std::time::Duration;

/// Errors detected while compiling a kernel to executable form.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CompileError {
    /// A scalar variable was referenced before declaration.
    UnknownVar(String),
    /// An array was referenced but is neither a parameter nor allocated.
    UnknownArray(String),
    /// A name was declared twice in the same scope or parameter list.
    Duplicate(String),
    /// An expression or statement was ill-typed.
    TypeMismatch {
        /// Where the mismatch occurred.
        context: String,
    },
    /// A workspace is initialized, scattered into or drained inside the
    /// body of its own drain.
    WorkspaceInOwnDrain(String),
    /// A scalar output is not a top-level declaration.
    BadScalarOutput(String),
    /// A statement writes an input array: a store, accumulate, memset,
    /// `Alloc`, `Realloc`, workspace or parallel append target. Inputs are
    /// bound shared with their tensors, so they are read-only.
    WriteToInput(String),
    /// A parallel kernel is not one the row dispatcher runs as its serial
    /// kernel ([`check_rows`](crate::check_rows)); the string says why.
    BadRows(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::UnknownVar(n) => write!(f, "unknown scalar variable `{n}`"),
            CompileError::UnknownArray(n) => write!(f, "unknown array `{n}`"),
            CompileError::Duplicate(n) => write!(f, "duplicate declaration of `{n}`"),
            CompileError::TypeMismatch { context } => write!(f, "type mismatch in {context}"),
            CompileError::WorkspaceInOwnDrain(n) => {
                write!(f, "workspace `{n}` is used inside the body of its own drain")
            }
            CompileError::BadScalarOutput(n) => {
                write!(f, "scalar output `{n}` is not declared at the top level of the kernel")
            }
            CompileError::WriteToInput(n) => write!(f, "input array `{n}` is written"),
            CompileError::BadRows(why) => write!(f, "parallel kernel: {why}"),
        }
    }
}

impl Error for CompileError {}

/// Errors raised while running a compiled kernel.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RunError {
    /// An array parameter was not bound before `run`.
    MissingArray(String),
    /// A scalar parameter was not bound before `run`.
    MissingScalar(String),
    /// A bound array had the wrong element type.
    WrongArrayType {
        /// Array name.
        name: String,
        /// Type the kernel expects.
        expected: ArrayTy,
    },
    /// An array access was out of bounds.
    OutOfBounds {
        /// Array name.
        name: String,
        /// Offending index.
        idx: i64,
        /// Array length.
        len: usize,
    },
    /// A negative length was requested in `Alloc`/`Realloc`.
    NegativeLength {
        /// Array name.
        name: String,
        /// Requested length.
        len: i64,
    },
    /// A write reached a shared, read-only buffer
    /// ([`Buf::Shared`](crate::Buf::Shared)), or one is bound to a parameter
    /// the kernel may write.
    ReadOnlyArray(String),
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// Execution was stopped through a
    /// [`CancelToken`](crate::CancelToken) observed at a loop back-edge.
    Cancelled,
    /// The wall-clock deadline expired mid-run (checked at loop back-edges
    /// alongside the iteration fuse).
    DeadlineExceeded {
        /// The configured deadline.
        deadline: Duration,
        /// Wall-clock time elapsed when the overrun was detected.
        elapsed: Duration,
    },
    /// An execution backend failed in a way that has no richer mapping —
    /// e.g. a native kernel reported a fault code the host did not record.
    /// Never produced by the interpreter.
    Backend(String),
    /// The operating system refused a worker thread of a parallel run.
    ThreadSpawn(String),
    /// A [`ResourceBudget`](crate::ResourceBudget) limit was exceeded.
    BudgetExceeded {
        /// Which limit was violated.
        resource: BudgetResource,
        /// The configured ceiling.
        limit: u64,
        /// What the kernel tried to use (for byte limits, the amount that
        /// would have been reached; for fuses/caps, the first count past the
        /// limit).
        requested: u64,
        /// The array involved, when the violation is tied to one.
        array: Option<String>,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::MissingArray(n) => write!(f, "array `{n}` was not bound"),
            RunError::MissingScalar(n) => write!(f, "scalar `{n}` was not bound"),
            RunError::WrongArrayType { name, expected } => {
                write!(f, "array `{name}` bound with wrong type, expected {expected:?}")
            }
            RunError::OutOfBounds { name, idx, len } => {
                write!(f, "index {idx} out of bounds for array `{name}` of length {len}")
            }
            RunError::NegativeLength { name, len } => {
                write!(f, "negative length {len} requested for array `{name}`")
            }
            RunError::ReadOnlyArray(n) => write!(f, "array `{n}` is shared and read-only"),
            RunError::DivisionByZero => write!(f, "integer division by zero"),
            RunError::Backend(what) => write!(f, "execution backend fault: {what}"),
            RunError::ThreadSpawn(why) => write!(f, "cannot start a worker thread: {why}"),
            RunError::Cancelled => write!(f, "execution cancelled"),
            RunError::DeadlineExceeded { deadline, elapsed } => write!(
                f,
                "deadline of {:.1} ms exceeded after {:.1} ms",
                deadline.as_secs_f64() * 1e3,
                elapsed.as_secs_f64() * 1e3
            ),
            RunError::BudgetExceeded { resource, limit, requested, array } => {
                write!(f, "resource budget exceeded: {resource} limit {limit}, needed {requested}")?;
                if let Some(name) = array {
                    write!(f, " (array `{name}`)")?;
                }
                Ok(())
            }
        }
    }
}

impl RunError {
    /// True for stops that a degraded schedule might avoid: a missed
    /// deadline or an exhausted budget. Cancellation and every other
    /// runtime failure are not retried.
    pub fn is_retryable(&self) -> bool {
        matches!(self, RunError::DeadlineExceeded { .. } | RunError::BudgetExceeded { .. })
    }
}

impl Error for RunError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_a_deadline_or_a_budget_stop_is_retryable() {
        let table = [
            (RunError::MissingArray("A".into()), false),
            (RunError::MissingScalar("n".into()), false),
            (RunError::WrongArrayType { name: "A".into(), expected: ArrayTy::F64 }, false),
            (RunError::OutOfBounds { name: "A".into(), idx: 9, len: 3 }, false),
            (RunError::NegativeLength { name: "w".into(), len: -1 }, false),
            (RunError::ReadOnlyArray("B".into()), false),
            (RunError::DivisionByZero, false),
            (RunError::Cancelled, false),
            (
                RunError::DeadlineExceeded {
                    deadline: Duration::from_micros(300),
                    elapsed: Duration::from_micros(301),
                },
                true,
            ),
            (RunError::Backend("fault code 7".into()), false),
            (RunError::ThreadSpawn("no threads".into()), false),
            (
                RunError::BudgetExceeded {
                    resource: BudgetResource::LoopIterations,
                    limit: 5,
                    requested: 6,
                    array: None,
                },
                true,
            ),
        ];
        for (e, retryable) in table {
            assert_eq!(e.is_retryable(), retryable, "{e:?}");
        }
    }

    #[test]
    fn a_deadline_prints_fractional_milliseconds() {
        let e = RunError::DeadlineExceeded {
            deadline: Duration::from_micros(300),
            elapsed: Duration::from_micros(1_200),
        };
        assert_eq!(e.to_string(), "deadline of 0.3 ms exceeded after 1.2 ms");
    }

    /// Every interpreter evaluator returns `Result<_, RunError>`: two
    /// `Duration`s must fit under the largest variant.
    #[test]
    fn run_error_stays_48_bytes() {
        assert_eq!(std::mem::size_of::<RunError>(), 48);
    }
}
