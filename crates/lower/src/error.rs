use std::error::Error;
use std::fmt;

/// Errors produced while lowering concrete index notation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LowerError {
    /// A forall variable does not index any tensor, so its range cannot be
    /// inferred.
    NoRangeForVar(String),
    /// An access requires random access (locate) into a compressed level,
    /// which compressed formats do not support — reorder or precompute into
    /// a workspace first (the motivation of Section V).
    CannotLocateSparse {
        /// Tensor name.
        tensor: String,
        /// Level that would have to be randomly accessed.
        level: usize,
    },
    /// The result tensor has a compressed level that is not supported in
    /// this position (compressed result levels must be innermost, under
    /// dense levels).
    UnsupportedResultFormat(String),
    /// A union (addition) over a dense operand at a coiterated variable is
    /// not supported by this lowerer.
    DenseUnionUnsupported(String),
    /// The same tensor is accessed twice with different index variables in
    /// one kernel, which the position-naming scheme does not support.
    DuplicateTensorAccess(String),
    /// The statement shape is not supported by the lowerer.
    Unsupported(String),
    /// Assembly was requested for a kernel whose result is dense (nothing
    /// to assemble).
    NothingToAssemble,
    /// The schedule appends to a sparse result under loops other than the
    /// result's index variables in level order — inside a reduction loop or
    /// out of order, so a row would be revisited and inserted into, which
    /// compressed formats do not support (Section V: "avoid expensive
    /// inserts"); precompute into a workspace first.
    SparseScatter {
        /// The sparse result tensor.
        result: String,
        /// The first loop enclosing the append out of the result's level
        /// order: a reduction variable, or a result variable out of place.
        var: String,
    },
    /// A forall marked parallel lowers to a loop shape the parallel
    /// executor cannot chunk deterministically (coiteration while-loops,
    /// position loops over a compressed operand, or appends into a sparse
    /// result not owned row-by-row by the parallel variable).
    UnsupportedParallelLoop {
        /// The parallelized index variable.
        var: String,
        /// Why the loop cannot be parallelized.
        reason: String,
    },
    /// A tensor mode is iterated before an outer mode's variable is bound
    /// (the loop order conflicts with the tensor's mode order).
    UnboundVariable {
        /// Tensor whose access needs the variable.
        tensor: String,
        /// The unbound index variable.
        var: String,
    },
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::NoRangeForVar(v) => {
                write!(f, "cannot infer a range for index variable `{v}`: it indexes no tensor")
            }
            LowerError::CannotLocateSparse { tensor, level } => write!(
                f,
                "tensor `{tensor}` would need random access into compressed level {level}; \
                 reorder the loops or precompute into a dense workspace"
            ),
            LowerError::UnsupportedResultFormat(t) => write!(
                f,
                "result `{t}`: compressed result levels must be innermost under dense levels"
            ),
            LowerError::DenseUnionUnsupported(v) => write!(
                f,
                "union over a dense operand at coiterated variable `{v}` is not supported"
            ),
            LowerError::DuplicateTensorAccess(t) => {
                write!(f, "tensor `{t}` is accessed more than once with different variables")
            }
            LowerError::Unsupported(d) => write!(f, "unsupported statement shape: {d}"),
            LowerError::NothingToAssemble => {
                write!(f, "assembly kernel requested but the result is dense")
            }
            LowerError::SparseScatter { result, var } => write!(
                f,
                "sparse result `{result}` would be scattered into inside the loop over `{var}`, \
                 out of the result's level order; compressed formats do not support random \
                 inserts — precompute into a dense workspace (Section V of the paper)"
            ),
            LowerError::UnsupportedParallelLoop { var, reason } => {
                write!(f, "cannot lower parallel loop over `{var}`: {reason}")
            }
            LowerError::UnboundVariable { tensor, var } => write!(
                f,
                "tensor `{tensor}` is iterated before its outer variable `{var}` is bound; \
                 reorder the loops to follow the tensor's mode order"
            ),
        }
    }
}

impl Error for LowerError {}
