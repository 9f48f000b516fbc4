//! Typed diagnostics produced by the verifier.
//!
//! Every finding is a [`VerifyError`] wrapped in a [`Diagnostic`] that
//! carries provenance: the path of child indices from the kernel body to
//! the offending statement, plus that statement's C printout. A
//! [`VerifyReport`] collects the findings for one kernel together with the
//! assumptions the proofs leaned on.

use std::fmt;

/// How verification verdicts are enforced along the compile path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VerifyMode {
    /// Verify and record the report, but never fail compilation.
    Warn,
    /// Verify and fail compilation when any deny-severity finding exists.
    Deny,
}

impl fmt::Display for VerifyMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyMode::Warn => write!(f, "warn"),
            VerifyMode::Deny => write!(f, "deny"),
        }
    }
}

/// A property violation found by the static verifier.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum VerifyError {
    /// An array element is read (or accumulated into) before any statement
    /// defines its contents on some path.
    UninitializedRead {
        /// The array read too early.
        array: String,
    },
    /// A workspace is assumed clean (an array all zero, a workspace node
    /// empty) at the top of a loop iteration but is not restored by the end
    /// of the previous iteration (Section VI reset obligation).
    MissingReset {
        /// The workspace whose reset obligation is not discharged.
        array: String,
    },
    /// An array access whose index is provably outside `[0, len)`.
    OutOfBounds {
        /// The array accessed out of bounds.
        array: String,
        /// Printed form of the offending index expression.
        index: String,
    },
    /// An append counter that can move backwards, so the `pos` array
    /// assembled from it would not be monotone.
    PosNotMonotone {
        /// The append counter variable.
        counter: String,
    },
    /// Two iterations of a parallel loop may touch the same location (and
    /// the access is not covered by privatization or the append merge).
    DataRace {
        /// The shared variable or array with conflicting accesses.
        name: String,
        /// The parallel loop variable.
        var: String,
        /// Why the accesses conflict.
        detail: String,
    },
    /// A workspace is scattered into or drained before any `WsInit`
    /// establishes it on some path.
    WorkspaceNotInitialized {
        /// The workspace used too early.
        workspace: String,
    },
    /// A bound or disjointness obligation the verifier could neither prove
    /// nor refute (reported at warn severity).
    Unproven {
        /// The obligation, in printed form.
        obligation: String,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::UninitializedRead { array } => {
                write!(f, "array `{array}` may be read before it is initialized")
            }
            VerifyError::MissingReset { array } => write!(
                f,
                "workspace array `{array}` is assumed clean at the top of each iteration but \
                 is not restored between iterations"
            ),
            VerifyError::OutOfBounds { array, index } => {
                write!(f, "access `{array}[{index}]` is provably out of bounds")
            }
            VerifyError::PosNotMonotone { counter } => write!(
                f,
                "append counter `{counter}` may decrease, breaking pos-array monotonicity"
            ),
            VerifyError::DataRace { name, var, detail } => write!(
                f,
                "parallel loop over `{var}` has conflicting accesses to `{name}`: {detail}"
            ),
            VerifyError::WorkspaceNotInitialized { workspace } => {
                write!(f, "workspace `{workspace}` is used before any WsInit establishes it")
            }
            VerifyError::Unproven { obligation } => {
                write!(f, "could not prove: {obligation}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Whether a finding fails compilation under [`VerifyMode::Deny`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Recorded but never fails compilation: an obligation the verifier
    /// could not discharge either way.
    Warn,
    /// A proven violation; fails compilation under [`VerifyMode::Deny`].
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warn => write!(f, "warn"),
            Severity::Deny => write!(f, "deny"),
        }
    }
}

/// One verifier finding with statement provenance.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// What went wrong.
    pub error: VerifyError,
    /// Whether the finding is proven (deny) or merely undischarged (warn).
    pub severity: Severity,
    /// Child-index path from the kernel body to the offending statement:
    /// `path[0]` indexes `Kernel::body`, each later entry indexes the
    /// enclosing statement's body (then-branch indices for `If`).
    pub path: Vec<usize>,
    /// C printout of the offending statement (first line).
    pub stmt: String,
    /// Concrete index-notation printout of the statement the kernel was
    /// lowered from, when the caller supplied it.
    pub origin: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let path: Vec<String> = self.path.iter().map(|i| i.to_string()).collect();
        write!(f, "[{}] {} (at body/{}: `{}`", self.severity, self.error, path.join("/"), self.stmt)?;
        if let Some(origin) = &self.origin {
            write!(f, ", lowered from `{origin}`")?;
        }
        write!(f, ")")
    }
}

/// The result of verifying one kernel.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VerifyReport {
    /// Name of the verified kernel.
    pub kernel: String,
    /// All findings, deny severity first.
    pub diagnostics: Vec<Diagnostic>,
    /// Facts about the inputs the proofs relied on (checked at bind time by
    /// the tensor layer, e.g. pos monotonicity of operands).
    pub assumptions: Vec<String>,
}

impl VerifyReport {
    /// True when no deny-severity finding exists.
    #[must_use]
    pub fn accepted(&self) -> bool {
        self.denies() == 0
    }

    /// Number of deny-severity findings.
    #[must_use]
    pub fn denies(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Deny).count()
    }

    /// Number of warn-severity findings.
    #[must_use]
    pub fn warns(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warn).count()
    }

    /// Attaches the concrete-notation origin to every diagnostic.
    pub fn with_origin(mut self, origin: &str) -> VerifyReport {
        for d in &mut self.diagnostics {
            d.origin = Some(origin.to_string());
        }
        self
    }

    /// The first deny-severity diagnostic, if any.
    #[must_use]
    pub fn first_deny(&self) -> Option<&Diagnostic> {
        self.diagnostics.iter().find(|d| d.severity == Severity::Deny)
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "verify `{}`: {} deny, {} warn, {} assumption(s)",
            self.kernel,
            self.denies(),
            self.warns(),
            self.assumptions.len()
        )
    }
}
