use std::ops;

/// Element type of an array buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayTy {
    /// 64-bit signed integers (`pos`, `crd`, coordinate lists).
    Int,
    /// Double-precision values (tensor components, workspaces).
    F64,
    /// Single-precision values (mixed-precision workspaces, Section III).
    F32,
    /// Booleans (workspace guard arrays, Figure 8).
    Bool,
}

/// An implementation of the workspace nodes [`Stmt::WsInit`],
/// [`Stmt::WsScatter`] and [`Stmt::WsDrain`].
///
/// After *Compilation of Modular and General Sparse Workspaces*, a
/// workspace is an interface — scatter at a coordinate, drain the touched
/// coordinates (in ascending order when asked) leaving it empty — and a kind
/// is one implementation of it. The dense array workspace of the paper is
/// sized by the result dimension; the two sparse kinds scale with the number
/// of distinct keys scattered instead, which makes them the middle rungs of
/// the budget and degrade-and-retry ladders.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WorkspaceKind {
    /// A value array over the full index set, a guard array and a
    /// coordinate list (Figure 8): a scatter is the guarded insert, a drain
    /// sorts the list when asked and zeroes value and guard at each listed
    /// coordinate. The only kind with random access, so a workspace read by
    /// random access is a plain array instead of the three nodes.
    #[default]
    Dense,
    /// A hash-map workspace: unordered `O(1)` accumulate, sorted on drain.
    Hash,
    /// A compressed coordinate-list workspace: ordered insert with dedup,
    /// already sorted when drained.
    CoordList,
}

impl WorkspaceKind {
    /// Bytes the executor charges against the budget per map entry: a hash
    /// entry costs a key, a value and bucket overhead; a coordinate-list
    /// entry just a key and a value. Dense workspaces are charged per
    /// element at allocation instead.
    #[must_use]
    pub fn entry_bytes(self) -> u64 {
        match self {
            WorkspaceKind::Hash => 24,
            WorkspaceKind::CoordList | WorkspaceKind::Dense => 16,
        }
    }

    /// The entry capacity a map kind's [`Stmt::WsInit`] starts with, when
    /// its extent is not smaller (and therefore the compile-time footprint
    /// estimate of one map workspace: `INITIAL_CAPACITY * entry_bytes()`).
    pub const INITIAL_CAPACITY: i64 = 16;

    /// The kind's `TACO_WS_*` tag in `taco_kernel.h`.
    pub(crate) fn c_tag(self) -> &'static str {
        match self {
            WorkspaceKind::Dense => "TACO_WS_DENSE",
            WorkspaceKind::Hash => "TACO_WS_HASH",
            WorkspaceKind::CoordList => "TACO_WS_COORDLIST",
        }
    }
}

impl std::fmt::Display for WorkspaceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkspaceKind::Dense => write!(f, "dense"),
            WorkspaceKind::Hash => write!(f, "hash"),
            WorkspaceKind::CoordList => write!(f, "coord-list"),
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Boolean negation.
    Not,
}

/// Binary operators. Comparisons yield booleans; the rest are homogeneous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Min,
    Max,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

/// An expression of the imperative IR.
///
/// Expressions are untyped at construction; [`crate::Executable::compile`]
/// infers and checks types (ints, floats, bools) from variable declarations
/// and array element types.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// Boolean literal.
    Bool(bool),
    /// Scalar variable reference.
    Var(String),
    /// Array element load: `arr[idx]`.
    Load(String, Box<Expr>),
    /// Current allocated length of an array (used for capacity checks when
    /// assembling sparse results, Figure 8 line 26).
    Len(String),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Int(v)
    }
    /// Float literal.
    pub fn float(v: f64) -> Expr {
        Expr::Float(v)
    }
    /// Boolean literal.
    pub fn bool(v: bool) -> Expr {
        Expr::Bool(v)
    }
    /// Variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }
    /// Array load `arr[idx]`.
    pub fn load(arr: impl Into<String>, idx: Expr) -> Expr {
        Expr::Load(arr.into(), Box::new(idx))
    }
    /// Allocated length of `arr`.
    pub fn len(arr: impl Into<String>) -> Expr {
        Expr::Len(arr.into())
    }
    /// Binary operation helper.
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Bin(op, Box::new(a), Box::new(b))
    }
    /// `min(self, other)`.
    pub fn min(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Min, self, other)
    }
    /// `max(self, other)`.
    pub fn max(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Max, self, other)
    }
    /// `self == other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Eq, self, other)
    }
    /// `self != other`.
    pub fn ne(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Ne, self, other)
    }
    /// `self < other`.
    pub fn lt(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Lt, self, other)
    }
    /// `self <= other`.
    pub fn le(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Le, self, other)
    }
    /// `self > other`.
    pub fn gt(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Gt, self, other)
    }
    /// `self >= other`.
    pub fn ge(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Ge, self, other)
    }
    /// Logical `self && other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::bin(BinOp::And, self, other)
    }
    /// Logical `self || other`.
    pub fn or(self, other: Expr) -> Expr {
        Expr::bin(BinOp::Or, self, other)
    }
}

impl std::ops::Not for Expr {
    type Output = Expr;
    /// Logical negation.
    fn not(self) -> Expr {
        Expr::Un(UnOp::Not, Box::new(self))
    }
}

impl std::ops::Neg for Expr {
    type Output = Expr;
    /// Arithmetic negation.
    fn neg(self) -> Expr {
        Expr::Un(UnOp::Neg, Box::new(self))
    }
}

impl ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Add, self, rhs)
    }
}
impl ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Sub, self, rhs)
    }
}
impl ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Mul, self, rhs)
    }
}
impl ops::Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Div, self, rhs)
    }
}
impl ops::Rem for Expr {
    type Output = Expr;
    fn rem(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Rem, self, rhs)
    }
}

/// A statement of the imperative IR.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Declare an integer variable with an initial value.
    DeclInt(String, Expr),
    /// Declare a float variable with an initial value.
    DeclFloat(String, Expr),
    /// Declare a boolean variable with an initial value.
    DeclBool(String, Expr),
    /// Assign to a previously declared scalar variable.
    Assign(String, Expr),
    /// `arr[idx] = val`.
    Store {
        /// Target array.
        arr: String,
        /// Element index.
        idx: Expr,
        /// Value to store.
        val: Expr,
    },
    /// `arr[idx] += val` (reduction store).
    StoreAdd {
        /// Target array.
        arr: String,
        /// Element index.
        idx: Expr,
        /// Value to add.
        val: Expr,
    },
    /// `for (var = lo; var < hi; var++) body`.
    For {
        /// Loop variable (fresh integer declaration scoped to the body).
        var: String,
        /// Inclusive lower bound.
        lo: Expr,
        /// Exclusive upper bound.
        hi: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `while (cond) body`.
    While {
        /// Boolean condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `if (cond) then else els`.
    If {
        /// Boolean condition.
        cond: Expr,
        /// Taken when true.
        then: Vec<Stmt>,
        /// Taken when false.
        els: Vec<Stmt>,
    },
    /// Fill an entire array with a value (`memset` in the paper's listings).
    Memset {
        /// Target array.
        arr: String,
        /// Fill value (type must match the array element type).
        val: Expr,
    },
    /// Allocate (or reset) a kernel-local array of the given type and length,
    /// zero-filled.
    Alloc {
        /// Array name.
        arr: String,
        /// Element type.
        ty: ArrayTy,
        /// Number of elements.
        len: Expr,
    },
    /// Grow an array to the given length, preserving contents (Figure 8
    /// lines 26–29 realloc-by-doubling).
    Realloc {
        /// Array name.
        arr: String,
        /// New length (no-op if smaller than the current length).
        len: Expr,
    },
    /// Initialize (or reset to empty) a kernel-local workspace over the
    /// coordinates `[0, extent)`. The workspace is reachable only through
    /// the three workspace nodes, never as a bound buffer, so supervised
    /// rollback semantics are unchanged. A dense workspace allocates its
    /// value, coordinate-list and guard arrays here (three charges against
    /// the budget, in that order); a map kind starts at
    /// `min(INITIAL_CAPACITY, extent)` entries and is charged in doublings
    /// as it grows.
    WsInit {
        /// Workspace name.
        ws: String,
        /// The implementation.
        kind: WorkspaceKind,
        /// Value element type: `F64`, or `F32` for a dense workspace (the
        /// mixed-precision option of Section III).
        ty: ArrayTy,
        /// Number of coordinates.
        extent: Expr,
    },
    /// `ws[key] = val` (or `+= val` when `add`), inserting the key if
    /// absent (Figure 8 lines 15–18).
    WsScatter {
        /// Workspace name.
        ws: String,
        /// Integer key (the workspace coordinate).
        key: Expr,
        /// Value to store or accumulate.
        val: Expr,
        /// Accumulate instead of overwrite.
        add: bool,
    },
    /// Iterate the entries scattered since the workspace was last empty,
    /// binding `key` and `val` as fresh scalars per entry, and leave it
    /// empty — the drain that discharges the Section VI reset obligation
    /// (Figure 8 lines 22–36). The body may not touch the drained
    /// workspace.
    WsDrain {
        /// Workspace name.
        ws: String,
        /// Name of the integer key variable bound in the body.
        key: String,
        /// Name of the float value variable bound in the body.
        val: String,
        /// Visit keys in ascending order (Figure 8 line 23: "the sort is
        /// optional and only needed if the result must be ordered"). Only
        /// the dense kind sorts on request; the map kinds always drain in
        /// ascending order.
        sorted: bool,
        /// Per-entry body.
        body: Vec<Stmt>,
    },
    /// A comment carried through to the C printer.
    Comment(String),
}

/// How a parallel kernel's row ranges stitch their appends to a sparse
/// result level (compressed coordinate lists grown with a counter) back
/// together.
///
/// Every range runs the whole kernel, so its counter starts where the
/// kernel starts it, at zero, and its entries sit at `[0, counter)` of its
/// own copy of the data arrays. Ranges are stitched in row order: range
/// *w*'s entries are copied after those of ranges `0..w`, its rows' `pos`
/// entries shift by the same offset, and the counter is the sum — exactly
/// the values a serial run would have produced.
#[derive(Debug, Clone, PartialEq)]
pub struct AppendMerge {
    /// The append counter (e.g. `pA2`), incremented once per appended
    /// entry: a scalar output of the kernel.
    pub counter: String,
    /// Arrays appended to at `counter` positions (`crd`, and `vals` for
    /// fused kernels).
    pub data: Vec<String>,
    /// The result `pos` array closed per row (`pos[v+1] = counter`).
    pub pos: String,
}

/// What makes a kernel parallel: its top-level `For` over [`Rows::var`]
/// runs from `max(0, row_lo)` to `min(extent, row_hi)`, where `row_lo` and
/// `row_hi` are the scalar parameters [`Rows::lo`] and [`Rows::hi`] name,
/// so a run over `[row_lo, row_hi)` is the kernel restricted to those rows. The dispatcher beside
/// [`run_body`](crate::run_body) splits `[0, extent)` into contiguous
/// ranges, runs the whole kernel once per range on its own copy of the
/// binding, and merges the copies in row order; run whole, the kernel is
/// the serial one.
///
/// Produced by lowering a forall the schedule marked parallel
/// (`IndexStmt::parallelize`).
#[derive(Debug, Clone, PartialEq)]
pub struct Rows {
    /// The variable of the top-level loop the ranges split.
    pub var: String,
    /// The scalar parameter holding the first row of a range.
    pub lo: String,
    /// The scalar parameter holding the end (exclusive) of a range.
    pub hi: String,
    /// The scalar parameter that is the loop's extent: the rows are
    /// `[0, extent)`.
    pub extent: String,
    /// Worker-thread count; 0 means decide at run time (the `TACO_THREADS`
    /// environment variable, then available parallelism).
    pub threads: usize,
    /// Workspaces private to each range. They are kernel-local, so every
    /// run of the kernel has its own; the race check exempts them.
    pub private: Vec<String>,
    /// Present when the loop appends to a sparse result level.
    pub append: Option<AppendMerge>,
}

impl Stmt {
    /// Convenience constructor for [`Stmt::For`].
    pub fn for_(var: impl Into<String>, lo: Expr, hi: Expr, body: Vec<Stmt>) -> Stmt {
        Stmt::For { var: var.into(), lo, hi, body }
    }
    /// Convenience constructor for [`Stmt::While`].
    pub fn while_(cond: Expr, body: Vec<Stmt>) -> Stmt {
        Stmt::While { cond, body }
    }
    /// Convenience constructor for [`Stmt::If`] with no else branch.
    pub fn if_(cond: Expr, then: Vec<Stmt>) -> Stmt {
        Stmt::If { cond, then, els: Vec::new() }
    }
    /// Convenience constructor for [`Stmt::If`] with an else branch.
    pub fn if_else(cond: Expr, then: Vec<Stmt>, els: Vec<Stmt>) -> Stmt {
        Stmt::If { cond, then, els }
    }
    /// Convenience constructor for [`Stmt::Store`].
    pub fn store(arr: impl Into<String>, idx: Expr, val: Expr) -> Stmt {
        Stmt::Store { arr: arr.into(), idx, val }
    }
    /// Convenience constructor for [`Stmt::StoreAdd`].
    pub fn store_add(arr: impl Into<String>, idx: Expr, val: Expr) -> Stmt {
        Stmt::StoreAdd { arr: arr.into(), idx, val }
    }
    /// Convenience constructor for [`Stmt::Assign`].
    pub fn assign(var: impl Into<String>, val: Expr) -> Stmt {
        Stmt::Assign(var.into(), val)
    }
    /// `var = var + 1`.
    pub fn incr(var: &str) -> Stmt {
        Stmt::Assign(var.to_string(), Expr::var(var) + Expr::int(1))
    }
}

/// Whether a kernel array parameter is read, written, or both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// Read-only input.
    Input,
    /// Write-only output (contents on entry are unspecified).
    Output,
    /// Read and written.
    InOut,
}

/// An array parameter of a kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Array name as referenced by the kernel body.
    pub name: String,
    /// Element type.
    pub ty: ArrayTy,
    /// Access kind (documentation + binding checks).
    pub kind: ParamKind,
}

impl Param {
    /// An input array parameter.
    pub fn input(name: impl Into<String>, ty: ArrayTy) -> Param {
        Param { name: name.into(), ty, kind: ParamKind::Input }
    }
    /// An output array parameter.
    pub fn output(name: impl Into<String>, ty: ArrayTy) -> Param {
        Param { name: name.into(), ty, kind: ParamKind::Output }
    }
    /// An in/out array parameter.
    pub fn inout(name: impl Into<String>, ty: ArrayTy) -> Param {
        Param { name: name.into(), ty, kind: ParamKind::InOut }
    }
}

/// Calls `f` on every statement of `body`, nested bodies included, in
/// program order.
pub fn visit_stmts(body: &[Stmt], f: &mut impl FnMut(&Stmt)) {
    for s in body {
        f(s);
        match s {
            Stmt::For { body, .. }
            | Stmt::While { body, .. }
            | Stmt::WsDrain { body, .. } => visit_stmts(body, f),
            Stmt::If { then, els, .. } => {
                visit_stmts(then, f);
                visit_stmts(els, f);
            }
            _ => {}
        }
    }
}

/// A complete kernel: parameters plus a statement body.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Kernel (function) name.
    pub name: String,
    /// Integer scalar parameters (dimension sizes and the like).
    pub scalar_params: Vec<String>,
    /// Array parameters.
    pub array_params: Vec<Param>,
    /// Names of top-level declared variables whose final values are kernel
    /// results (e.g. the output nonzero count of an assembly kernel).
    pub scalar_outputs: Vec<String>,
    /// Kernel body.
    pub body: Vec<Stmt>,
    /// The row ranges a parallel kernel runs as; `None` for a serial one.
    pub rows: Option<Rows>,
}

impl Kernel {
    /// Creates an empty kernel with the given name.
    pub fn new(name: impl Into<String>) -> Kernel {
        Kernel {
            name: name.into(),
            scalar_params: Vec::new(),
            array_params: Vec::new(),
            scalar_outputs: Vec::new(),
            body: Vec::new(),
            rows: None,
        }
    }

    /// Adds an integer scalar parameter.
    pub fn scalar_param(mut self, name: impl Into<String>) -> Kernel {
        self.scalar_params.push(name.into());
        self
    }

    /// Adds an array parameter.
    pub fn array_param(mut self, p: Param) -> Kernel {
        self.array_params.push(p);
        self
    }

    /// Marks a top-level declared variable as a scalar result.
    pub fn scalar_output(mut self, name: impl Into<String>) -> Kernel {
        self.scalar_outputs.push(name.into());
        self
    }

    /// Sets the kernel body.
    pub fn body(mut self, body: Vec<Stmt>) -> Kernel {
        self.body = body;
        self
    }

    /// Makes the kernel parallel over `rows`.
    pub fn rows(mut self, rows: Rows) -> Kernel {
        self.rows = Some(rows);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_operators_build_trees() {
        let e = (Expr::var("a") + Expr::int(1)) * Expr::var("b");
        match e {
            Expr::Bin(BinOp::Mul, l, _) => match *l {
                Expr::Bin(BinOp::Add, _, _) => {}
                other => panic!("expected Add, got {other:?}"),
            },
            other => panic!("expected Mul, got {other:?}"),
        }
    }

    #[test]
    fn incr_builds_add_one() {
        let s = Stmt::incr("p");
        assert_eq!(s, Stmt::Assign("p".into(), Expr::var("p") + Expr::int(1)));
    }

    #[test]
    fn kernel_builder_accumulates() {
        let k = Kernel::new("k")
            .scalar_param("n")
            .array_param(Param::input("x", ArrayTy::F64))
            .scalar_output("nnz")
            .body(vec![Stmt::Comment("empty".into())]);
        assert_eq!(k.scalar_params, vec!["n"]);
        assert_eq!(k.array_params.len(), 1);
        assert_eq!(k.scalar_outputs, vec!["nnz"]);
        assert_eq!(k.body.len(), 1);
    }
}
