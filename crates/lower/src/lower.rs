//! The lowering recursion: concrete index notation → imperative IR.

use crate::lattice::{IterKey, MergeLattice};
use crate::params::{crd_name, dim_name, pos_name, ROW_HI, ROW_LO};
use crate::{LowerError, Result};
use std::collections::{HashMap, HashSet};
use taco_ir::concrete::{AssignOp, ConcreteStmt};
use taco_ir::expr::{Access, IndexExpr, IndexVar, TensorVar};
use taco_llir::{ArrayTy, Expr, Kernel, Param, Rows, Stmt, WorkspaceKind};

/// What the generated kernel does with the result's sparse index structures
/// (paper Section VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Values only; sparse result structures are pre-assembled inputs
    /// (numeric kernel, e.g. Figures 1d, 5b, 10).
    Compute,
    /// Index structures only; no values are computed (symbolic kernel,
    /// Figure 8).
    Assemble,
    /// Assembles index structures and computes values in one pass (the
    /// paper's SpGEMM evaluation configuration).
    Fused,
}

/// Options controlling lowering.
#[derive(Debug, Clone)]
pub struct LowerOptions {
    /// Kernel (function) name.
    pub name: String,
    /// Kernel kind.
    pub kind: KernelKind,
    /// Sort workspace coordinate lists before appending them to the result
    /// (Figure 8 line 23: "the sort is optional and only needed if the
    /// result must be ordered").
    pub sort_output: bool,
    /// Allocate workspaces in single precision (the mixed-precision option
    /// of Section III).
    pub f32_workspaces: bool,
    /// Worker-thread count for loops the schedule marked parallel
    /// (`IndexStmt::parallelize`). `None` lets the executor decide at run
    /// time (the `TACO_THREADS` environment variable, then available
    /// parallelism). Has no effect on serial loops.
    pub num_threads: Option<usize>,
    /// Storage backend for rank-1 workspaces (Section VII: "a workspace can
    /// also be implemented with other data structures such as hash maps").
    /// `Dense` lowers the paper's array workspaces; `Hash` and `CoordList`
    /// lower map workspaces whose footprint scales with touched entries —
    /// the graceful-degradation rungs of the budget and retry ladders.
    pub workspace_kind: WorkspaceKind,
}

impl LowerOptions {
    /// Compute-kernel options with the given name.
    pub fn compute(name: impl Into<String>) -> LowerOptions {
        LowerOptions {
            name: name.into(),
            kind: KernelKind::Compute,
            sort_output: true,
            f32_workspaces: false,
            num_threads: None,
            workspace_kind: WorkspaceKind::Dense,
        }
    }

    /// Fused assemble-and-compute options with the given name.
    pub fn fused(name: impl Into<String>) -> LowerOptions {
        LowerOptions { kind: KernelKind::Fused, ..LowerOptions::compute(name) }
    }

    /// Assembly (symbolic) options with the given name.
    pub fn assemble(name: impl Into<String>) -> LowerOptions {
        LowerOptions { kind: KernelKind::Assemble, ..LowerOptions::compute(name) }
    }

    /// Disables output sorting (MKL-style unsorted results, Section VIII-B).
    pub fn unsorted(mut self) -> LowerOptions {
        self.sort_output = false;
        self
    }

    /// Enables single-precision workspaces.
    pub fn with_f32_workspaces(mut self) -> LowerOptions {
        self.f32_workspaces = true;
        self
    }

    /// Pins the worker-thread count for parallel loops (`0` or `None`-like
    /// behavior is restored by never calling this).
    pub fn with_threads(mut self, n: usize) -> LowerOptions {
        self.num_threads = if n == 0 { None } else { Some(n) };
        self
    }

    /// Selects the workspace storage backend. Non-dense kinds only lower
    /// statements whose workspaces are rank-1 and fully drained by their
    /// consumer; other shapes return [`LowerError::Unsupported`], which the
    /// budget/retry ladders treat as "skip this rung".
    pub fn with_workspace_kind(mut self, kind: WorkspaceKind) -> LowerOptions {
        self.workspace_kind = kind;
        self
    }
}

/// Bound-relevant metadata for one workspace the lowerer emitted: the name
/// its `Alloc` or `WsInit` carries, its storage backend, and the dimension
/// expressions its dense footprint is a product of. The static cost
/// analysis keys its per-workspace bounds off this record instead of
/// re-deriving workspace identity from the kernel body.
#[derive(Debug, Clone)]
pub struct WorkspaceMeta {
    /// Workspace name as it appears in the kernel body.
    pub name: String,
    /// Storage backend the workspace was lowered with.
    pub kind: WorkspaceKind,
    /// Dimension expressions, one per workspace mode, in terms of the
    /// kernel's scalar dimension parameters.
    pub dims: Vec<Expr>,
}

/// A lowered kernel plus the binding metadata the runtime needs.
#[derive(Debug, Clone)]
pub struct LoweredKernel {
    /// The imperative-IR kernel.
    pub kernel: Kernel,
    /// The result tensor variable.
    pub result: TensorVar,
    /// Operand tensor variables, in first-use order.
    pub operands: Vec<TensorVar>,
    /// The kernel kind this was lowered as.
    pub kind: KernelKind,
    /// Name of the nonzero-count scalar output (fused/assemble kernels with
    /// sparse results).
    pub nnz_output: Option<String>,
    /// Workspaces the kernel allocates, sorted by name.
    pub workspaces: Vec<WorkspaceMeta>,
}

impl LoweredKernel {
    /// Every tensor whose storage the kernel takes as parameters
    /// ([`crate::params`]): the result, then the operands.
    pub fn tensors(&self) -> impl Iterator<Item = &TensorVar> {
        std::iter::once(&self.result).chain(&self.operands)
    }
}

/// Lowers a concrete index notation statement to an imperative kernel.
///
/// # Errors
///
/// Returns a [`LowerError`] when the statement requires an unsupported
/// shape — most importantly [`LowerError::CannotLocateSparse`] when a
/// schedule would require random access into a compressed structure, which
/// is exactly the situation the workspace transformation exists to avoid.
pub fn lower(stmt: &ConcreteStmt, opts: &LowerOptions) -> Result<LoweredKernel> {
    let mut lw = Lowerer::new(stmt, opts)?;
    let mut body = lw.lower_stmt(stmt, &Ctx::default())?;

    // Rank-1 sparse results close their pos array at the kernel end (their
    // "parent loop" is the kernel root).
    if let Some(0) = lw.result_sparse_level {
        if lw.append_used && opts.kind != KernelKind::Compute {
            let pos_arr = pos_name(lw.result.name(), 0);
            body.push(Stmt::store(pos_arr, Expr::int(1), Expr::var(lw.counter_name())));
        }
    }

    // Sparse-driven parent loops (DCSR-style operands) close the append
    // level's pos entries only for the rows they visit; rows absent from
    // every operand keep the zero the buffer was initialized with. Carry
    // the running append counter across those gaps so the finished pos
    // array is monotone segment boundaries, exactly as if a dense loop had
    // closed every row.
    if lw.append_pos_may_skip {
        if let Some(l) = lw.result_sparse_level {
            let mut parents = Expr::var(dim_name(lw.result.name(), 0));
            for k in 1..l {
                parents = parents * Expr::var(dim_name(lw.result.name(), k));
            }
            let pos_arr = pos_name(lw.result.name(), l);
            let p = "pFin";
            body.push(Stmt::for_(
                p,
                Expr::int(0),
                parents,
                vec![Stmt::if_(
                    Expr::load(&pos_arr, Expr::var(p) + Expr::int(1))
                        .lt(Expr::load(&pos_arr, Expr::var(p))),
                    vec![Stmt::store(
                        pos_arr.clone(),
                        Expr::var(p) + Expr::int(1),
                        Expr::load(&pos_arr, Expr::var(p)),
                    )],
                )],
            ));
        }
    }

    let mut stmts = Vec::new();
    // Results are implicitly initialized to zero (Section IV-A); dense
    // results are zeroed explicitly, as the paper's listings do
    // (Figure 1c line 1, Figure 9 line 1).
    if lw.result_sparse_level.is_none() {
        stmts.push(Stmt::Memset { arr: lw.result.name().to_string(), val: Expr::float(0.0) });
    }
    stmts.append(&mut lw.preamble);
    stmts.append(&mut body);
    if let Some(rows) = &lw.rows {
        check_top_level(&stmts, rows)?;
    }

    let mut kernel = Kernel::new(opts.name.clone()).body(stmts);
    kernel.rows = lw.rows.clone();
    kernel.simplify();
    for p in lw.scalar_params() {
        kernel = kernel.scalar_param(p);
    }
    for p in lw.array_params() {
        kernel = kernel.array_param(p);
    }
    let nnz_output = if lw.append_used && opts.kind != KernelKind::Compute {
        let n = lw.counter_name();
        kernel = kernel.scalar_output(n.clone());
        Some(n)
    } else {
        None
    };

    let mut workspaces: Vec<WorkspaceMeta> = lw
        .workspaces
        .iter()
        .map(|(name, info)| WorkspaceMeta {
            name: name.clone(),
            kind: info.kind,
            dims: info.dims.clone(),
        })
        .collect();
    workspaces.sort_by(|a, b| a.name.cmp(&b.name));

    Ok(LoweredKernel {
        kernel,
        result: lw.result.clone(),
        operands: lw.operands.clone(),
        kind: opts.kind,
        nnz_output,
        workspaces,
    })
}

/// A parallel kernel runs whole once per range of rows, so its parallel
/// loop must be the last statement at its top level, after straight-line
/// statements only: a loop before it would run once per range, and
/// anything after it would see only its range's rows.
fn check_top_level(stmts: &[Stmt], rows: &Rows) -> Result<()> {
    let is_loop =
        |s: &Stmt| matches!(s, Stmt::For { .. } | Stmt::While { .. } | Stmt::WsDrain { .. });
    match stmts.split_last() {
        Some((Stmt::For { var, .. }, before))
            if *var == rows.var && !before.iter().any(is_loop) =>
        {
            Ok(())
        }
        _ => Err(LowerError::UnsupportedParallelLoop {
            var: rows.var.clone(),
            reason: "only the kernel's outermost loop, with nothing after it, can be \
                     parallelized"
                .to_string(),
        }),
    }
}

// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Default)]
struct Ctx {
    /// Workspaces whose entries the current (consumer) assignments must
    /// reset to zero after reading (the drain pattern of Figures 1d, 5b, 9).
    drains: Vec<String>,
    /// The enclosing loop appends result nonzeros at the result counter
    /// (Figure 5a's `A[pA2++]` pattern): assignments to the result must
    /// also store the coordinate (fused/assemble) and bump the counter.
    append_result: bool,
}

#[derive(Debug, Clone)]
struct WsInfo {
    /// Dimension expressions, one per mode.
    dims: Vec<Expr>,
    /// Whether the consumer assembles result rows from the workspace's own
    /// coordinates (Figure 8), rather than from another tensor's structure.
    assembles: bool,
    /// Whether the consumer covers all touched coordinates so entries can
    /// be drained on read (otherwise the workspace is re-zeroed at each
    /// where execution, as in Figure 10 line 6).
    drainable: bool,
    /// Storage backend.
    kind: WorkspaceKind,
}

impl WsInfo {
    /// Whether the workspace is lowered to `WsInit`/`WsScatter`/`WsDrain`:
    /// when it assembles, whatever its kind, and always for a map kind. A
    /// dense workspace read by random access stays a plain array.
    fn nodes(&self) -> bool {
        self.assembles || self.kind != WorkspaceKind::Dense
    }
}

struct Lowerer<'o> {
    opts: &'o LowerOptions,
    result: TensorVar,
    result_access: Access,
    /// Innermost level of the result if compressed.
    result_sparse_level: Option<usize>,
    operands: Vec<TensorVar>,
    /// First access seen per tensor (operands and result).
    access_map: HashMap<String, Access>,
    workspaces: HashMap<String, WsInfo>,
    /// While lowering a `WsDrain` body, maps the drained workspace's name
    /// to the value variable the drain binds; reads of the workspace become
    /// reads of that variable.
    drain_val: HashMap<String, String>,
    scalar_temps: HashSet<String>,
    /// Positions of compressed levels bound by enclosing loops.
    pos: HashMap<(String, usize), Expr>,
    /// `(tensor, level) -> dim expr` source for every index variable.
    var_dims: HashMap<String, Expr>,
    preamble: Vec<Stmt>,
    append_used: bool,
    counter_declared: bool,
    /// Variables bound by enclosing foralls, outermost first.
    enclosing: Vec<IndexVar>,
    /// Variables whose loop is sparse-driven (position or merge loops) and
    /// therefore may skip coordinates of its dimension.
    nonfull_loops: HashSet<String>,
    /// Set when the append level's pos array is closed inside loops that
    /// may skip rows: the kernel then needs a pos-finalization epilogue
    /// carrying the append counter across unvisited rows.
    append_pos_may_skip: bool,
    /// The row ranges of the parallel loop, once lowered.
    rows: Option<Rows>,
}

impl<'o> Lowerer<'o> {
    fn new(stmt: &ConcreteStmt, opts: &'o LowerOptions) -> Result<Self> {
        // Workspaces are the tensors written by where-producers; the result
        // is the remaining written tensor.
        let mut producer_written: HashSet<String> = HashSet::new();
        collect_producer_written(stmt, false, &mut producer_written);
        let written = stmt.written_tensors();
        let results: Vec<&String> =
            written.iter().filter(|t| !producer_written.contains(*t)).collect();
        if results.len() != 1 {
            return Err(LowerError::Unsupported(format!(
                "expected exactly one result tensor, found {results:?}"
            )));
        }
        let result_name = results[0].clone();

        // Find the result access and all tensor variables.
        let mut result_access: Option<Access> = None;
        let mut tensors: Vec<TensorVar> = Vec::new();
        let mut access_conflict: Option<String> = None;
        let mut access_map: HashMap<String, Access> = HashMap::new();
        stmt.visit(&mut |s| {
            if let ConcreteStmt::Assign { lhs, rhs, .. } = s {
                for a in std::iter::once(lhs).chain(rhs.accesses()) {
                    let name = a.tensor().name().to_string();
                    match access_map.get(&name) {
                        None => {
                            access_map.insert(name, a.clone());
                        }
                        Some(prev) if prev.vars() != a.vars() => access_conflict = Some(name),
                        _ => {}
                    }
                    if !tensors.iter().any(|t| t.name() == a.tensor().name()) {
                        tensors.push(a.tensor().clone());
                    }
                    if a.tensor().name() == result_name && result_access.is_none() {
                        result_access = Some(a.clone());
                    }
                }
            }
        });
        if let Some(t) = access_conflict {
            // Renamed consumer/producer sides access workspaces with
            // different vars; allow that for producer-written tensors.
            if !producer_written.contains(&t) {
                return Err(LowerError::DuplicateTensorAccess(t));
            }
        }
        let result_access = result_access.ok_or_else(|| {
            LowerError::Unsupported(format!("result tensor `{result_name}` is never accessed"))
        })?;
        let result = result_access.tensor().clone();

        // Validate result format by capability: every level must support
        // either random insert (dense) or appending, and an append level is
        // only assemblable at the innermost position in storage order.
        // Branchless (singleton), unordered (hashed), and mode-reordered
        // results have no append idiom here; they are produced by computing
        // into a supported format and converting afterwards.
        if !result.format().is_identity_order() {
            return Err(LowerError::UnsupportedResultFormat(result_name.clone()));
        }
        let mut result_sparse_level = None;
        for l in 0..result.rank() {
            let lt = result.format().mode(l);
            if lt.has_insert() {
                continue;
            }
            if lt.has_append() && lt.is_ordered() && l + 1 == result.rank() {
                result_sparse_level = Some(l);
            } else {
                return Err(LowerError::UnsupportedResultFormat(result_name.clone()));
            }
        }
        if opts.kind == KernelKind::Assemble && result_sparse_level.is_none() {
            return Err(LowerError::NothingToAssemble);
        }

        let operands: Vec<TensorVar> = tensors
            .iter()
            .filter(|t| {
                t.name() != result_name && !producer_written.contains(t.name()) && t.rank() > 0
            })
            .cloned()
            .collect();

        // Map every index variable to a dimension expression, preferring
        // operands and the result (their dims are kernel parameters).
        let mut var_dims: HashMap<String, Expr> = HashMap::new();
        // Operands first so their dims are preferred over the result's.
        let param_tensors: Vec<&TensorVar> =
            operands.iter().chain(std::iter::once(&result)).collect();
        for t in param_tensors {
            let Some(a) = access_map.get(t.name()) else { continue };
            // Dim parameters are named by *storage level*; level `l` stores
            // the index variable at mode `mode_of_level(l)`.
            for l in 0..t.rank() {
                let v = &a.vars()[t.format().mode_of_level(l)];
                var_dims
                    .entry(v.name().to_string())
                    .or_insert_with(|| Expr::var(dim_name(t.name(), l)));
            }
        }

        Ok(Lowerer {
            opts,
            result,
            result_access,
            result_sparse_level,
            operands,
            access_map,
            workspaces: HashMap::new(),
            drain_val: HashMap::new(),
            scalar_temps: HashSet::new(),
            pos: HashMap::new(),
            var_dims,
            preamble: Vec::new(),
            append_used: false,
            counter_declared: false,
            enclosing: Vec::new(),
            nonfull_loops: HashSet::new(),
            append_pos_may_skip: false,
            rows: None,
        })
    }

    // -- naming ------------------------------------------------------------

    fn counter_name(&self) -> String {
        let l = self.result_sparse_level.expect("counter implies sparse result");
        format!("p{}{}", self.result.name(), l + 1)
    }

    fn ws_ty(&self) -> ArrayTy {
        if self.opts.f32_workspaces {
            ArrayTy::F32
        } else {
            ArrayTy::F64
        }
    }

    // -- parameters ----------------------------------------------------------

    fn scalar_params(&self) -> Vec<String> {
        let mut out = Vec::new();
        for t in self.operands.iter().chain(std::iter::once(&self.result)) {
            for l in 0..t.rank() {
                out.push(dim_name(t.name(), l));
            }
        }
        if self.rows.is_some() {
            out.extend([ROW_LO.to_string(), ROW_HI.to_string()]);
        }
        out
    }

    fn array_params(&self) -> Vec<Param> {
        let mut out = Vec::new();
        let with_vals = self.opts.kind != KernelKind::Assemble;
        for t in &self.operands {
            for l in 0..t.rank() {
                let lt = t.format().mode(l);
                if lt.has_pos_array() {
                    out.push(Param::input(pos_name(t.name(), l), ArrayTy::Int));
                }
                if lt.has_crd_array() {
                    out.push(Param::input(crd_name(t.name(), l), ArrayTy::Int));
                }
            }
            if with_vals {
                out.push(Param::input(t.name(), ArrayTy::F64));
            }
        }
        let r = &self.result;
        match (self.result_sparse_level, self.opts.kind) {
            (None, _) => out.push(Param::output(r.name(), ArrayTy::F64)),
            (Some(l), KernelKind::Compute) => {
                out.push(Param::input(pos_name(r.name(), l), ArrayTy::Int));
                out.push(Param::input(crd_name(r.name(), l), ArrayTy::Int));
                out.push(Param::inout(r.name(), ArrayTy::F64));
            }
            (Some(l), KernelKind::Fused) => {
                out.push(Param::inout(pos_name(r.name(), l), ArrayTy::Int));
                out.push(Param::inout(crd_name(r.name(), l), ArrayTy::Int));
                out.push(Param::inout(r.name(), ArrayTy::F64));
            }
            (Some(l), KernelKind::Assemble) => {
                out.push(Param::inout(pos_name(r.name(), l), ArrayTy::Int));
                out.push(Param::inout(crd_name(r.name(), l), ArrayTy::Int));
            }
        }
        out
    }

    // -- statements ----------------------------------------------------------

    fn lower_stmt(&mut self, stmt: &ConcreteStmt, ctx: &Ctx) -> Result<Vec<Stmt>> {
        match stmt {
            ConcreteStmt::Assign { lhs, op, rhs } => self.lower_assign(lhs, *op, rhs, ctx),
            ConcreteStmt::Forall { var, body, parallel } => {
                self.lower_forall(var, body, *parallel, ctx)
            }
            ConcreteStmt::Where { consumer, producer } => {
                self.lower_where(consumer, producer, ctx)
            }
            ConcreteStmt::Sequence { first, second } => {
                let mut out = self.lower_stmt(first, ctx)?;
                out.extend(self.lower_stmt(second, ctx)?);
                Ok(out)
            }
        }
    }

    fn lower_where(
        &mut self,
        consumer: &ConcreteStmt,
        producer: &ConcreteStmt,
        ctx: &Ctx,
    ) -> Result<Vec<Stmt>> {
        let mut out = Vec::new();
        let mut my_drains = Vec::new();

        // Only the tensors this where *directly* produces: tensors written
        // inside a nested where's producer belong to that nested where
        // (e.g. in the doubly-transformed MTTKRP, `v` belongs to the outer
        // where and `w` to the inner one).
        for ws_name in direct_written(producer) {
            // Find the workspace tensor variable from a producer access.
            let mut ws_var: Option<TensorVar> = None;
            let mut ws_vars: Vec<IndexVar> = Vec::new();
            producer.visit(&mut |s| {
                if let ConcreteStmt::Assign { lhs, .. } = s {
                    if lhs.tensor().name() == ws_name && ws_var.is_none() {
                        ws_var = Some(lhs.tensor().clone());
                        ws_vars = lhs.vars().to_vec();
                    }
                }
            });
            let ws_var = ws_var.ok_or_else(|| {
                LowerError::Unsupported(format!(
                    "where-producer writes `{ws_name}` without an access to it"
                ))
            })?;

            if ws_var.rank() == 0 {
                // Scalar reduction temporary: a fresh float accumulator.
                self.scalar_temps.insert(ws_name.clone());
                out.push(Stmt::DeclFloat(ws_name.clone(), Expr::float(0.0)));
                continue;
            }

            if !self.workspaces.contains_key(&ws_name) {
                // Extents come from the dimension parameters only, so a
                // kernel does not depend on the shapes it was lowered at.
                let dims: Vec<Expr> = ws_vars
                    .iter()
                    .map(|v| {
                        self.var_dims
                            .get(v.name())
                            .cloned()
                            .ok_or_else(|| LowerError::NoRangeForVar(v.name().to_string()))
                    })
                    .collect::<Result<_>>()?;

                let assembles = self.opts.kind != KernelKind::Compute
                    && ws_var.rank() == 1
                    && self.result_sparse_level.is_some_and(|l| {
                        self.result_access
                            .vars()
                            .get(l)
                            .is_some_and(|rv| workspace_drives_row(consumer, rv))
                    })
                    && consumer_feeds_result(consumer, &ws_name, self.result.name());
                let drainable = self.consumer_drains(consumer, &ws_name);
                let kind = self.map_kind_for(&ws_name, &ws_var, consumer, assembles, drainable)?;
                let info = WsInfo { dims, assembles, drainable, kind };

                let extent = info.dims.iter().cloned().reduce(|a, b| a * b).ok_or_else(|| {
                    LowerError::Unsupported(format!("workspace `{ws_name}` has no modes"))
                })?;
                self.preamble.push(Stmt::Comment(format!("workspace for `{ws_name}`")));
                let (ws, ty) = (ws_name.clone(), self.ws_ty());
                self.preamble.push(if info.nodes() {
                    Stmt::WsInit { ws, kind, ty, extent }
                } else {
                    // A zero-filled array in the preamble.
                    Stmt::Alloc { arr: ws, ty, len: extent }
                });
                self.workspaces.insert(ws_name.clone(), info);
            }

            // Workspace nodes need no per-where reset: a drain empties them.
            let info = &self.workspaces[&ws_name];
            if !info.nodes() && !info.drainable && self.opts.kind != KernelKind::Assemble {
                // Re-zero at each where execution (Figure 10 line 6).
                out.push(Stmt::Memset { arr: ws_name.clone(), val: Expr::float(0.0) });
            }
            if info.drainable {
                my_drains.push(ws_name.clone());
            }
        }

        // Producer first, then consumer (Section VI: "when it encounters
        // where statements the algorithm emits the producer side followed by
        // the consumer side").
        let producer_ctx = Ctx { drains: Vec::new(), append_result: false };
        out.extend(self.lower_stmt(producer, &producer_ctx)?);

        let mut consumer_ctx = ctx.clone();
        consumer_ctx.drains.extend(my_drains);
        out.extend(self.lower_stmt(consumer, &consumer_ctx)?);
        Ok(out)
    }

    /// Decides whether the consumer's loops cover every workspace entry the
    /// producer touched, so entries can be reset on read. True when the
    /// consumer reads the workspace under loops with no *other* sparse
    /// operand driving them; false when another tensor's sparsity drives the
    /// consumer (Figure 10: the loop over `D` may skip touched entries).
    fn consumer_drains(&self, consumer: &ConcreteStmt, ws: &str) -> bool {
        let mut drain = true;
        consumer.visit(&mut |s| {
            if let ConcreteStmt::Assign { lhs, rhs, .. } = s {
                if !rhs.uses_tensor(ws) {
                    return;
                }
                // The variables the workspace is read with.
                for a in rhs.accesses() {
                    if a.tensor().name() != ws {
                        continue;
                    }
                    for v in a.vars() {
                        let lat = MergeLattice::build(rhs, v);
                        let driven_by_other = lat
                            .iterators()
                            .iter()
                            .any(|it| it.tensor != ws && it.tensor != lhs.tensor().name());
                        if driven_by_other {
                            drain = false;
                        }
                    }
                }
            }
        });
        drain
    }

    /// Decides the storage backend for a workspace and validates that the
    /// statement's shape supports it. Map workspaces (hash / coord-list)
    /// only lower when the consumer fully drains the workspace — random
    /// access into a map has no provably-clean idiom, so ineligible shapes
    /// error and the budget/retry ladders skip the rung.
    fn map_kind_for(
        &self,
        ws_name: &str,
        ws_var: &TensorVar,
        consumer: &ConcreteStmt,
        assembles: bool,
        drainable: bool,
    ) -> Result<WorkspaceKind> {
        let kind = self.opts.workspace_kind;
        if kind == WorkspaceKind::Dense {
            return Ok(WorkspaceKind::Dense);
        }
        if ws_var.rank() != 1 {
            return Err(LowerError::Unsupported(format!(
                "{kind} workspace `{ws_name}` has rank {}; map workspaces are rank-1 only",
                ws_var.rank()
            )));
        }
        if self.opts.f32_workspaces {
            return Err(LowerError::Unsupported(format!(
                "{kind} workspace `{ws_name}`: map workspaces are double-precision only"
            )));
        }
        if !assembles && !drainable {
            // Figure 10's shape: another tensor's sparsity drives the
            // consumer, which random-accesses the workspace.
            return Err(LowerError::Unsupported(format!(
                "{kind} workspace `{ws_name}` is not fully drained by its consumer; \
                 map workspaces require a draining consumer"
            )));
        }
        if self.opts.kind == KernelKind::Compute
            && self.result_sparse_level.is_some()
            && consumer_feeds_result(consumer, ws_name, self.result.name())
        {
            // A compute kernel drains through the pre-assembled result
            // structure (Figure 1d): that iterates `crd`, then reads the
            // workspace at each coordinate — random access again.
            return Err(LowerError::Unsupported(format!(
                "{kind} workspace `{ws_name}` would drain through a pre-assembled sparse \
                 result structure; map workspaces cannot be randomly accessed"
            )));
        }
        Ok(kind)
    }

    fn lower_forall(
        &mut self,
        var: &IndexVar,
        body: &ConcreteStmt,
        parallel: bool,
        ctx: &Ctx,
    ) -> Result<Vec<Stmt>> {
        // Workspaces allocated while lowering this body become the
        // per-thread private arrays of a parallel loop.
        let ws_before: HashSet<String> =
            if parallel { self.workspaces.keys().cloned().collect() } else { HashSet::new() };
        // Combined expression across every assignment in the body, for the
        // iterator analysis at this variable.
        let combined = combined_rhs(body, var);
        let lattice = match &combined {
            Some(e) => MergeLattice::build(e, var),
            None => MergeLattice { points: Vec::new() },
        };

        // Does the result's compressed level sit at this variable?
        let result_sparse_here = self
            .result_sparse_level
            .is_some_and(|l| self.result_access.vars().get(l) == Some(var))
            && body.uses_tensor(self.result.name())
            && writes_tensor(body, self.result.name());

        // Appending into a sparse result is only valid when every enclosing
        // loop binds a result variable; inside a reduction loop, each row
        // would be revisited and inserted into repeatedly — the expensive
        // sparse insert the workspace transformation exists to avoid.
        if result_sparse_here && self.opts.kind != KernelKind::Compute {
            if let Some(red) =
                self.enclosing.iter().find(|v| !self.result_access.uses_var(v))
            {
                return Err(LowerError::SparseScatter {
                    result: self.result.name().to_string(),
                    var: red.name().to_string(),
                });
            }
        }

        self.enclosing.push(var.clone());
        let full_loop = lattice.points.is_empty() || lattice.is_dense();
        if !full_loop {
            // Position and merge loops visit only stored coordinates; any
            // append-level pos close nested inside must be finalized at the
            // kernel end because skipped rows never store their boundary.
            self.nonfull_loops.insert(var.name().to_string());
        }
        let strategy = if full_loop {
            if result_sparse_here {
                match self.opts.kind {
                    KernelKind::Compute => self.result_driven_loop(var, body, ctx),
                    KernelKind::Fused | KernelKind::Assemble => self.row_drain(var, body, ctx),
                }
            } else {
                self.dense_loop(var, body, ctx)
            }
        } else if lattice.has_dense_union() {
            Err(LowerError::DenseUnionUnsupported(var.name().to_string()))
        } else {
            // Sparse-driven loops appending to a sparse result (Figure 5a):
            // the loop produces result nonzeros in coordinate order at the
            // append counter.
            let mut inner_ctx = ctx.clone();
            if result_sparse_here {
                let l = self.result_sparse_level.expect("checked above");
                self.append_used = true;
                self.ensure_counter();
                self.pos
                    .insert((self.result.name().to_string(), l), Expr::var(self.counter_name()));
                inner_ctx.append_result = true;
            }
            let loop_points = lattice.loop_points();
            let loops = if loop_points.len() == 1 && loop_points[0].iters.len() == 1 {
                self.position_loop(var, body, &loop_points[0].iters[0].clone(), &inner_ctx)
            } else {
                self.merge_loops(var, body, &lattice, &inner_ctx)
            };
            if result_sparse_here {
                let l = self.result_sparse_level.expect("checked above");
                self.pos.remove(&(self.result.name().to_string(), l));
            }
            loops
        };
        let mut out = match strategy {
            Ok(out) => out,
            Err(e) => {
                self.enclosing.pop();
                return Err(e);
            }
        };

        // Close the result pos array at the end of each iteration of the
        // sparse level's parent loop (Fused/Assemble only). The store goes
        // *inside* the loop body so the parent variable is in scope.
        if let Some(l) = self.result_sparse_level {
            if l > 0
                && self.opts.kind != KernelKind::Compute
                && self.result_access.vars().get(l - 1) == Some(var)
                && self.append_used
            {
                let parent_pos = self.access_pos(&self.result_access, l - 1)?;
                let store = Stmt::store(
                    pos_name(self.result.name(), l),
                    parent_pos + Expr::int(1),
                    Expr::var(self.counter_name()),
                );
                for s in &mut out {
                    match s {
                        Stmt::For { body, .. } | Stmt::While { body, .. } => {
                            body.push(store.clone());
                        }
                        _ => {}
                    }
                }
                // The close above only lands in visited iterations. When any
                // loop enclosing it (this one included) is sparse-driven,
                // skipped rows keep their zero-initialized pos entry and the
                // kernel must repair the array once at the end.
                if self.enclosing.iter().any(|v| self.nonfull_loops.contains(v.name())) {
                    self.append_pos_may_skip = true;
                }
            }
        }
        self.enclosing.pop();
        if parallel {
            out = self.parallelize_loop(var, body, out, &ws_before)?;
        }
        Ok(out)
    }

    /// Restricts the single dense loop a parallel forall lowered to to the
    /// rows of a range, `max(0, row_lo) .. min(extent, row_hi)`, and records
    /// the kernel's [`Rows`]: the private workspace set and (when the loop
    /// appends rows into a sparse result) how the ranges' appends stitch.
    fn parallelize_loop(
        &mut self,
        var: &IndexVar,
        body: &ConcreteStmt,
        out: Vec<Stmt>,
        ws_before: &HashSet<String>,
    ) -> Result<Vec<Stmt>> {
        // Per-thread private arrays: every dense workspace first allocated
        // while lowering this body. (Map workspaces are machine state, not
        // bound arrays: the executor clones them per worker.) Sorted so the
        // generated kernel is deterministic.
        let mut private: Vec<String> = self
            .workspaces
            .iter()
            .filter(|(name, info)| info.kind == WorkspaceKind::Dense && !ws_before.contains(*name))
            .map(|(name, _)| name.clone())
            .collect();
        private.sort();

        // Appends into a sparse result are only mergeable when the parallel
        // variable owns whole rows of the appended level: each iteration
        // then produces one contiguous coordinate segment and closes
        // `pos[v+1]`, so per-worker segments can be stitched in chunk order.
        let appends_here = self.opts.kind != KernelKind::Compute
            && self.append_used
            && self.result_sparse_level.is_some()
            && writes_tensor(body, self.result.name());
        let append = if appends_here {
            let l = self.result_sparse_level.expect("checked above");
            if l == 0 || self.result_access.vars().get(l - 1) != Some(var) {
                return Err(LowerError::UnsupportedParallelLoop {
                    var: var.name().to_string(),
                    reason: format!(
                        "the loop appends into sparse result `{}` but `{}` does not own whole \
                         rows of the appended level",
                        self.result.name(),
                        var.name()
                    ),
                });
            }
            let mut data = vec![crd_name(self.result.name(), l)];
            if self.opts.kind == KernelKind::Fused {
                data.push(self.result.name().to_string());
            }
            Some(taco_llir::AppendMerge {
                counter: self.counter_name(),
                data,
                pos: pos_name(self.result.name(), l),
            })
        } else {
            None
        };

        // A body that writes a sparse result through the append counter but
        // has no merge description would carry the counter across
        // iterations: every worker starts from the parent's counter value
        // and their prefixes overlap. Compute kernels that drain a
        // workspace by result structure never hit this (they re-derive the
        // position from `pos` per row and `append_used` stays false).
        if self.append_used && append.is_none() && writes_tensor(body, self.result.name()) {
            return Err(LowerError::UnsupportedParallelLoop {
                var: var.name().to_string(),
                reason: format!(
                    "the loop advances append counter `{}` across iterations with no merge \
                     strategy (loop-carried position counter must stay serial)",
                    self.counter_name()
                ),
            });
        }

        let unsupported = |reason: &str| LowerError::UnsupportedParallelLoop {
            var: var.name().to_string(),
            reason: reason.to_string(),
        };
        if self.rows.is_some() {
            return Err(unsupported("a kernel has at most one parallel loop"));
        }
        match <[Stmt; 1]>::try_from(out) {
            Ok([Stmt::For { var: lv, lo: lo @ Expr::Int(0), hi: Expr::Var(extent), body }])
                if lv == var.name() =>
            {
                let lo = lo.max(Expr::var(ROW_LO));
                let hi = Expr::var(&extent).min(Expr::var(ROW_HI));
                self.rows = Some(Rows {
                    var: lv.clone(),
                    lo: ROW_LO.to_string(),
                    hi: ROW_HI.to_string(),
                    extent,
                    threads: self.opts.num_threads.unwrap_or(0),
                    private,
                    append,
                });
                Ok(vec![Stmt::For { var: lv, lo, hi, body }])
            }
            _ => Err(unsupported(
                "only dense loops (`for v = 0..N`) can be parallelized; coiteration and \
                 position loops must stay serial",
            )),
        }
    }

    /// `for (v = 0; v < dim; v++) body` — or, when the body drains a
    /// workspace node at exactly this variable, a sorted drain over the
    /// touched keys (the map analog of Figure 9's dense drain loop).
    fn dense_loop(&mut self, var: &IndexVar, body: &ConcreteStmt, ctx: &Ctx) -> Result<Vec<Stmt>> {
        if let Some(ws) = self.drain_at(var, body, ctx)? {
            return self.drain_loop(var, body, &ws, ctx);
        }
        let dim = self
            .var_dims
            .get(var.name())
            .cloned()
            .ok_or_else(|| LowerError::NoRangeForVar(var.name().to_string()))?;
        let inner = self.lower_stmt(body, ctx)?;
        Ok(vec![Stmt::for_(var.name(), Expr::int(0), dim, inner)])
    }

    /// Finds the workspace node the body drains at `var`, if any. The drain
    /// only iterates *touched* keys, so it is valid only when zeroing the
    /// workspace vanishes the body (untouched keys then contribute exactly
    /// what the dense loop's `+= 0` iterations would).
    fn drain_at(
        &self,
        var: &IndexVar,
        body: &ConcreteStmt,
        ctx: &Ctx,
    ) -> Result<Option<String>> {
        let mut found: Vec<String> = Vec::new();
        body.visit(&mut |s| {
            if let ConcreteStmt::Assign { rhs, .. } = s {
                for a in rhs.accesses() {
                    let name = a.tensor().name();
                    let is_drain = ctx.drains.iter().any(|d| d == name)
                        && self.workspaces.get(name).is_some_and(WsInfo::nodes)
                        && a.vars().len() == 1
                        && &a.vars()[0] == var;
                    if is_drain && !found.iter().any(|f| f == name) {
                        found.push(name.to_string());
                    }
                }
            }
        });
        match found.len() {
            0 => Ok(None),
            1 => {
                let ws = found.remove(0);
                let absent: HashSet<String> = std::iter::once(ws.clone()).collect();
                if restrict_stmt(body, &absent).is_some() {
                    return Err(LowerError::Unsupported(format!(
                        "{} workspace `{ws}`: the consumer contributes values at untouched \
                         keys, which a sorted drain over touched keys cannot reproduce",
                        self.workspaces[&ws].kind
                    )));
                }
                Ok(Some(ws))
            }
            _ => Err(LowerError::Unsupported(format!(
                "multiple workspaces ({found:?}) drained in one loop"
            ))),
        }
    }

    /// A sorted `WsDrain` over the touched keys, binding the loop variable
    /// to each key and substituting workspace reads with the drained value.
    fn drain_loop(
        &mut self,
        var: &IndexVar,
        body: &ConcreteStmt,
        ws: &str,
        ctx: &Ctx,
    ) -> Result<Vec<Stmt>> {
        let val = drain_val_name(ws);
        self.drain_val.insert(ws.to_string(), val.clone());
        let inner = self.lower_stmt(body, ctx);
        self.drain_val.remove(ws);
        Ok(vec![Stmt::WsDrain {
            ws: ws.to_string(),
            key: var.name().to_string(),
            val,
            sorted: true,
            body: inner?,
        }])
    }

    /// Format of the named operand/result tensor, for capability queries on
    /// a merge-lattice iterator.
    fn format_of(&self, tensor: &str) -> Result<taco_tensor::Format> {
        self.access_map
            .get(tensor)
            .map(|a| a.tensor().format().clone())
            .ok_or_else(|| LowerError::Unsupported(format!("unknown tensor `{tensor}`")))
    }

    /// Rejects loop drivers that cannot feed an ordered, deduplicated append
    /// into the sparse result: unordered (hashed) levels and non-unique
    /// levels (COO outer coordinates) would emit coordinates out of order or
    /// repeatedly.
    fn check_append_driver(&self, iter: &IterKey, ctx: &Ctx) -> Result<()> {
        if !ctx.append_result {
            return Ok(());
        }
        let fmt = self.format_of(&iter.tensor)?;
        let lt = fmt.mode(iter.level);
        if !lt.is_ordered() || !fmt.level_unique(iter.level) {
            return Err(LowerError::Unsupported(format!(
                "cannot append to sparse result `{}` from level {} of `{}`: append needs an \
                 ordered, duplicate-free driver; convert the operand or precompute into a \
                 workspace",
                self.result.name(),
                iter.level,
                iter.tensor
            )));
        }
        Ok(())
    }

    /// `for (pX = X_pos[parent]; pX < X_pos[parent+1]; pX++) { v = X_crd[pX]; body }`
    ///
    /// Branchless (singleton) levels have no loop of their own: the single
    /// coordinate lives at the parent's position, so this lowers to one
    /// coordinate load with the position passed through.
    fn position_loop(
        &mut self,
        var: &IndexVar,
        body: &ConcreteStmt,
        iter: &IterKey,
        ctx: &Ctx,
    ) -> Result<Vec<Stmt>> {
        self.check_append_driver(iter, ctx)?;
        let fmt = self.format_of(&iter.tensor)?;
        if fmt.mode(iter.level).is_position_passthrough() {
            let parent = self.parent_pos(&iter.tensor, iter.level)?;
            self.pos.insert((iter.tensor.clone(), iter.level), parent.clone());
            let mut out = vec![Stmt::DeclInt(
                var.name().to_string(),
                Expr::load(crd_name(&iter.tensor, iter.level), parent),
            )];
            let lowered = self.lower_stmt(body, ctx);
            self.pos.remove(&(iter.tensor.clone(), iter.level));
            out.extend(lowered?);
            return Ok(out);
        }
        let parent = self.parent_pos(&iter.tensor, iter.level)?;
        let pvar = pos_var(&iter.tensor, iter.level);
        let lo = Expr::load(pos_name(&iter.tensor, iter.level), parent.clone());
        let hi = Expr::load(pos_name(&iter.tensor, iter.level), parent + Expr::int(1));

        self.pos.insert((iter.tensor.clone(), iter.level), Expr::var(&pvar));
        let mut inner = vec![Stmt::DeclInt(
            var.name().to_string(),
            Expr::load(crd_name(&iter.tensor, iter.level), Expr::var(&pvar)),
        )];
        inner.extend(self.lower_stmt(body, ctx)?);
        self.pos.remove(&(iter.tensor.clone(), iter.level));

        Ok(vec![Stmt::for_(pvar, lo, hi, inner)])
    }

    /// Coiteration while loops over a merge lattice (Figures 4a, 5a, 7).
    fn merge_loops(
        &mut self,
        var: &IndexVar,
        body: &ConcreteStmt,
        lattice: &MergeLattice,
        ctx: &Ctx,
    ) -> Result<Vec<Stmt>> {
        let mut out = Vec::new();
        let iters = lattice.iterators();

        // Coiteration advances one cursor per iterator through an ordered
        // pos/crd segment; levels without their own position iteration
        // (singleton) or without coordinate order (hashed) cannot merge.
        for it in &iters {
            let fmt = self.format_of(&it.tensor)?;
            let lt = fmt.mode(it.level);
            if lt.is_position_passthrough() || !lt.is_ordered() || !lt.has_pos_array() {
                return Err(LowerError::Unsupported(format!(
                    "cannot coiterate level {} of `{}` at `{var}`: merging needs ordered \
                     position iteration; convert the operand or precompute into a workspace",
                    it.level, it.tensor
                )));
            }
            self.check_append_driver(it, ctx)?;
        }

        // Position cursors for every iterator, declared before the loops.
        let mut ends: HashMap<IterKey, Expr> = HashMap::new();
        for it in &iters {
            let parent = self.parent_pos(&it.tensor, it.level)?;
            let pvar = pos_var(&it.tensor, it.level);
            out.push(Stmt::DeclInt(
                pvar.clone(),
                Expr::load(pos_name(&it.tensor, it.level), parent.clone()),
            ));
            ends.insert(it.clone(), Expr::load(pos_name(&it.tensor, it.level), parent + Expr::int(1)));
        }

        for lp in lattice.loop_points() {
            let cond = lp
                .iters
                .iter()
                .map(|it| Expr::var(pos_var(&it.tensor, it.level)).lt(ends[it].clone()))
                .reduce(|a, b| a.and(b))
                .ok_or_else(|| {
                    LowerError::Unsupported(format!(
                        "merge lattice for `{var}` produced a loop point with no iterators"
                    ))
                })?;

            let mut loop_body = Vec::new();
            // Candidate coordinates and the merged coordinate.
            for it in &lp.iters {
                loop_body.push(Stmt::DeclInt(
                    coord_var(var, &it.tensor),
                    Expr::load(crd_name(&it.tensor, it.level), Expr::var(pos_var(&it.tensor, it.level))),
                ));
            }
            let merged = lp
                .iters
                .iter()
                .map(|it| Expr::var(coord_var(var, &it.tensor)))
                .reduce(|a, b| a.min(b))
                .ok_or_else(|| {
                    LowerError::Unsupported(format!(
                        "merge lattice for `{var}` produced a loop point with no iterators"
                    ))
                })?;
            loop_body.push(Stmt::DeclInt(var.name().to_string(), merged));

            // Case chain over the sub-points.
            let subs = lattice.sub_points(lp);
            let mut chain: Vec<Stmt> = Vec::new();
            for lq in subs.iter().rev() {
                // Build from the smallest (last) up into else branches.
                let cond = lq
                    .iters
                    .iter()
                    .map(|it| Expr::var(coord_var(var, &it.tensor)).eq(Expr::var(var.name())))
                    .reduce(|a, b| a.and(b))
                    .ok_or_else(|| {
                        LowerError::Unsupported(format!(
                            "merge lattice for `{var}` produced a sub-point with no iterators"
                        ))
                    })?;

                // Restrict the body to this sub-point: iterators absent from
                // it are symbolically zero.
                let absent: HashSet<String> = iters
                    .iter()
                    .filter(|it| !lq.iters.contains(it))
                    .map(|it| it.tensor.clone())
                    .collect();
                // Record positions only for present iterators.
                for it in &lq.iters {
                    self.pos.insert(
                        (it.tensor.clone(), it.level),
                        Expr::var(pos_var(&it.tensor, it.level)),
                    );
                }
                let case_body = match restrict_stmt(body, &absent) {
                    Some(restricted) => self.lower_stmt(&restricted, ctx)?,
                    None => Vec::new(),
                };
                for it in &lq.iters {
                    self.pos.remove(&(it.tensor.clone(), it.level));
                }

                let trivially_true = lp.iters.len() == 1;
                if trivially_true {
                    chain = case_body;
                } else if chain.is_empty() {
                    chain = vec![Stmt::if_(cond, case_body)];
                } else {
                    chain = vec![Stmt::if_else(cond, case_body, chain)];
                }
            }
            loop_body.extend(chain);

            // Conditional cursor advances.
            for it in &lp.iters {
                let pvar = pos_var(&it.tensor, it.level);
                if lp.iters.len() == 1 {
                    loop_body.push(Stmt::incr(&pvar));
                } else {
                    loop_body.push(Stmt::if_(
                        Expr::var(coord_var(var, &it.tensor)).eq(Expr::var(var.name())),
                        vec![Stmt::incr(&pvar)],
                    ));
                }
            }

            out.push(Stmt::while_(cond, loop_body));
        }
        Ok(out)
    }

    /// Iterate the result's own (pre-assembled) sparse structure:
    /// `for (pA = A_pos[i]; ...) { v = A_crd[pA]; body }` (Figure 1d).
    fn result_driven_loop(
        &mut self,
        var: &IndexVar,
        body: &ConcreteStmt,
        ctx: &Ctx,
    ) -> Result<Vec<Stmt>> {
        let l = self.result_sparse_level.expect("result-driven loop implies sparse result");
        let name = self.result.name().to_string();
        let parent = self.access_pos(&self.result_access.clone(), l.wrapping_sub(1).min(l))?;
        let parent = if l == 0 { Expr::int(0) } else { parent };
        let pvar = pos_var(&name, l);
        let lo = Expr::load(pos_name(&name, l), parent.clone());
        let hi = Expr::load(pos_name(&name, l), parent + Expr::int(1));

        self.pos.insert((name.clone(), l), Expr::var(&pvar));
        let mut inner = vec![Stmt::DeclInt(
            var.name().to_string(),
            Expr::load(crd_name(&name, l), Expr::var(&pvar)),
        )];
        inner.extend(self.lower_stmt(body, ctx)?);
        self.pos.remove(&(name, l));

        Ok(vec![Stmt::for_(pvar, lo, hi, inner)])
    }

    /// Drains the assembling workspace the body reads into one result row
    /// (Figure 8 lines 22–36): each touched coordinate, in ascending order
    /// under `sort_output`, appends one result nonzero.
    fn row_drain(&mut self, var: &IndexVar, body: &ConcreteStmt, ctx: &Ctx) -> Result<Vec<Stmt>> {
        let ws = body
            .assignments()
            .iter()
            .find_map(|s| {
                if let ConcreteStmt::Assign { rhs, .. } = s {
                    rhs.accesses()
                        .iter()
                        .map(|a| a.tensor().name().to_string())
                        .find(|n| self.workspaces.get(n).is_some_and(|w| w.assembles))
                } else {
                    None
                }
            })
            .ok_or_else(|| {
                LowerError::Unsupported(format!(
                    "sparse result at `{var}` needs a workspace to assemble from; precompute \
                     into a workspace first"
                ))
            })?;

        let l = self.result_sparse_level.expect("a row drain implies a sparse result");
        self.append_used = true;
        self.ensure_counter();
        let counter = self.counter_name();
        let val = drain_val_name(&ws);

        self.pos.insert((self.result.name().to_string(), l), Expr::var(&counter));
        self.drain_val.insert(ws.clone(), val.clone());

        // Grow the crd (and value) arrays by doubling (Figure 8 lines 26-29).
        let crd = crd_name(self.result.name(), l);
        let mut inner = vec![Stmt::if_(
            Expr::len(&crd).le(Expr::var(&counter)),
            vec![Stmt::Realloc {
                arr: crd.clone(),
                len: (Expr::var(&counter) + Expr::int(1)) * Expr::int(2),
            }],
        )];
        inner.push(Stmt::store(&crd, Expr::var(&counter), Expr::var(var.name())));
        let lowered = if self.opts.kind == KernelKind::Fused {
            let vals = self.result.name().to_string();
            inner.push(Stmt::if_(
                Expr::len(&vals).le(Expr::var(&counter)),
                vec![Stmt::Realloc {
                    arr: vals.clone(),
                    len: (Expr::var(&counter) + Expr::int(1)) * Expr::int(2),
                }],
            ));
            self.lower_stmt(body, ctx)
        } else {
            // Assemble kernels append structure only.
            Ok(Vec::new())
        };
        self.drain_val.remove(&ws);
        self.pos.remove(&(self.result.name().to_string(), l));
        inner.extend(lowered?);
        inner.push(Stmt::incr(&counter));

        Ok(vec![Stmt::WsDrain {
            ws,
            key: var.name().to_string(),
            val,
            sorted: self.opts.sort_output,
            body: inner,
        }])
    }

    fn ensure_counter(&mut self) {
        if !self.counter_declared {
            self.counter_declared = true;
            let c = self.counter_name();
            self.preamble.insert(0, Stmt::DeclInt(c, Expr::int(0)));
        }
    }

    // -- assignments ---------------------------------------------------------

    fn lower_assign(
        &mut self,
        lhs: &Access,
        op: AssignOp,
        rhs: &IndexExpr,
        ctx: &Ctx,
    ) -> Result<Vec<Stmt>> {
        let mut out = Vec::new();
        let lhs_name = lhs.tensor().name().to_string();
        let assemble = self.opts.kind == KernelKind::Assemble;

        // Workspace nodes track their own keys, so an assemble kernel
        // records the coordinate with a zero-valued scatter.
        let nodes = self.workspaces.get(&lhs_name).is_some_and(WsInfo::nodes);
        if assemble && nodes {
            out.push(Stmt::WsScatter {
                ws: lhs_name.clone(),
                key: Expr::var(lhs.vars()[0].name()),
                val: Expr::float(0.0),
                add: false,
            });
        }
        // Appending to the sparse result inside a sparse-driven loop
        // (Figure 5a): write the coordinate (fused/assemble), then the
        // value, then bump the counter.
        let appending = ctx.append_result && lhs_name == self.result.name();
        if appending && self.opts.kind != KernelKind::Compute {
            let l = self.result_sparse_level.expect("append implies sparse result");
            let counter = self.counter_name();
            let crd = crd_name(&lhs_name, l);
            out.push(Stmt::if_(
                Expr::len(&crd).le(Expr::var(&counter)),
                vec![Stmt::Realloc {
                    arr: crd.clone(),
                    len: (Expr::var(&counter) + Expr::int(1)) * Expr::int(2),
                }],
            ));
            out.push(Stmt::store(&crd, Expr::var(&counter), Expr::var(lhs.vars()[l].name())));
            if self.opts.kind == KernelKind::Fused {
                out.push(Stmt::if_(
                    Expr::len(&lhs_name).le(Expr::var(&counter)),
                    vec![Stmt::Realloc {
                        arr: lhs_name.clone(),
                        len: (Expr::var(&counter) + Expr::int(1)) * Expr::int(2),
                    }],
                ));
            }
        }
        if assemble {
            // Symbolic kernels skip all value computation.
            if appending {
                out.push(Stmt::incr(&self.counter_name()));
            }
            return Ok(out);
        }

        let val = self.value_expr(rhs)?;

        if self.scalar_temps.contains(&lhs_name) {
            match op {
                AssignOp::Assign => out.push(Stmt::assign(&lhs_name, val)),
                AssignOp::Accum => {
                    out.push(Stmt::assign(&lhs_name, Expr::var(&lhs_name) + val))
                }
            }
        } else if self.workspaces.contains_key(&lhs_name) {
            if nodes {
                out.push(Stmt::WsScatter {
                    ws: lhs_name.clone(),
                    key: Expr::var(lhs.vars()[0].name()),
                    val,
                    add: op == AssignOp::Accum,
                });
            } else {
                let off = self.ws_offset(lhs)?;
                match op {
                    AssignOp::Assign => out.push(Stmt::store(&lhs_name, off, val)),
                    AssignOp::Accum => out.push(Stmt::store_add(&lhs_name, off, val)),
                }
            }
        } else {
            // The result tensor.
            let l = self.result.rank() - 1;
            let pos = self.access_pos(lhs, l)?;
            match op {
                AssignOp::Assign => out.push(Stmt::store(&lhs_name, pos, val)),
                AssignOp::Accum => out.push(Stmt::store_add(&lhs_name, pos, val)),
            }
        }

        // Drain read workspaces (Figures 1d line 14, 5b line 16, 9 line 22).
        // Workspace nodes are emptied by their `WsDrain` instead.
        for a in rhs.accesses() {
            let name = a.tensor().name();
            if ctx.drains.iter().any(|d| d == name)
                && self.workspaces.get(name).is_some_and(|w| !w.nodes())
            {
                let off = self.ws_offset(a)?;
                out.push(Stmt::store(name, off, Expr::float(0.0)));
            }
        }
        if appending {
            out.push(Stmt::incr(&self.counter_name()));
        }
        Ok(out)
    }

    fn value_expr(&mut self, e: &IndexExpr) -> Result<Expr> {
        Ok(match e {
            IndexExpr::Access(a) => {
                let name = a.tensor().name();
                if self.scalar_temps.contains(name) {
                    Expr::var(name)
                } else if let Some(v) = self.drain_val.get(name) {
                    // Inside this workspace's drain: the value is bound.
                    Expr::var(v)
                } else if self.workspaces.contains_key(name) {
                    let off = self.ws_offset(a)?;
                    Expr::load(name, off)
                } else {
                    let pos = self.access_pos(a, a.tensor().rank() - 1)?;
                    Expr::load(name, pos)
                }
            }
            IndexExpr::Literal(v) => Expr::float(*v),
            IndexExpr::Neg(a) => -self.value_expr(a)?,
            IndexExpr::Add(a, b) => self.value_expr(a)? + self.value_expr(b)?,
            IndexExpr::Sub(a, b) => self.value_expr(a)? - self.value_expr(b)?,
            IndexExpr::Mul(a, b) => self.value_expr(a)? * self.value_expr(b)?,
            IndexExpr::Sum(..) => {
                return Err(LowerError::Unsupported(
                    "Sum node in concrete index notation".to_string(),
                ))
            }
        })
    }

    /// Row-major offset into a dense workspace.
    fn ws_offset(&self, a: &Access) -> Result<Expr> {
        let info = &self.workspaces[a.tensor().name()];
        let mut off = Expr::var(a.vars()[0].name());
        for (n, v) in a.vars().iter().enumerate().skip(1) {
            off = off * info.dims[n].clone() + Expr::var(v.name());
        }
        Ok(off)
    }

    /// Position of `a` at storage `level`, asking each level for its access
    /// capability: locatable levels fold a dense offset from the bound index
    /// variable; all other levels need a position bound by an enclosing
    /// iteration (position loops, coiteration, or singleton pass-through).
    fn access_pos(&self, a: &Access, level: usize) -> Result<Expr> {
        let name = a.tensor().name();
        let fmt = a.tensor().format().clone();
        let mut pos = Expr::int(0);
        for l in 0..=level {
            if fmt.mode(l).has_locate() {
                let var = &a.vars()[fmt.mode_of_level(l)];
                if !self.enclosing.contains(var) {
                    return Err(LowerError::UnboundVariable {
                        tensor: name.to_string(),
                        var: var.name().to_string(),
                    });
                }
                let dim = Expr::var(dim_name(name, l));
                let v = Expr::var(var.name());
                pos = pos * dim + v;
            } else {
                pos = self
                    .pos
                    .get(&(name.to_string(), l))
                    .cloned()
                    .ok_or(LowerError::CannotLocateSparse {
                        tensor: name.to_string(),
                        level: l,
                    })?;
            }
        }
        Ok(pos)
    }

    /// Parent position of a compressed level being iterated: the position
    /// reached after resolving the level above it.
    fn parent_pos(&self, tensor: &str, level: usize) -> Result<Expr> {
        if level == 0 {
            return Ok(Expr::int(0));
        }
        let access = self
            .access_map
            .get(tensor)
            .cloned()
            .ok_or_else(|| LowerError::Unsupported(format!("unknown tensor `{tensor}`")))?;
        self.access_pos(&access, level - 1)
    }
}

// -- free helpers ------------------------------------------------------------

fn pos_var(tensor: &str, level: usize) -> String {
    format!("p{tensor}{}", level + 1)
}
fn coord_var(var: &IndexVar, tensor: &str) -> String {
    format!("{}{}", var.name(), tensor)
}
fn drain_val_name(ws: &str) -> String {
    format!("{ws}_val")
}

fn collect_producer_written(stmt: &ConcreteStmt, in_producer: bool, out: &mut HashSet<String>) {
    match stmt {
        ConcreteStmt::Assign { lhs, .. } => {
            if in_producer {
                out.insert(lhs.tensor().name().to_string());
            }
        }
        ConcreteStmt::Forall { body, .. } => collect_producer_written(body, in_producer, out),
        ConcreteStmt::Where { consumer, producer } => {
            collect_producer_written(consumer, in_producer, out);
            collect_producer_written(producer, true, out);
        }
        ConcreteStmt::Sequence { first, second } => {
            collect_producer_written(first, in_producer, out);
            collect_producer_written(second, in_producer, out);
        }
    }
}

fn writes_tensor(stmt: &ConcreteStmt, name: &str) -> bool {
    stmt.written_tensors().iter().any(|t| t == name)
}

/// Tensors written by `stmt` outside any nested where-producer — the
/// temporaries a where statement is directly responsible for.
fn direct_written(stmt: &ConcreteStmt) -> Vec<String> {
    fn go(stmt: &ConcreteStmt, out: &mut Vec<String>) {
        match stmt {
            ConcreteStmt::Assign { lhs, .. } => {
                let name = lhs.tensor().name().to_string();
                if !out.contains(&name) {
                    out.push(name);
                }
            }
            ConcreteStmt::Forall { body, .. } => go(body, out),
            // A nested where's producer writes belong to that where.
            ConcreteStmt::Where { consumer, .. } => go(consumer, out),
            ConcreteStmt::Sequence { first, second } => {
                go(first, out);
                go(second, out);
            }
        }
    }
    let mut out = Vec::new();
    go(stmt, &mut out);
    out
}

/// True when the consumer's loop over the result's sparse-level variable
/// has no sparse operand driving it, so assembly must drain the workspace's
/// own coordinates (Figure 8 lines 22–36). When another tensor's sparsity
/// drives that loop, result coordinates come from the driver's `crd` array
/// instead.
fn workspace_drives_row(consumer: &ConcreteStmt, rv: &IndexVar) -> bool {
    let mut driven = false;
    consumer.visit(&mut |s| {
        if let ConcreteStmt::Forall { var, body, .. } = s {
            if var == rv {
                let lattice = match combined_rhs(body, var) {
                    Some(e) => MergeLattice::build(&e, var),
                    None => MergeLattice { points: Vec::new() },
                };
                if lattice.points.is_empty() || lattice.is_dense() {
                    driven = true;
                }
            }
        }
    });
    driven
}

/// True if the where-consumer assigns the workspace's values into the
/// result.
fn consumer_feeds_result(consumer: &ConcreteStmt, ws: &str, result: &str) -> bool {
    let mut feeds = false;
    consumer.visit(&mut |s| {
        if let ConcreteStmt::Assign { lhs, rhs, .. } = s {
            if lhs.tensor().name() == result && rhs.uses_tensor(ws) {
                feeds = true;
            }
        }
    });
    feeds
}

/// Folds the assignment right-hand sides in the statement into one
/// expression for iterator analysis at `v`, *substituting workspace reads
/// with their producers' expressions*.
///
/// A where-consumer's contribution at an outer loop variable is gated by
/// what its producer computed there: in Figure 9 the consumer
/// `A(i,j) += w(j)*D(k,j)` only contributes where `w` is nonzero, i.e.
/// where `B(i,k,l)*C(l,j)` has entries — so the `i` and `k` loops iterate
/// `B`'s sparse hierarchy, not a union with the dense `D`. Substituting
/// `w -> B*C` recovers exactly the pre-transformation expression, whose
/// lattice gives the correct iteration domains (the workspace
/// transformation preserves semantics). Only workspaces *produced inside
/// this statement* are substituted; reads of workspaces produced by
/// enclosing statements stay dense accesses (they drive dense or
/// coordinate-list loops).
///
/// Expressions that do not use `v` at all constrain nothing at this loop
/// and are dropped.
fn combined_rhs(stmt: &ConcreteStmt, v: &IndexVar) -> Option<IndexExpr> {
    let mut env: HashMap<String, IndexExpr> = HashMap::new();
    let mut exprs: Vec<IndexExpr> = Vec::new();
    collect_substituted(stmt, &mut env, &mut exprs);
    exprs
        .into_iter()
        .filter(|e| e.uses_var(v))
        .reduce(|a, b| IndexExpr::Add(Box::new(a), Box::new(b)))
}

/// Walks the statement in execution order, recording substituted producer
/// expressions per written tensor and collecting every assignment's
/// substituted rhs.
fn collect_substituted(
    stmt: &ConcreteStmt,
    env: &mut HashMap<String, IndexExpr>,
    out: &mut Vec<IndexExpr>,
) {
    match stmt {
        ConcreteStmt::Assign { lhs, rhs, .. } => {
            let sub = subst_expr(rhs, env);
            out.push(sub.clone());
            let name = lhs.tensor().name().to_string();
            // Accumulating writes extend the tensor's definition (sequence
            // statements: `w = B ; w += C` defines w as B + C).
            let def = match env.remove(&name) {
                Some(prev) => IndexExpr::Add(Box::new(prev), Box::new(sub)),
                None => sub,
            };
            env.insert(name, def);
        }
        ConcreteStmt::Forall { body, .. } => collect_substituted(body, env, out),
        ConcreteStmt::Where { consumer, producer } => {
            collect_substituted(producer, env, out);
            collect_substituted(consumer, env, out);
        }
        ConcreteStmt::Sequence { first, second } => {
            collect_substituted(first, env, out);
            collect_substituted(second, env, out);
        }
    }
}

/// Replaces reads of defined tensors with their definitions (for lattice
/// analysis only — index variables are not remapped).
fn subst_expr(e: &IndexExpr, env: &HashMap<String, IndexExpr>) -> IndexExpr {
    match e {
        IndexExpr::Access(a) => match env.get(a.tensor().name()) {
            Some(def) => def.clone(),
            None => e.clone(),
        },
        IndexExpr::Literal(_) => e.clone(),
        IndexExpr::Neg(a) => IndexExpr::Neg(Box::new(subst_expr(a, env))),
        IndexExpr::Add(a, b) => {
            IndexExpr::Add(Box::new(subst_expr(a, env)), Box::new(subst_expr(b, env)))
        }
        IndexExpr::Sub(a, b) => {
            IndexExpr::Sub(Box::new(subst_expr(a, env)), Box::new(subst_expr(b, env)))
        }
        IndexExpr::Mul(a, b) => {
            IndexExpr::Mul(Box::new(subst_expr(a, env)), Box::new(subst_expr(b, env)))
        }
        IndexExpr::Sum(..) => unreachable!("concrete index notation contains no Sum nodes"),
    }
}

/// Symbolically zeroes the `absent` tensors in the statement, simplifying
/// expressions; returns `None` when the whole statement vanishes
/// (Section VI: "the concrete index notation substatement is rewritten to
/// remove them by symbolically setting them to zero").
fn restrict_stmt(stmt: &ConcreteStmt, absent: &HashSet<String>) -> Option<ConcreteStmt> {
    match stmt {
        ConcreteStmt::Assign { lhs, op, rhs } => match restrict_expr(rhs, absent) {
            Some(r) => Some(ConcreteStmt::Assign { lhs: lhs.clone(), op: *op, rhs: r }),
            None => match op {
                AssignOp::Accum => None,
                AssignOp::Assign => Some(ConcreteStmt::Assign {
                    lhs: lhs.clone(),
                    op: *op,
                    rhs: IndexExpr::Literal(0.0),
                }),
            },
        },
        ConcreteStmt::Forall { var, body, parallel } => {
            restrict_stmt(body, absent).map(|b| ConcreteStmt::Forall {
                var: var.clone(),
                body: Box::new(b),
                parallel: *parallel,
            })
        }
        ConcreteStmt::Where { consumer, producer } => {
            let c = restrict_stmt(consumer, absent)?;
            match restrict_stmt(producer, absent) {
                Some(p) => Some(ConcreteStmt::where_(c, p)),
                None => Some(c),
            }
        }
        ConcreteStmt::Sequence { first, second } => {
            match (restrict_stmt(first, absent), restrict_stmt(second, absent)) {
                (Some(f), Some(s)) => Some(ConcreteStmt::sequence(f, s)),
                (Some(f), None) => Some(f),
                (None, Some(s)) => Some(s),
                (None, None) => None,
            }
        }
    }
}

fn restrict_expr(e: &IndexExpr, absent: &HashSet<String>) -> Option<IndexExpr> {
    match e {
        IndexExpr::Access(a) => {
            if absent.contains(a.tensor().name()) {
                None
            } else {
                Some(e.clone())
            }
        }
        IndexExpr::Literal(_) => Some(e.clone()),
        IndexExpr::Neg(a) => restrict_expr(a, absent).map(|r| IndexExpr::Neg(Box::new(r))),
        IndexExpr::Add(a, b) => match (restrict_expr(a, absent), restrict_expr(b, absent)) {
            (Some(x), Some(y)) => Some(IndexExpr::Add(Box::new(x), Box::new(y))),
            (Some(x), None) => Some(x),
            (None, Some(y)) => Some(y),
            (None, None) => None,
        },
        IndexExpr::Sub(a, b) => match (restrict_expr(a, absent), restrict_expr(b, absent)) {
            (Some(x), Some(y)) => Some(IndexExpr::Sub(Box::new(x), Box::new(y))),
            (Some(x), None) => Some(x),
            (None, Some(y)) => Some(IndexExpr::Neg(Box::new(y))),
            (None, None) => None,
        },
        IndexExpr::Mul(a, b) => match (restrict_expr(a, absent), restrict_expr(b, absent)) {
            (Some(x), Some(y)) => Some(IndexExpr::Mul(Box::new(x), Box::new(y))),
            _ => None,
        },
        IndexExpr::Sum(..) => unreachable!("concrete index notation contains no Sum nodes"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_ir::concretize::concretize;
    use taco_ir::expr::sum;
    use taco_ir::notation::IndexAssignment;
    use taco_ir::transform;
    use taco_tensor::Format;

    fn iv(n: &str) -> IndexVar {
        IndexVar::new(n)
    }

    fn scheduled_spgemm(n: usize) -> ConcreteStmt {
        let a = TensorVar::new("A", vec![n, n], Format::csr());
        let b = TensorVar::new("B", vec![n, n], Format::csr());
        let c = TensorVar::new("C", vec![n, n], Format::csr());
        let (i, j, k) = (iv("i"), iv("j"), iv("k"));
        let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
        let s = concretize(&IndexAssignment::assign(
            a.access([i.clone(), j.clone()]),
            sum(k.clone(), mul.clone()),
        ))
        .unwrap();
        let s = transform::reorder(&s, &k, &j).unwrap();
        let w = TensorVar::new("w", vec![n], Format::dvec());
        transform::precompute(&s, &mul, &[(j.clone(), j.clone(), j.clone())], &w).unwrap()
    }

    #[test]
    fn parameter_naming_convention() {
        let lk = lower(&scheduled_spgemm(8), &LowerOptions::fused("k")).unwrap();
        let names: Vec<&str> =
            lk.kernel.array_params.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            ["B2_pos", "B2_crd", "B", "C2_pos", "C2_crd", "C", "A2_pos", "A2_crd", "A"]
        );
        assert_eq!(
            lk.kernel.scalar_params,
            ["B1_dim", "B2_dim", "C1_dim", "C2_dim", "A1_dim", "A2_dim"]
        );
        assert_eq!(lk.nnz_output.as_deref(), Some("pA2"));
    }

    #[test]
    fn operand_order_is_first_use() {
        let lk = lower(&scheduled_spgemm(8), &LowerOptions::fused("k")).unwrap();
        let ops: Vec<&str> = lk.operands.iter().map(|t| t.name()).collect();
        assert_eq!(ops, ["B", "C"]);
        assert_eq!(lk.result.name(), "A");
    }

    #[test]
    fn assemble_kernel_has_no_value_arrays() {
        let lk = lower(&scheduled_spgemm(8), &LowerOptions::assemble("k")).unwrap();
        let names: Vec<&str> =
            lk.kernel.array_params.iter().map(|p| p.name.as_str()).collect();
        assert!(!names.contains(&"B"), "operand values excluded: {names:?}");
        assert!(!names.contains(&"A"), "result values excluded: {names:?}");
        assert!(names.contains(&"A2_crd"));
        // No floating point stores anywhere in the body.
        assert!(!lk.kernel.to_c().contains("A["));
    }

    #[test]
    fn compute_kernel_takes_preassembled_structure_as_input() {
        let lk = lower(&scheduled_spgemm(8), &LowerOptions::compute("k")).unwrap();
        let pos = lk
            .kernel
            .array_params
            .iter()
            .find(|p| p.name == "A2_pos")
            .expect("pos param exists");
        assert_eq!(pos.kind, taco_llir::ParamKind::Input);
        assert!(lk.nnz_output.is_none());
    }

    /// The first statement of the kernel body `pick` chooses.
    fn find<T>(lk: &LoweredKernel, pick: impl Fn(&Stmt) -> Option<T>) -> T {
        let mut found = None;
        taco_llir::visit_stmts(&lk.kernel.body, &mut |s| found = found.take().or_else(|| pick(s)));
        found.expect("the kernel has the statement")
    }

    #[test]
    fn unsorted_option_drops_the_sort() {
        let sorted_drain = |opts: &LowerOptions| {
            let lk = lower(&scheduled_spgemm(8), opts).unwrap();
            find(&lk, |s| match s {
                Stmt::WsDrain { sorted, .. } => Some(*sorted),
                _ => None,
            })
        };
        assert!(sorted_drain(&LowerOptions::fused("k")));
        assert!(!sorted_drain(&LowerOptions::fused("k").unsorted()));
    }

    #[test]
    fn f32_workspace_allocates_float() {
        let lk = lower(
            &scheduled_spgemm(8),
            &LowerOptions::fused("k").with_f32_workspaces(),
        )
        .unwrap();
        let ty = find(&lk, |s| match s {
            Stmt::WsInit { ty, .. } => Some(*ty),
            _ => None,
        });
        assert_eq!(ty, ArrayTy::F32);
    }

    /// The workspace extents and every other expression come from the
    /// dimension parameters: a kernel does not depend on the shapes it was
    /// lowered at.
    #[test]
    fn kernels_do_not_depend_on_the_shapes_they_are_lowered_at() {
        fn add3(n: usize) -> ConcreteStmt {
            let (i, j) = (iv("i"), iv("j"));
            let t = |name: &str| TensorVar::new(name, vec![n, n + 3], Format::csr());
            let term = |name: &str| -> IndexExpr { t(name).access([i.clone(), j.clone()]).into() };
            let sum3 = term("B") + term("C") + term("D");
            let lhs = t("A").access([i.clone(), j.clone()]);
            concretize(&IndexAssignment::assign(lhs, sum3)).unwrap()
        }
        fn spmv(n: usize) -> ConcreteStmt {
            let y = TensorVar::new("y", vec![n], Format::dvec());
            let b = TensorVar::new("B", vec![n, 2 * n], Format::csr());
            let x = TensorVar::new("x", vec![2 * n], Format::dvec());
            let (i, j) = (iv("i"), iv("j"));
            let bx = b.access([i.clone(), j.clone()]) * x.access([j.clone()]);
            concretize(&IndexAssignment::assign(y.access([i]), sum(j, bx))).unwrap()
        }
        fn mttkrp(n: usize) -> ConcreteStmt {
            let a = TensorVar::new("A", vec![n, 4], Format::dense(2));
            let b = TensorVar::new("B", vec![n, n + 1, n + 2], Format::csf3());
            let c = TensorVar::new("C", vec![n + 2, 4], Format::dense(2));
            let d = TensorVar::new("D", vec![n + 1, 4], Format::dense(2));
            let (i, j, k, l) = (iv("i"), iv("j"), iv("k"), iv("l"));
            let bc = b.access([i.clone(), k.clone(), l.clone()]) * c.access([l.clone(), j.clone()]);
            let s = concretize(&IndexAssignment::assign(
                a.access([i, j.clone()]),
                sum(k.clone(), sum(l.clone(), bc.clone() * d.access([k.clone(), j.clone()]))),
            ))
            .unwrap();
            let s = transform::reorder(&transform::reorder(&s, &j, &k).unwrap(), &j, &l).unwrap();
            let w = TensorVar::new("w", vec![4], Format::dvec());
            transform::precompute(&s, &bc, &[(j.clone(), j.clone(), j)], &w).unwrap()
        }
        let cases = [
            (scheduled_spgemm(8), scheduled_spgemm(13), LowerOptions::fused("spgemm")),
            (add3(8), add3(13), LowerOptions::fused("add3")),
            (mttkrp(8), mttkrp(13), LowerOptions::compute("mttkrp")),
            (spmv(8), spmv(13), LowerOptions::compute("spmv")),
        ];
        for (small, large, opts) in cases {
            for kind in [WorkspaceKind::Dense, WorkspaceKind::Hash, WorkspaceKind::CoordList] {
                let opts = opts.clone().with_workspace_kind(kind);
                let (small, large) = (lower(&small, &opts).unwrap(), lower(&large, &opts).unwrap());
                assert_eq!(small.kernel, large.kernel, "`{}` under {kind}", opts.name);
            }
        }
    }

    #[test]
    fn dense_union_is_rejected() {
        // a(i) = b(i) + d(i) with sparse b and dense d coiterated at i.
        let n = 8;
        let a = TensorVar::new("a", vec![n], Format::svec());
        let b = TensorVar::new("b", vec![n], Format::svec());
        let d = TensorVar::new("d", vec![n], Format::dvec());
        let i = iv("i");
        let s = concretize(&IndexAssignment::assign(
            a.access([i.clone()]),
            b.access([i.clone()]) + d.access([i.clone()]),
        ))
        .unwrap();
        assert_eq!(
            lower(&s, &LowerOptions::fused("k")).unwrap_err(),
            LowerError::DenseUnionUnsupported("i".into())
        );
    }

    #[test]
    fn non_innermost_compressed_result_is_rejected() {
        // A result in (s, d) format: compressed level is not innermost.
        let n = 8;
        let a = TensorVar::new(
            "A",
            vec![n, n],
            Format::new(vec![
                taco_tensor::LevelType::Compressed,
                taco_tensor::LevelType::Dense,
            ]),
        );
        let b = TensorVar::new("B", vec![n, n], Format::csr());
        let (i, j) = (iv("i"), iv("j"));
        let s = concretize(&IndexAssignment::assign(
            a.access([i.clone(), j.clone()]),
            IndexExpr::from(b.access([i.clone(), j.clone()])),
        ))
        .unwrap();
        assert_eq!(
            lower(&s, &LowerOptions::compute("k")).unwrap_err(),
            LowerError::UnsupportedResultFormat("A".into())
        );
    }

    #[test]
    fn restrict_stmt_zeroes_absent_operands() {
        let n = 4;
        let a = TensorVar::new("a", vec![n], Format::dvec());
        let b = TensorVar::new("b", vec![n], Format::svec());
        let c = TensorVar::new("c", vec![n], Format::svec());
        let i = iv("i");
        let stmt = ConcreteStmt::assign(
            a.access([i.clone()]),
            AssignOp::Assign,
            b.access([i.clone()]) + c.access([i.clone()]),
        );
        let mut absent = HashSet::new();
        absent.insert("c".to_string());
        let restricted = restrict_stmt(&stmt, &absent).unwrap();
        match restricted {
            ConcreteStmt::Assign { rhs, .. } => assert_eq!(rhs.to_string(), "b(i)"),
            other => panic!("expected assignment, got {other:?}"),
        }
        // Zeroing everything drops an accumulation entirely.
        absent.insert("b".to_string());
        let accum = ConcreteStmt::assign(
            a.access([i.clone()]),
            AssignOp::Accum,
            b.access([i.clone()]) + c.access([i.clone()]),
        );
        assert!(restrict_stmt(&accum, &absent).is_none());
    }

    #[test]
    fn combined_rhs_substitutes_workspace_producers() {
        // The MTTKRP consumer's lattice at k must see B through w.
        let n = 8;
        let a = TensorVar::new("A", vec![n, n], Format::dense(2));
        let b = TensorVar::new("B", vec![n, n, n], Format::csf3());
        let c = TensorVar::new("C", vec![n, n], Format::dense(2));
        let d = TensorVar::new("D", vec![n, n], Format::dense(2));
        let (i, j, k, l) = (iv("i"), iv("j"), iv("k"), iv("l"));
        let bc = b.access([i.clone(), k.clone(), l.clone()]) * c.access([l.clone(), j.clone()]);
        let s = concretize(&IndexAssignment::assign(
            a.access([i.clone(), j.clone()]),
            sum(k.clone(), sum(l.clone(), bc.clone() * d.access([k.clone(), j.clone()]))),
        ))
        .unwrap();
        let s = transform::reorder(&s, &j, &k).unwrap();
        let s = transform::reorder(&s, &j, &l).unwrap();
        let w = TensorVar::new("w", vec![n], Format::dvec());
        let s = transform::precompute(&s, &bc, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();

        // Drill to the ∀k body (below ∀i).
        let ConcreteStmt::Forall { body: bi, .. } = &s else { panic!("expected ∀i") };
        let ConcreteStmt::Forall { var, body: bk, .. } = &**bi else { panic!("expected ∀k") };
        assert_eq!(var.name(), "k");
        let combined = combined_rhs(bk, &iv("k")).expect("k used");
        let lat = MergeLattice::build(&combined, &iv("k"));
        // Single intersection point driven by B's level 1 — no dense union
        // from the consumer's D access.
        assert!(!lat.has_dense_union());
        assert_eq!(lat.loop_points().len(), 1);
        assert_eq!(lat.loop_points()[0].iters[0].tensor, "B");
    }
}
