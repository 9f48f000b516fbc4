//! The abstract interpreter: definite initialization, workspace reset
//! obligations, symbolic bounds, and pos-counter monotonicity.
//!
//! One walk over the kernel threads the abstract domains of DESIGN.md §12:
//!
//! * **Definedness** — which arrays have defined contents. Only `Output`
//!   parameters start undefined; an `Alloc` (calloc) or a `Memset` defines
//!   an array. Reading or accumulating into an undefined array is
//!   [`VerifyError::UninitializedRead`].
//! * **Zeroness** — whether a kernel-local workspace is all zeros between
//!   iterations of its *phase loop* (the outermost loop using it). If the
//!   first use in an iteration assumes cleanliness (any read or
//!   accumulation not dominated by a `Memset`), the iteration must also
//!   restore cleanliness before it ends, or the next iteration observes
//!   stale state — [`VerifyError::MissingReset`].
//! * **Bounds** — every array index is checked against the array's known
//!   length with the [`crate::sym`] engine. A provable violation is
//!   [`VerifyError::OutOfBounds`] (deny); an undischarged obligation is
//!   [`VerifyError::Unproven`] (warn).
//! * **Monotonicity** — scalars stored into a kernel-written `pos` array
//!   may only ever increase ([`VerifyError::PosNotMonotone`]).
//!
//! Parallel loops additionally run the write-set race check in
//! [`crate::race`], fed by the footprints this walk records.

use std::collections::{HashMap, HashSet};

use taco_llir::{stmt_to_c, visit_stmts, BinOp, Expr, Kernel, ParamKind, Stmt, UnOp, WorkspaceKind};

use crate::assume::Assumptions;
use crate::error::{Diagnostic, Severity, VerifyError};
use crate::race::{self, RaceCtx, WriteKind};
use crate::sym::{Atom, Bounds, Sym};

/// The walking interpreter.
pub(crate) struct Analyzer<'a> {
    pub(crate) assume: &'a Assumptions,
    /// Current symbolic value per integer scalar.
    env: HashMap<String, Sym>,
    pub(crate) bounds: Bounds,
    /// Known lower bound on each array's length, with an exactness flag
    /// (`true` when the bound is the precise length).
    lens: HashMap<String, (Sym, bool)>,
    /// Arrays whose contents are defined.
    defined: HashSet<String>,
    /// Arrays that are kernel parameters or locals (definedness applies).
    known_arrays: HashSet<String>,
    /// Kernel-local arrays introduced by `Alloc`.
    pub(crate) locals: HashSet<String>,
    /// Scalars declared as float/bool (excluded from the integer env).
    non_int: HashSet<String>,
    fresh: u64,
    pub(crate) diags: Vec<Diagnostic>,
    pub(crate) notes: Vec<String>,
    path: Vec<usize>,
    /// Active parallel-loop contexts, innermost last; every array access
    /// inside a parallel body is recorded into each active context.
    race_stack: Vec<RaceCtx>,
    /// Arrays already reported as read-uninitialized (one diagnostic each).
    reported_undef: HashSet<String>,
    /// Workspaces established by a `WsInit` on the current path.
    inited_ws: HashSet<String>,
    /// Dense workspaces: their keys index arrays over `[0, extent)`, which
    /// `lens` records under the workspace's name.
    dense_ws: HashSet<String>,
    /// Workspaces already reported as used-before-init (one diagnostic
    /// each).
    reported_ws: HashSet<String>,
}

impl<'a> Analyzer<'a> {
    pub(crate) fn new(kernel: &Kernel, assume: &'a Assumptions) -> Analyzer<'a> {
        let mut a = Analyzer {
            assume,
            env: HashMap::new(),
            bounds: Bounds::default(),
            lens: assume.lens.iter().map(|(k, v)| (k.clone(), (v.clone(), true))).collect(),
            defined: HashSet::new(),
            known_arrays: HashSet::new(),
            locals: HashSet::new(),
            non_int: HashSet::new(),
            fresh: 0,
            diags: Vec::new(),
            notes: Vec::new(),
            path: Vec::new(),
            race_stack: Vec::new(),
            reported_undef: HashSet::new(),
            inited_ws: HashSet::new(),
            dense_ws: HashSet::new(),
            reported_ws: HashSet::new(),
        };
        for p in &kernel.array_params {
            a.known_arrays.insert(p.name.clone());
            if p.kind != ParamKind::Output {
                a.defined.insert(p.name.clone());
            }
        }
        // Scalar parameters (dimensions, extents) are nonnegative atoms,
        // canonicalized so equal-extent dimensions share one atom.
        for s in &kernel.scalar_params {
            let canon = assume.canon_dim(s);
            a.env.insert(s.clone(), Sym::var(canon));
        }
        a
    }

    pub(crate) fn diag(&mut self, error: VerifyError, severity: Severity, stmt: &Stmt) {
        self.diag_at(error, severity, self.path.clone(), stmt);
    }

    pub(crate) fn diag_at(
        &mut self,
        error: VerifyError,
        severity: Severity,
        path: Vec<usize>,
        stmt: &Stmt,
    ) {
        self.diags.push(Diagnostic { error, severity, path, stmt: stmt_to_c(stmt), origin: None });
    }

    fn fresh_atom(&mut self) -> Atom {
        self.fresh += 1;
        Atom::Opaque(self.fresh)
    }

    /// Evaluates an integer-valued expression to a symbolic polynomial.
    /// Non-affine operators and unknown loads become opaque atoms, with
    /// upper bounds where the assumption environment provides them.
    pub(crate) fn eval(&mut self, e: &Expr) -> Sym {
        match e {
            Expr::Int(v) => Sym::int(*v),
            Expr::Float(_) => Sym::atom(self.fresh_atom()),
            Expr::Bool(b) => Sym::int(i64::from(*b)),
            Expr::Var(v) => self
                .env
                .get(v)
                .cloned()
                .unwrap_or_else(|| Sym::var(self.assume.canon_dim(v))),
            Expr::Len(arr) => Sym::len(arr.clone()),
            Expr::Load(arr, _) => {
                let mut b = std::mem::take(&mut self.bounds);
                let out = self.assume.bind_load(arr, &mut b, &mut self.fresh);
                self.bounds = b;
                out.unwrap_or_else(|| Sym::atom(self.fresh_atom()))
            }
            Expr::Un(UnOp::Neg, inner) => {
                let s = self.eval(inner);
                Sym::int(0).sub(&s)
            }
            Expr::Un(UnOp::Not, _) => Sym::atom(self.fresh_atom()),
            Expr::Bin(op, a, b) => {
                let (sa, sb) = (self.eval(a), self.eval(b));
                match op {
                    BinOp::Add => sa.add(&sb),
                    BinOp::Sub => sa.sub(&sb),
                    BinOp::Mul => sa.mul(&sb),
                    BinOp::Min => {
                        // min(a, b) ≤ a and min(a, b) ≤ b.
                        let atom = self.fresh_atom();
                        self.bounds.add_ub(atom.clone(), sa);
                        self.bounds.add_ub(atom.clone(), sb);
                        Sym::atom(atom)
                    }
                    _ => Sym::atom(self.fresh_atom()),
                }
            }
        }
    }

    /// Walks every `Load` inside an expression: checks definedness and
    /// bounds, and records reads into active parallel contexts.
    fn check_expr(&mut self, e: &Expr, stmt: &Stmt) {
        match e {
            Expr::Load(arr, idx) => {
                self.check_expr(idx, stmt);
                self.check_read_defined(arr, stmt);
                let idx_sym = self.eval(idx);
                self.check_bounds(arr, &idx_sym, stmt);
                for ctx in &mut self.race_stack {
                    ctx.record_read(arr, &idx_sym);
                }
            }
            Expr::Un(_, a) => self.check_expr(a, stmt),
            Expr::Bin(_, a, b) => {
                self.check_expr(a, stmt);
                self.check_expr(b, stmt);
            }
            _ => {}
        }
    }

    fn check_read_defined(&mut self, arr: &str, stmt: &Stmt) {
        if self.known_arrays.contains(arr)
            && !self.defined.contains(arr)
            && self.reported_undef.insert(arr.to_string())
        {
            self.diag(
                VerifyError::UninitializedRead { array: arr.to_string() },
                Severity::Deny,
                stmt,
            );
        }
    }

    /// Checks `0 ≤ idx < len(arr)`: a refutation is a deny, an undischarged
    /// obligation a warn.
    fn check_bounds(&mut self, arr: &str, idx: &Sym, stmt: &Stmt) {
        let lb = self.lens.get(arr).cloned();
        // Refute against the literal length atom, the exact length when
        // known, or a provably negative index.
        let len_atom = Sym::len(arr);
        let refuted = self.bounds.refute_in_bounds(idx, &len_atom)
            || matches!(&lb, Some((len, true)) if self.bounds.prove_le(len, idx))
            || idx.as_const().is_some_and(|c| c < 0);
        if refuted {
            self.diag(
                VerifyError::OutOfBounds { array: arr.to_string(), index: idx.to_string() },
                Severity::Deny,
                stmt,
            );
            return;
        }
        let proven = match &lb {
            Some((len, _)) => {
                self.bounds.prove_le(&Sym::int(0), idx) && self.bounds.prove_lt(idx, len)
            }
            None => false,
        } || self.bounds.prove_lt(idx, &len_atom);
        if !proven {
            self.diag(
                VerifyError::Unproven {
                    obligation: format!("index `{idx}` of `{arr}` is within [0, len({arr}))"),
                },
                Severity::Warn,
                stmt,
            );
        }
    }

    /// Interprets a statement list.
    pub(crate) fn walk_block(&mut self, body: &[Stmt]) {
        for (i, s) in body.iter().enumerate() {
            self.path.push(i);
            self.walk_stmt(s, body, i);
            self.path.pop();
        }
    }

    #[allow(clippy::too_many_lines)]
    fn walk_stmt(&mut self, s: &Stmt, block: &[Stmt], at: usize) {
        match s {
            Stmt::DeclInt(v, e) => {
                self.check_expr(e, s);
                let val = self.eval(e);
                self.env.insert(v.clone(), val);
            }
            Stmt::DeclFloat(v, e) | Stmt::DeclBool(v, e) => {
                self.check_expr(e, s);
                self.non_int.insert(v.clone());
            }
            Stmt::Assign(v, e) => {
                self.check_expr(e, s);
                if !self.non_int.contains(v) {
                    let val = self.eval(e);
                    self.env.insert(v.clone(), val);
                }
                for i in 0..self.race_stack.len() {
                    if !self.race_stack[i].declared.contains(v)
                        && self.race_stack[i].counter.as_deref() != Some(v.as_str())
                        && self.race_stack[i].reported_scalars.insert(v.clone())
                    {
                        let var = self.race_stack[i].var_name.clone();
                        self.diag(
                            VerifyError::DataRace {
                                name: v.clone(),
                                var,
                                detail: "a scalar declared outside the parallel loop is \
                                         written inside it (loop-carried state)"
                                    .to_string(),
                            },
                            Severity::Deny,
                            s,
                        );
                    }
                }
            }
            Stmt::Store { arr, idx, val } | Stmt::StoreAdd { arr, idx, val } => {
                let is_add = matches!(s, Stmt::StoreAdd { .. });
                self.check_expr(idx, s);
                self.check_expr(val, s);
                if is_add {
                    // An accumulate reads the previous contents.
                    self.check_read_defined(arr, s);
                }
                let idx_sym = self.eval(idx);
                self.check_bounds(arr, &idx_sym, s);
                let kind = if is_add { WriteKind::Accumulate } else { WriteKind::Assign };
                for ctx in &mut self.race_stack {
                    ctx.record_write(arr, &idx_sym, kind, stmt_to_c(s));
                }
            }
            Stmt::For { var, lo, hi, body } => {
                self.check_expr(lo, s);
                self.check_expr(hi, s);
                let hi_sym = self.eval(hi);
                self.walk_loop(var, lo, hi, &hi_sym, body, None);
            }
            Stmt::ParallelFor { var, lo, hi, private, append, body, .. } => {
                self.check_expr(lo, s);
                self.check_expr(hi, s);
                let hi_sym = self.eval(hi);
                self.walk_loop(var, lo, hi, &hi_sym, body, Some((private, append)));
                let ctx = self.race_stack.pop().expect("pushed by walk_loop");
                race::analyze(self, ctx, s);
                // Workspaces are private to each worker and discarded at
                // join: entries scattered but not drained inside the same
                // parallel body are silently lost.
                self.check_parallel_drains(var, body, s);
            }
            Stmt::While { cond, body } => {
                self.check_expr(cond, s);
                let saved = self.env.clone();
                self.havoc_assigned(body);
                self.refine(cond);
                self.walk_block(body);
                self.env = saved;
                self.havoc_assigned(body);
            }
            Stmt::If { cond, then, els } => {
                self.check_expr(cond, s);
                // Realloc-guard: `if (len(a) <= c) realloc(a, ...)` leaves
                // len(a) ≥ c + 1 on both paths.
                if let Some((arr, min_len)) = realloc_guard(cond, then, els) {
                    let want = self.eval(&min_len).add(&Sym::int(1));
                    self.walk_block(then);
                    self.lens.insert(arr, (want, false));
                    return;
                }
                let saved = self.env.clone();
                self.refine(cond);
                self.walk_block(then);
                self.env = saved.clone();
                self.walk_block(els);
                self.env = saved;
                self.havoc_assigned(then);
                self.havoc_assigned(els);
            }
            Stmt::Memset { arr, val } => {
                self.check_expr(val, s);
                self.defined.insert(arr.clone());
                for ctx in &mut self.race_stack {
                    ctx.record_whole_array(arr, stmt_to_c(s));
                }
            }
            Stmt::Alloc { arr, len, .. } => {
                self.check_expr(len, s);
                let len_sym = self.eval(len);
                self.lens.insert(arr.clone(), (len_sym, true));
                self.locals.insert(arr.clone());
                self.known_arrays.insert(arr.clone());
                self.defined.insert(arr.clone());
            }
            Stmt::Realloc { arr, len } => {
                self.check_expr(len, s);
                let len_sym = self.eval(len);
                self.lens.insert(arr.clone(), (len_sym, false));
                for ctx in &mut self.race_stack {
                    ctx.record_whole_array(arr, stmt_to_c(s));
                }
            }
            Stmt::WsInit { ws, kind, extent, .. } => {
                self.check_expr(extent, s);
                self.inited_ws.insert(ws.clone());
                if *kind == WorkspaceKind::Dense {
                    let extent = self.eval(extent);
                    self.lens.insert(ws.clone(), (extent, true));
                    self.dense_ws.insert(ws.clone());
                }
            }
            Stmt::WsScatter { ws, key, val, .. } => {
                self.check_expr(key, s);
                self.check_expr(val, s);
                self.check_ws_inited(ws, s);
                // A dense key indexes the value and guard arrays.
                if self.dense_ws.contains(ws) {
                    let key = self.eval(key);
                    self.check_bounds(ws, &key, s);
                }
            }
            Stmt::WsDrain { ws, key, val, body, .. } => {
                self.check_ws_inited(ws, s);
                let saved = self.env.clone();
                self.havoc_assigned(body);
                // The drain binds each touched key and its accumulated
                // value; a dense key passed the scatter's bound check.
                let k_atom = self.fresh_atom();
                if self.dense_ws.contains(ws) {
                    let (extent, _) = &self.lens[ws];
                    self.bounds.add_ub(k_atom.clone(), extent.sub(&Sym::int(1)));
                }
                self.env.insert(key.clone(), Sym::atom(k_atom));
                self.non_int.insert(val.clone());
                self.walk_block(body);
                self.env = saved;
                self.havoc_assigned(body);
            }
            Stmt::Comment(_) => {}
        }
        let _ = (block, at);
    }

    fn check_ws_inited(&mut self, ws: &str, stmt: &Stmt) {
        if !self.inited_ws.contains(ws) && self.reported_ws.insert(ws.to_string()) {
            self.diag(
                VerifyError::WorkspaceNotInitialized { workspace: ws.to_string() },
                Severity::Deny,
                stmt,
            );
        }
    }

    /// Denies parallel bodies that scatter into a workspace without
    /// draining it before the iteration ends (worker-local workspaces are
    /// discarded at join — the updates would be lost).
    fn check_parallel_drains(&mut self, var: &str, body: &[Stmt], s: &Stmt) {
        let mut scattered: Vec<String> = Vec::new();
        let mut drained: HashSet<String> = HashSet::new();
        visit_stmts(body, &mut |t| match t {
            Stmt::WsScatter { ws, .. } if !scattered.contains(ws) => {
                scattered.push(ws.clone());
            }
            Stmt::WsDrain { ws, .. } => {
                drained.insert(ws.clone());
            }
            _ => {}
        });
        for ws in scattered {
            if !drained.contains(&ws) {
                self.diag(
                    VerifyError::DataRace {
                        name: ws.clone(),
                        var: var.to_string(),
                        detail: "a workspace is scattered into but never drained inside the \
                                 parallel body; worker-local workspaces are discarded at join, \
                                 losing the updates"
                            .to_string(),
                    },
                    Severity::Deny,
                    s,
                );
            }
        }
    }

    /// Shared loop handling: bind the loop variable to a fresh atom bounded
    /// by `hi - 1`, havoc body-assigned scalars, interpret the body once,
    /// and restore.
    fn walk_loop(
        &mut self,
        var: &str,
        lo: &Expr,
        hi: &Expr,
        hi_sym: &Sym,
        body: &[Stmt],
        parallel: Option<(&Vec<String>, &Option<taco_llir::AppendMerge>)>,
    ) {
        let saved = self.env.clone();
        let v_atom = self.fresh_atom();
        self.bounds.add_ub(v_atom.clone(), hi_sym.sub(&Sym::int(1)));
        self.env.insert(var.to_string(), Sym::atom(v_atom.clone()));
        self.havoc_assigned(body);
        if let Some((private, append)) = parallel {
            let mut ctx = RaceCtx::new(var, v_atom.clone(), private, append);
            ctx.declared.extend(collect_decls(body));
            self.race_stack.push(ctx);
        }
        // A loop over one segment of a monotone pos array: its variable's
        // slices are disjoint across the enclosing parallel iterations.
        if let Some(parent) = self.pos_segment_loop(lo, hi) {
            for ctx in &mut self.race_stack {
                if parent == ctx.var_name {
                    ctx.sliced.insert(v_atom.clone());
                }
            }
        }
        self.walk_block(body);
        self.env = saved;
        self.havoc_assigned(body);
    }

    /// Recognizes `lo = P[e]`, `hi = P[e + 1]` over a validated (monotone)
    /// pos array `P`, returning the parent variable name when `e` is a
    /// plain variable.
    fn pos_segment_loop(&self, lo: &Expr, hi: &Expr) -> Option<String> {
        let (Expr::Load(pl, pe), Expr::Load(hl, he)) = (lo, hi) else { return None };
        if pl != hl || !self.assume.arrays.contains_key(pl) {
            return None;
        }
        let Expr::Bin(BinOp::Add, a, b) = he.as_ref() else { return None };
        if a.as_ref() == pe.as_ref() && matches!(b.as_ref(), Expr::Int(1)) {
            if let Expr::Var(v) = pe.as_ref() {
                return Some(v.clone());
            }
        }
        None
    }

    /// Replaces every scalar assigned in the block with a fresh opaque
    /// atom.
    fn havoc_assigned(&mut self, body: &[Stmt]) {
        for v in collect_assigned(body) {
            if !self.non_int.contains(&v) {
                let atom = self.fresh_atom();
                self.env.insert(v, Sym::atom(atom));
            }
        }
    }

    /// Adds upper bounds implied by a (conjunctive) loop or branch
    /// condition: `x < e` and `x ≤ e` where `x` currently maps to a single
    /// atom.
    fn refine(&mut self, cond: &Expr) {
        match cond {
            Expr::Bin(BinOp::And, a, b) => {
                self.refine(a);
                self.refine(b);
            }
            Expr::Bin(op @ (BinOp::Lt | BinOp::Le), lhs, rhs) => {
                if let Expr::Var(x) = lhs.as_ref() {
                    if let Some(atom) = self.env.get(x).and_then(single_atom) {
                        let r = self.eval(rhs);
                        let ub = if *op == BinOp::Lt { r.sub(&Sym::int(1)) } else { r };
                        self.bounds.add_ub(atom, ub);
                    }
                }
            }
            Expr::Bin(op @ (BinOp::Gt | BinOp::Ge), lhs, rhs) => {
                // `e > x` / `e ≥ x` bound x from above.
                if let Expr::Var(x) = rhs.as_ref() {
                    if let Some(atom) = self.env.get(x).and_then(single_atom) {
                        let l = self.eval(lhs);
                        let ub = if *op == BinOp::Gt { l.sub(&Sym::int(1)) } else { l };
                        self.bounds.add_ub(atom, ub);
                    }
                }
            }
            _ => {}
        }
    }
}

/// `x` when the scalar's current value is a single atom with coefficient 1.
fn single_atom(s: &Sym) -> Option<Atom> {
    let atoms = s.atoms();
    if atoms.len() == 1 && *s == Sym::atom(atoms[0].clone()) {
        return Some(atoms[0].clone());
    }
    None
}

/// `if (len(a) <= c) { realloc(a, ...) }` — returns `(a, c)`.
fn realloc_guard(cond: &Expr, then: &[Stmt], els: &[Stmt]) -> Option<(String, Expr)> {
    if !els.is_empty() || then.len() != 1 {
        return None;
    }
    let Expr::Bin(BinOp::Le, lhs, rhs) = cond else { return None };
    let Expr::Len(arr) = lhs.as_ref() else { return None };
    let Stmt::Realloc { arr: target, .. } = &then[0] else { return None };
    if arr != target {
        return None;
    }
    Some((arr.clone(), rhs.as_ref().clone()))
}

/// Every scalar assigned (not declared) anywhere in the block.
fn collect_assigned(body: &[Stmt]) -> Vec<String> {
    let mut out = Vec::new();
    visit_stmts(body, &mut |s| {
        if let Stmt::Assign(v, _) = s {
            out.push(v.clone());
        }
    });
    out.sort();
    out.dedup();
    out
}

/// Every scalar declared anywhere in the block.
pub(crate) fn collect_decls(body: &[Stmt]) -> Vec<String> {
    let mut out = Vec::new();
    visit_stmts(body, &mut |s| match s {
        Stmt::DeclInt(v, _) | Stmt::DeclFloat(v, _) | Stmt::DeclBool(v, _) => out.push(v.clone()),
        Stmt::For { var, .. } | Stmt::ParallelFor { var, .. } => out.push(var.clone()),
        Stmt::WsDrain { key, val, .. } => {
            out.push(key.clone());
            out.push(val.clone());
        }
        _ => {}
    });
    out
}
