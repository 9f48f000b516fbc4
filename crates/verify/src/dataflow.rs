//! The abstract interpreter: definite initialization, workspace reset
//! obligations, symbolic bounds, and pos-counter monotonicity.
//!
//! One forward walk over the kernel threads the four abstract domains of
//! DESIGN.md §12, and one evaluator values every expression they look at
//! ([`Analyzer::eval`], against the walk's `env`, `lens` and `bounds`):
//!
//! * **Definedness** — which arrays have defined contents. Only `Output`
//!   parameters start undefined; an `Alloc` (calloc) or a `Memset` defines
//!   an array. Reading or accumulating into an undefined array is
//!   [`VerifyError::UninitializedRead`]; scattering into or draining a
//!   workspace before a `WsInit` is [`VerifyError::WorkspaceNotInitialized`].
//! * **Zeroness** — the Section VI reset rule, per *phase loop* (a top-level
//!   loop). Every array `Alloc`'d and every workspace `WsInit`'d at top level
//!   before the loop carries three facts: whether the iteration read it
//!   before fully defining it, whether it was fully defined (allocated,
//!   memset, re-initialized) since the iteration began, and whether it may
//!   be dirty (a nonzero value, an entry). Branches join them; a body that
//!   may run zero times (a loop, a drain) keeps its dirt but not its
//!   definitions. A `WsScatter` dirties a workspace and a
//!   `WsDrain` cleans it; a plain array is cleaned by one of the two drain
//!   loops the lowerer emits:
//!   - *full-range drain* — `for (v = 0; v < D; v++) a[v] = 0;` where `D`
//!     provably covers the array's length;
//!   - *structure drain* — a loop over one `pos` segment that decodes
//!     `j = crd[p]` and zeroes `a[j]`. It covers what the iteration dirtied
//!     only if the structure does, which the report records as an
//!     assumption.
//!
//!   An iteration that reads an array before defining it assumes it clean
//!   at its start, so the array must be clean again at the back-edge, or
//!   the next iteration observes stale state — [`VerifyError::MissingReset`].
//! * **Bounds** — every array index is checked against the array's known
//!   length with the [`crate::sym`] engine. A provable violation is
//!   [`VerifyError::OutOfBounds`] (deny); an undischarged obligation is
//!   [`VerifyError::Unproven`] (warn).
//! * **Monotonicity** — an assignment to a scalar the kernel stores into a
//!   `*_pos` array must not decrease it: `eval(rhs) − env[c] ≥ 0`. A refuted
//!   obligation is [`VerifyError::PosNotMonotone`], an undischarged one a
//!   warn.
//!
//! The loop a parallel kernel's row ranges split ([`Rows`]) additionally runs
//! the race check in [`crate::race`], fed by the footprints this walk
//! records.

use std::collections::{HashMap, HashSet};

use taco_llir::{
    stmt_to_c, visit_stmts, BinOp, Expr, Kernel, ParamKind, Rows, Stmt, UnOp, WorkspaceKind,
};

use crate::assume::Assumptions;
use crate::error::{Diagnostic, Severity, VerifyError};
use crate::race::{self, RaceCtx, WriteKind};
use crate::sym::{Atom, Bounds, Sym};

/// The zeroness of one tracked array or workspace since the current phase
/// loop's iteration began.
#[derive(Debug, Clone, Copy, Default)]
struct Zero {
    /// Read before a full definition: assumed clean at the iteration's start.
    assumed_clean: bool,
    /// Fully defined on every path since the iteration began.
    defined: bool,
    /// May hold a nonzero value or an entry.
    dirty: bool,
}

impl Zero {
    fn read(&mut self) {
        self.assumed_clean |= !self.defined;
    }

    fn define(&mut self, dirty: bool) {
        self.defined = true;
        self.dirty = dirty;
    }

    /// Joins another path's state into this one.
    fn join(&mut self, other: Zero) {
        self.assumed_clean |= other.assumed_clean;
        self.defined &= other.defined;
        self.dirty |= other.dirty;
    }
}

/// The walking interpreter.
pub(crate) struct Analyzer<'a> {
    assume: &'a Assumptions,
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
    /// Scalars declared as float/bool (excluded from the integer env).
    non_int: HashSet<String>,
    fresh: u64,
    pub(crate) diags: Vec<Diagnostic>,
    pub(crate) notes: Vec<String>,
    path: Vec<usize>,
    /// While the loop a parallel kernel's row ranges split is walked, its
    /// footprint: every array access inside it is recorded here.
    race: Option<RaceCtx>,
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
    /// Arrays `Alloc`'d and workspaces `WsInit`'d at top level, in program
    /// order: the names the zeroness domain tracks.
    zero_tracked: Vec<String>,
    /// Zeroness per tracked name inside the current phase loop (empty
    /// outside one).
    zero: HashMap<String, Zero>,
    /// Structure-drain assumptions taken in the current phase loop, with the
    /// array each one cleans.
    drain_notes: Vec<(String, String)>,
    /// Scalars stored into a `*_pos` array: the append counters.
    pos_counters: HashSet<String>,
    /// The row ranges of a parallel kernel.
    rows: Option<Rows>,
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
            non_int: HashSet::new(),
            fresh: 0,
            diags: Vec::new(),
            notes: Vec::new(),
            path: Vec::new(),
            race: None,
            reported_undef: HashSet::new(),
            inited_ws: HashSet::new(),
            dense_ws: HashSet::new(),
            reported_ws: HashSet::new(),
            zero_tracked: Vec::new(),
            zero: HashMap::new(),
            drain_notes: Vec::new(),
            pos_counters: HashSet::new(),
            rows: kernel.rows.clone(),
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
        visit_stmts(&kernel.body, &mut |s| {
            if let Stmt::Store { arr, val: Expr::Var(c), .. } = s {
                if taco_lower::params::is_pos_name(arr) {
                    a.pos_counters.insert(c.clone());
                }
            }
        });
        a
    }

    pub(crate) fn diag(&mut self, error: VerifyError, severity: Severity, stmt: &Stmt) {
        self.diag_at(error, severity, self.path.clone(), stmt);
    }

    fn diag_at(&mut self, error: VerifyError, severity: Severity, path: Vec<usize>, stmt: &Stmt) {
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
                self.read_array(arr, stmt);
                let idx_sym = self.eval(idx);
                self.check_bounds(arr, &idx_sym, stmt);
                if let Some(ctx) = &mut self.race {
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

    /// A read of an array's contents: it must be defined, and a tracked
    /// array not defined in this iteration is assumed clean at its start.
    fn read_array(&mut self, arr: &str, stmt: &Stmt) {
        self.zero_event(arr, Zero::read);
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

    /// Interprets a statement list. A top-level loop is a phase loop, and
    /// its back-edge is where the reset rule is checked.
    pub(crate) fn walk_block(&mut self, body: &[Stmt]) {
        for (i, s) in body.iter().enumerate() {
            self.path.push(i);
            self.walk_stmt(s);
            if self.path.len() == 1 {
                self.check_resets(s);
            }
            self.path.pop();
        }
    }

    /// The reset rule at a phase loop's back-edge: whatever the iteration
    /// assumed clean must be clean again. Structure-drain assumptions are
    /// reported for the arrays the rule obliged.
    fn check_resets(&mut self, phase: &Stmt) {
        let zero = std::mem::take(&mut self.zero);
        let obliged = |name: &str| zero.get(name).is_some_and(|z| z.assumed_clean);
        let stale: Vec<String> = self
            .zero_tracked
            .iter()
            .filter(|name| obliged(name) && zero[*name].dirty)
            .cloned()
            .collect();
        for array in stale {
            self.diag(VerifyError::MissingReset { array }, Severity::Deny, phase);
        }
        for (array, note) in std::mem::take(&mut self.drain_notes) {
            if obliged(&array) {
                self.notes.push(note);
            }
        }
    }

    /// Applies a zeroness event to a tracked name (a no-op outside a phase
    /// loop).
    fn zero_event(&mut self, name: &str, event: impl FnOnce(&mut Zero)) {
        if let Some(z) = self.zero.get_mut(name) {
            event(z);
        }
    }

    fn join_zero(&mut self, other: &HashMap<String, Zero>) {
        for (name, z) in &mut self.zero {
            z.join(other[name]);
        }
    }

    /// Walks a loop or drain body, which may run zero times: its definitions
    /// do not outlive it, its dirt does. The body of a top-level loop starts
    /// a phase, with every tracked name undefined and clean.
    fn walk_body(&mut self, body: &[Stmt], is_loop: bool) {
        if is_loop && self.path.len() == 1 {
            self.zero = self.zero_tracked.iter().map(|n| (n.clone(), Zero::default())).collect();
        }
        let entry = self.zero.clone();
        self.walk_block(body);
        self.join_zero(&entry);
    }

    /// Tracks a top-level `Alloc` or `WsInit` for the zeroness domain.
    fn track(&mut self, name: &str) {
        if self.path.len() == 1 && !self.zero_tracked.iter().any(|n| n == name) {
            self.zero_tracked.push(name.to_string());
        }
    }

    #[allow(clippy::too_many_lines)]
    fn walk_stmt(&mut self, s: &Stmt) {
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
                    if self.pos_counters.contains(v) {
                        self.check_counter_update(v, &val, s);
                    }
                    self.env.insert(v.clone(), val);
                }
                if let Some(ctx) = &mut self.race {
                    if !ctx.declared.contains(v)
                        && ctx.counter.as_deref() != Some(v.as_str())
                        && ctx.reported_scalars.insert(v.clone())
                    {
                        let var = ctx.var_name.clone();
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
                    self.read_array(arr, s);
                }
                if !is_zero(val) {
                    self.zero_event(arr, |z| z.dirty = true);
                }
                let idx_sym = self.eval(idx);
                self.check_bounds(arr, &idx_sym, s);
                let kind = if is_add { WriteKind::Accumulate } else { WriteKind::Assign };
                if let Some(ctx) = &mut self.race {
                    ctx.record_write(arr, &idx_sym, kind, stmt_to_c(s));
                }
            }
            Stmt::For { var, lo, hi, body } => {
                self.check_expr(lo, s);
                self.check_expr(hi, s);
                let hi_sym = self.eval(hi);
                // The loop a parallel kernel's row ranges split: its
                // iterations run in different ranges.
                let rows = self.rows.clone().filter(|r| self.path.len() == 1 && r.var == *var);
                self.walk_loop(var, lo, hi, &hi_sym, body, rows.as_ref());
                if rows.is_some() {
                    let ctx = self.race.take().expect("set by walk_loop");
                    race::analyze(self, ctx, s);
                }
            }
            Stmt::While { cond, body } => {
                self.check_expr(cond, s);
                let saved = self.env.clone();
                self.havoc_assigned(body);
                self.refine(cond);
                self.walk_body(body, true);
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
                let entry = self.zero.clone();
                self.refine(cond);
                self.walk_block(then);
                let then_zero = std::mem::replace(&mut self.zero, entry);
                self.env = saved.clone();
                self.walk_block(els);
                self.join_zero(&then_zero);
                self.env = saved;
                self.havoc_assigned(then);
                self.havoc_assigned(els);
            }
            Stmt::Memset { arr, val } => {
                self.check_expr(val, s);
                self.zero_event(arr, |z| z.define(!is_zero(val)));
                self.defined.insert(arr.clone());
                if let Some(ctx) = &mut self.race {
                    ctx.record_whole_array(arr, stmt_to_c(s));
                }
            }
            Stmt::Alloc { arr, len, .. } => {
                self.check_expr(len, s);
                let len_sym = self.eval(len);
                self.lens.insert(arr.clone(), (len_sym, true));
                self.known_arrays.insert(arr.clone());
                self.defined.insert(arr.clone());
                self.track(arr);
                self.zero_event(arr, |z| z.define(false));
            }
            Stmt::Realloc { arr, len } => {
                self.check_expr(len, s);
                let len_sym = self.eval(len);
                self.lens.insert(arr.clone(), (len_sym, false));
                if let Some(ctx) = &mut self.race {
                    ctx.record_whole_array(arr, stmt_to_c(s));
                }
            }
            Stmt::WsInit { ws, kind, extent, .. } => {
                self.check_expr(extent, s);
                self.inited_ws.insert(ws.clone());
                self.track(ws);
                self.zero_event(ws, |z| z.define(false));
                if *kind == WorkspaceKind::Dense {
                    let extent = self.eval(extent);
                    self.lens.insert(ws.clone(), (extent, true));
                    self.dense_ws.insert(ws.clone());
                }
            }
            Stmt::WsScatter { ws, key, val, .. } => {
                self.check_expr(key, s);
                self.check_expr(val, s);
                self.use_ws(ws, s);
                self.zero_event(ws, |z| z.dirty = true);
                if let Some(ctx) = &mut self.race {
                    ctx.record_scatter(ws);
                }
                // A dense key indexes the value and guard arrays.
                if self.dense_ws.contains(ws) {
                    let key = self.eval(key);
                    self.check_bounds(ws, &key, s);
                }
            }
            Stmt::WsDrain { ws, key, val, body, .. } => {
                self.use_ws(ws, s);
                if let Some(ctx) = &mut self.race {
                    ctx.record_drain(ws);
                }
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
                self.walk_body(body, false);
                self.env = saved;
                self.havoc_assigned(body);
                // The drain leaves the workspace empty.
                self.zero_event(ws, |z| z.dirty = false);
            }
            Stmt::Comment(_) => {}
        }
    }

    /// Monotonicity: an assignment to an append counter must not decrease
    /// it. Reported against the kernel rather than a statement path, so a
    /// counter updated at several sites is one finding.
    fn check_counter_update(&mut self, c: &str, new: &Sym, stmt: &Stmt) {
        let delta = new.sub(&self.eval(&Expr::var(c)));
        if self.bounds.prove_le(&Sym::int(0), &delta) {
            return;
        }
        let (error, severity) = if self.bounds.prove_le(&delta, &Sym::int(-1)) {
            (VerifyError::PosNotMonotone { counter: c.to_string() }, Severity::Deny)
        } else {
            let obligation = format!("append counter `{c}` never decreases");
            (VerifyError::Unproven { obligation }, Severity::Warn)
        };
        self.diag_at(error, severity, Vec::new(), stmt);
    }

    /// A scatter or drain: the workspace must be established, and a tracked
    /// one not re-initialized in this iteration is assumed empty at its
    /// start.
    fn use_ws(&mut self, ws: &str, stmt: &Stmt) {
        self.zero_event(ws, Zero::read);
        if !self.inited_ws.contains(ws) && self.reported_ws.insert(ws.to_string()) {
            self.diag(
                VerifyError::WorkspaceNotInitialized { workspace: ws.to_string() },
                Severity::Deny,
                stmt,
            );
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
        rows: Option<&Rows>,
    ) {
        let drained = self.drained_by(var, lo, hi, hi_sym, body);
        let saved = self.env.clone();
        let v_atom = self.fresh_atom();
        self.bounds.add_ub(v_atom.clone(), hi_sym.sub(&Sym::int(1)));
        self.env.insert(var.to_string(), Sym::atom(v_atom.clone()));
        self.havoc_assigned(body);
        if let Some(rows) = rows {
            let mut ctx = RaceCtx::new(v_atom.clone(), rows);
            ctx.declared.extend(collect_decls(body));
            self.race = Some(ctx);
        }
        // A loop over one segment of a monotone pos array: its variable's
        // slices are disjoint across the enclosing parallel iterations.
        if let Some(parent) = self.pos_segment_loop(lo, hi) {
            if let Some(ctx) = &mut self.race {
                if parent == ctx.var_name {
                    ctx.sliced.insert(v_atom.clone());
                }
            }
        }
        self.walk_body(body, true);
        for arr in drained {
            self.zero_event(&arr, |z| z.dirty = false);
        }
        self.env = saved;
        self.havoc_assigned(body);
    }

    /// The tracked arrays a `for` loop restores to zero: a full-range or a
    /// structure drain (module docs). A structure drain's assumption waits
    /// for the phase loop's verdict on whether the array needed it.
    fn drained_by(
        &mut self,
        var: &str,
        lo: &Expr,
        hi: &Expr,
        hi_sym: &Sym,
        body: &[Stmt],
    ) -> Vec<String> {
        // Unconditional `a[x] = 0` stores at the top level of the body.
        let zeroed = |x: &str| -> Vec<String> {
            body.iter()
                .filter_map(|s| match s {
                    Stmt::Store { arr, idx: Expr::Var(v), val }
                        if v == x && is_zero(val) && self.zero.contains_key(arr) =>
                    {
                        Some(arr.clone())
                    }
                    _ => None,
                })
                .collect()
        };
        let mut out = Vec::new();
        if matches!(lo, Expr::Int(0)) {
            out = zeroed(var)
                .into_iter()
                .filter(|a| {
                    matches!(self.lens.get(a), Some((len, true)) if self.bounds.prove_le(len, hi_sym))
                })
                .collect();
        }
        let Some(Stmt::DeclInt(j, Expr::Load(crd, at))) = body.first() else { return out };
        let (Expr::Load(pos, _), Expr::Load(pos_hi, _)) = (lo, hi) else { return out };
        if pos == pos_hi && matches!(&**at, Expr::Var(v) if v == var) {
            for arr in zeroed(j) {
                let note = format!(
                    "structure `{pos}`/`{crd}` covers every coordinate of `{arr}` dirtied in one \
                     iteration (preassembled output structure)"
                );
                self.drain_notes.push((arr.clone(), note));
                out.push(arr);
            }
        }
        out
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

fn is_zero(e: &Expr) -> bool {
    matches!(e, Expr::Int(0) | Expr::Bool(false)) || matches!(e, Expr::Float(v) if *v == 0.0)
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
        Stmt::For { var, .. } => out.push(var.clone()),
        Stmt::WsDrain { key, val, .. } => {
            out.push(key.clone());
            out.push(val.clone());
        }
        _ => {}
    });
    out
}
