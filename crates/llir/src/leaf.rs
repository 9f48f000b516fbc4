//! Leaf loops: decide at entry, run a strip.
//!
//! A **straight-line leaf loop** is a counting loop whose body is,
//! recursively through `If`, nothing but non-faulting scalar assigns and
//! stores, and which never assigns its own loop variable: the dense inner
//! loops the workspace transformation exists to produce (`w[j] += B[p] *
//! C[l*J + j]`). Nothing but a supervision poll can abort such a loop once
//! the range check of every array access is known to pass — and when every
//! access indexes at a loop-invariant element or at `offset ± loopvar`, that
//! is decided from the loop bounds alone, before the first iteration.
//!
//! This module is the one recogniser of those loops. [`attach_plans`] runs
//! once per [`Executable`](crate::Executable), after slot resolution, and
//! leaves a [`LeafPlan`] on the [`LoopBody`] of every such `For` node; both
//! backends read the stored plan and neither classifies anything itself:
//!
//! * `cgen` reads the **store** terms ([`LeafPlan::stores`]) and emits the
//!   versioned C loop (loads are unchecked in native code either way).
//! * the interpreter reads the [`Strip`], present when *every* access —
//!   loads included — is decided: the terms of the entry precondition, a
//!   prologue that evaluates the body's maximal loop-invariant
//!   subexpressions into fresh scalar slots, and the body rewritten over
//!   those slots.
//!
//! A loop with an access that is neither form (`x[crd[p]]`, `x[2*i]`) is
//! *undecided*: it carries no strip and runs per element as it always did.

use crate::exec::{BExpr, FExpr, IExpr, RStmt};
use crate::BinOp;
use std::ops::Deref;

// --- fault detection: does an expression contain integer div/rem? ------

pub(crate) fn ifaults(e: &IExpr) -> bool {
    match e {
        IExpr::Lit(_) | IExpr::Var(_) | IExpr::Len(_) => false,
        IExpr::Load(_, i) => ifaults(i),
        IExpr::Bin(op, a, b) => matches!(op, BinOp::Div | BinOp::Rem) || ifaults(a) || ifaults(b),
        IExpr::Neg(a) => ifaults(a),
    }
}

pub(crate) fn ffaults(e: &FExpr) -> bool {
    match e {
        FExpr::Lit(_) | FExpr::Var(_) => false,
        FExpr::LoadF64(_, i) | FExpr::LoadF32(_, i) => ifaults(i),
        FExpr::Bin(_, a, b) => ffaults(a) || ffaults(b),
        FExpr::Neg(a) => ffaults(a),
        FExpr::FromInt(i) => ifaults(i),
    }
}

pub(crate) fn bfaults(e: &BExpr) -> bool {
    match e {
        BExpr::Lit(_) | BExpr::Var(_) => false,
        BExpr::Load(_, i) => ifaults(i),
        BExpr::CmpI(_, a, b) => ifaults(a) || ifaults(b),
        BExpr::CmpF(_, a, b) => ffaults(a) || ffaults(b),
        BExpr::Bin(_, a, b) => bfaults(a) || bfaults(b),
        BExpr::Not(a) => bfaults(a),
    }
}

// --- the plan ------------------------------------------------------------

/// A count of scalar slots per type: how many an [`Executable`] declares,
/// or where the next fresh one goes.
///
/// [`Executable`]: crate::Executable
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Slots {
    pub(crate) int: usize,
    pub(crate) float: usize,
    pub(crate) boolean: usize,
}

/// The body of an `RStmt::For`, with the leaf-loop plan of the loop when it
/// has one. Dereferences to its statements, so tree walkers treat it as the
/// slice it wraps.
#[derive(Debug, Clone)]
pub(crate) struct LoopBody {
    stmts: Box<[RStmt]>,
    plan: Option<Box<LeafPlan>>,
}

impl LoopBody {
    /// A body with no plan yet; [`attach_plans`] decides whether it gets one.
    pub(crate) fn new(stmts: Vec<RStmt>) -> LoopBody {
        LoopBody { stmts: stmts.into(), plan: None }
    }

    /// The plan of a straight-line leaf loop; `None` for every other loop.
    pub(crate) fn leaf_plan(&self) -> Option<&LeafPlan> {
        self.plan.as_deref()
    }
}

impl Deref for LoopBody {
    type Target = [RStmt];

    fn deref(&self) -> &[RStmt] {
        &self.stmts
    }
}

/// How one access of a leaf loop indexes its array. The expressions are
/// free of loads, of integer division and of every slot the loop writes, so
/// they evaluate before the first iteration, cannot fault, and have the same
/// value on every iteration.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum LeafIndex {
    /// The same element on every iteration.
    Invariant(IExpr),
    /// `offset + loopvar`; `None` is the bare loop variable. `loopvar - inv`
    /// is the offset `-inv`.
    Affine(Option<IExpr>),
}

/// One term of a hoisted precondition: an array slot and the form of an
/// index into it.
pub(crate) type Access = (usize, LeafIndex);

/// What [`attach_plans`] found out about one straight-line leaf loop whose
/// store indices are all [`LeafIndex`] forms.
#[derive(Debug, Clone)]
pub(crate) struct LeafPlan {
    /// The distinct accesses of the body's stores, in body order: all the
    /// native backend checks.
    pub(crate) stores: Vec<Access>,
    /// Present when the body's loads are all decided too.
    pub(crate) strip: Option<Strip>,
}

/// The interpreter's half of a [`LeafPlan`]: everything it needs to run
/// iterations of the loop with no per-element check.
#[derive(Debug, Clone)]
pub(crate) struct Strip {
    /// The distinct accesses of the body, loads and stores. When each is in
    /// range at the first and at the last iteration (and its index did not
    /// wrap on the way), every access of every iteration is in range.
    pub(crate) accesses: Vec<Access>,
    /// Assigns each hoisted subexpression to its fresh slot. Evaluated once
    /// per loop entry, after the precondition held: its loads are among
    /// `accesses`.
    pub(crate) prologue: Vec<RStmt>,
    /// The body, reading the prologue's slots in place of the hoisted
    /// subexpressions.
    pub(crate) body: Vec<RStmt>,
}

/// Attaches a [`LeafPlan`] to every straight-line leaf loop under `body`,
/// drawing the slots of hoisted subexpressions from `next` on.
pub(crate) fn attach_plans(body: &mut [RStmt], next: &mut Slots) {
    for_each_loop(body, &mut |var, b| b.plan = plan(var, &b.stmts, next).map(Box::new));
}

/// Calls `f` with the loop variable and the body of every `For` under
/// `body`, inner loops first.
fn for_each_loop(body: &mut [RStmt], f: &mut impl FnMut(usize, &mut LoopBody)) {
    for s in body {
        match s {
            RStmt::For(var, _, _, b) => {
                for_each_loop(&mut b.stmts, f);
                f(*var, b);
            }
            RStmt::While(_, b) | RStmt::WsDrain(_, _, _, _, b) => for_each_loop(b, f),
            RStmt::If(_, t, e) => {
                for_each_loop(t, f);
                for_each_loop(e, f);
            }
            _ => {}
        }
    }
}

/// Everything a loop body writes: the scalar slots it assigns, by type (the
/// loop variable among the ints), and the array slots it stores to.
#[derive(Default)]
struct Writes {
    ints: Vec<usize>,
    floats: Vec<usize>,
    bools: Vec<usize>,
    arrays: Vec<usize>,
}

/// True when `body` is, recursively through `If`, nothing but scalar
/// assigns and stores that cannot fault (no integer div/rem): no inner
/// loop to tick, no host callback, no abort edge other than an access's
/// range check. Collects what it writes.
fn is_straight_line(body: &[RStmt], writes: &mut Writes) -> bool {
    body.iter().all(|s| match s {
        RStmt::AssignI(slot, e) => {
            writes.ints.push(*slot);
            !ifaults(e)
        }
        RStmt::AssignF(slot, e) => {
            writes.floats.push(*slot);
            !ffaults(e)
        }
        RStmt::AssignB(slot, e) => {
            writes.bools.push(*slot);
            !bfaults(e)
        }
        RStmt::StoreI(a, i, v) | RStmt::StoreAddI(a, i, v) => {
            writes.arrays.push(*a);
            !ifaults(i) && !ifaults(v)
        }
        RStmt::StoreF64(a, i, v)
        | RStmt::StoreF32(a, i, v)
        | RStmt::StoreAddF64(a, i, v)
        | RStmt::StoreAddF32(a, i, v) => {
            writes.arrays.push(*a);
            !ifaults(i) && !ffaults(v)
        }
        RStmt::StoreB(a, i, v) => {
            writes.arrays.push(*a);
            !ifaults(i) && !bfaults(v)
        }
        RStmt::If(c, t, e) => {
            !bfaults(c) && is_straight_line(t, writes) && is_straight_line(e, writes)
        }
        _ => false,
    })
}

impl Writes {
    /// True when `e` has the same value on every iteration and is safe to
    /// evaluate before the first: it reads no slot the loop writes and,
    /// with `loads`, loads only at such indices from arrays the body never
    /// stores to; without, it loads nothing at all.
    fn invariant_i(&self, e: &IExpr, loads: bool) -> bool {
        match e {
            IExpr::Lit(_) | IExpr::Len(_) => true,
            IExpr::Var(s) => !self.ints.contains(s),
            IExpr::Load(a, i) => loads && self.invariant_load(*a, i),
            IExpr::Bin(_, a, b) => self.invariant_i(a, loads) && self.invariant_i(b, loads),
            IExpr::Neg(a) => self.invariant_i(a, loads),
        }
    }

    fn invariant_load(&self, arr: usize, idx: &IExpr) -> bool {
        !self.arrays.contains(&arr) && self.invariant_i(idx, true)
    }

    fn invariant_f(&self, e: &FExpr) -> bool {
        match e {
            FExpr::Lit(_) => true,
            FExpr::Var(s) => !self.floats.contains(s),
            FExpr::LoadF64(a, i) | FExpr::LoadF32(a, i) => self.invariant_load(*a, i),
            FExpr::Bin(_, a, b) => self.invariant_f(a) && self.invariant_f(b),
            FExpr::Neg(a) => self.invariant_f(a),
            FExpr::FromInt(i) => self.invariant_i(i, true),
        }
    }

    fn invariant_b(&self, e: &BExpr) -> bool {
        match e {
            BExpr::Lit(_) => true,
            BExpr::Var(s) => !self.bools.contains(s),
            BExpr::Load(a, i) => self.invariant_load(*a, i),
            BExpr::CmpI(_, a, b) => self.invariant_i(a, true) && self.invariant_i(b, true),
            BExpr::CmpF(_, a, b) => self.invariant_f(a) && self.invariant_f(b),
            BExpr::Bin(_, a, b) => self.invariant_b(a) && self.invariant_b(b),
            BExpr::Not(a) => self.invariant_b(a),
        }
    }

    /// The index form of an access range-decidable at loop entry.
    fn is_invariant(&self, e: &IExpr) -> bool {
        self.invariant_i(e, false)
    }

    /// Classifies one index expression of the loop over `var`; `None` if it
    /// is neither invariant nor `offset ± var`.
    fn classify(&self, var: usize, idx: &IExpr) -> Option<LeafIndex> {
        let is_var = |e: &IExpr| matches!(e, IExpr::Var(v) if *v == var);
        Some(match idx {
            e if self.is_invariant(e) => LeafIndex::Invariant(e.clone()),
            e if is_var(e) => LeafIndex::Affine(None),
            IExpr::Bin(BinOp::Add, a, b) if is_var(b) && self.is_invariant(a) => {
                LeafIndex::Affine(Some((**a).clone()))
            }
            IExpr::Bin(BinOp::Add, a, b) if is_var(a) && self.is_invariant(b) => {
                LeafIndex::Affine(Some((**b).clone()))
            }
            IExpr::Bin(BinOp::Sub, a, b) if is_var(a) && self.is_invariant(b) => {
                LeafIndex::Affine(Some(IExpr::Neg(b.clone())))
            }
            _ => return None,
        })
    }
}

/// Recognises a straight-line leaf loop over `var` and plans it. `None`
/// when the body is not straight-line, assigns `var`, or stores at an index
/// that is not a [`LeafIndex`] form.
fn plan(var: usize, body: &[RStmt], next: &mut Slots) -> Option<LeafPlan> {
    let mut writes = Writes::default();
    if !is_straight_line(body, &mut writes) || writes.ints.contains(&var) {
        return None;
    }
    writes.ints.push(var);
    let mut accesses =
        Accesses { writes: &writes, var, stores: Vec::new(), loads: Some(Vec::new()) };
    if !accesses.block(body) {
        return None;
    }
    let Accesses { stores, loads, .. } = accesses;
    let strip = loads.map(|mut accesses| {
        for store in &stores {
            push_distinct(&mut accesses, store.clone());
        }
        let mut hoister = Hoister { writes: &writes, next, prologue: Vec::new() };
        let body = hoister.block(body);
        Strip { accesses, prologue: hoister.prologue, body }
    });
    Some(LeafPlan { stores, strip })
}

fn push_distinct(out: &mut Vec<Access>, access: Access) {
    if !out.contains(&access) {
        out.push(access);
    }
}

/// Collects the classified accesses of a straight-line body.
struct Accesses<'a> {
    writes: &'a Writes,
    var: usize,
    stores: Vec<Access>,
    /// `None` once a load was neither form: the loop is undecided.
    loads: Option<Vec<Access>>,
}

impl Accesses<'_> {
    /// False when a store index is neither form.
    fn block(&mut self, body: &[RStmt]) -> bool {
        body.iter().all(|s| match s {
            RStmt::AssignI(_, e) => {
                self.int(e);
                true
            }
            RStmt::AssignF(_, e) => {
                self.float(e);
                true
            }
            RStmt::AssignB(_, e) => {
                self.boolean(e);
                true
            }
            RStmt::StoreI(a, i, v) | RStmt::StoreAddI(a, i, v) => {
                self.int(v);
                self.store(*a, i)
            }
            RStmt::StoreF64(a, i, v)
            | RStmt::StoreF32(a, i, v)
            | RStmt::StoreAddF64(a, i, v)
            | RStmt::StoreAddF32(a, i, v) => {
                self.float(v);
                self.store(*a, i)
            }
            RStmt::StoreB(a, i, v) => {
                self.boolean(v);
                self.store(*a, i)
            }
            RStmt::If(c, t, e) => {
                self.boolean(c);
                self.block(t) && self.block(e)
            }
            _ => unreachable!("not a straight-line statement"),
        })
    }

    fn store(&mut self, arr: usize, idx: &IExpr) -> bool {
        match self.writes.classify(self.var, idx) {
            Some(form) => {
                push_distinct(&mut self.stores, (arr, form));
                true
            }
            None => false,
        }
    }

    fn load(&mut self, arr: usize, idx: &IExpr) {
        match self.writes.classify(self.var, idx) {
            Some(form) => {
                if let Some(loads) = &mut self.loads {
                    push_distinct(loads, (arr, form));
                }
            }
            None => self.loads = None,
        }
    }

    fn int(&mut self, e: &IExpr) {
        match e {
            IExpr::Lit(_) | IExpr::Var(_) | IExpr::Len(_) => {}
            IExpr::Load(a, i) => self.load(*a, i),
            IExpr::Bin(_, a, b) => {
                self.int(a);
                self.int(b);
            }
            IExpr::Neg(a) => self.int(a),
        }
    }

    fn float(&mut self, e: &FExpr) {
        match e {
            FExpr::Lit(_) | FExpr::Var(_) => {}
            FExpr::LoadF64(a, i) | FExpr::LoadF32(a, i) => self.load(*a, i),
            FExpr::Bin(_, a, b) => {
                self.float(a);
                self.float(b);
            }
            FExpr::Neg(a) => self.float(a),
            FExpr::FromInt(i) => self.int(i),
        }
    }

    fn boolean(&mut self, e: &BExpr) {
        match e {
            BExpr::Lit(_) | BExpr::Var(_) => {}
            BExpr::Load(a, i) => self.load(*a, i),
            BExpr::CmpI(_, a, b) => {
                self.int(a);
                self.int(b);
            }
            BExpr::CmpF(_, a, b) => {
                self.float(a);
                self.float(b);
            }
            BExpr::Bin(_, a, b) => {
                self.boolean(a);
                self.boolean(b);
            }
            BExpr::Not(a) => self.boolean(a),
        }
    }
}

/// Rewrites a decided body over fresh slots holding its maximal invariant
/// subexpressions. A bare literal or slot read stays where it is: a slot of
/// its own would cost what it costs.
struct Hoister<'a> {
    writes: &'a Writes,
    next: &'a mut Slots,
    prologue: Vec<RStmt>,
}

impl Hoister<'_> {
    fn block(&mut self, body: &[RStmt]) -> Vec<RStmt> {
        body.iter()
            .map(|s| match s {
                RStmt::AssignI(slot, e) => RStmt::AssignI(*slot, self.int(e)),
                RStmt::AssignF(slot, e) => RStmt::AssignF(*slot, self.float(e)),
                RStmt::AssignB(slot, e) => RStmt::AssignB(*slot, self.boolean(e)),
                RStmt::StoreI(a, i, v) => RStmt::StoreI(*a, self.int(i), self.int(v)),
                RStmt::StoreAddI(a, i, v) => RStmt::StoreAddI(*a, self.int(i), self.int(v)),
                RStmt::StoreF64(a, i, v) => RStmt::StoreF64(*a, self.int(i), self.float(v)),
                RStmt::StoreF32(a, i, v) => RStmt::StoreF32(*a, self.int(i), self.float(v)),
                RStmt::StoreAddF64(a, i, v) => RStmt::StoreAddF64(*a, self.int(i), self.float(v)),
                RStmt::StoreAddF32(a, i, v) => RStmt::StoreAddF32(*a, self.int(i), self.float(v)),
                RStmt::StoreB(a, i, v) => RStmt::StoreB(*a, self.int(i), self.boolean(v)),
                RStmt::If(c, t, e) => RStmt::If(self.boolean(c), self.block(t), self.block(e)),
                _ => unreachable!("not a straight-line statement"),
            })
            .collect()
    }

    fn int(&mut self, e: &IExpr) -> IExpr {
        if self.writes.invariant_i(e, true) {
            if matches!(e, IExpr::Lit(_) | IExpr::Var(_)) {
                return e.clone();
            }
            let slot = self.next.int;
            self.next.int += 1;
            self.prologue.push(RStmt::AssignI(slot, e.clone()));
            return IExpr::Var(slot);
        }
        match e {
            IExpr::Load(a, i) => IExpr::Load(*a, Box::new(self.int(i))),
            IExpr::Bin(op, a, b) => IExpr::Bin(*op, Box::new(self.int(a)), Box::new(self.int(b))),
            IExpr::Neg(a) => IExpr::Neg(Box::new(self.int(a))),
            IExpr::Lit(_) | IExpr::Var(_) | IExpr::Len(_) => e.clone(),
        }
    }

    fn float(&mut self, e: &FExpr) -> FExpr {
        if self.writes.invariant_f(e) {
            if matches!(e, FExpr::Lit(_) | FExpr::Var(_)) {
                return e.clone();
            }
            let slot = self.next.float;
            self.next.float += 1;
            self.prologue.push(RStmt::AssignF(slot, e.clone()));
            return FExpr::Var(slot);
        }
        match e {
            FExpr::LoadF64(a, i) => FExpr::LoadF64(*a, Box::new(self.int(i))),
            FExpr::LoadF32(a, i) => FExpr::LoadF32(*a, Box::new(self.int(i))),
            FExpr::Bin(op, a, b) => {
                FExpr::Bin(*op, Box::new(self.float(a)), Box::new(self.float(b)))
            }
            FExpr::Neg(a) => FExpr::Neg(Box::new(self.float(a))),
            FExpr::FromInt(i) => FExpr::FromInt(Box::new(self.int(i))),
            FExpr::Lit(_) | FExpr::Var(_) => e.clone(),
        }
    }

    fn boolean(&mut self, e: &BExpr) -> BExpr {
        if self.writes.invariant_b(e) {
            if matches!(e, BExpr::Lit(_) | BExpr::Var(_)) {
                return e.clone();
            }
            let slot = self.next.boolean;
            self.next.boolean += 1;
            self.prologue.push(RStmt::AssignB(slot, e.clone()));
            return BExpr::Var(slot);
        }
        match e {
            BExpr::Load(a, i) => BExpr::Load(*a, Box::new(self.int(i))),
            BExpr::CmpI(op, a, b) => BExpr::CmpI(*op, Box::new(self.int(a)), Box::new(self.int(b))),
            BExpr::CmpF(op, a, b) => {
                BExpr::CmpF(*op, Box::new(self.float(a)), Box::new(self.float(b)))
            }
            BExpr::Bin(op, a, b) => {
                BExpr::Bin(*op, Box::new(self.boolean(a)), Box::new(self.boolean(b)))
            }
            BExpr::Not(a) => BExpr::Not(Box::new(self.boolean(a))),
            BExpr::Lit(_) | BExpr::Var(_) => e.clone(),
        }
    }
}

/// Removes every plan under `body`: the per-element interpreter, for tests
/// that hold the planned execution against it.
#[cfg(test)]
pub(crate) fn strip_plans(body: &mut [RStmt]) {
    for_each_loop(body, &mut |_, b| b.plan = None);
}

/// The plan slot of every `For` under `body`, outermost first.
#[cfg(test)]
pub(crate) fn loop_plans(body: &[RStmt]) -> Vec<Option<&LeafPlan>> {
    let mut out = Vec::new();
    for s in body {
        match s {
            RStmt::For(_, _, _, b) => {
                out.push(b.leaf_plan());
                out.extend(loop_plans(b));
            }
            RStmt::While(_, b) | RStmt::WsDrain(_, _, _, _, b) => out.extend(loop_plans(b)),
            RStmt::If(_, t, e) => {
                out.extend(loop_plans(t));
                out.extend(loop_plans(e));
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        run_body, ArrayTy, Binding, Executable, Expr, Kernel, Param, ResourceBudget, RunControls,
        Stmt,
    };
    use proptest::prelude::*;

    fn v(name: &str) -> Expr {
        Expr::var(name)
    }

    fn ld(arr: &str, idx: Expr) -> Expr {
        Expr::load(arr, idx)
    }

    /// `for i in [0, n) { body }` after `p = 0`, over float arrays `x`, `y`,
    /// `w`, `out` and int arrays `crd`, `idx`; scalars `n`, `c`, `r`.
    fn compiled(body: Vec<Stmt>) -> Executable {
        let kernel = Kernel::new("leaf")
            .scalar_param("n")
            .scalar_param("c")
            .scalar_param("r")
            .array_param(Param::input("x", ArrayTy::F64))
            .array_param(Param::input("y", ArrayTy::F64))
            .array_param(Param::input("crd", ArrayTy::Int))
            .array_param(Param::inout("w", ArrayTy::F64))
            .array_param(Param::output("out", ArrayTy::F64))
            .array_param(Param::output("idx", ArrayTy::Int))
            .body(vec![
                Stmt::DeclInt("p".into(), Expr::int(0)),
                Stmt::for_("i", Expr::int(0), v("n"), body),
            ]);
        Executable::compile(&kernel).unwrap()
    }

    fn only_plan(exe: &Executable) -> Option<&LeafPlan> {
        let plans = loop_plans(&exe.body);
        assert_eq!(plans.len(), 1);
        plans[0]
    }

    fn strip(exe: &Executable) -> &Strip {
        only_plan(exe).expect("a leaf loop").strip.as_ref().expect("every access decided")
    }

    #[test]
    fn the_mttkrp_leaf_hoists_its_tensor_value_and_its_row_offset() {
        // w[i] += y[c] * x[c*r + i]
        let exe = compiled(vec![Stmt::store_add(
            "w",
            v("i"),
            ld("y", v("c")) * ld("x", v("c") * v("r") + v("i")),
        )]);
        let strip = strip(&exe);
        assert_eq!(strip.accesses.len(), 3, "{strip:?}");
        match &strip.prologue[..] {
            [RStmt::AssignF(value, FExpr::LoadF64(..)), RStmt::AssignI(row, IExpr::Bin(BinOp::Mul, ..))] =>
            {
                // Fresh slots, past every slot the kernel declares.
                assert_eq!((*value, *row), (exe.n_float, exe.n_int));
                // w[i] += f<value> * x[i<row> + i]
                let [RStmt::StoreAddF64(_, IExpr::Var(_), FExpr::Bin(BinOp::Mul, a, b))] =
                    &strip.body[..]
                else {
                    panic!("unexpected body {:?}", strip.body)
                };
                assert!(matches!(**a, FExpr::Var(s) if s == *value), "{a:?}");
                let FExpr::LoadF64(_, idx) = &**b else { panic!("unexpected operand {b:?}") };
                assert!(
                    matches!(&**idx, IExpr::Bin(BinOp::Add, l, _) if **l == IExpr::Var(*row)),
                    "{idx:?}"
                );
            }
            other => panic!("unexpected prologue {other:?}"),
        }
    }

    #[test]
    fn a_load_from_an_array_the_body_stores_to_is_not_hoisted() {
        // w[i] = 0.0; out[i] = w[i]: the loop variable is never invariant.
        let exe = compiled(vec![
            Stmt::store("w", v("i"), Expr::float(0.0)),
            Stmt::store("out", v("i"), ld("w", v("i"))),
        ]);
        assert!(strip(&exe).prologue.is_empty());
        // w[c] = 0.0; out[i] = w[c] + y[c]: the index is invariant, the
        // element is not — only `y[c]` moves.
        let exe = compiled(vec![
            Stmt::store("w", v("c"), Expr::float(0.0)),
            Stmt::store("out", v("i"), ld("w", v("c")) + ld("y", v("c"))),
        ]);
        let strip = strip(&exe);
        assert!(
            matches!(&strip.prologue[..], [RStmt::AssignF(_, FExpr::LoadF64(arr, _))] if exe.array_names[*arr] == "y"),
            "{strip:?}"
        );
        // Still range-decided at entry, as an invariant access of `w`.
        assert!(strip
            .accesses
            .iter()
            .any(|(arr, form)| exe.array_names[*arr] == "w"
                && matches!(form, LeafIndex::Invariant(_))));
    }

    #[test]
    fn an_assigned_slot_used_as_an_index_leaves_the_loop_undecided() {
        // As a load index: the native backend still versions the loop (its
        // only store is `out[i]`), the interpreter runs it per element.
        let exe = compiled(vec![Stmt::incr("p"), Stmt::store("out", v("i"), ld("x", v("p")))]);
        let plan = only_plan(&exe).expect("the stores hoist");
        assert_eq!(plan.stores.len(), 1);
        assert!(plan.strip.is_none());
        // As a store index: not a leaf loop at all.
        let exe = compiled(vec![Stmt::store("out", v("p"), v("i")), Stmt::incr("p")]);
        assert!(only_plan(&exe).is_none());
        // An indirect load is undecided for the same reason.
        let exe = compiled(vec![Stmt::store("out", v("i"), ld("x", ld("crd", v("i"))))]);
        assert!(only_plan(&exe).expect("the stores hoist").strip.is_none());
    }

    #[test]
    fn loopvar_minus_invariant_is_unit_stride() {
        let exe = compiled(vec![Stmt::store("out", v("i") - v("c"), ld("x", v("i") - v("r")))]);
        let plan = only_plan(&exe).expect("a leaf loop");
        assert!(
            matches!(&plan.stores[..], [(_, LeafIndex::Affine(Some(IExpr::Neg(_))))]),
            "{plan:?}"
        );
        assert_eq!(plan.strip.as_ref().expect("decided").accesses.len(), 2);
        // `inv - loopvar` runs backwards: neither form.
        let exe = compiled(vec![Stmt::store("out", v("c") - v("i"), Expr::float(1.0))]);
        assert!(only_plan(&exe).is_none());
    }

    // --- the planned interpreter against the per-element one -------------

    /// Seven straight-line leaf loops over `i` in `[lo, hi)`, each run
    /// `reps` times after an empty `spin`-trip leaf loop, so the loop is
    /// entered at every phase of the supervision countdown.
    fn differential_kernels() -> Vec<Executable> {
        let x = || ld("x", v("i") - v("xo"));
        let bodies = vec![
            // Element-wise.
            vec![Stmt::store("out", v("off") + v("i"), Expr::float(2.0) * x())],
            // A guarded invariant accumulation with a counter.
            vec![
                Stmt::if_(
                    x().gt(Expr::float(0.5)),
                    vec![Stmt::store_add("acc", v("c"), x()), Stmt::incr("count")],
                ),
                Stmt::store_add("out", v("i") + v("off"), Expr::float(1.0)),
            ],
            // Two stores into one array at different offsets.
            vec![
                Stmt::store("out", v("off") + v("i"), x()),
                Stmt::store_add("out", v("i"), Expr::float(1.0)),
            ],
            // An integer array beside a float one.
            vec![
                Stmt::store("idx", v("i"), v("i") * Expr::int(3)),
                Stmt::store_add("out", v("off") + v("i"), x()),
            ],
            // Loads from an array the body also stores to, one of them at
            // an invariant index an iteration may overwrite.
            vec![Stmt::store(
                "out",
                v("off") + v("i"),
                ld("out", v("i")) + ld("out", v("c") + Expr::int(2)) + x(),
            )],
            // A loop-invariant load and a loop-invariant product.
            vec![Stmt::store(
                "out",
                v("off") + v("i"),
                ld("y", v("c")) * x() + ld("y", v("c") * v("c")),
            )],
            // A load inside an `If` no iteration takes.
            vec![
                Stmt::if_(
                    v("hi").lt(v("i")),
                    vec![Stmt::store("acc", Expr::int(0), ld("y", v("c")))],
                ),
                Stmt::store("out", v("off") + v("i"), x()),
            ],
        ];
        bodies
            .into_iter()
            .map(|body| {
                let kernel = Kernel::new("leaf")
                    .scalar_param("lo")
                    .scalar_param("hi")
                    .scalar_param("off")
                    .scalar_param("xo")
                    .scalar_param("c")
                    .scalar_param("reps")
                    .scalar_param("spin")
                    .array_param(Param::input("x", ArrayTy::F64))
                    .array_param(Param::input("y", ArrayTy::F64))
                    .array_param(Param::output("out", ArrayTy::F64))
                    .array_param(Param::output("acc", ArrayTy::F64))
                    .array_param(Param::output("idx", ArrayTy::Int))
                    .scalar_output("count")
                    .body(vec![
                        Stmt::DeclInt("count".into(), Expr::int(0)),
                        Stmt::for_("s", Expr::int(0), v("spin"), vec![]),
                        Stmt::for_(
                            "rep",
                            Expr::int(0),
                            v("reps"),
                            vec![Stmt::for_("i", v("lo"), v("hi"), body)],
                        ),
                    ]);
                let exe = Executable::compile(&kernel).unwrap();
                // The spin loop and the body loop are decided; the `rep`
                // loop around them is not a leaf.
                let decided = |p: &Option<&LeafPlan>| p.is_some_and(|p| p.strip.is_some());
                assert_eq!(loop_plans(&exe.body).iter().filter(|p| decided(p)).count(), 2);
                exe
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Outputs, scalar outputs, error payloads and `Progress` are
        /// bit-identical between an `Executable` and its copy without
        /// plans: every access in range, short by a few elements at either
        /// end, or below zero; entered at any phase of the countdown;
        /// unlimited or under a fuse that trips anywhere.
        #[test]
        fn planned_runs_match_per_element_runs(
            shape in 0usize..7,
            lo_raw in 0u64..13,
            trip_raw in 0u64..2600,
            long_trip in 0u8..4,
            off_raw in 0u64..13,
            out_slack_raw in 0u64..10,
            x_shift_raw in 0u64..8,
            x_slack_raw in 0u64..8,
            c_raw in 0u64..8,
            y_len in 0usize..8,
            reps in 1u64..4,
            spin in 0u64..1500,
            fused in 0u8..2,
            fuse_raw in 0u64..10_000,
            calm in 0u8..3,
            seed in 0u64..1000,
        ) {
            thread_local! {
                static KERNELS: Vec<(Executable, Executable)> = differential_kernels()
                    .into_iter()
                    .map(|exe| (exe.without_leaf_plans(), exe))
                    .collect();
            }
            let lo = lo_raw as i64 - 6;
            let trip = if long_trip == 0 { trip_raw } else { trip_raw % 40 } as i64;
            let (hi, off) = (lo + trip, off_raw as i64 - 4);
            // About half the cases keep every access in range: the loads
            // of `x` start at its first element, `x` and `out` are long
            // enough. The rest miss by an element or a few, at either end.
            let skew = |raw: u64| [-1, 1, 0][raw.min(2) as usize];
            let (x_shift, x_slack) = (skew(x_shift_raw), skew(x_slack_raw));
            let out_slack = out_slack_raw.min(6) as i64 - 3;

            let mut binding = Binding::new();
            binding
                .set_scalar("lo", lo)
                .set_scalar("hi", hi)
                .set_scalar("off", off)
                .set_scalar("xo", lo + x_shift)
                .set_scalar("c", c_raw as i64 - 2)
                .set_scalar("reps", reps as i64)
                .set_scalar("spin", spin as i64);
            // A third of the cases never fire the guard of shape 1.
            let scale = if calm == 0 { 0.5 } else { 1.0 };
            let x_len = (trip - x_shift + x_slack).max(0) as u64;
            let x = (0..x_len).map(|k| scale * ((k * 7919 + seed) % 1000) as f64 / 1000.0);
            binding.set_f64("x", x.collect());
            binding.set_f64("y", (0..y_len).map(|k| 0.25 + k as f64).collect());
            let out_len = (hi + off.max(0) + out_slack).max(0) as usize;
            binding.set_f64("out", (0..out_len).map(|k| 1.0 + k as f64).collect());
            binding.set_f64("acc", vec![0.0; 4]);
            binding.set_int("idx", vec![-1; (hi + out_slack).max(0) as usize]);

            let total = spin + reps * trip as u64;
            let budget = if fused == 0 {
                ResourceBudget::unlimited()
            } else {
                ResourceBudget::unlimited().with_max_loop_iterations(fuse_raw % (total + total / 8 + 2))
            };

            KERNELS.with(|kernels| {
                let (per_element, planned) = &kernels[shape];
                let mut pb = binding.clone();
                let (progress, result) = run_body(planned, &mut pb, &budget, RunControls::default());
                let mut eb = binding.clone();
                let (reference_progress, reference) =
                    run_body(per_element, &mut eb, &budget, RunControls::default());
                prop_assert_eq!(&result, &reference);
                prop_assert_eq!(progress, reference_progress);
                prop_assert_eq!(&pb, &eb);
                let bits = |b: &Binding| -> Vec<u64> {
                    ["out", "acc"]
                        .iter()
                        .flat_map(|a| b.f64_array(a).unwrap().iter().map(|v| v.to_bits()))
                        .collect()
                };
                prop_assert_eq!(bits(&pb), bits(&eb));
                Ok(())
            })?;
        }
    }
}
