//! Workspace reset obligations and pos-counter monotonicity.
//!
//! Section VI of the paper: a workspace is allocated zero-filled once, and
//! every loop iteration that *assumes* it clean (reads it, or accumulates
//! into it) must also restore it to clean before the iteration ends —
//! otherwise the next iteration observes stale values. The check runs per
//! *phase loop*: each top-level loop of the kernel that uses a workspace
//! allocated before it.
//!
//! A workspace lowered to the workspace nodes — every kind when it
//! assembles result rows, the map kinds always — carries the obligation as
//! one rule: every `WsScatter` reaches a `WsDrain` (or a re-`WsInit`) before
//! the phase loop's back-edge. A dense workspace read by random access is a
//! plain array, and an iteration restores it through one of two *drain*
//! idioms the lowerer emits (or a `memset`):
//!
//! * **full-range drain** — `for (j = 0; j < D; j++) w[j] = 0;` where `D`
//!   provably covers the allocation length;
//! * **structure drain** — iterate one row segment of a `pos`/`crd`
//!   structure and zero the workspace at each stored coordinate. This is
//!   sound only if the structure covers every coordinate the iteration
//!   dirtied; the verifier records that as a named assumption.
//!
//! Separately, every scalar counter stored into a kernel-written `*_pos`
//! array must be provably non-decreasing, or the assembled `pos` array
//! would not be monotone ([`VerifyError::PosNotMonotone`]).

use std::collections::{HashMap, HashSet};

use taco_llir::{stmt_to_c, visit_stmts, BinOp, Expr, Kernel, Stmt};

use crate::assume::Assumptions;
use crate::error::{Diagnostic, Severity, VerifyError};
use crate::sym::{Atom, Bounds, Sym};

/// Cleanliness of a workspace array in the exit simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Z {
    Clean,
    Dirty,
}

/// What a loop iteration requires of a workspace at its start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Req {
    /// First relevant use defines the whole array (memset) — no obligation.
    Defines,
    /// The iteration reads or accumulates before any full definition.
    Reads,
    /// The array is untouched.
    Nothing,
}

/// A tiny expression evaluator for the pass: scalar parameters become
/// canonical dimension atoms, everything opaque gets a fresh atom.
fn eval_static(e: &Expr, assume: &Assumptions, fresh: &mut u64) -> Sym {
    match e {
        Expr::Int(v) => Sym::int(*v),
        Expr::Var(v) => Sym::var(assume.canon_dim(v)),
        Expr::Len(arr) => Sym::len(arr.clone()),
        Expr::Bin(BinOp::Add, a, b) => {
            eval_static(a, assume, fresh).add(&eval_static(b, assume, fresh))
        }
        Expr::Bin(BinOp::Sub, a, b) => {
            eval_static(a, assume, fresh).sub(&eval_static(b, assume, fresh))
        }
        Expr::Bin(BinOp::Mul, a, b) => {
            eval_static(a, assume, fresh).mul(&eval_static(b, assume, fresh))
        }
        _ => {
            *fresh += 1;
            Sym::atom(Atom::Opaque(*fresh))
        }
    }
}

fn is_zero(e: &Expr) -> bool {
    matches!(e, Expr::Int(0) | Expr::Bool(false)) || matches!(e, Expr::Float(v) if *v == 0.0)
}

fn expr_reads(e: &Expr, arr: &str) -> bool {
    match e {
        Expr::Load(a, idx) => a == arr || expr_reads(idx, arr),
        Expr::Un(_, a) => expr_reads(a, arr),
        Expr::Bin(_, a, b) => expr_reads(a, arr) || expr_reads(b, arr),
        _ => false,
    }
}

fn stmt_uses(s: &Stmt, arr: &str) -> bool {
    let mut used = false;
    visit_stmts(std::slice::from_ref(s), &mut |s| {
        let exprs: Vec<&Expr> = match s {
            Stmt::DeclInt(_, e)
            | Stmt::DeclFloat(_, e)
            | Stmt::DeclBool(_, e)
            | Stmt::Assign(_, e) => vec![e],
            Stmt::Store { arr: a, idx, val } | Stmt::StoreAdd { arr: a, idx, val } => {
                if a == arr {
                    used = true;
                }
                vec![idx, val]
            }
            Stmt::For { lo, hi, .. } | Stmt::ParallelFor { lo, hi, .. } => vec![lo, hi],
            Stmt::While { cond, .. } | Stmt::If { cond, .. } => vec![cond],
            Stmt::Memset { arr: a, val } => {
                if a == arr {
                    used = true;
                }
                vec![val]
            }
            Stmt::Alloc { len, .. } => vec![len],
            Stmt::Realloc { arr: a, len } => {
                if a == arr {
                    used = true;
                }
                vec![len]
            }
            Stmt::WsInit { extent, .. } => vec![extent],
            Stmt::WsScatter { key, val, .. } => vec![key, val],
            // Drain bodies are visited by the surrounding recursion.
            Stmt::WsDrain { .. } => vec![],
            Stmt::Comment(_) => vec![],
        };
        if exprs.iter().any(|e| expr_reads(e, arr)) {
            used = true;
        }
    });
    used
}

/// What the block requires of `arr` at entry, scanning in order.
fn requirement(block: &[Stmt], arr: &str) -> Req {
    for s in block {
        let req = stmt_requirement(s, arr);
        if req != Req::Nothing {
            return req;
        }
    }
    Req::Nothing
}

fn stmt_requirement(s: &Stmt, arr: &str) -> Req {
    let reads_any = |exprs: &[&Expr]| exprs.iter().any(|e| expr_reads(e, arr));
    match s {
        Stmt::DeclInt(_, e) | Stmt::DeclFloat(_, e) | Stmt::DeclBool(_, e) | Stmt::Assign(_, e) => {
            if expr_reads(e, arr) {
                Req::Reads
            } else {
                Req::Nothing
            }
        }
        Stmt::Store { arr: a, idx, val } => {
            if reads_any(&[idx, val]) {
                Req::Reads
            } else {
                // A plain store to `arr` neither requires nor establishes
                // cleanliness of the whole array.
                let _ = a;
                Req::Nothing
            }
        }
        Stmt::StoreAdd { arr: a, idx, val } => {
            if a == arr || reads_any(&[idx, val]) {
                Req::Reads
            } else {
                Req::Nothing
            }
        }
        Stmt::Memset { arr: a, val } => {
            if a == arr {
                Req::Defines
            } else if expr_reads(val, arr) {
                Req::Reads
            } else {
                Req::Nothing
            }
        }
        Stmt::Alloc { arr: a, len, .. } => {
            if a == arr {
                Req::Defines
            } else if expr_reads(len, arr) {
                Req::Reads
            } else {
                Req::Nothing
            }
        }
        Stmt::Realloc { len, .. } => {
            if expr_reads(len, arr) {
                Req::Reads
            } else {
                Req::Nothing
            }
        }
        Stmt::For { lo, hi, body, .. } | Stmt::ParallelFor { lo, hi, body, .. } => {
            if reads_any(&[lo, hi]) {
                return Req::Reads;
            }
            match requirement(body, arr) {
                Req::Reads => Req::Reads,
                // A loop body may run zero times, so it cannot define.
                _ => Req::Nothing,
            }
        }
        Stmt::While { cond, body } => {
            if expr_reads(cond, arr) {
                return Req::Reads;
            }
            match requirement(body, arr) {
                Req::Reads => Req::Reads,
                _ => Req::Nothing,
            }
        }
        Stmt::If { cond, then, els } => {
            if expr_reads(cond, arr) {
                return Req::Reads;
            }
            let (t, e) = (requirement(then, arr), requirement(els, arr));
            if t == Req::Reads || e == Req::Reads {
                Req::Reads
            } else if t == Req::Defines && e == Req::Defines {
                Req::Defines
            } else {
                Req::Nothing
            }
        }
        Stmt::WsInit { extent, .. } => {
            if expr_reads(extent, arr) {
                Req::Reads
            } else {
                Req::Nothing
            }
        }
        Stmt::WsScatter { key, val, .. } => {
            if reads_any(&[key, val]) {
                Req::Reads
            } else {
                Req::Nothing
            }
        }
        Stmt::WsDrain { body, .. } => match requirement(body, arr) {
            Req::Reads => Req::Reads,
            // A drain over an empty workspace runs its body zero times.
            _ => Req::Nothing,
        },
        Stmt::Comment(_) => Req::Nothing,
    }
}

/// What the block requires of workspace node `w` at entry: any scatter or
/// drain assumes it holds exactly this iteration's entries, i.e. it was
/// empty at entry; a re-`WsInit` defines it.
fn ws_requirement(block: &[Stmt], w: &str) -> Req {
    for s in block {
        let req = ws_stmt_requirement(s, w);
        if req != Req::Nothing {
            return req;
        }
    }
    Req::Nothing
}

fn ws_stmt_requirement(s: &Stmt, w: &str) -> Req {
    match s {
        Stmt::WsInit { ws, .. } if ws == w => Req::Defines,
        Stmt::WsScatter { ws, .. } | Stmt::WsDrain { ws, .. } if ws == w => Req::Reads,
        Stmt::For { body, .. }
        | Stmt::ParallelFor { body, .. }
        | Stmt::While { body, .. }
        | Stmt::WsDrain { body, .. } => match ws_requirement(body, w) {
            Req::Reads => Req::Reads,
            // Loop and drain bodies may run zero times.
            _ => Req::Nothing,
        },
        Stmt::If { then, els, .. } => {
            let (t, e) = (ws_requirement(then, w), ws_requirement(els, w));
            if t == Req::Reads || e == Req::Reads {
                Req::Reads
            } else if t == Req::Defines && e == Req::Defines {
                Req::Defines
            } else {
                Req::Nothing
            }
        }
        _ => Req::Nothing,
    }
}

/// Does the statement use workspace node `w` at all?
fn stmt_uses_ws(s: &Stmt, w: &str) -> bool {
    let mut used = false;
    visit_stmts(std::slice::from_ref(s), &mut |t| match t {
        Stmt::WsInit { ws, .. } | Stmt::WsScatter { ws, .. } | Stmt::WsDrain { ws, .. }
            if ws == w =>
        {
            used = true;
        }
        _ => {}
    });
    used
}

/// Simulation context shared across one phase loop's body.
struct Sim<'a> {
    assume: &'a Assumptions,
    /// Allocation lengths of tracked workspaces.
    alloc_len: &'a HashMap<String, Sym>,
    bounds: Bounds,
    fresh: u64,
    /// Structure-coverage assumptions taken by structure drains.
    notes: Vec<String>,
}

impl Sim<'_> {
    fn join(a: &mut HashMap<String, Z>, b: &HashMap<String, Z>) {
        for (k, v) in b {
            if *v == Z::Dirty {
                a.insert(k.clone(), Z::Dirty);
            }
        }
    }

    fn sim_block(&mut self, block: &[Stmt], state: &mut HashMap<String, Z>) {
        for s in block {
            self.sim_stmt(s, state);
        }
    }

    fn sim_stmt(&mut self, s: &Stmt, state: &mut HashMap<String, Z>) {
        match s {
            // calloc: zero-filled.
            Stmt::Alloc { arr, .. } if state.contains_key(arr) => {
                state.insert(arr.clone(), Z::Clean);
            }
            Stmt::Memset { arr, val } if state.contains_key(arr) => {
                state.insert(arr.clone(), if is_zero(val) { Z::Clean } else { Z::Dirty });
            }
            Stmt::Store { arr, val, .. } | Stmt::StoreAdd { arr, val, .. }
                if state.contains_key(arr) && !is_zero(val) =>
            {
                state.insert(arr.clone(), Z::Dirty);
            }
            Stmt::If { then, els, .. } => {
                let mut t = state.clone();
                self.sim_block(then, &mut t);
                let mut e = state.clone();
                self.sim_block(els, &mut e);
                Sim::join(&mut t, &e);
                *state = t;
            }
            Stmt::While { body, .. } => {
                let mut inner = state.clone();
                self.sim_block(body, &mut inner);
                Sim::join(state, &inner);
            }
            Stmt::For { var, lo, hi, body } | Stmt::ParallelFor { var, lo, hi, body, .. } => {
                let drained = self.drain_targets(var, lo, hi, body, state);
                let mut inner = state.clone();
                self.sim_block(body, &mut inner);
                Sim::join(state, &inner);
                // A matched drain restores exactly the region that can be
                // dirty (the full array or the stored structure), including
                // the empty-region case where the loop runs zero times.
                for a in drained {
                    state.insert(a, Z::Clean);
                }
            }
            // Workspace nodes: a re-init or a drain empties the workspace,
            // a scatter dirties it.
            Stmt::WsInit { ws, .. } if state.contains_key(ws) => {
                state.insert(ws.clone(), Z::Clean);
            }
            Stmt::WsScatter { ws, .. } if state.contains_key(ws) => {
                state.insert(ws.clone(), Z::Dirty);
            }
            Stmt::WsDrain { ws, body, .. } => {
                let mut inner = state.clone();
                self.sim_block(body, &mut inner);
                Sim::join(state, &inner);
                if state.contains_key(ws) {
                    // The drain removes every entry.
                    state.insert(ws.clone(), Z::Clean);
                }
            }
            _ => {}
        }
    }

    /// Arrays this loop provably restores to zero (the two drain idioms).
    fn drain_targets(
        &mut self,
        var: &str,
        lo: &Expr,
        hi: &Expr,
        body: &[Stmt],
        state: &HashMap<String, Z>,
    ) -> Vec<String> {
        let mut out = Vec::new();

        // Unconditional `a[var] = 0` stores at the top level of the body.
        let direct_zero: Vec<&str> = body
            .iter()
            .filter_map(|s| match s {
                Stmt::Store { arr, idx, val }
                    if is_zero(val) && matches!(idx, Expr::Var(v) if v == var) =>
                {
                    Some(arr.as_str())
                }
                _ => None,
            })
            .collect();

        // Full-range drain: for (var = 0; var < D; var++) a[var] = 0;
        if matches!(lo, Expr::Int(0)) {
            let hi_sym = eval_static(hi, self.assume, &mut self.fresh);
            for arr in &direct_zero {
                if state.contains_key(*arr) {
                    if let Some(len) = self.alloc_len.get(*arr) {
                        if self.bounds.prove_le(len, &hi_sym) {
                            out.push((*arr).to_string());
                        }
                    }
                }
            }
        }

        // A structure drain starts by decoding a coordinate:
        // int32_t j = crd[var];
        let Some(Stmt::DeclInt(j, Expr::Load(decode, didx))) = body.first() else {
            return out;
        };
        if !matches!(&**didx, Expr::Var(v) if v == var) {
            return out;
        }
        // Zeroing stores indexed by the decoded coordinate.
        let coord_zero: Vec<&str> = body
            .iter()
            .filter_map(|s| match s {
                Stmt::Store { arr, idx, val }
                    if is_zero(val) && matches!(idx, Expr::Var(v) if v == j) =>
                {
                    Some(arr.as_str())
                }
                _ => None,
            })
            .collect();
        if coord_zero.is_empty() {
            return out;
        }

        // Structure drain: for (p = pos[e]; p < pos[e + 1]; p++) decoding
        // crd[p]. Sound only when the structure covers the dirtied
        // coordinates — recorded as an assumption.
        if let (Expr::Load(plo, _), Expr::Load(phi, _)) = (lo, hi) {
            if plo == phi {
                for arr in &coord_zero {
                    if state.contains_key(*arr) {
                        self.notes.push(format!(
                            "structure `{plo}`/`{decode}` covers every coordinate of `{arr}` \
                             dirtied in one iteration (preassembled output structure)"
                        ));
                        out.push((*arr).to_string());
                    }
                }
            }
        }
        out
    }
}

/// Checks reset obligations for every top-level phase loop.
pub(crate) fn check(
    kernel: &Kernel,
    assume: &Assumptions,
    diags: &mut Vec<Diagnostic>,
    notes: &mut Vec<String>,
) {
    let mut alloc_len: HashMap<String, Sym> = HashMap::new();
    let mut ws_nodes: HashSet<String> = HashSet::new();
    let mut fresh_outer = 0u64;
    for (i, s) in kernel.body.iter().enumerate() {
        if let Stmt::Alloc { arr, len, .. } = s {
            alloc_len.insert(arr.clone(), eval_static(len, assume, &mut fresh_outer));
            continue;
        }
        if let Stmt::WsInit { ws, .. } = s {
            // Workspace nodes start empty and carry the same between-phase
            // obligation as zero-filled arrays: empty again at iteration
            // exit.
            ws_nodes.insert(ws.clone());
            continue;
        }
        let (Stmt::For { body, .. } | Stmt::ParallelFor { body, .. } | Stmt::While { body, .. }) =
            s
        else {
            continue;
        };
        let obligated: Vec<String> = alloc_len
            .keys()
            .filter(|a| stmt_uses(s, a) && requirement(body, a) == Req::Reads)
            .chain(
                ws_nodes
                    .iter()
                    .filter(|w| stmt_uses_ws(s, w) && ws_requirement(body, w) == Req::Reads),
            )
            .cloned()
            .collect();
        if obligated.is_empty() {
            continue;
        }
        let mut sim = Sim {
            assume,
            alloc_len: &alloc_len,
            bounds: Bounds::default(),
            fresh: 0,
            notes: Vec::new(),
        };
        let mut state: HashMap<String, Z> =
            obligated.iter().map(|a| (a.clone(), Z::Clean)).collect();
        sim.sim_block(body, &mut state);
        for a in &obligated {
            if state.get(a) == Some(&Z::Dirty) {
                diags.push(Diagnostic {
                    error: VerifyError::MissingReset { array: a.clone() },
                    severity: Severity::Deny,
                    path: vec![i],
                    stmt: stmt_to_c(s),
                    origin: None,
                });
            }
        }
        notes.extend(sim.notes);
    }
    notes.sort();
    notes.dedup();
}

/// Checks that every counter stored into a kernel-written `*_pos` array is
/// provably non-decreasing.
pub(crate) fn check_pos_monotone(kernel: &Kernel, diags: &mut Vec<Diagnostic>) {
    // Counters whose values flow into a pos array.
    let mut counters: HashSet<String> = HashSet::new();
    visit_stmts(&kernel.body, &mut |s| {
        if let Stmt::Store { arr, val: Expr::Var(c), .. } = s {
            if taco_lower::params::is_pos_name(arr) {
                counters.insert(c.clone());
            }
        }
    });
    if counters.is_empty() {
        return;
    }
    let x = Atom::Var("__pos_counter".to_string());
    let bounds = Bounds::default();
    visit_stmts(&kernel.body, &mut |s| {
        let Stmt::Assign(c, e) = s else { return };
        if !counters.contains(c) {
            return;
        }
        // Evaluate the right-hand side with the counter itself as the
        // distinguished atom; the update is monotone iff rhs - counter ≥ 0.
        let mut fresh = 0u64;
        let rhs = eval_counter(e, c, &x, &mut fresh);
        let delta = rhs.sub(&Sym::atom(x.clone()));
        if bounds.prove_le(&Sym::int(0), &delta) {
            return;
        }
        let refuted = bounds.prove_le(&delta, &Sym::int(-1));
        diags.push(Diagnostic {
            error: if refuted {
                VerifyError::PosNotMonotone { counter: c.clone() }
            } else {
                VerifyError::Unproven {
                    obligation: format!("append counter `{c}` never decreases"),
                }
            },
            severity: if refuted { Severity::Deny } else { Severity::Warn },
            path: Vec::new(),
            stmt: stmt_to_c(s),
            origin: None,
        });
    });
}

fn eval_counter(e: &Expr, counter: &str, x: &Atom, fresh: &mut u64) -> Sym {
    match e {
        Expr::Int(v) => Sym::int(*v),
        Expr::Var(v) if v == counter => Sym::atom(x.clone()),
        Expr::Var(v) => Sym::var(v.clone()),
        Expr::Len(arr) => Sym::len(arr.clone()),
        Expr::Bin(BinOp::Add, a, b) => {
            eval_counter(a, counter, x, fresh).add(&eval_counter(b, counter, x, fresh))
        }
        Expr::Bin(BinOp::Sub, a, b) => {
            eval_counter(a, counter, x, fresh).sub(&eval_counter(b, counter, x, fresh))
        }
        Expr::Bin(BinOp::Mul, a, b) => {
            eval_counter(a, counter, x, fresh).mul(&eval_counter(b, counter, x, fresh))
        }
        _ => {
            *fresh += 1;
            Sym::atom(Atom::Opaque(*fresh))
        }
    }
}
