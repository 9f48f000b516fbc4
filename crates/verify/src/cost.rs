//! Symbolic cost and footprint analysis over lowered LLIR (DESIGN.md §17).
//!
//! [`analyze_cost`] walks a lowered kernel and derives *provable upper
//! bounds* — polynomials over format-derived atoms (dimension parameters
//! and operand array lengths) — on every resource the executor meters
//! against a [`ResourceBudget`](taco_llir::ResourceBudget):
//!
//! * the bytes of every single allocation charge (`Alloc`, `Realloc`
//!   growth, map-workspace footprint including capacity doubling),
//! * the cumulative bytes charged over the whole run,
//! * the loop iterations consumed at back-edges,
//! * the entries all workspace drains visit, and
//! * the resident footprint and final output sizes of every workspace and
//!   reallocated result array.
//!
//! The bounds are *sound* with respect to the runtime meter under the same
//! assumptions the rest of the verifier makes (and the runtime enforces at
//! bind time): operands are validated tensors, so `pos`/`crd` loads are
//! within their documented ranges and every scalar the kernel derives from
//! them is nonnegative. Every accepted kernel satisfies
//! `concrete(bound) >= observed peak` for the high-water marks the
//! [`BudgetMeter`](taco_llir::BudgetMeter) records — the property the
//! differential soundness suite asserts across the whole candidate space.
//!
//! Bounds that cannot be derived degrade to [`Bound::Unknown`] with the
//! blocking construct named, never to a silently wrong number.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::Instant;

use taco_llir::{elem_bytes, visit_stmts, ArrayTy, BinOp, Expr, Stmt, UnOp, WorkspaceKind};
use taco_lower::params::{dim_name, is_pos_name, level_extent};
use taco_lower::LoweredKernel;

use crate::assume::Assumptions;
use crate::sym::{Atom, Sym};

/// A proven upper bound, or a named reason none could be derived.
#[derive(Debug, Clone, PartialEq)]
pub enum Bound {
    /// `value <= polynomial` on every run over validated operands.
    Finite(Sym),
    /// No finite bound; the string names the blocking construct. This is
    /// conservative degradation, not an error: consumers must treat it as
    /// "may be arbitrarily large".
    Unknown(String),
}

impl Bound {
    /// The zero bound.
    #[must_use]
    pub fn zero() -> Bound {
        Bound::Finite(Sym::int(0))
    }

    /// The polynomial, when finite.
    #[must_use]
    pub fn finite(&self) -> Option<&Sym> {
        match self {
            Bound::Finite(s) => Some(s),
            Bound::Unknown(_) => None,
        }
    }

    /// True when a finite polynomial was derived.
    #[must_use]
    pub fn is_finite(&self) -> bool {
        matches!(self, Bound::Finite(_))
    }

    /// Sum of two bounds; unknown absorbs.
    #[must_use]
    pub fn add(&self, other: &Bound) -> Bound {
        match (self, other) {
            (Bound::Finite(a), Bound::Finite(b)) => Bound::Finite(a.add(b)),
            (Bound::Unknown(r), _) | (_, Bound::Unknown(r)) => Bound::Unknown(r.clone()),
        }
    }

    /// Evaluates the bound to a concrete byte/count ceiling under `env`.
    /// `None` when the bound is unknown or mentions an atom the environment
    /// does not value.
    #[must_use]
    pub fn concrete(&self, env: &CostEnv) -> Option<u64> {
        env.eval(self.finite()?)
    }

    fn from_opt(s: Option<Sym>, why: &str) -> Bound {
        match s {
            Some(s) => Bound::Finite(s),
            None => Bound::Unknown(why.to_string()),
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Finite(s) => write!(f, "{s}"),
            Bound::Unknown(why) => write!(f, "unbounded ({why})"),
        }
    }
}

/// Concrete atom values for evaluating a [`Bound`]: dimension parameters
/// (and any other integer scalars bound to the kernel), bound array lengths
/// and the longest segment of each bound `pos` array. Built from declared
/// shapes at compile time or from a full binding at bind time.
#[derive(Debug, Clone, Default)]
pub struct CostEnv {
    /// Values for `Var` atoms (dimension parameters, scalar params).
    pub vars: HashMap<String, u64>,
    /// Values for `Len` atoms (bound array lengths).
    pub lens: HashMap<String, u64>,
    /// Values for `Seg` atoms: the longest segment `pos[p + 1] - pos[p]` of
    /// each `pos` array, or any ceiling on it (a level's extent).
    pub segs: HashMap<String, u64>,
}

impl CostEnv {
    /// The compile-time environment: dimension parameters valued from the
    /// kernel's *declared* tensor shapes (the runtime rejects bindings whose
    /// shapes differ, so these are exact). Array lengths and segment
    /// lengths stay unvalued — bounds that scale with nnz evaluate only at
    /// bind time.
    #[must_use]
    pub fn from_shapes(lk: &LoweredKernel) -> CostEnv {
        let mut env = CostEnv::default();
        for t in lk.tensors() {
            for l in 0..t.rank() {
                env.vars.insert(dim_name(t.name(), l), level_extent(t, l) as u64);
            }
        }
        env
    }

    /// Evaluates a polynomial under the environment, saturating at
    /// `u64::MAX` and clamping negative results (a bound like `dim - 1`) to
    /// zero. `None` when an atom has no value.
    #[must_use]
    pub fn eval(&self, s: &Sym) -> Option<u64> {
        let mut acc: i128 = 0;
        for (mono, coeff) in s.terms() {
            let mut term: i128 = i128::from(coeff);
            for atom in &mono {
                let v = match atom {
                    Atom::Var(name) => *self.vars.get(name)?,
                    Atom::Len(arr) => *self.lens.get(arr)?,
                    Atom::Seg(pos) => *self.segs.get(pos)?,
                    Atom::Opaque(_) => return None,
                };
                term = term.saturating_mul(i128::from(v));
            }
            acc = acc.saturating_add(term);
        }
        Some(u64::try_from(acc.max(0)).unwrap_or(u64::MAX))
    }
}

/// One metered charge site: a bound on the largest single charge the site
/// can put through the budget meter (array allocation bytes, realloc growth
/// bytes, one array of a dense workspace, or a map workspace's whole
/// footprint).
#[derive(Debug, Clone)]
pub struct ChargeBound {
    /// Array or workspace name charged.
    pub name: String,
    /// Upper bound on any single charge from this site, in bytes.
    pub bytes: Bound,
}

/// The derived footprint of one workspace: for dense workspaces the sum of
/// its arrays, for map workspaces the charged capacity with doubling slack
/// included.
#[derive(Debug, Clone)]
pub struct WorkspaceCost {
    /// Workspace name.
    pub name: String,
    /// Storage backend.
    pub kind: WorkspaceKind,
    /// Upper bound on the workspace's resident bytes.
    pub bytes: Bound,
    /// Bound on the bytes resident *before any entry is written*: for a
    /// dense workspace this equals [`WorkspaceCost::bytes`] (its arrays are
    /// allocated up front); for a map workspace it is the initial capacity
    /// times the entry size, with growth beyond it charged against the
    /// budget at run time. The compile-time budget fallback decides on this.
    pub init_bytes: Bound,
}

/// Final-size bound for an output array the kernel grows by reallocation
/// (result `crd`/`vals` of assembling kernels).
#[derive(Debug, Clone)]
pub struct OutputBound {
    /// Array name.
    pub array: String,
    /// Upper bound on the array's final size in bytes.
    pub bytes: Bound,
}

/// The full cost report for one lowered kernel. Cached on the compiled
/// kernel beside the verification report; every field is an *upper bound*
/// provable from the operand formats alone.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// Kernel name.
    pub kernel: String,
    /// Per-site single-charge bounds (the meter's `peak_single_bytes` /
    /// `peak_map_bytes` observables are each dominated by some entry).
    pub charges: Vec<ChargeBound>,
    /// Bound on cumulative bytes charged over the whole run.
    pub total_bytes: Bound,
    /// Bound on loop iterations consumed (`For`/`While`/drain back-edges).
    pub iterations: Bound,
    /// Bound on the entries all workspace drains visit over the run — the
    /// sort work of the sorted ones.
    pub drain_entries: Bound,
    /// Per-workspace resident-footprint bounds.
    pub workspaces: Vec<WorkspaceCost>,
    /// Final-size bounds for reallocated output arrays.
    pub outputs: Vec<OutputBound>,
    /// Human-readable derivation notes (inherited assumptions, degradation
    /// reasons).
    pub notes: Vec<String>,
    /// Wall-clock nanoseconds the analysis took.
    pub analysis_nanos: u64,
}

impl CostReport {
    /// The largest single charge the kernel can put through the meter,
    /// evaluated under `env` — the static ceiling on
    /// `Progress::peak_bytes()`. `None` when any charge site is unbounded
    /// or mentions an unvalued atom.
    #[must_use]
    pub fn peak_bytes(&self, env: &CostEnv) -> Option<u64> {
        let mut peak = 0u64;
        for c in &self.charges {
            peak = peak.max(c.bytes.concrete(env)?);
        }
        Some(peak)
    }

    /// Total workspace footprint under `env`: the sum of every workspace's
    /// resident-byte bound. `None` when any workspace bound is unknown or
    /// unvalued.
    #[must_use]
    pub fn workspace_bytes(&self, env: &CostEnv) -> Option<u64> {
        let mut total = 0u64;
        for w in &self.workspaces {
            total = total.saturating_add(w.bytes.concrete(env)?);
        }
        Some(total)
    }

    /// Initial (pre-scatter) workspace footprint under `env`: the sum of
    /// every workspace's [`WorkspaceCost::init_bytes`] bound. This is what
    /// the compile-time budget fallback compares against
    /// `max_workspace_bytes` when considering a sparse backend, since map
    /// growth past the initial capacity is charged at run time. `None` when
    /// any bound is unknown or unvalued.
    #[must_use]
    pub fn workspace_init_bytes(&self, env: &CostEnv) -> Option<u64> {
        let mut total = 0u64;
        for w in &self.workspaces {
            total = total.saturating_add(w.init_bytes.concrete(env)?);
        }
        Some(total)
    }

    /// True when every charge site, the byte total and the iteration count
    /// all have finite symbolic bounds.
    #[must_use]
    pub fn all_finite(&self) -> bool {
        self.charges.iter().all(|c| c.bytes.is_finite())
            && self.total_bytes.is_finite()
            && self.iterations.is_finite()
    }

    /// A compact multi-line rendering of the report.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut s = format!(
            "cost[{}]: total_bytes <= {}, iterations <= {}, drain_entries <= {}",
            self.kernel, self.total_bytes, self.iterations, self.drain_entries
        );
        for w in &self.workspaces {
            s.push_str(&format!("\n  workspace {} ({}): <= {} bytes", w.name, w.kind, w.bytes));
        }
        for o in &self.outputs {
            s.push_str(&format!("\n  output {}: <= {} bytes", o.array, o.bytes));
        }
        s
    }
}

/// Derives the symbolic cost report for a lowered kernel.
///
/// The walk is a sound abstract execution of the LLIR statement tree:
///
/// * `For` trip count ≤ UB(`hi`) (lower bounds are ≥ 0 under
///   the validated-operand assumptions);
/// * *segment rule:* a `For` from `pos[e]` to `pos[e + 1]`
///   over a validated input `pos` array runs at most `seg(pos)` times, the
///   array's longest segment;
/// * *telescoping rule:* when that `e` is the variable of an enclosing
///   `For`, a trip product containing both loops takes the enclosing loop's
///   factor as 1 and the segment loop's as `len(crd)` — the enclosing loop
///   visits each `e` once and `pos` is monotone, so the segments it selects
///   are disjoint pieces of `crd`;
/// * `While` loops matching the merge co-iteration idiom (a conjunction of
///   `v < end` tests over counters some of which the body advances) run at
///   most Σ UB(`end`) iterations;
/// * *merge rule:* a conjunct `v < pos[e + 1]` whose `v` was declared
///   `pos[e]`, for an `e` unchanged since, contributes `seg(pos)` instead
///   (`v` only advances, so it stays inside that one segment), and the loop
///   telescopes like a segment loop when every conjunct does, to one
///   enclosing `For`;
/// * monotone append counters are bounded by their initialization plus
///   every increment times the trip bounds of the loops enclosing it;
/// * reallocation-by-doubling sites contribute at most UB of their length
///   expression (growth deltas telescope);
/// * *drain rule:* a `WsDrain` visits at most the entries scattered since
///   the workspace's last drain. When every scatter into it comes before
///   the drain in the drain's own block, that is one execution's worth of
///   them — the block reached the drain the last time it ran; otherwise
///   every scatter of the run counts;
/// * a map workspace's charged capacity never exceeds its initial capacity
///   plus twice the scatter count plus the executor's minimum grant of 8.
#[must_use]
pub fn analyze_cost(lk: &LoweredKernel) -> CostReport {
    let start = Instant::now();
    let assume = Assumptions::for_lowered(lk);
    let scalar_params: HashSet<String> = lk.kernel.scalar_params.iter().cloned().collect();

    // Classify scalars: a *counter* is only ever assigned `v + c` (c > 0) or
    // a nonnegative constant; every other reassigned scalar is havocked.
    let mut assigned: HashMap<String, bool> = HashMap::new(); // name -> counter-like
    let mut reset: HashSet<String> = HashSet::new(); // assigned a constant somewhere
    classify(&lk.kernel.body, &mut assigned, &mut reset);
    let mut sites: HashMap<String, usize> = HashMap::new();
    visit_stmts(&lk.kernel.body, &mut |s| {
        if let Stmt::WsScatter { ws, .. } = s {
            *sites.entry(ws.clone()).or_default() += 1;
        }
    });

    // Counter bounds and per-workspace scatter totals feed trip bounds of
    // later loops (a loop may run to a counter; a drain may run to every
    // scatter of the run), so iterate the walk to a fixpoint. Dependency
    // chains in generated code are no deeper than the loop nesting; four
    // rounds are ample, and every round is sound given the previous round's
    // (initially all-unknown) lookups.
    let mut state = FixState::default();
    for _ in 0..6 {
        let mut w = Walk::new(&assume, &scalar_params, &assigned, &reset, &sites, state.clone());
        w.block(&lk.kernel.body);
        let next = w.fix_out();
        let stable = next == state;
        state = next;
        if stable {
            break;
        }
    }
    // Final pass with the stable state collects the charges. (Every round's
    // output is sound, so an unconverged cap is conservative, not wrong.)
    let mut walk = Walk::new(&assume, &scalar_params, &assigned, &reset, &sites, state);
    walk.block(&lk.kernel.body);

    let mut charges = walk.charges;
    let mut workspaces = Vec::new();
    for meta in &lk.workspaces {
        let (bytes, init_bytes) = match meta.kind {
            WorkspaceKind::Dense => {
                // Resident footprint: every array charged under the
                // workspace's name. All of it is allocated up front, so the
                // initial footprint is the full footprint.
                let total = charges
                    .iter()
                    .filter(|c| c.name == meta.name)
                    .fold(Bound::zero(), |total, c| total.add(&c.bytes));
                (total.clone(), total)
            }
            WorkspaceKind::Hash | WorkspaceKind::CoordList => {
                let bytes = walk.map_footprints.get(&meta.name).cloned().unwrap_or_else(|| {
                    Bound::Unknown(format!("map `{}` never initialized", meta.name))
                });
                let init = walk
                    .map_caps
                    .get(&meta.name)
                    .map(|(kind, cap)| cap.mul_const(kind.entry_bytes()))
                    .unwrap_or_else(|| {
                        Bound::Unknown(format!("map `{}` never initialized", meta.name))
                    });
                (bytes, init)
            }
        };
        workspaces.push(WorkspaceCost { name: meta.name.clone(), kind: meta.kind, bytes, init_bytes });
    }
    // Map footprints are themselves single charges (the meter checks the
    // whole footprint against the single-charge limit on every growth).
    for (map, bytes) in &walk.map_footprints {
        charges.push(ChargeBound { name: map.clone(), bytes: bytes.clone() });
    }

    let mut outputs: Vec<OutputBound> = Vec::new();
    for (arr, bytes) in walk.realloc_finals {
        match outputs.iter_mut().find(|o| o.array == arr) {
            Some(o) => o.bytes = o.bytes.add(&bytes),
            None => outputs.push(OutputBound { array: arr, bytes }),
        }
    }
    outputs.sort_by(|a, b| a.array.cmp(&b.array));

    let mut notes = walk.notes;
    notes.extend(assume.notes.iter().cloned());

    CostReport {
        kernel: lk.kernel.name.clone(),
        charges,
        total_bytes: walk.total_bytes,
        iterations: walk.iterations,
        drain_entries: walk.drain_entries,
        workspaces,
        outputs,
        notes,
        analysis_nanos: start.elapsed().as_nanos().try_into().unwrap_or(u64::MAX),
    }
}

/// Classifies every `Assign` target: `true` when all assignments are
/// counter-shaped (`v = v + c`, c > 0, or `v = k`, k >= 0), `false` once any
/// other assignment is seen. Targets of a `v = k` go into `reset` as well: a
/// counter outside it only ever advances.
fn classify(body: &[Stmt], out: &mut HashMap<String, bool>, reset: &mut HashSet<String>) {
    for s in body {
        match s {
            Stmt::Assign(v, e) => {
                let counter_shaped = match e {
                    Expr::Int(k) => {
                        reset.insert(v.clone());
                        *k >= 0
                    }
                    Expr::Bin(BinOp::Add, a, b) => {
                        matches!((a.as_ref(), b.as_ref()),
                            (Expr::Var(n), Expr::Int(c)) if n == v && *c > 0)
                            || matches!((a.as_ref(), b.as_ref()),
                                (Expr::Int(c), Expr::Var(n)) if n == v && *c > 0)
                    }
                    _ => false,
                };
                let entry = out.entry(v.clone()).or_insert(true);
                *entry = *entry && counter_shaped;
            }
            Stmt::For { body, .. }
            | Stmt::While { body, .. }
            | Stmt::WsDrain { body, .. } => classify(body, out, reset),
            Stmt::If { then, els, .. } => {
                classify(then, out, reset);
                classify(els, out, reset);
            }
            _ => {}
        }
    }
}

/// Fixpoint-carried state: final counter bounds (relative to their
/// declaration scope) and per-workspace scatter totals from the previous
/// round.
#[derive(Debug, Clone, Default, PartialEq)]
struct FixState {
    counters: HashMap<String, Option<Sym>>,
    scatters: HashMap<String, Option<Sym>>,
}

/// Per-counter accumulation during one round.
#[derive(Debug, Clone, Default)]
struct CounterAcc {
    /// Loop depth of the declaration (trip products are taken relative to
    /// it).
    decl_depth: usize,
    /// Declared/assigned base values (summed — a sound join of maxima over
    /// nonnegative quantities).
    base: Option<Sym>,
    /// Σ increment × enclosing trip products since declaration.
    increments: Option<Sym>,
}

/// One enclosing loop on the trip stack.
#[derive(Debug, Clone, Default)]
struct Trip {
    /// Bound on the trips of one execution of the loop (`None` = unbounded).
    bound: Option<Sym>,
    /// The variable of a `For`, while nothing in its body has
    /// redeclared or assigned it: what the index of a nested segment loop is
    /// matched against.
    var: Option<String>,
    /// Telescoping rule: the stack index of the enclosing `For` whose
    /// variable selects this loop's segment(s), and the bound on this loop's
    /// trips summed over one whole execution of that `For`.
    telescope: Option<(usize, Sym)>,
}

/// The scatters walked so far in one block, per workspace: how many scatter
/// statements, and a bound on their executions per execution of the block.
struct Frame {
    /// Trip-stack depth of the block.
    depth: usize,
    scatters: HashMap<String, (usize, Option<Sym>)>,
}

/// One abstract-execution round over the kernel body.
struct Walk<'a> {
    assume: &'a Assumptions,
    scalar_params: &'a HashSet<String>,
    assigned: &'a HashMap<String, bool>,
    reset: &'a HashSet<String>,
    /// Scatter statements per workspace.
    sites: &'a HashMap<String, usize>,
    prev: FixState,

    /// The enclosing loops, outermost first.
    trips: Vec<Trip>,
    /// The enclosing blocks, outermost first.
    frames: Vec<Frame>,
    /// Scoped upper bounds for never-reassigned declared scalars.
    scopes: Vec<HashMap<String, Option<Sym>>>,
    /// This round's counter accumulation.
    counters: HashMap<String, CounterAcc>,
    /// This round's per-workspace scatter totals.
    scatters: HashMap<String, Option<Sym>>,
    /// Map init-capacity bounds (for footprint math).
    map_caps: HashMap<String, (WorkspaceKind, Bound)>,
    /// Finished map footprint bounds.
    map_footprints: HashMap<String, Bound>,

    charges: Vec<ChargeBound>,
    total_bytes: Bound,
    iterations: Bound,
    drain_entries: Bound,
    /// Final-size byte bounds per reallocated array site.
    realloc_finals: Vec<(String, Bound)>,
    notes: Vec<String>,
}

impl<'a> Walk<'a> {
    fn new(
        assume: &'a Assumptions,
        scalar_params: &'a HashSet<String>,
        assigned: &'a HashMap<String, bool>,
        reset: &'a HashSet<String>,
        sites: &'a HashMap<String, usize>,
        prev: FixState,
    ) -> Walk<'a> {
        Walk {
            assume,
            scalar_params,
            assigned,
            reset,
            sites,
            prev,
            trips: Vec::new(),
            frames: Vec::new(),
            scopes: vec![HashMap::new()],
            counters: HashMap::new(),
            scatters: HashMap::new(),
            map_caps: HashMap::new(),
            map_footprints: HashMap::new(),
            charges: Vec::new(),
            total_bytes: Bound::zero(),
            iterations: Bound::zero(),
            drain_entries: Bound::zero(),
            realloc_finals: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn fix_out(&self) -> FixState {
        FixState {
            counters: self
                .counters
                .iter()
                .map(|(k, acc)| {
                    let ub = match (&acc.base, &acc.increments) {
                        (Some(b), Some(i)) => Some(b.add(i)),
                        _ => None,
                    };
                    (k.clone(), ub)
                })
                .collect(),
            scatters: self.scatters.clone(),
        }
    }

    /// Product of the trip bounds of the loops entered since `depth`. A
    /// telescoping loop whose selecting `For` is inside the product counts
    /// its total over that `For`, which then counts once.
    fn trip_product_since(&self, depth: usize) -> Option<Sym> {
        // A telescope counts only when its selecting loop is inside the product.
        fn telescoped(t: &Trip, depth: usize) -> Option<&(usize, Sym)> {
            t.telescope.as_ref().filter(|(selector, _)| *selector >= depth)
        }
        let mut product = Sym::int(1);
        for (n, t) in self.trips.iter().enumerate().skip(depth) {
            let selects = |inner: &Trip| telescoped(inner, depth).is_some_and(|(a, _)| *a == n);
            if self.trips[n + 1..].iter().any(selects) {
                continue; // counted once, under the loop whose segments it selects
            }
            let factor = telescoped(t, depth).map(|(_, total)| total).or(t.bound.as_ref())?;
            product = product.mul(factor);
        }
        Some(product)
    }

    /// `(pos, total)` when `pos` is a validated input `pos` array: a
    /// monotone array whose segments partition `crd`, so they sum to at most
    /// `total` = `len(crd)`. Never the result's `pos` while it is assembled.
    fn input_pos(&self, pos: &str) -> Option<&Sym> {
        self.assume.arrays.get(pos).filter(|_| is_pos_name(pos))?.value_ub.as_ref()
    }

    /// Stack index of the innermost enclosing `For` whose variable `e` is.
    fn selector(&self, e: &Expr) -> Option<usize> {
        let Expr::Var(x) = e else { return None };
        self.trips.iter().rposition(|t| t.var.as_deref() == Some(x))
    }

    /// A loop variable that is redeclared or assigned stops selecting
    /// segments (conservatively, for the rest of its loop).
    fn forget_loop_var(&mut self, v: &str) {
        for t in self.trips.iter_mut().filter(|t| t.var.as_deref() == Some(v)) {
            t.var = None;
        }
    }

    /// Segment and telescoping rules: the trip of a `For` over `lo..hi`,
    /// `hi` bounded by `hi_ub`.
    fn for_trip(&self, var: &str, lo: &Expr, hi: &Expr, hi_ub: Option<Sym>) -> Trip {
        let var = (!self.assigned.contains_key(var)).then(|| var.to_string());
        if let (Expr::Load(pos, e), Expr::Load(hi_pos, next)) = (lo, hi) {
            if let Some(total) = self.input_pos(pos).filter(|_| pos == hi_pos && is_next(e, next)) {
                return Trip {
                    bound: Some(Sym::atom(Atom::Seg(pos.clone()))),
                    var,
                    telescope: self.selector(e).map(|a| (a, total.clone())),
                };
            }
        }
        Trip { bound: hi_ub, var, telescope: None }
    }

    /// `true` for scalars whose every assignment is counter-shaped.
    fn is_counter(&self, v: &str) -> bool {
        self.assigned.get(v).copied().unwrap_or(false)
    }

    fn lookup_scalar(&self, v: &str) -> Option<Sym> {
        for scope in self.scopes.iter().rev() {
            if let Some(ub) = scope.get(v) {
                return ub.clone();
            }
        }
        None
    }

    /// Upper bound of an integer expression as a polynomial over dimension
    /// and length atoms, under the validated-operand assumptions (`None` =
    /// unknown). Sound: `eval(e) <= ub(e)` on every reachable state.
    fn ub(&self, e: &Expr) -> Option<Sym> {
        match e {
            Expr::Int(v) => Some(Sym::int(*v)),
            Expr::Float(_) | Expr::Bool(_) => None,
            Expr::Var(v) => {
                if self.is_counter(v) {
                    return self.prev.counters.get(v).cloned().flatten();
                }
                if let Some(ub) = self.lookup_scalar(v) {
                    return Some(ub);
                }
                if self.scalar_params.contains(v) {
                    // Dimension parameters are their own (canonical) atoms.
                    return Some(Sym::var(self.assume.canon_dim(v)));
                }
                None
            }
            // Loads close through the per-array value bounds (pos <=
            // len(crd), crd <= dim - 1) rather than opaque atoms, so the
            // resulting polynomial is evaluable once operands are bound.
            Expr::Load(arr, _) => self.assume.arrays.get(arr)?.value_ub.clone(),
            Expr::Len(arr) => {
                Some(self.assume.lens.get(arr).cloned().unwrap_or_else(|| Sym::len(arr.clone())))
            }
            // Negation of a nonnegative quantity is bounded by zero; `Not`
            // is boolean.
            Expr::Un(UnOp::Neg, _) => Some(Sym::int(0)),
            Expr::Un(UnOp::Not, _) => None,
            Expr::Bin(op, a, b) => match op {
                BinOp::Add => Some(self.ub(a)?.add(&self.ub(b)?)),
                // Subtrahends are nonnegative under the assumptions, so
                // dropping them (or subtracting an exact constant) keeps the
                // bound an upper bound.
                BinOp::Sub => match b.as_ref() {
                    Expr::Int(c) => Some(self.ub(a)?.sub(&Sym::int(*c))),
                    _ => self.ub(a),
                },
                BinOp::Mul => Some(self.ub(a)?.mul(&self.ub(b)?)),
                // Divisors/moduli in generated kernels are positive.
                BinOp::Div | BinOp::Rem => self.ub(a),
                // `min` is bounded by either side; prefer a constant bound,
                // then whichever side is bounded at all.
                BinOp::Min => {
                    let (ua, ub) = (self.ub(a), self.ub(b));
                    match (&ua, &ub) {
                        (Some(x), Some(y)) => {
                            if let (Some(cx), Some(cy)) = (x.as_const(), y.as_const()) {
                                return Some(Sym::int(cx.min(cy)));
                            }
                            if x.as_const().is_some() {
                                return ua;
                            }
                            if y.as_const().is_some() {
                                return ub;
                            }
                            ua
                        }
                        (Some(_), None) => ua,
                        (None, _) => ub,
                    }
                }
                // `max(a, b) <= a + b` for nonnegative operands.
                BinOp::Max => Some(self.ub(a)?.add(&self.ub(b)?)),
                BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::And
                | BinOp::Or => None,
            },
        }
    }

    /// Bound charge accounting helpers. `site` charges happen once per
    /// execution of the surrounding loops; telescoping charges (realloc
    /// growth, map growth) contribute their *final* value once.
    fn charge_site(&mut self, name: &str, per_exec: &Bound, telescoping: bool) {
        self.charges.push(ChargeBound { name: name.to_string(), bytes: per_exec.clone() });
        let contribution = if telescoping {
            per_exec.clone()
        } else {
            match (per_exec.finite(), self.trip_product_since(0)) {
                (Some(b), Some(p)) => Bound::Finite(b.mul(&p)),
                (Some(_), None) => Bound::Unknown("charge inside unbounded loop".to_string()),
                (None, _) => per_exec.clone(),
            }
        };
        self.total_bytes = self.total_bytes.add(&contribution);
    }

    /// Walks a loop body under `trip`, charging the loop's own back-edges.
    fn looped(&mut self, trip: Trip, body: impl FnOnce(&mut Self)) {
        self.trips.push(trip);
        let total = Bound::from_opt(self.trip_product_since(0), "loop with unbounded trip count");
        self.iterations = self.iterations.add(&total);
        body(self);
        self.trips.pop();
    }

    /// Trip bound of a `While` matching the merge co-iteration idiom: split
    /// the condition into `lhs < rhs` / `lhs <= rhs` conjuncts over scalar
    /// variables; if the body increments at least one of those scalars, the
    /// loop runs at most Σ UB(rhs) (+1 per `<=`) iterations — each
    /// iteration strictly advances one monotone counter toward its end.
    /// (The dataflow verifier independently checks counter monotonicity.)
    /// Merge rule: a conjunct that keeps its counter inside one segment of an
    /// input `pos` array ([`Walk::merge_segment`]) contributes `seg(pos)`,
    /// and when every conjunct does, selected by one enclosing `For`, the
    /// loop telescopes to the sum of their `len(crd)`. `before` is what
    /// precedes the loop in its block.
    fn while_trip(&self, cond: &Expr, body: &[Stmt], before: &[Stmt]) -> Trip {
        let mut conjuncts = Vec::new();
        split_and(cond, &mut conjuncts);
        let mut bound = Sym::int(0);
        let mut telescope = Some((None, Sym::int(0)));
        let mut advances = false;
        for c in conjuncts {
            let Expr::Bin(op @ (BinOp::Lt | BinOp::Le), a, b) = c else { return Trip::default() };
            let Expr::Var(v) = a.as_ref() else { return Trip::default() };
            advances |= increments_var(body, v);
            let segment = self.merge_segment(v, b, body, before).filter(|_| *op == BinOp::Lt);
            if let Some((pos, e, total)) = segment {
                bound = bound.add(&Sym::atom(Atom::Seg(pos.to_string())));
                telescope = telescope.and_then(|(a, sum)| {
                    let selector = self.selector(e).filter(|s| a.is_none_or(|a| a == *s))?;
                    Some((Some(selector), sum.add(total)))
                });
            } else {
                let Some(end) = self.ub(b) else { return Trip::default() };
                bound = bound.add(&end).add(&Sym::int(i64::from(*op == BinOp::Le)));
                telescope = None;
            }
        }
        if !advances {
            return Trip::default();
        }
        let telescope = telescope.and_then(|(a, sum)| Some((a?, sum)));
        Trip { bound: Some(bound), var: None, telescope }
    }

    /// `(pos, e, len(crd))` when `end` is `pos[e + 1]` over an input `pos`
    /// array and the counter `v` was declared `pos[e]` earlier in the same
    /// block, for an `e` that cannot have changed since — a constant, the
    /// variable of an enclosing `For`, or a scalar that nothing between the
    /// declaration and the end of the loop `body` writes (the row cursor of
    /// a DCSR merge, advanced after its inner loops): `v` is never reset, so
    /// it is still inside that segment.
    fn merge_segment<'e>(
        &'e self,
        v: &str,
        end: &'e Expr,
        body: &[Stmt],
        before: &'e [Stmt],
    ) -> Option<(&'e str, &'e Expr, &'e Sym)> {
        let Expr::Load(pos, next) = end else { return None };
        let total = self.input_pos(pos)?;
        let declared_at =
            before.iter().rposition(|s| matches!(s, Stmt::DeclInt(name, _) if name == v))?;
        let Stmt::DeclInt(_, Expr::Load(from, e)) = &before[declared_at] else { return None };
        if from != pos || !is_next(e, next) || !self.is_counter(v) || self.reset.contains(v) {
            return None;
        }
        let stable = match e.as_ref() {
            Expr::Int(_) => true,
            Expr::Var(x) => {
                let mut written = false;
                let writes = &mut |s: &Stmt| {
                    written |= matches!(s, Stmt::Assign(n, _) | Stmt::DeclInt(n, _) if n == x);
                };
                self.selector(e).is_some() || {
                    taco_llir::visit_stmts(&before[declared_at + 1..], writes);
                    taco_llir::visit_stmts(body, writes);
                    !written
                }
            }
            _ => false,
        };
        stable.then_some((pos.as_str(), e.as_ref(), total))
    }

    fn block(&mut self, body: &[Stmt]) {
        self.scopes.push(HashMap::new());
        self.stmts(body);
        self.scopes.pop();
    }

    fn stmts(&mut self, body: &[Stmt]) {
        self.frames.push(Frame { depth: self.trips.len(), scatters: HashMap::new() });
        for (n, s) in body.iter().enumerate() {
            self.stmt(s, &body[..n]);
        }
        self.frames.pop();
    }

    /// Drain rule: the entries a `WsDrain` of `ws` visits, bounded by the
    /// scatters since the workspace's last drain.
    fn drain_entries_bound(&self, ws: &str) -> Option<Sym> {
        let block = self.frames.last().expect("a statement is walked inside a block");
        let (sites, since) = block.scatters.get(ws).cloned().unwrap_or((0, Some(Sym::int(0))));
        if sites == self.sites.get(ws).copied().unwrap_or(0) {
            since
        } else {
            Some(since?.add(&self.prev.scatters.get(ws).cloned().flatten()?))
        }
    }

    /// One statement; `before` is what precedes it in its block.
    fn stmt(&mut self, s: &Stmt, before: &[Stmt]) {
        match s {
            Stmt::DeclInt(v, e) => {
                self.forget_loop_var(v);
                if self.is_counter(v) {
                    let base = self.ub(e);
                    let depth = self.trips.len();
                    let acc = self.counters.entry(v.clone()).or_insert(CounterAcc {
                        decl_depth: depth,
                        base: Some(Sym::int(0)),
                        increments: Some(Sym::int(0)),
                    });
                    acc.decl_depth = acc.decl_depth.min(depth);
                    acc.base = match (&acc.base, base) {
                        (Some(a), Some(b)) => Some(a.add(&b)),
                        _ => None,
                    };
                } else {
                    let ub = if self.assigned.contains_key(v) { None } else { self.ub(e) };
                    self.scopes.last_mut().expect("scope stack").insert(v.clone(), ub);
                }
            }
            Stmt::DeclFloat(..) | Stmt::DeclBool(..) => {}
            Stmt::Assign(v, e) => {
                if self.is_counter(v) {
                    let inc = match e {
                        Expr::Bin(BinOp::Add, a, b) => match (a.as_ref(), b.as_ref()) {
                            (Expr::Var(n), Expr::Int(c)) if n == v => Some(*c),
                            (Expr::Int(c), Expr::Var(n)) if n == v => Some(*c),
                            _ => None,
                        },
                        _ => None,
                    };
                    let depth =
                        self.counters.get(v).map_or(0, |acc| acc.decl_depth.min(self.trips.len()));
                    let contribution =
                        inc.map(|c| self.trip_product_since(depth).map(|p| p.mul(&Sym::int(c))));
                    let acc = self.counters.entry(v.clone()).or_insert(CounterAcc {
                        decl_depth: depth,
                        base: Some(Sym::int(0)),
                        increments: Some(Sym::int(0)),
                    });
                    match contribution {
                        Some(contribution) => {
                            acc.increments = match (&acc.increments, contribution) {
                                (Some(a), Some(b)) => Some(a.add(&b)),
                                _ => None,
                            };
                        }
                        None => {
                            // `v = k` reset: fold the constant into the base.
                            if let Expr::Int(k) = e {
                                acc.base =
                                    acc.base.as_ref().map(|b| b.add(&Sym::int((*k).max(0))));
                            } else {
                                acc.base = None;
                            }
                        }
                    }
                }
                // Non-counter reassigned scalars were havocked at
                // declaration; nothing to update.
            }
            Stmt::Store { .. } | Stmt::StoreAdd { .. } | Stmt::Memset { .. } => {}
            Stmt::For { var, lo, hi, body } => {
                // The variable stays below `hi` itself, however short the
                // segment it walks.
                let hi_ub = self.ub(hi);
                let var_ub = hi_ub.as_ref().map(|t| t.sub(&Sym::int(1)));
                let trip = self.for_trip(var, lo, hi, hi_ub);
                self.looped(trip, |w| {
                    w.scopes.push(HashMap::from([(var.clone(), var_ub)]));
                    w.stmts(body);
                    w.scopes.pop();
                });
            }
            Stmt::While { cond, body } => {
                let trip = self.while_trip(cond, body, before);
                if trip.bound.is_none() {
                    self.notes.push(
                        "while loop outside the merge co-iteration idiom: iteration bound \
                         degrades to unknown"
                            .to_string(),
                    );
                }
                self.looped(trip, |w| w.block(body));
            }
            Stmt::If { then, els, .. } => {
                // Charges and counter increments from both branches
                // accumulate — a sound join since all quantities are
                // monotone.
                self.block(then);
                self.block(els);
            }
            Stmt::Alloc { arr, ty, len } => {
                let bytes =
                    Bound::from_opt(self.ub(len), "allocation length not bounded by the formats")
                        .mul_const(elem_bytes(*ty));
                self.charge_site(arr, &bytes, false);
            }
            Stmt::Realloc { arr, len } => {
                // Growth deltas telescope: their sum (and any single delta)
                // is bounded by the largest length the site can request.
                let ty = ArrayTy::Int; // realloc'd arrays are crd (Int) or vals (F64): 8 bytes.
                let bytes =
                    Bound::from_opt(self.ub(len), "realloc length not bounded by the formats")
                        .mul_const(elem_bytes(ty));
                self.charge_site(arr, &bytes, true);
                self.realloc_finals.push((arr.clone(), bytes));
            }
            Stmt::WsInit { ws, kind: WorkspaceKind::Dense, ty, extent } => {
                // Value, coordinate-list and guard arrays over the extent.
                let len =
                    Bound::from_opt(self.ub(extent), "workspace extent not bounded by the formats");
                for elem in [ty, &ArrayTy::Int, &ArrayTy::Bool] {
                    self.charge_site(ws, &len.mul_const(elem_bytes(*elem)), false);
                }
            }
            Stmt::WsInit { ws, kind, .. } => {
                // The init charge (capacity × entry bytes) is subsumed by
                // the footprint bound, which the meter checks in whole on
                // every growth; init + growth deltas telescope to the final
                // footprint, which is the map's total-bytes contribution.
                let cap = Bound::Finite(Sym::int(WorkspaceKind::INITIAL_CAPACITY));
                self.map_caps.insert(ws.clone(), (*kind, cap));
                self.finish_map_footprint(ws);
            }
            Stmt::WsScatter { ws, .. } => {
                let contribution = self.trip_product_since(0);
                let entry = self.scatters.entry(ws.clone()).or_insert_with(|| Some(Sym::int(0)));
                *entry = match (entry.take(), contribution) {
                    (Some(a), Some(b)) => Some(a.add(&b)),
                    _ => None,
                };
                for f in 0..self.frames.len() {
                    let per_block = self.trip_product_since(self.frames[f].depth);
                    let (sites, since) = self.frames[f]
                        .scatters
                        .entry(ws.clone())
                        .or_insert((0, Some(Sym::int(0))));
                    *sites += 1;
                    *since = match (since.take(), per_block) {
                        (Some(a), Some(b)) => Some(a.add(&b)),
                        _ => None,
                    };
                }
            }
            Stmt::WsDrain { ws, body, .. } => {
                let entries = self.drain_entries_bound(ws);
                let total = entries.as_ref().zip(self.trip_product_since(0));
                let total = total.map(|(per_drain, drains)| per_drain.mul(&drains));
                self.drain_entries = self
                    .drain_entries
                    .add(&Bound::from_opt(total, "drain of a workspace with unbounded scatters"));
                self.looped(Trip { bound: entries, ..Trip::default() }, |w| w.block(body));
            }
            Stmt::Comment(_) => {}
        }
    }

    /// Derives the footprint bound of a map from its initial capacity and
    /// the scatter totals of the *previous* fixpoint round: the charged
    /// capacity never exceeds `initial + 2 * scatters + 8` entries, because
    /// growth only happens when the capacity is below the needed entry
    /// count and at most doubles past it (with the executor's minimum grant
    /// of 8).
    fn finish_map_footprint(&mut self, map: &str) {
        let Some((kind, cap)) = self.map_caps.get(map).cloned() else { return };
        let scatters = self.prev.scatters.get(map).cloned().flatten();
        let scatters_bound = Bound::from_opt(scatters, "scatter count not bounded");
        let entries =
            cap.add(&scatters_bound.mul_const(2)).add(&Bound::Finite(Sym::int(8)));
        let footprint = entries.mul_const(kind.entry_bytes());
        if self.map_footprints.insert(map.to_string(), footprint.clone()).is_none() {
            self.total_bytes = self.total_bytes.add(&footprint);
        }
    }
}

impl Bound {
    /// Multiplies a bound by a constant factor.
    #[must_use]
    pub fn mul_const(&self, k: u64) -> Bound {
        match self {
            Bound::Finite(s) => {
                Bound::Finite(s.mul(&Sym::int(i64::try_from(k).unwrap_or(i64::MAX))))
            }
            Bound::Unknown(r) => Bound::Unknown(r.clone()),
        }
    }
}

/// Splits a conjunction into its conjuncts.
fn split_and<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match e {
        Expr::Bin(BinOp::And, a, b) => {
            split_and(a, out);
            split_and(b, out);
        }
        other => out.push(other),
    }
}

/// True when `next` is `e + 1`, structurally (`0` and `1` count).
fn is_next(e: &Expr, next: &Expr) -> bool {
    match next {
        Expr::Bin(BinOp::Add, a, b) => **a == *e && **b == Expr::Int(1),
        Expr::Int(n) => matches!(e, Expr::Int(k) if k.checked_add(1) == Some(*n)),
        _ => false,
    }
}

/// True when the body (recursively) contains `v = v + c` with `c > 0`.
fn increments_var(body: &[Stmt], v: &str) -> bool {
    body.iter().any(|s| match s {
        Stmt::Assign(name, Expr::Bin(BinOp::Add, a, b)) if name == v => {
            matches!(
                (a.as_ref(), b.as_ref()),
                (Expr::Var(n), Expr::Int(c)) if n == v && *c > 0
            ) || matches!(
                (a.as_ref(), b.as_ref()),
                (Expr::Int(c), Expr::Var(n)) if n == v && *c > 0
            )
        }
        Stmt::For { body, .. }
        | Stmt::While { body, .. }
        | Stmt::WsDrain { body, .. } => increments_var(body, v),
        Stmt::If { then, els, .. } => increments_var(then, v) || increments_var(els, v),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_ir::expr::TensorVar;
    use taco_llir::Kernel;
    use taco_lower::params::{crd_name, pos_name};
    use taco_lower::KernelKind;
    use taco_tensor::{Format, ModeFormat};

    /// A kernel over a 5×7 CSR result `A`, CSR operands `B` and `C` of the
    /// same shape and a 5×7×9 (dense, compressed, compressed) operand `T`.
    /// Equal extents alias, so bounds print `A1_dim` (5) and `A2_dim` (7).
    fn lowered(kind: KernelKind, body: Vec<Stmt>) -> LoweredKernel {
        let csr = |name: &str| TensorVar::new(name, vec![5, 7], Format::csr());
        let csf =
            Format::new(vec![ModeFormat::Dense, ModeFormat::Compressed, ModeFormat::Compressed]);
        let (result, operands) =
            (csr("A"), vec![csr("B"), csr("C"), TensorVar::new("T", vec![5, 7, 9], csf)]);
        let mut kernel = Kernel::new("k").body(body);
        for t in std::iter::once(&result).chain(&operands) {
            for l in 0..t.rank() {
                kernel = kernel.scalar_param(dim_name(t.name(), l));
            }
        }
        LoweredKernel {
            kernel,
            result,
            operands,
            kind,
            nnz_output: None,
            workspaces: Vec::new(),
        }
    }

    fn iterations(kind: KernelKind, body: Vec<Stmt>) -> String {
        analyze_cost(&lowered(kind, body)).iterations.to_string()
    }

    fn fused(body: Vec<Stmt>) -> String {
        iterations(KernelKind::Fused, body)
    }

    fn var(v: &str) -> Expr {
        Expr::var(v)
    }

    /// `for v in pos[e]..pos[e + 1] body` over the `pos` array of `tensor`'s
    /// second level (a 1-based level number, as in the array's name).
    fn segment(v: &str, tensor: &str, e: Expr, body: Vec<Stmt>) -> Stmt {
        segment_at(v, tensor, 2, e, body)
    }

    fn segment_at(v: &str, tensor: &str, level: usize, e: Expr, body: Vec<Stmt>) -> Stmt {
        let pos = pos_name(tensor, level - 1);
        Stmt::for_(v, Expr::load(&pos, e.clone()), Expr::load(&pos, e + Expr::int(1)), body)
    }

    /// A dense loop `for v in 0..dim` over level `level` (1-based) of `B`.
    fn dense(v: &str, level: usize, body: Vec<Stmt>) -> Stmt {
        Stmt::for_(v, Expr::int(0), var(&dim_name("B", level - 1)), body)
    }

    fn rows(body: Vec<Stmt>) -> Stmt {
        dense("i", 1, body)
    }

    /// `int v = pos[e]` over `tensor`'s second level, and the conjunct
    /// `v < pos[e + 1]`.
    fn cursor(v: &str, tensor: &str, e: Expr) -> (Stmt, Expr) {
        let pos = pos_name(tensor, 1);
        (
            Stmt::DeclInt(v.to_string(), Expr::load(&pos, e.clone())),
            var(v).lt(Expr::load(&pos, e + Expr::int(1))),
        )
    }

    #[test]
    fn segment_rule_bounds_one_segment_whatever_selects_it() {
        // A constant index (a DCSR top level), a scalar, and a load.
        assert_eq!(fused(vec![segment("p", "B", Expr::int(0), vec![])]), "seg(B2_pos)");
        let by_load = segment("q", "C", Expr::load(crd_name("B", 1), var("p")), vec![]);
        assert_eq!(
            fused(vec![dense("p", 2, vec![by_load])]),
            "A2_dim + A2_dim*seg(C2_pos)",
            "a loaded index selects segments in no order: no telescoping"
        );
    }

    #[test]
    fn telescoping_counts_each_segment_once_under_the_loop_that_selects_it() {
        let direct = rows(vec![segment("p", "B", var("i"), vec![])]);
        assert_eq!(fused(vec![direct]), "A1_dim + len(B2_crd)");
        // Loops between stay factors.
        let between = dense("j", 2, vec![segment("p", "B", var("i"), vec![])]);
        assert_eq!(fused(vec![rows(vec![between])]), "A1_dim + A1_dim*A2_dim + A2_dim*len(B2_crd)");
        // Chains compose: CSF fibers under CSF rows under a dense loop.
        let fibers = segment_at("p2", "T", 3, var("p1"), vec![]);
        let csf = rows(vec![segment("p1", "T", var("i"), vec![fibers])]);
        assert_eq!(fused(vec![csf]), "A1_dim + len(T2_crd) + len(T3_crd)");
    }

    #[test]
    fn a_product_that_starts_below_the_selecting_loop_uses_the_segment() {
        // `c` is declared per row, so its bound is one row's segment; the
        // loop over it runs once per row.
        let body = vec![
            Stmt::DeclInt("c".into(), Expr::int(0)),
            segment("p", "B", var("i"), vec![Stmt::incr("c")]),
            Stmt::for_("q", Expr::int(0), var("c"), vec![]),
        ];
        let report = analyze_cost(&lowered(KernelKind::Fused, vec![rows(body)]));
        assert_eq!(report.iterations.to_string(), "A1_dim + A1_dim*seg(B2_pos) + len(B2_crd)");
        // Empty rows and an all-empty operand evaluate to the dense loop alone.
        let mut env = CostEnv::default();
        env.vars.insert(dim_name("A", 0), 5);
        env.lens.insert(crd_name("B", 1), 0);
        env.segs.insert(pos_name("B", 1), 0);
        assert_eq!(report.iterations.concrete(&env), Some(5));
    }

    #[test]
    fn segment_rules_refuse_what_they_cannot_prove() {
        // `pos[i]..pos[i + 2]` is not one segment: the old UB(hi) per row.
        let pos = pos_name("B", 1);
        let two = Stmt::for_(
            "p",
            Expr::load(&pos, var("i")),
            Expr::load(&pos, var("i") + Expr::int(2)),
            vec![],
        );
        assert_eq!(fused(vec![rows(vec![two])]), "A1_dim + A1_dim*len(B2_crd)");
        // The result's `pos` is being assembled under `fused`: nothing is
        // known about it. Under `compute` it is a validated input.
        let own = || vec![rows(vec![segment("p", "A", var("i"), vec![])])];
        assert!(fused(own()).starts_with("unbounded"), "{}", fused(own()));
        assert_eq!(iterations(KernelKind::Compute, own()), "A1_dim + len(A2_crd)");
        // A loop variable redeclared in the body stops selecting.
        let shadowed =
            vec![Stmt::DeclInt("i".into(), Expr::int(0)), segment("p", "B", var("i"), vec![])];
        assert_eq!(fused(vec![rows(shadowed)]), "A1_dim + A1_dim*seg(B2_pos)");
    }

    #[test]
    fn merge_rule_keeps_each_cursor_inside_its_segment() {
        let (decl_b, in_b) = cursor("pB", "B", var("i"));
        let (decl_c, in_c) = cursor("pC", "C", var("i"));
        let both = Stmt::while_(in_b.clone().and(in_c), vec![Stmt::incr("pB"), Stmt::incr("pC")]);
        let tail = Stmt::while_(in_b, vec![Stmt::incr("pB")]);
        // Every conjunct selected by `i`: both loops telescope.
        assert_eq!(
            fused(vec![rows(vec![decl_b, decl_c, both, tail])]),
            "A1_dim + 2*len(B2_crd) + len(C2_crd)"
        );
        // Conjuncts selected by different loops: one segment each, per visit.
        let (decl_b, in_b) = cursor("pB", "B", var("i"));
        let (decl_c, in_c) = cursor("pC", "C", var("k"));
        let merge = Stmt::while_(in_b.and(in_c), vec![Stmt::incr("pB"), Stmt::incr("pC")]);
        let cols = dense("k", 1, vec![decl_b, decl_c, merge]);
        assert_eq!(
            fused(vec![rows(vec![cols])]),
            "A1_dim + A1_dim*A1_dim + A1_dim*A1_dim*seg(B2_pos) + A1_dim*A1_dim*seg(C2_pos)"
        );
    }

    #[test]
    fn merge_rule_follows_a_row_cursor_that_advances_after_its_inner_loops() {
        // A DCSR-style merge: the row cursor `r` selects the inner segment
        // and moves on only after the inner loop, so each visit stays in one
        // segment — but `r` may pause on a row, so nothing telescopes.
        let (decl_r, in_r) = cursor("r", "T", Expr::int(0));
        let (decl_p, in_p) = cursor("p", "B", var("r"));
        let inner = Stmt::while_(in_p.clone(), vec![Stmt::incr("p")]);
        let rows = |body| fused(vec![decl_r.clone(), Stmt::while_(in_r.clone(), body)]);
        assert_eq!(
            rows(vec![decl_p.clone(), inner.clone(), Stmt::incr("r")]),
            "seg(B2_pos)*seg(T2_pos) + seg(T2_pos)"
        );
        // Advanced between the declaration and the loop, or inside it: the
        // old UB(rhs).
        let old = "len(B2_crd)*seg(T2_pos) + seg(T2_pos)";
        assert_eq!(rows(vec![decl_p.clone(), Stmt::incr("r"), inner]), old);
        let moving = Stmt::while_(in_p, vec![Stmt::incr("p"), Stmt::incr("r")]);
        assert_eq!(rows(vec![decl_p, moving]), old);
    }

    #[test]
    fn merge_rule_refuses_a_cursor_it_cannot_place() {
        let old = "A1_dim + A1_dim*len(B2_crd)";
        let (_, in_b) = cursor("pB", "B", var("i"));
        let walk = || Stmt::while_(in_b.clone(), vec![Stmt::incr("pB")]);
        // Not declared from `pos[i]`.
        let from_zero = vec![Stmt::DeclInt("pB".into(), Expr::int(0)), walk()];
        assert_eq!(fused(vec![rows(from_zero)]), old);
        // Declared from `pos[i]`, but reset somewhere.
        let (decl_b, _) = cursor("pB", "B", var("i"));
        let reset = vec![decl_b, walk(), Stmt::assign("pB", Expr::int(0))];
        assert_eq!(fused(vec![rows(reset)]), old);
        // Declared from the segment of another row.
        let (other_row, _) = cursor("pB", "B", var("i") + Expr::int(1));
        assert_eq!(fused(vec![rows(vec![other_row, walk()])]), old);
    }
}
