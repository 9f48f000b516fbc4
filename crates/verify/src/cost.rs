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
//! * the entries drained through sorted map drains and coordinate-list
//!   sorts (the sort work of the drain idiom), and
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

use taco_llir::{elem_bytes, ArrayTy, BinOp, Expr, Stmt, UnOp, WorkspaceKind};
use taco_lower::params::{dim_name, level_extent};
use taco_lower::LoweredKernel;

use crate::assume::Assumptions;
use crate::sym::Sym;

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
/// (and any other integer scalars bound to the kernel) plus bound array
/// lengths. Built from declared shapes at compile time or from a full
/// binding at bind time.
#[derive(Debug, Clone, Default)]
pub struct CostEnv {
    /// Values for `Var` atoms (dimension parameters, scalar params).
    pub vars: HashMap<String, u64>,
    /// Values for `Len` atoms (bound array lengths).
    pub lens: HashMap<String, u64>,
}

impl CostEnv {
    /// The compile-time environment: dimension parameters valued from the
    /// kernel's *declared* tensor shapes (the runtime rejects bindings whose
    /// shapes differ, so these are exact). Array lengths stay unvalued —
    /// bounds that scale with nnz evaluate only at bind time.
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
                    crate::sym::Atom::Var(name) => *self.vars.get(name)?,
                    crate::sym::Atom::Len(arr) => *self.lens.get(arr)?,
                    crate::sym::Atom::Opaque(_) => return None,
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
/// bytes, or a map workspace's whole footprint).
#[derive(Debug, Clone)]
pub struct ChargeBound {
    /// Array or map name charged.
    pub name: String,
    /// Upper bound on any single charge from this site, in bytes.
    pub bytes: Bound,
}

/// The derived footprint of one workspace: for dense workspaces the sum of
/// its value/list/flag arrays, for map workspaces the charged capacity with
/// doubling slack included.
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
    /// Bound on entries passing through sorted drains and coordinate-list
    /// sorts — the sort work of the map-drain idiom.
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
/// * `For`/`ParallelFor` trip count ≤ UB(`hi`) (lower bounds are ≥ 0 under
///   the validated-operand assumptions);
/// * `While` loops matching the merge co-iteration idiom (a conjunction of
///   `v < end` tests over counters some of which the body advances) run at
///   most Σ UB(`end`) iterations;
/// * monotone append counters are bounded by their initialization plus
///   every increment times the trip bounds of the loops enclosing it;
/// * reallocation-by-doubling sites contribute at most UB of their length
///   expression (growth deltas telescope);
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
    classify(&lk.kernel.body, &mut assigned);

    // Counter bounds and per-map scatter totals feed trip bounds of later
    // loops (a drain loop runs `w_size` times; `w_size` is a counter), so
    // iterate the walk to a fixpoint. Dependency chains in generated code
    // are no deeper than the loop nesting; four rounds are ample, and every
    // round is sound given the previous round's (initially all-unknown)
    // lookups.
    let mut state = FixState::default();
    for _ in 0..6 {
        let mut w = Walk::new(&assume, &scalar_params, &assigned, state.clone());
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
    let mut walk = Walk::new(&assume, &scalar_params, &assigned, state);
    walk.block(&lk.kernel.body);

    let mut charges = walk.charges;
    let mut workspaces = Vec::new();
    for meta in &lk.workspaces {
        let (bytes, init_bytes) = match meta.kind {
            WorkspaceKind::Dense => {
                // Resident footprint: the value array plus, when the
                // workspace assembles, its coordinate list and flag array.
                // All of it is allocated up front, so the initial footprint
                // is the full footprint.
                let members =
                    [meta.name.clone(), format!("{}_list", meta.name), format!("{}_set", meta.name)];
                let mut total = Bound::zero();
                for c in charges.iter().filter(|c| members.contains(&c.name)) {
                    total = total.add(&c.bytes);
                }
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
/// other assignment is seen.
fn classify(body: &[Stmt], out: &mut HashMap<String, bool>) {
    for s in body {
        match s {
            Stmt::Assign(v, e) => {
                let counter_shaped = match e {
                    Expr::Int(k) => *k >= 0,
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
            | Stmt::ParallelFor { body, .. }
            | Stmt::While { body, .. }
            | Stmt::MapDrainSorted { body, .. } => classify(body, out),
            Stmt::If { then, els, .. } => {
                classify(then, out);
                classify(els, out);
            }
            _ => {}
        }
    }
}

/// Fixpoint-carried state: final counter bounds (relative to their
/// declaration scope) and per-map scatter totals from the previous round.
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

/// One abstract-execution round over the kernel body.
struct Walk<'a> {
    assume: &'a Assumptions,
    scalar_params: &'a HashSet<String>,
    assigned: &'a HashMap<String, bool>,
    prev: FixState,

    /// Trip-bound stack of the enclosing loops (`None` = unbounded loop).
    trips: Vec<Option<Sym>>,
    /// Scoped upper bounds for never-reassigned declared scalars.
    scopes: Vec<HashMap<String, Option<Sym>>>,
    /// This round's counter accumulation.
    counters: HashMap<String, CounterAcc>,
    /// This round's per-map scatter totals.
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
        prev: FixState,
    ) -> Walk<'a> {
        Walk {
            assume,
            scalar_params,
            assigned,
            prev,
            trips: Vec::new(),
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

    /// Product of the trip bounds of the loops entered since `depth`.
    fn trip_product_since(&self, depth: usize) -> Option<Sym> {
        let mut p = Sym::int(1);
        for t in &self.trips[depth..] {
            p = p.mul(t.as_ref()?);
        }
        Some(p)
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

    fn add_iterations(&mut self, trip: &Option<Sym>) {
        let total = match (trip, self.trip_product_since(0)) {
            (Some(t), Some(p)) => Bound::Finite(t.mul(&p)),
            _ => Bound::Unknown("loop with unbounded trip count".to_string()),
        };
        self.iterations = self.iterations.add(&total);
    }

    /// Trip bound of a `While` matching the merge co-iteration idiom: split
    /// the condition into `lhs < rhs` / `lhs <= rhs` conjuncts over scalar
    /// variables; if the body increments at least one of those scalars, the
    /// loop runs at most Σ UB(rhs) (+1 per `<=`) iterations — each
    /// iteration strictly advances one monotone counter toward its end.
    /// (The dataflow verifier independently checks counter monotonicity.)
    fn while_trip(&self, cond: &Expr, body: &[Stmt]) -> Option<Sym> {
        let mut conjuncts = Vec::new();
        split_and(cond, &mut conjuncts);
        let mut total = Sym::int(0);
        let mut lhs_vars = Vec::new();
        for c in conjuncts {
            match c {
                Expr::Bin(BinOp::Lt, a, b) => {
                    let Expr::Var(v) = a.as_ref() else { return None };
                    lhs_vars.push(v.clone());
                    total = total.add(&self.ub(&b)?);
                }
                Expr::Bin(BinOp::Le, a, b) => {
                    let Expr::Var(v) = a.as_ref() else { return None };
                    lhs_vars.push(v.clone());
                    total = total.add(&self.ub(&b)?).add(&Sym::int(1));
                }
                _ => return None,
            }
        }
        if lhs_vars.is_empty() || !lhs_vars.iter().any(|v| increments_var(body, v)) {
            return None;
        }
        Some(total)
    }

    fn block(&mut self, body: &[Stmt]) {
        self.scopes.push(HashMap::new());
        for s in body {
            self.stmt(s);
        }
        self.scopes.pop();
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::DeclInt(v, e) => {
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
                    let acc = self.counters.entry(v.clone()).or_insert(CounterAcc {
                        decl_depth: depth,
                        base: Some(Sym::int(0)),
                        increments: Some(Sym::int(0)),
                    });
                    match inc {
                        Some(c) => {
                            let contribution = self
                                .trips
                                .get(depth..)
                                .and_then(|rest| {
                                    let mut p = Sym::int(c);
                                    for t in rest {
                                        p = p.mul(t.as_ref()?);
                                    }
                                    Some(p)
                                });
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
            Stmt::For { var, hi, body, .. } | Stmt::ParallelFor { var, hi, body, .. } => {
                let trip = self.ub(hi);
                self.add_iterations(&trip);
                self.trips.push(trip.clone());
                self.scopes.push(HashMap::new());
                let var_ub = trip.map(|t| t.sub(&Sym::int(1)));
                self.scopes.last_mut().expect("scope stack").insert(var.clone(), var_ub);
                for s in body {
                    self.stmt(s);
                }
                self.scopes.pop();
                self.trips.pop();
            }
            Stmt::While { cond, body } => {
                let trip = self.while_trip(cond, body);
                if trip.is_none() {
                    self.notes.push(
                        "while loop outside the merge co-iteration idiom: iteration bound \
                         degrades to unknown"
                            .to_string(),
                    );
                }
                self.add_iterations(&trip);
                self.trips.push(trip);
                self.block(body);
                self.trips.pop();
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
            Stmt::Sort { hi, .. } => {
                let entries = Bound::from_opt(self.ub(hi), "sort extent not bounded");
                self.drain_entries = self.drain_entries.add(&entries);
            }
            Stmt::MapInit { map, kind, capacity } => {
                // The init charge (capacity × entry bytes) is subsumed by
                // the footprint bound, which the meter checks in whole on
                // every growth; init + growth deltas telescope to the final
                // footprint, which is the map's total-bytes contribution.
                let cap = Bound::from_opt(self.ub(capacity), "map capacity not bounded");
                self.map_caps.insert(map.clone(), (*kind, cap));
                self.finish_map_footprint(map);
            }
            Stmt::MapScatter { map, .. } => {
                let contribution = self.trip_product_since(0);
                let entry =
                    self.scatters.entry(map.clone()).or_insert_with(|| Some(Sym::int(0)));
                let prev = entry.clone();
                *entry = match (prev, contribution) {
                    (Some(a), Some(b)) => Some(a.add(&b)),
                    _ => None,
                };
            }
            Stmt::MapDrainSorted { map, body, .. } => {
                // Entries per drain are bounded by the map's total scatter
                // count (a drain leaves the map empty, so this is a global
                // over-estimate).
                let entries = self.prev.scatters.get(map).cloned().flatten();
                let entries_bound =
                    Bound::from_opt(entries.clone(), "drain of a map with unbounded scatters");
                self.drain_entries = self.drain_entries.add(&entries_bound);
                self.add_iterations(&entries);
                self.trips.push(entries);
                self.block(body);
                self.trips.pop();
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
fn split_and(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Bin(BinOp::And, a, b) => {
            split_and(a, out);
            split_and(b, out);
        }
        other => out.push(other.clone()),
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
        | Stmt::ParallelFor { body, .. }
        | Stmt::While { body, .. }
        | Stmt::MapDrainSorted { body, .. } => increments_var(body, v),
        Stmt::If { then, els, .. } => increments_var(then, v) || increments_var(els, v),
        _ => false,
    })
}
