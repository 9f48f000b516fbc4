//! Parallel write-set race check.
//!
//! For the top-level `For` a parallel kernel's [`Rows`] name, the main walk
//! records the symbolic footprint of each iteration: every store,
//! accumulate, whole-array operation, and load touching an array that is
//! neither in the kernel's `private` list nor covered by its
//! [`AppendMerge`](taco_llir::AppendMerge). This module then decides
//! whether the per-iteration write sets are disjoint.
//!
//! The execution model (the row dispatcher beside `taco_llir::run_body`)
//! runs the whole kernel once per contiguous range of iterations, each on
//! a private copy of the binding, and merges written arrays back by bitwise
//! diff in row order; appends are stitched. Under that model:
//!
//! * writing a scalar declared *outside* the loop is loop-carried state and
//!   always wrong with more than one worker (the classic
//!   `ReductionNotPrivatized` shape, caught here at the LLIR level);
//! * an *accumulating* store (`+=`) reads the previous value, so its
//!   target slice must be **provably** disjoint across iterations — an
//!   unproven obligation is a deny, because a lost update is silent;
//! * a plain store to an unproven slice merges deterministically (last
//!   chunk wins, matching serial last-iteration-wins), so it only warns;
//! * whole-array operations (`memset`, `sort`, `realloc`) on a shared
//!   array are denied outright;
//! * workspaces are kernel-local, so each range has its own and discards it
//!   at the join: a workspace the body scatters into but never drains loses
//!   its updates (denied).
//!
//! Two slice idioms are proven disjoint: affine indices mentioning the
//! parallel variable (`A[i*D + j]` with `j < D`), and loop variables that
//! range over one segment `pos[i] .. pos[i+1]` of a validated — hence
//! monotone — `pos` array (marked *sliced* by the walk).

use std::collections::HashSet;

use taco_llir::{Rows, Stmt};

use crate::dataflow::Analyzer;
use crate::error::{Severity, VerifyError};
use crate::sym::{Atom, Sym};

/// How a store writes its target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteKind {
    /// `arr[idx] = v` — overwrites.
    Assign,
    /// `arr[idx] += v` — reads then writes.
    Accumulate,
}

struct Write {
    arr: String,
    idx: Sym,
    kind: WriteKind,
    stmt: String,
}

/// Footprint recorder for one active parallel loop.
pub(crate) struct RaceCtx {
    pub(crate) var_name: String,
    pub(crate) var_atom: Atom,
    /// Arrays exempt from the check: per-thread privates and the arrays a
    /// declared [`AppendMerge`] stitches after the join.
    skip: HashSet<String>,
    /// The append counter, if any — the one outer scalar a parallel loop
    /// may legally advance.
    pub(crate) counter: Option<String>,
    /// Scalars declared inside the body (thread-local by construction).
    pub(crate) declared: HashSet<String>,
    /// Outer scalars already reported as raced (one diagnostic each).
    pub(crate) reported_scalars: HashSet<String>,
    /// Loop-variable atoms whose values partition disjointly across
    /// iterations of this parallel loop (pos-segment loops).
    pub(crate) sliced: HashSet<Atom>,
    writes: Vec<Write>,
    reads: Vec<(String, Sym)>,
    whole: Vec<(String, String)>,
    /// Workspaces scattered into, in first-scatter order, and drained.
    scattered: Vec<String>,
    drained: HashSet<String>,
}

impl RaceCtx {
    pub(crate) fn new(var_atom: Atom, rows: &Rows) -> RaceCtx {
        let mut skip: HashSet<String> = rows.private.iter().cloned().collect();
        let mut counter = None;
        if let Some(a) = &rows.append {
            skip.extend(a.data.iter().cloned());
            skip.insert(a.pos.clone());
            counter = Some(a.counter.clone());
        }
        RaceCtx {
            var_name: rows.var.clone(),
            var_atom,
            skip,
            counter,
            declared: HashSet::new(),
            reported_scalars: HashSet::new(),
            sliced: HashSet::new(),
            writes: Vec::new(),
            reads: Vec::new(),
            whole: Vec::new(),
            scattered: Vec::new(),
            drained: HashSet::new(),
        }
    }

    pub(crate) fn record_write(&mut self, arr: &str, idx: &Sym, kind: WriteKind, stmt: String) {
        if !self.skip.contains(arr) {
            self.writes.push(Write { arr: arr.to_string(), idx: idx.clone(), kind, stmt });
        }
    }

    pub(crate) fn record_read(&mut self, arr: &str, idx: &Sym) {
        if !self.skip.contains(arr) {
            self.reads.push((arr.to_string(), idx.clone()));
        }
    }

    pub(crate) fn record_whole_array(&mut self, arr: &str, stmt: String) {
        if !self.skip.contains(arr) {
            self.whole.push((arr.to_string(), stmt));
        }
    }

    pub(crate) fn record_scatter(&mut self, ws: &str) {
        if !self.scattered.iter().any(|w| w == ws) {
            self.scattered.push(ws.to_string());
        }
    }

    pub(crate) fn record_drain(&mut self, ws: &str) {
        self.drained.insert(ws.to_string());
    }
}

/// The `[lo, ub]` slice an index covers within one iteration, as functions
/// of the parallel variable: iteration-varying atoms (inner loop variables
/// and loaded values — always opaque) are replaced by 0 for the lower end
/// and by their recorded upper bounds for the upper end. Named variables
/// and lengths are loop-invariant and stay symbolic.
fn slice(az: &Analyzer<'_>, ctx: &RaceCtx, idx: &Sym) -> Option<(Sym, Sym)> {
    let mut lo = idx.clone();
    let mut ub = idx.clone();
    for atom in idx.atoms() {
        if atom == ctx.var_atom || !matches!(atom, Atom::Opaque(_)) {
            continue;
        }
        lo = lo.subst(&atom, &Sym::int(0));
        let bound = az.bounds.ubs(&atom).first()?.clone();
        ub = ub.subst(&atom, &bound);
    }
    Some((lo, ub))
}

/// Residue-class disjointness for interleaved writes: `idx = v + S·rest`
/// where the parallel variable appears alone with coefficient 1, every
/// other monomial contains a common stride atom `S` with a nonnegative
/// coefficient, and `v ≤ S - 1`. Distinct iterations then write distinct
/// residues modulo the stride (the `A[i*D + j]` pattern parallelized over
/// the column variable `j`).
fn injective_mod(az: &Analyzer<'_>, ctx: &RaceCtx, idx: &Sym) -> bool {
    let v = &ctx.var_atom;
    let mut v_part = Sym::int(0);
    let mut rest = Sym::int(0);
    for (mono, coeff) in idx.terms() {
        if mono.contains(v) {
            v_part = v_part.add(&Sym::int(coeff).mul(&mono_sym(&mono)));
        } else if coeff < 0 {
            return false;
        } else {
            rest = rest.add(&Sym::int(coeff).mul(&mono_sym(&mono)));
        }
    }
    if v_part != Sym::atom(v.clone()) {
        return false;
    }
    // A common stride atom dividing every non-v monomial (constants break
    // divisibility, so every monomial must be non-constant).
    let candidates = rest.atoms();
    candidates.into_iter().any(|s| {
        s != *v
            && rest.terms().iter().all(|(mono, _)| mono.contains(&s))
            && az.bounds.prove_lt(&Sym::atom(v.clone()), &Sym::atom(s.clone()))
    }) || rest == Sym::int(0)
}

fn mono_sym(mono: &[Atom]) -> Sym {
    let mut out = Sym::int(1);
    for a in mono {
        out = out.mul(&Sym::atom(a.clone()));
    }
    out
}

/// True when iteration `v`'s range `[lo(v), ub(v)]` provably ends before
/// iteration `v + 1`'s range `[lo2(v+1), …]` begins.
fn disjoint(az: &Analyzer<'_>, ctx: &RaceCtx, ub: &Sym, lo2: &Sym) -> bool {
    let next = Sym::atom(ctx.var_atom.clone()).add(&Sym::int(1));
    let lo2_next = lo2.subst(&ctx.var_atom, &next);
    az.bounds.prove_lt(ub, &lo2_next)
}

/// Analyzes the recorded footprint of one completed parallel loop.
pub(crate) fn analyze(az: &mut Analyzer<'_>, ctx: RaceCtx, stmt: &Stmt) {
    // Whole-array operations on shared arrays race by construction.
    for (arr, op) in &ctx.whole {
        az.diag(
            VerifyError::DataRace {
                name: arr.clone(),
                var: ctx.var_name.clone(),
                detail: format!(
                    "whole-array operation `{op}` on an array that is neither private \
                     nor merged by append"
                ),
            },
            Severity::Deny,
            stmt,
        );
    }

    // Per-array pairwise slice disjointness.
    let arrays: Vec<String> = {
        let mut a: Vec<String> = ctx.writes.iter().map(|w| w.arr.clone()).collect();
        a.sort();
        a.dedup();
        a
    };
    for arr in &arrays {
        let writes: Vec<&Write> = ctx.writes.iter().filter(|w| &w.arr == arr).collect();
        let accumulates = writes.iter().any(|w| w.kind == WriteKind::Accumulate);
        let mut proven = true;
        for w in &writes {
            // A pos-segment loop variable partitions disjointly by itself,
            // and a residue-class index is injective across iterations.
            if is_sliced(&ctx, &w.idx) || injective_mod(az, &ctx, &w.idx) {
                continue;
            }
            if !w.idx.mentions(&ctx.var_atom) {
                // The same location (symbolically independent of the
                // parallel variable) is touched by every iteration.
                if w.kind == WriteKind::Accumulate {
                    az.diag(
                        VerifyError::DataRace {
                            name: arr.clone(),
                            var: ctx.var_name.clone(),
                            detail: format!(
                                "`{}` accumulates into a location independent of the \
                                 parallel variable (reduction not privatized)",
                                w.stmt
                            ),
                        },
                        Severity::Deny,
                        stmt,
                    );
                    proven = false;
                    continue;
                }
                proven = false;
                continue;
            }
            // Pairwise: this write's upper end stays below every write's
            // lower end in the next iteration (including its own).
            let Some((_, ub)) = slice(az, &ctx, &w.idx) else {
                proven = false;
                continue;
            };
            for other in &writes {
                let other_lo = if is_sliced(&ctx, &other.idx) {
                    continue;
                } else {
                    match slice(az, &ctx, &other.idx) {
                        Some((lo, _)) => lo,
                        None => {
                            proven = false;
                            continue;
                        }
                    }
                };
                if !disjoint(az, &ctx, &ub, &other_lo) {
                    proven = false;
                }
            }
        }
        if !proven {
            let (error, severity) = if accumulates {
                (
                    VerifyError::DataRace {
                        name: arr.clone(),
                        var: ctx.var_name.clone(),
                        detail: "iteration write sets for an accumulated array cannot be \
                                 proven disjoint"
                            .to_string(),
                    },
                    Severity::Deny,
                )
            } else {
                (
                    VerifyError::Unproven {
                        obligation: format!(
                            "iterations of parallel loop `{}` write disjoint slices of `{arr}`",
                            ctx.var_name
                        ),
                    },
                    Severity::Warn,
                )
            };
            az.diag(error, severity, stmt);
        }

        // Reads of a concurrently written shared array must stay within the
        // iteration's own write slice.
        for (rarr, ridx) in &ctx.reads {
            if rarr != arr || is_sliced(&ctx, ridx) {
                continue;
            }
            let ok = slice(az, &ctx, ridx).is_some_and(|(rlo, rub)| {
                writes.iter().all(|w| {
                    is_sliced(&ctx, &w.idx)
                        || slice(az, &ctx, &w.idx).is_some_and(|(wlo, _)| {
                            disjoint(az, &ctx, &rub, &wlo)
                                && az.bounds.prove_le(&wlo, &rlo)
                        })
                })
            });
            if !ok {
                az.diag(
                    VerifyError::Unproven {
                        obligation: format!(
                            "reads of `{arr}` stay within the writing iteration's slice \
                             in parallel loop `{}`",
                            ctx.var_name
                        ),
                    },
                    Severity::Warn,
                    stmt,
                );
                break;
            }
        }
    }

    for ws in ctx.scattered.iter().filter(|w| !ctx.drained.contains(*w)) {
        az.diag(
            VerifyError::DataRace {
                name: ws.clone(),
                var: ctx.var_name.clone(),
                detail: "a workspace is scattered into but never drained inside the parallel \
                         body; worker-local workspaces are discarded at join, losing the updates"
                    .to_string(),
            },
            Severity::Deny,
            stmt,
        );
    }
}

fn is_sliced(ctx: &RaceCtx, idx: &Sym) -> bool {
    ctx.sliced.iter().any(|a| *idx == Sym::atom(a.clone()))
}
