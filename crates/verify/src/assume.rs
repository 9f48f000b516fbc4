//! The assumption environment: facts about a kernel's array parameters
//! that hold whenever the runtime binds validated tensors to them.
//!
//! These are exactly the storage invariants `Tensor::validate` enforces at
//! bind time (`pos` arrays start at 0, are monotone and end at the `crd`
//! length; `crd` coordinates are within the dimension; `crd` and `vals`
//! pair up). The verifier *assumes* them for input parameters and records
//! each one in the report, so the bind-time check and the static proof are
//! two views of the same contract.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use taco_llir::{BinOp, Expr};
use taco_lower::params::{crd_name, dim_name, level_extent, pos_name};
use taco_lower::{KernelKind, LoweredKernel};

use crate::sym::{Atom, Bounds, Sym};

/// Facts about one integer array whose values are used as indices.
#[derive(Debug, Clone, Default)]
pub struct ArrayFacts {
    /// Inclusive upper bound on every stored value (e.g. `len(crd)` for a
    /// `pos` array, `dim - 1` for a `crd` array).
    pub value_ub: Option<Sym>,
}

/// Facts derived from the lowered kernel's operand and result formats.
#[derive(Debug, Clone, Default)]
pub struct Assumptions {
    /// Per-array value bounds, keyed by array parameter name.
    pub arrays: HashMap<String, ArrayFacts>,
    /// Known symbolic lengths for arrays that the kernel never reallocates.
    pub lens: HashMap<String, Sym>,
    /// Dimension-variable aliases: every key is rewritten to its canonical
    /// representative before proofs (dimensions indexed by the same loop
    /// variable are bound to equal extents).
    pub dim_alias: HashMap<String, String>,
    /// Human-readable record of every assumed fact.
    pub notes: Vec<String>,
}

impl Assumptions {
    /// Derives the assumption environment for a lowered kernel from its
    /// operand and result tensor formats.
    #[must_use]
    pub fn for_lowered(lk: &LoweredKernel) -> Assumptions {
        let mut a = Assumptions::default();

        // Dimension parameters bound to equal declared extents alias to one
        // canonical atom: the runtime rejects bindings whose shapes differ
        // from the declared tensor variables, so equal declared extents
        // stay equal at run time.
        let mut by_extent: HashMap<usize, String> = HashMap::new();
        for t in lk.tensors() {
            for l in 0..t.rank() {
                let dim = dim_name(t.name(), l);
                match by_extent.entry(level_extent(t, l)) {
                    Entry::Occupied(canon) => {
                        let canon = canon.get();
                        a.notes.push(format!("{dim} = {canon} (equal declared extents)"));
                        a.dim_alias.insert(dim, canon.clone());
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(dim);
                    }
                }
            }
        }

        // Storage invariants for every sparse level of a tensor the
        // kernel only reads (operands always; the result's structure too
        // for compute kernels, which run over a preassembled output).
        for t in lk.tensors() {
            let (name, format) = (t.name(), t.format());
            let structure_is_input =
                name != lk.result.name() || lk.kind == KernelKind::Compute;
            // Number of parent entries feeding each level: a product of
            // dense extents until the first compressed level, then the
            // previous crd length (unknown for a result still being
            // assembled).
            let mut parents: Option<Sym> = Some(Sym::int(1));
            let mut last_crd: Option<String> = None;
            for l in 0..t.rank() {
                let lt = format.mode(l);
                let dim = a.canon_dim(&dim_name(name, l));
                if lt.is_full() {
                    // Dense: every coordinate is stored, so the level
                    // multiplies the parent-position count by its extent.
                    parents = parents.map(|p| p.mul(&Sym::var(dim)));
                    continue;
                }
                if lt.is_position_passthrough() {
                    // Singleton: one coordinate per parent position, no pos
                    // array, positions pass straight through. The crd array
                    // is exactly as long as the parent has positions, and
                    // its values are validated coordinates.
                    let crd = crd_name(name, l);
                    if structure_is_input {
                        if let Some(p) = &parents {
                            a.lens.insert(crd.clone(), p.clone());
                            a.notes.push(format!(
                                "len({crd}) = {p} (one coordinate per parent position)"
                            ));
                        }
                        a.arrays.insert(
                            crd.clone(),
                            ArrayFacts {
                                value_ub: Some(Sym::var(dim.clone()).sub(&Sym::int(1))),
                            },
                        );
                        a.notes.push(format!("{crd} values are in [0, {dim}) (validated)"));
                    }
                    last_crd = Some(crd);
                    continue;
                }
                // Compressed and hashed levels both carry pos/crd arrays
                // with the same validated structural facts — hashed merely
                // drops the within-segment ordering, which these bounds
                // never rely on.
                debug_assert!(lt.has_pos_array());
                let pos = pos_name(name, l);
                let crd = crd_name(name, l);
                // pos has parents + 1 entries whether the structure is an
                // input or a preallocated result buffer.
                if let Some(p) = &parents {
                    a.lens.insert(pos.clone(), p.add(&Sym::int(1)));
                    a.notes.push(format!("len({pos}) = {} + 1 (validated)", p));
                }
                if structure_is_input {
                    a.arrays.insert(
                        pos.clone(),
                        ArrayFacts { value_ub: Some(Sym::len(crd.clone())) },
                    );
                    a.notes.push(format!("{pos} values are in [0, len({crd})] (validated)"));
                    a.arrays.insert(
                        crd.clone(),
                        ArrayFacts {
                            value_ub: Some(Sym::var(dim.clone()).sub(&Sym::int(1))),
                        },
                    );
                    a.notes.push(format!("{crd} values are in [0, {dim}) (validated)"));
                    parents = Some(Sym::len(crd.clone()));
                } else {
                    parents = None;
                }
                last_crd = Some(crd);
            }
            // A validated sparse tensor pairs vals with the last crd array;
            // for compute kernels this also covers the result's vals.
            if let Some(crd) = last_crd {
                if structure_is_input {
                    a.lens.insert(name.to_string(), Sym::len(crd.clone()));
                    a.notes.push(format!("len({name}) = len({crd}) (validated)"));
                }
            } else {
                // Dense tensor: length is the product of its extents.
                let mut len = Sym::int(1);
                for l in 0..t.rank() {
                    len = len.mul(&Sym::var(a.canon_dim(&dim_name(name, l))));
                }
                a.lens.insert(name.to_string(), len);
            }
        }
        a
    }

    /// The canonical name of a dimension variable.
    #[must_use]
    pub fn canon_dim(&self, dim: &str) -> String {
        self.dim_alias.get(dim).cloned().unwrap_or_else(|| dim.to_string())
    }

    /// Registers the value bound for an integer array load into `bounds`,
    /// returning the opaque atom standing for the loaded value, or `None`
    /// when nothing is known about the array's contents.
    pub fn bind_load(&self, arr: &str, bounds: &mut Bounds, fresh: &mut u64) -> Option<Sym> {
        let facts = self.arrays.get(arr)?;
        let ub = facts.value_ub.clone()?;
        *fresh += 1;
        let atom = Atom::Opaque(*fresh);
        bounds.add_ub(atom.clone(), ub);
        Some(Sym::atom(atom))
    }
}

/// The segment `P[e] .. P[e + 1]` of a `pos` array `P`, as a loop's bounds
/// or a counter's start and end: `P` and `e`. A literal `e` counts
/// (`P[0] .. P[1]`). This is the one definition of the shape; each caller
/// filters on what it knows of `P`.
pub(crate) fn pos_segment<'e>(lo: &'e Expr, hi: &'e Expr) -> Option<(&'e str, &'e Expr)> {
    let (Expr::Load(pos, e), Expr::Load(hi_pos, next)) = (lo, hi) else { return None };
    let follows = match next.as_ref() {
        Expr::Bin(BinOp::Add, a, b) => a == e && **b == Expr::Int(1),
        Expr::Int(n) => matches!(**e, Expr::Int(k) if k.checked_add(1) == Some(*n)),
        _ => false,
    };
    (pos == hi_pos && follows).then_some((pos.as_str(), e.as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_segment_is_one_pos_array_from_an_index_to_the_next() {
        let p = |idx: Expr| Expr::load("P", idx);
        let e = || Expr::var("e");
        let table = [
            (p(e()), p(e() + Expr::int(1)), Some(("P", e()))),
            (p(Expr::int(0)), p(Expr::int(1)), Some(("P", Expr::int(0)))),
            (p(e() + Expr::int(1)), p(e()), None),
            (p(e()), Expr::load("Q", e() + Expr::int(1)), None),
            (p(e()), p(e() + Expr::int(2)), None),
        ];
        for (lo, hi, want) in table {
            let got = pos_segment(&lo, &hi).map(|(pos, e)| (pos, e.clone()));
            assert_eq!(got, want, "{lo:?} .. {hi:?}");
        }
    }
}
