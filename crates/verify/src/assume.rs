//! The assumption environment: facts about a kernel's array parameters
//! that hold whenever the runtime binds validated tensors to them.
//!
//! These are exactly the storage invariants `Tensor::validate` enforces at
//! bind time (`pos` arrays start at 0, are monotone and end at the `crd`
//! length; `crd` coordinates are within the dimension; `crd` and `vals`
//! pair up). The verifier *assumes* them for input parameters and records
//! each one in the report, so the bind-time check and the static proof are
//! two views of the same contract — [`check_pos_slice`] and
//! [`check_crd_slice`] mirror the runtime checks one-to-one for tests that
//! assert the two layers agree.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use taco_lower::params::{crd_name, dim_name, level_extent, pos_name};
use taco_lower::{KernelKind, LoweredKernel};

use crate::error::VerifyError;
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

/// Mirrors the bind-time `pos` checks of `Csr::validate`/`Csf::validate` on
/// a raw slice: `parents + 1` entries, starts at 0, monotone, ends at the
/// `crd` length.
///
/// # Errors
///
/// Returns the [`VerifyError`] the static layer would raise for a kernel
/// whose `pos` input violated the invariant.
pub fn check_pos_slice(pos: &[usize], parents: usize, crd_len: usize) -> Result<(), VerifyError> {
    if pos.len() != parents + 1 {
        return Err(VerifyError::OutOfBounds {
            array: "pos".to_string(),
            index: format!("{parents} (pos has {} entries)", pos.len()),
        });
    }
    if pos.first() != Some(&0) {
        return Err(VerifyError::PosNotMonotone { counter: "pos[0]".to_string() });
    }
    if pos.windows(2).any(|w| w[0] > w[1]) {
        return Err(VerifyError::PosNotMonotone { counter: "pos".to_string() });
    }
    if pos.last() != Some(&crd_len) {
        return Err(VerifyError::OutOfBounds {
            array: "crd".to_string(),
            index: format!("pos ends at {} but crd has {crd_len} entries", pos.last().unwrap()),
        });
    }
    Ok(())
}

/// Mirrors the bind-time `crd`/`vals` checks on raw slices: coordinates in
/// `[0, dim)` and one value per coordinate.
///
/// # Errors
///
/// Returns the [`VerifyError`] the static layer would raise for a kernel
/// whose `crd` input violated the invariant.
pub fn check_crd_slice(crd: &[usize], dim: usize, vals_len: usize) -> Result<(), VerifyError> {
    if let Some(c) = crd.iter().find(|c| **c >= dim) {
        return Err(VerifyError::OutOfBounds {
            array: "crd".to_string(),
            index: format!("coordinate {c} with dimension {dim}"),
        });
    }
    if crd.len() != vals_len {
        return Err(VerifyError::UninitializedRead { array: "vals".to_string() });
    }
    Ok(())
}
