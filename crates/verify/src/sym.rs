//! A small symbolic arithmetic engine for bounds proofs.
//!
//! Values are polynomials over *atoms* — scalar variables, array lengths,
//! and opaque loaded values — with integer coefficients. Every atom is
//! nonnegative by construction (loop variables, dimensions, `pos`/`crd`
//! entries, and allocation lengths all are), which gives the proof engine
//! its one axiom: a polynomial whose coefficients are all nonnegative is
//! itself nonnegative. Everything else is derived by substituting known
//! upper bounds into negative monomials, which only ever *lowers* the
//! polynomial and therefore preserves `≥ 0` proofs.

use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// An indivisible nonnegative quantity.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Atom {
    /// A scalar integer variable (loop variable, dimension parameter,
    /// counter) known to be nonnegative.
    Var(String),
    /// The allocated length of an array.
    Len(String),
    /// The longest segment `pos[p + 1] - pos[p]` of a validated input `pos`
    /// array (the cost analyzer's per-entry trip bound for loops over one
    /// segment).
    Seg(String),
    /// An opaque nonnegative value (e.g. an array load) with an identity so
    /// bounds can be attached to it.
    Opaque(u64),
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Atom::Var(v) => write!(f, "{v}"),
            Atom::Len(a) => write!(f, "len({a})"),
            Atom::Seg(a) => write!(f, "seg({a})"),
            Atom::Opaque(id) => write!(f, "?{id}"),
        }
    }
}

/// A polynomial over [`Atom`]s with `i64` coefficients. The empty monomial
/// is the constant term.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Sym {
    terms: BTreeMap<Vec<Atom>, i64>,
}

impl Sym {
    /// The constant polynomial `v`.
    #[must_use]
    pub fn int(v: i64) -> Sym {
        let mut terms = BTreeMap::new();
        if v != 0 {
            terms.insert(Vec::new(), v);
        }
        Sym { terms }
    }

    /// The polynomial consisting of a single atom.
    #[must_use]
    pub fn atom(a: Atom) -> Sym {
        let mut terms = BTreeMap::new();
        terms.insert(vec![a], 1);
        Sym { terms }
    }

    /// A named nonnegative scalar variable.
    #[must_use]
    pub fn var(name: impl Into<String>) -> Sym {
        Sym::atom(Atom::Var(name.into()))
    }

    /// The length of an array.
    #[must_use]
    pub fn len(arr: impl Into<String>) -> Sym {
        Sym::atom(Atom::Len(arr.into()))
    }

    /// True when this is a constant, returning its value.
    #[must_use]
    pub fn as_const(&self) -> Option<i64> {
        match self.terms.len() {
            0 => Some(0),
            1 => self.terms.get(&Vec::new()).copied(),
            _ => None,
        }
    }

    fn insert(&mut self, mono: Vec<Atom>, coeff: i64) {
        if coeff == 0 {
            return;
        }
        let c = self.terms.entry(mono).or_insert(0);
        *c += coeff;
        if *c == 0 {
            let key: Vec<Vec<Atom>> =
                self.terms.iter().filter(|(_, &v)| v == 0).map(|(k, _)| k.clone()).collect();
            for k in key {
                self.terms.remove(&k);
            }
        }
    }

    /// `self + other`.
    #[must_use]
    pub fn add(&self, other: &Sym) -> Sym {
        let mut out = self.clone();
        for (m, &c) in &other.terms {
            out.insert(m.clone(), c);
        }
        out
    }

    /// `self - other`.
    #[must_use]
    pub fn sub(&self, other: &Sym) -> Sym {
        let mut out = self.clone();
        for (m, &c) in &other.terms {
            out.insert(m.clone(), -c);
        }
        out
    }

    /// `self * other`.
    #[must_use]
    pub fn mul(&self, other: &Sym) -> Sym {
        let mut out = Sym::default();
        for (ma, &ca) in &self.terms {
            for (mb, &cb) in &other.terms {
                let mut m = ma.clone();
                m.extend(mb.iter().cloned());
                m.sort();
                out.insert(m, ca.saturating_mul(cb));
            }
        }
        out
    }

    /// The polynomial's terms as (monomial, coefficient) pairs.
    #[must_use]
    pub fn terms(&self) -> Vec<(Vec<Atom>, i64)> {
        self.terms.iter().map(|(m, &c)| (m.clone(), c)).collect()
    }

    /// All atoms mentioned by the polynomial.
    #[must_use]
    pub fn atoms(&self) -> Vec<Atom> {
        let mut out: Vec<Atom> = self.terms.keys().flatten().cloned().collect();
        out.sort();
        out.dedup();
        out
    }

    /// True when the polynomial mentions the atom.
    #[must_use]
    pub fn mentions(&self, a: &Atom) -> bool {
        self.terms.keys().any(|m| m.contains(a))
    }

    /// Substitutes `atom := rep` everywhere (used to model a loop variable
    /// advancing: `v := v + 1`).
    #[must_use]
    pub fn subst(&self, atom: &Atom, rep: &Sym) -> Sym {
        let mut out = Sym::default();
        for (m, &c) in &self.terms {
            let (occurrences, rest): (Vec<&Atom>, Vec<&Atom>) =
                m.iter().partition(|a| *a == atom);
            let mut term = Sym::int(c);
            for a in rest {
                term = term.mul(&Sym::atom(a.clone()));
            }
            for _ in occurrences {
                term = term.mul(rep);
            }
            out = out.add(&term);
        }
        out
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0");
        }
        let mut first = true;
        for (m, c) in &self.terms {
            if !first {
                write!(f, " + ")?;
            }
            first = false;
            if m.is_empty() {
                write!(f, "{c}")?;
            } else {
                let atoms: Vec<String> = m.iter().map(|a| a.to_string()).collect();
                if *c == 1 {
                    write!(f, "{}", atoms.join("*"))?;
                } else {
                    write!(f, "{c}*{}", atoms.join("*"))?;
                }
            }
        }
        Ok(())
    }
}

/// Known upper bounds on atoms: `atom ≤ bound` for each listed bound.
/// Lower bounds are implicit — every atom is `≥ 0`.
#[derive(Debug, Clone, Default)]
pub struct Bounds {
    ubs: HashMap<Atom, Vec<Sym>>,
}

impl Bounds {
    /// Records `atom ≤ bound`.
    pub fn add_ub(&mut self, atom: Atom, bound: Sym) {
        let list = self.ubs.entry(atom).or_default();
        if !list.contains(&bound) {
            list.push(bound);
        }
    }

    /// Drops every bound recorded for the atom (when a variable is
    /// reassigned to something unknown).
    pub fn clear(&mut self, atom: &Atom) {
        self.ubs.remove(atom);
    }

    /// The recorded upper bounds for an atom.
    #[must_use]
    pub fn ubs(&self, atom: &Atom) -> &[Sym] {
        self.ubs.get(atom).map_or(&[], Vec::as_slice)
    }

    /// Proves `a ≤ b`, i.e. `b - a ≥ 0`. Returns `false` when the proof
    /// fails — which means *unknown*, not a refutation.
    #[must_use]
    pub fn prove_le(&self, a: &Sym, b: &Sym) -> bool {
        self.prove_nonneg(&b.sub(a), 8)
    }

    /// Proves `a < b`, i.e. `b - a - 1 ≥ 0` (integer-valued atoms).
    #[must_use]
    pub fn prove_lt(&self, a: &Sym, b: &Sym) -> bool {
        self.prove_nonneg(&b.sub(a).sub(&Sym::int(1)), 8)
    }

    /// Refutes `0 ≤ a < len`: true when the access is *provably* out of
    /// bounds on every execution that reaches it (`a < 0` always, or
    /// `a ≥ len` always).
    #[must_use]
    pub fn refute_in_bounds(&self, idx: &Sym, len: &Sym) -> bool {
        // idx ≤ -1 always, or len ≤ idx always.
        self.prove_nonneg(&Sym::int(-1).sub(idx), 8) || self.prove_le(len, idx)
    }

    /// Proves `p ≥ 0` by substituting upper bounds into negative monomials
    /// (each substitution only lowers the polynomial's value).
    fn prove_nonneg(&self, p: &Sym, depth: u32) -> bool {
        if p.terms.values().all(|&c| c >= 0) {
            return true;
        }
        if depth == 0 {
            return false;
        }
        // Find a negative monomial and an atom in it with an upper bound;
        // try each bound.
        for (m, &c) in &p.terms {
            if c >= 0 {
                continue;
            }
            for atom in m {
                for ub in self.ubs(atom) {
                    // Replace one occurrence of `atom` in this monomial by
                    // its upper bound: c*m = c*atom*rest ≥ c*ub*rest since
                    // c < 0 and rest ≥ 0.
                    let mut rest = Sym::int(c);
                    let mut replaced = false;
                    for a in m {
                        if !replaced && a == atom {
                            replaced = true;
                            continue;
                        }
                        rest = rest.mul(&Sym::atom(a.clone()));
                    }
                    let mut candidate = p.clone();
                    candidate.insert(m.clone(), -c);
                    let candidate = candidate.add(&rest.mul(ub));
                    if self.prove_nonneg(&candidate, depth - 1) {
                        return true;
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_ordering() {
        let b = Bounds::default();
        assert!(b.prove_le(&Sym::int(3), &Sym::int(3)));
        assert!(b.prove_lt(&Sym::int(2), &Sym::int(3)));
        assert!(!b.prove_lt(&Sym::int(3), &Sym::int(3)));
    }

    #[test]
    fn loop_variable_bound() {
        // i ≤ n - 1 proves i < n and i*d + j < n*d given j ≤ d - 1.
        let mut b = Bounds::default();
        let (i, j) = (Sym::var("i"), Sym::var("j"));
        let (n, d) = (Sym::var("n"), Sym::var("d"));
        b.add_ub(Atom::Var("i".into()), n.sub(&Sym::int(1)));
        b.add_ub(Atom::Var("j".into()), d.sub(&Sym::int(1)));
        assert!(b.prove_lt(&i, &n));
        assert!(b.prove_lt(&i.mul(&d).add(&j), &n.mul(&d)));
        assert!(!b.prove_lt(&i.mul(&d).add(&j).add(&Sym::int(1)), &n.mul(&d)));
    }

    #[test]
    fn refutation_is_not_just_unproven() {
        let mut b = Bounds::default();
        let i = Sym::var("i");
        // Unknown i against unknown len: neither provable nor refutable.
        assert!(!b.prove_lt(&i, &Sym::len("a")));
        assert!(!b.refute_in_bounds(&i, &Sym::len("a")));
        // i ≥ len is refuted once i has len as a *lower* bound — modeled
        // here as the literal index len(a) + 1.
        let past = Sym::len("a").add(&Sym::int(1));
        assert!(b.refute_in_bounds(&past, &Sym::len("a")));
        // A negative constant index is refuted.
        assert!(b.refute_in_bounds(&Sym::int(-1), &Sym::len("a")));
        b.add_ub(Atom::Var("i".into()), Sym::len("a").sub(&Sym::int(1)));
        assert!(b.prove_lt(&i, &Sym::len("a")));
    }

    #[test]
    fn substitution() {
        let i = Sym::var("i");
        let d = Sym::var("d");
        let idx = i.mul(&d).add(&Sym::int(2));
        let next = idx.subst(&Atom::Var("i".into()), &i.add(&Sym::int(1)));
        assert_eq!(next, i.mul(&d).add(&d).add(&Sym::int(2)));
    }
}
