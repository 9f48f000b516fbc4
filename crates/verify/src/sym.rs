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
//!
//! A polynomial is its constant and one flat buffer of its other terms, each
//! a coefficient followed by its monomial's atoms, sorted by monomial.
//! Arithmetic appends a term and rotates it into place, so an operation
//! allocates its result's buffer and nothing per term, and an atom's name is
//! shared, so copying a term copies pointers. Every polynomial owns its
//! names: a cost bound outlives the analysis that made it and is read on
//! other threads.
//!
//! Coefficients are checked. An operation whose coefficient overflows `i64`
//! yields an *overflowed* polynomial, which proves nothing and refutes
//! nothing: an obligation over it stays undischarged.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An indivisible nonnegative quantity. Names are shared, so cloning an atom
/// never allocates.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Atom {
    /// A scalar integer variable (loop variable, dimension parameter,
    /// counter) known to be nonnegative.
    Var(Arc<str>),
    /// The allocated length of an array.
    Len(Arc<str>),
    /// The longest segment `pos[p + 1] - pos[p]` of a validated input `pos`
    /// array (the cost analyzer's per-entry trip bound for loops over one
    /// segment).
    Seg(Arc<str>),
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

/// One word of a [`Sym`]'s buffer.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Word {
    /// A term's coefficient; its monomial's atoms follow.
    Coeff(i64),
    /// One atom of a monomial.
    Atom(Atom),
}

/// A polynomial over [`Atom`]s with `i64` coefficients: a constant term and
/// a buffer of the others, nonzero and sorted by monomial, lexicographically
/// over atoms. A constant needs no buffer.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Sym {
    constant: i64,
    words: Vec<Word>,
    /// A coefficient overflowed: the value is unknown, and the polynomial
    /// is otherwise zero.
    overflow: bool,
}

impl Sym {
    /// The constant polynomial `v`.
    #[must_use]
    pub fn int(v: i64) -> Sym {
        Sym { constant: v, ..Sym::default() }
    }

    /// The polynomial consisting of a single atom.
    #[must_use]
    pub fn atom(a: Atom) -> Sym {
        Sym { words: vec![Word::Coeff(1), Word::Atom(a)], ..Sym::default() }
    }

    /// A named nonnegative scalar variable.
    #[must_use]
    pub fn var(name: impl Into<Arc<str>>) -> Sym {
        Sym::atom(Atom::Var(name.into()))
    }

    /// The length of an array.
    #[must_use]
    pub fn len(arr: impl Into<Arc<str>>) -> Sym {
        Sym::atom(Atom::Len(arr.into()))
    }

    /// True when this is a constant, returning its value.
    #[must_use]
    pub fn as_const(&self) -> Option<i64> {
        (self.words.is_empty() && !self.overflow).then_some(self.constant)
    }

    /// The atom this polynomial is, with coefficient 1.
    pub(crate) fn as_atom(&self) -> Option<&Atom> {
        match self.words.as_slice() {
            [Word::Coeff(1), Word::Atom(a)] if self.constant == 0 => Some(a),
            _ => None,
        }
    }

    /// True when a coefficient overflowed.
    pub(crate) fn is_overflow(&self) -> bool {
        self.overflow
    }

    /// The terms as (coefficient, monomial) pairs, in order: the constant
    /// (whose monomial is empty) first.
    pub(crate) fn terms(&self) -> impl Iterator<Item = (i64, &[Word])> {
        let constant = (self.constant != 0).then_some((self.constant, &[][..]));
        let rest = self.words.chunk_by(|_, w| matches!(w, Word::Atom(_))).map(|term| match term {
            [Word::Coeff(c), mono @ ..] => (*c, mono),
            _ => unreachable!("a term starts with its coefficient"),
        });
        constant.into_iter().chain(rest)
    }

    /// `self + other`.
    #[must_use]
    pub fn add(&self, other: &Sym) -> Sym {
        self.plus(1, other, 0)
    }

    /// `self - other`.
    #[must_use]
    pub fn sub(&self, other: &Sym) -> Sym {
        self.plus(-1, other, 0)
    }

    /// `self + k * other + c`, in one buffer.
    fn plus(&self, k: i64, other: &Sym, c: i64) -> Sym {
        let mut words = Vec::with_capacity(self.words.len() + other.words.len());
        words.extend_from_slice(&self.words);
        let mut out = Sym { words, ..*self };
        out.add_product(k, &[], &[], other);
        out.add_term(c, &[]);
        out
    }

    /// `self += k * other`, in place.
    pub(crate) fn add_scaled(&mut self, k: i64, other: &Sym) {
        self.words.reserve(other.words.len());
        self.add_product(k, &[], &[], other);
    }

    /// `self * other`.
    #[must_use]
    pub fn mul(&self, other: &Sym) -> Sym {
        // Room for every product of two terms: a coefficient, then both
        // monomials' atoms.
        let count = |s: &Sym| s.words.iter().filter(|w| matches!(w, Word::Coeff(_))).count();
        let room = (count(self) + 1) * other.words.len() + (count(other) + 1) * self.words.len();
        let overflow = self.overflow || other.overflow;
        let mut out = Sym { constant: 0, words: Vec::with_capacity(room), overflow };
        for (c, m) in self.terms() {
            out.add_product(c, m, &[], other);
        }
        out
    }

    /// `self += k * a * b * other`, in place: `a` and `b` are runs of atoms
    /// that, with each monomial of `other`, make one monomial.
    fn add_product(&mut self, k: i64, a: &[Word], b: &[Word], other: &Sym) {
        if other.overflow {
            self.set_overflow();
        }
        for (c, m) in other.terms() {
            match k.checked_mul(c) {
                Some(kc) => self.add_term(kc, &[a, b, m]),
                None => self.set_overflow(),
            }
        }
    }

    /// `self += coeff * mono`, the monomial given as runs of atoms: appended,
    /// sorted, then merged with an equal term or rotated into place. The
    /// search runs from the back, so terms added in order cost one compare.
    pub(crate) fn add_term(&mut self, coeff: i64, mono: &[&[Word]]) {
        if coeff == 0 || self.overflow {
            return;
        }
        if mono.iter().all(|run| run.is_empty()) {
            match self.constant.checked_add(coeff) {
                Some(sum) => self.constant = sum,
                None => self.set_overflow(),
            }
            return;
        }
        let start = self.words.len();
        self.words.push(Word::Coeff(coeff));
        for run in mono {
            self.words.extend_from_slice(run);
        }
        self.words[start + 1..].sort_unstable();
        // The new term goes after the last term with a smaller monomial.
        let mut end = start;
        while end > 0 {
            let at = self.words[..end].iter().rposition(|w| matches!(w, Word::Coeff(_))).unwrap_or(0);
            match self.words[at + 1..end].cmp(&self.words[start + 1..]) {
                Ordering::Less => break,
                Ordering::Greater => end = at,
                Ordering::Equal => {
                    self.words.truncate(start);
                    let Word::Coeff(c) = self.words[at] else { unreachable!("a term's start") };
                    match c.checked_add(coeff) {
                        Some(0) => drop(self.words.drain(at..end)),
                        Some(sum) => self.words[at] = Word::Coeff(sum),
                        None => self.set_overflow(),
                    }
                    return;
                }
            }
        }
        let len = self.words.len();
        self.words[end..].rotate_right(len - start);
    }

    fn set_overflow(&mut self) {
        self.overflow = true;
        self.constant = 0;
        self.words.clear();
    }

    /// All atoms mentioned by the polynomial.
    #[must_use]
    pub fn atoms(&self) -> Vec<Atom> {
        let mut out: Vec<Atom> = atoms_of(&self.words).cloned().collect();
        out.sort();
        out.dedup();
        out
    }

    /// True when the polynomial mentions the atom.
    #[must_use]
    pub fn mentions(&self, a: &Atom) -> bool {
        self.words.iter().any(|w| matches!(w, Word::Atom(x) if x == a))
    }

    /// Substitutes `atom := rep` everywhere (used to model a loop variable
    /// advancing: `v := v + 1`).
    #[must_use]
    pub fn subst(&self, atom: &Atom, rep: &Sym) -> Sym {
        let target = Word::Atom(atom.clone());
        let mut out = Sym { overflow: self.overflow, ..Sym::default() };
        for (c, m) in self.terms() {
            // A monomial is sorted: the occurrences are one run.
            let from = m.partition_point(|w| *w < target);
            let to = from + m[from..].iter().take_while(|w| **w == target).count();
            let mut term = Sym::default();
            term.add_term(c, &[&m[..from], &m[to..]]);
            for _ in from..to {
                term = term.mul(rep);
            }
            out.add_scaled(1, &term);
        }
        out
    }
}

/// The atoms among `words` (of a monomial: all of them).
pub(crate) fn atoms_of(words: &[Word]) -> impl Iterator<Item = &Atom> {
    words.iter().filter_map(|w| match w {
        Word::Atom(a) => Some(a),
        Word::Coeff(_) => None,
    })
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.overflow {
            return write!(f, "(overflow)");
        }
        if self.constant == 0 && self.words.is_empty() {
            return write!(f, "0");
        }
        for (n, (c, m)) in self.terms().enumerate() {
            if n > 0 {
                write!(f, " + ")?;
            }
            if m.is_empty() || c != 1 {
                write!(f, "{c}")?;
            }
            for (k, a) in atoms_of(m).enumerate() {
                let sep = if k > 0 || c != 1 { "*" } else { "" };
                write!(f, "{sep}{a}")?;
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
        self.prove_nonneg(&b.plus(-1, a, -1), 8)
    }

    /// Refutes `0 ≤ a < len`: true when the access is *provably* out of
    /// bounds on every execution that reaches it (`a < 0` always, or
    /// `a ≥ len` always).
    #[must_use]
    pub fn refute_in_bounds(&self, idx: &Sym, len: &Sym) -> bool {
        // idx ≤ -1 always, or len ≤ idx always.
        self.prove_nonneg(&Sym::default().plus(-1, idx, -1), 8) || self.prove_le(len, idx)
    }

    /// Proves `p ≥ 0` by substituting upper bounds into negative monomials
    /// (each substitution only lowers the polynomial's value). An overflowed
    /// polynomial proves nothing.
    fn prove_nonneg(&self, p: &Sym, depth: u32) -> bool {
        if p.overflow {
            return false;
        }
        if p.terms().all(|(c, _)| c >= 0) {
            return true;
        }
        if depth == 0 {
            return false;
        }
        // Find a negative monomial and an atom in it with an upper bound;
        // try each bound.
        for (c, m) in p.terms().filter(|&(c, _)| c < 0) {
            for (i, w) in m.iter().enumerate() {
                let Word::Atom(atom) = w else { continue };
                for ub in self.ubs(atom) {
                    // Replace this occurrence of `atom` by its upper bound:
                    // c*m = c*atom*rest ≥ c*ub*rest since c < 0 and
                    // rest ≥ 0.
                    let mut words = Vec::with_capacity(p.words.len() + ub.words.len() * m.len());
                    words.extend_from_slice(&p.words);
                    let mut candidate = Sym { words, ..*p };
                    candidate.add_term(-c, &[m]);
                    candidate.add_product(c, &m[..i], &m[i + 1..], ub);
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
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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

    #[test]
    fn an_overflowed_coefficient_proves_and_refutes_nothing() {
        let (min, max) = (Sym::int(i64::MIN), Sym::int(i64::MAX));
        let j = Sym::var("j");
        for overflowed in [
            Sym::int(0).sub(&min),
            max.add(&Sym::int(1)),
            j.mul(&max).mul(&Sym::int(2)),
            j.add(&min).subst(&Atom::Var("j".into()), &min),
        ] {
            assert!(overflowed.is_overflow(), "{overflowed}");
            assert_eq!(overflowed.as_const(), None);
            assert!(overflowed.add(&j).is_overflow() && Sym::int(0).mul(&overflowed).is_overflow());
        }
        // `y[j + i64::MIN]`: in bounds is unproven, and so is out of bounds.
        let (b, idx, len) = (Bounds::default(), j.add(&min), Sym::len("y"));
        assert!(!b.prove_lt(&idx, &len) && !b.refute_in_bounds(&idx, &len));
    }

    /// The atoms random polynomials are built from, in their print order.
    fn pool() -> [Atom; 5] {
        [
            Atom::Var("m".into()),
            Atom::Var("n".into()),
            Atom::Len("a".into()),
            Atom::Opaque(1),
            Atom::Opaque(2),
        ]
    }

    /// A deterministic stream of small numbers from a sampled seed.
    struct Draw(u64);

    impl Draw {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.0 >> 33) % n
        }
    }

    /// A polynomial of up to four terms with coefficients in `-3..=3` and
    /// monomials of up to two pool atoms, and the same polynomial as a
    /// `BTreeMap` from sorted monomial to coefficient.
    fn random(d: &mut Draw) -> (Sym, BTreeMap<Vec<Atom>, i64>) {
        let (mut s, mut model) = (Sym::int(0), BTreeMap::new());
        for _ in 0..d.below(5) {
            let c = d.below(7) as i64 - 3;
            let degree = d.below(3);
            let mut mono: Vec<Atom> =
                (0..degree).map(|_| pool()[d.below(5) as usize].clone()).collect();
            let term = mono.iter().fold(Sym::int(c), |t, a| t.mul(&Sym::atom(a.clone())));
            s = s.add(&term);
            mono.sort();
            *model.entry(mono).or_insert(0) += c;
        }
        model.retain(|_, c| *c != 0);
        (s, model)
    }

    /// `s` at the given atom values.
    fn value(s: &Sym, at: &HashMap<Atom, i128>) -> i128 {
        s.terms().map(|(c, m)| atoms_of(m).fold(i128::from(c), |t, a| t * at[a])).sum()
    }

    /// Random nonnegative values for the pool.
    fn valuation(d: &mut Draw) -> HashMap<Atom, i128> {
        pool().into_iter().map(|a| (a, i128::from(d.below(6) as u8))).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn ring_laws_and_substitution_hold(seed in 0u64..u64::MAX) {
            let d = &mut Draw(seed);
            let ((a, _), (b, _), (c, _), (r, _)) = (random(d), random(d), random(d), random(d));
            let zero = Sym::int(0);
            prop_assert_eq!(a.add(&b), b.add(&a));
            prop_assert_eq!(a.mul(&b), b.mul(&a));
            prop_assert_eq!(a.add(&b).add(&c), a.add(&b.add(&c)));
            prop_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
            prop_assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
            prop_assert_eq!(a.sub(&a), zero.clone());
            prop_assert_eq!(a.add(&zero), a.clone());
            prop_assert_eq!(a.mul(&Sym::int(1)), a.clone());
            prop_assert_eq!(a.mul(&zero), zero);
            prop_assert_eq!(a.sub(&b).add(&b), a.clone());
            let x = pool()[d.below(5) as usize].clone();
            prop_assert_eq!(a.add(&b).subst(&x, &r), a.subst(&x, &r).add(&b.subst(&x, &r)));
            prop_assert_eq!(a.mul(&b).subst(&x, &r), a.subst(&x, &r).mul(&b.subst(&x, &r)));
            let mut at = valuation(d);
            let substituted = value(&a.subst(&x, &r), &at);
            at.insert(x.clone(), value(&r, &at));
            prop_assert_eq!(substituted, value(&a, &at));
        }

        #[test]
        fn terms_print_in_monomial_order(seed in 0u64..u64::MAX) {
            // The constant first, then monomials lexicographically, atoms
            // ordered Var < Len < Opaque and then by name or id (`seg` atoms,
            // made only by the cost analyzer, are pinned by its tests).
            let (s, model) = random(&mut Draw(seed));
            let printed: Vec<String> = model
                .iter()
                .map(|(m, c)| {
                    let atoms: Vec<String> = m.iter().map(ToString::to_string).collect();
                    match (m.is_empty(), *c) {
                        (true, _) => c.to_string(),
                        (false, 1) => atoms.join("*"),
                        (false, _) => format!("{c}*{}", atoms.join("*")),
                    }
                })
                .collect();
            let expected = if printed.is_empty() { "0".to_string() } else { printed.join(" + ") };
            prop_assert_eq!(s.to_string(), expected);
        }

        #[test]
        fn a_proven_inequality_holds_wherever_the_bounds_do(seed in 0u64..u64::MAX) {
            // Each pool atom may be bounded by a polynomial over the atoms
            // after it, so a valuation satisfying every bound is drawn
            // from the last atom back.
            let d = &mut Draw(seed);
            let atoms = pool();
            let mut bounds = Bounds::default();
            let mut ubs: Vec<Option<Sym>> = vec![None; atoms.len()];
            for (k, atom) in atoms.iter().enumerate() {
                if d.below(2) == 0 {
                    let later = &atoms[k + 1..];
                    let mut ub = Sym::int(d.below(4) as i64 - 1);
                    for a in later {
                        if d.below(3) == 0 {
                            let c = Sym::int(d.below(5) as i64 - 1);
                            ub = ub.add(&c.mul(&Sym::atom(a.clone())));
                        }
                    }
                    bounds.add_ub(atom.clone(), ub.clone());
                    ubs[k] = Some(ub);
                }
            }
            let ((a, _), (b, _)) = (random(d), random(d));
            let (le, lt) = (bounds.prove_le(&a, &b), bounds.prove_lt(&a, &b));
            for _ in 0..16 {
                let mut at = HashMap::new();
                let mut feasible = true;
                for (k, atom) in atoms.iter().enumerate().rev() {
                    let v = match &ubs[k] {
                        None => i128::from(d.below(8) as u8),
                        Some(ub) => {
                            let cap = value(ub, &at);
                            feasible &= cap >= 0;
                            i128::from(d.below(cap.clamp(0, 7) as u64 + 1) as u8)
                        }
                    };
                    at.insert(atom.clone(), v);
                }
                if feasible {
                    prop_assert!(!le || value(&a, &at) <= value(&b, &at), "{a} <= {b} at {at:?}");
                    prop_assert!(!lt || value(&a, &at) < value(&b, &at), "{a} < {b} at {at:?}");
                }
            }
        }
    }
}
