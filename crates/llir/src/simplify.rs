//! Peephole expression simplification: constant folding and algebraic
//! identities (`0 + x`, `0 * x`, `x * 1`, ...). Keeps generated kernels
//! readable (the paper's listings write `B1_pos[0]`, not
//! `B1_pos[0 * m + 0]`) and saves interpreter work in inner loops.

use crate::{BinOp, Expr, Kernel, Stmt, UnOp};

impl Expr {
    /// Returns a simplified copy of the expression.
    pub fn simplified(&self) -> Expr {
        match self {
            Expr::Int(_) | Expr::Float(_) | Expr::Bool(_) | Expr::Var(_) | Expr::Len(_) => {
                self.clone()
            }
            Expr::Load(arr, idx) => Expr::Load(arr.clone(), Box::new(idx.simplified())),
            Expr::Un(op, a) => {
                let a = a.simplified();
                match (op, &a) {
                    // checked_neg: folding `-i64::MIN` would otherwise abort
                    // debug builds; leave such expressions for the executor,
                    // whose wrapping semantics handle them.
                    (UnOp::Neg, Expr::Int(v)) if v.checked_neg().is_some() => Expr::Int(-v),
                    (UnOp::Neg, Expr::Float(v)) => Expr::Float(-v),
                    (UnOp::Not, Expr::Bool(v)) => Expr::Bool(!v),
                    _ => Expr::Un(*op, Box::new(a)),
                }
            }
            Expr::Bin(op, a, b) => {
                let a = a.simplified();
                let b = b.simplified();
                match (op, &a, &b) {
                    // Integer constant folding. Overflowing folds are left
                    // unsimplified rather than aborting debug builds; the
                    // executor evaluates them with wrapping semantics.
                    (BinOp::Add, Expr::Int(x), Expr::Int(y)) if x.checked_add(*y).is_some() => {
                        Expr::Int(x + y)
                    }
                    (BinOp::Sub, Expr::Int(x), Expr::Int(y)) if x.checked_sub(*y).is_some() => {
                        Expr::Int(x - y)
                    }
                    (BinOp::Mul, Expr::Int(x), Expr::Int(y)) if x.checked_mul(*y).is_some() => {
                        Expr::Int(x * y)
                    }
                    (BinOp::Min, Expr::Int(x), Expr::Int(y)) => Expr::Int(*x.min(y)),
                    (BinOp::Max, Expr::Int(x), Expr::Int(y)) => Expr::Int(*x.max(y)),
                    // Additive and multiplicative identities.
                    (BinOp::Add, Expr::Int(0), _) => b,
                    (BinOp::Add, _, Expr::Int(0)) => a,
                    (BinOp::Sub, _, Expr::Int(0)) => a,
                    (BinOp::Mul, Expr::Int(0), _) | (BinOp::Mul, _, Expr::Int(0)) => Expr::Int(0),
                    (BinOp::Mul, Expr::Int(1), _) => b,
                    (BinOp::Mul, _, Expr::Int(1)) => a,
                    (BinOp::Add, Expr::Float(z), _) if *z == 0.0 => b,
                    (BinOp::Add, _, Expr::Float(z)) if *z == 0.0 => a,
                    (BinOp::Mul, Expr::Float(o), _) if *o == 1.0 => b,
                    (BinOp::Mul, _, Expr::Float(o)) if *o == 1.0 => a,
                    // Logical identities.
                    (BinOp::And, Expr::Bool(true), _) => b,
                    (BinOp::And, _, Expr::Bool(true)) => a,
                    (BinOp::And, Expr::Bool(false), _) | (BinOp::And, _, Expr::Bool(false)) => {
                        Expr::Bool(false)
                    }
                    (BinOp::Or, Expr::Bool(false), _) => b,
                    (BinOp::Or, _, Expr::Bool(false)) => a,
                    _ => Expr::Bin(*op, Box::new(a), Box::new(b)),
                }
            }
        }
    }
}

fn simplify_block(body: &mut [Stmt]) {
    for s in body {
        simplify_stmt(s);
    }
}

fn simplify_stmt(s: &mut Stmt) {
    match s {
        Stmt::DeclInt(_, e) | Stmt::DeclFloat(_, e) | Stmt::DeclBool(_, e) | Stmt::Assign(_, e) => {
            *e = e.simplified();
        }
        Stmt::Store { idx, val, .. } | Stmt::StoreAdd { idx, val, .. } => {
            *idx = idx.simplified();
            *val = val.simplified();
        }
        Stmt::For { lo, hi, body, .. } => {
            *lo = lo.simplified();
            *hi = hi.simplified();
            simplify_block(body);
        }
        Stmt::While { cond, body } => {
            *cond = cond.simplified();
            simplify_block(body);
        }
        Stmt::If { cond, then, els } => {
            *cond = cond.simplified();
            simplify_block(then);
            simplify_block(els);
        }
        Stmt::Memset { val, .. } => *val = val.simplified(),
        Stmt::Alloc { len, .. } | Stmt::Realloc { len, .. } => *len = len.simplified(),
        Stmt::WsInit { extent, .. } => *extent = extent.simplified(),
        Stmt::WsScatter { key, val, .. } => {
            *key = key.simplified();
            *val = val.simplified();
        }
        Stmt::WsDrain { body, .. } => simplify_block(body),
        Stmt::Comment(_) => {}
    }
}

impl Kernel {
    /// Simplifies every expression in the kernel body in place.
    pub fn simplify(&mut self) {
        simplify_block(&mut self.body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_zero_offsets() {
        let e = (Expr::int(0) * Expr::var("m") + Expr::var("i")) + Expr::int(1);
        assert_eq!(e.simplified(), Expr::var("i") + Expr::int(1));
    }

    #[test]
    fn folds_constants() {
        let e = Expr::int(0) + Expr::int(1);
        assert_eq!(e.simplified(), Expr::Int(1));
        let e2 = (Expr::int(2) * Expr::int(3)).min(Expr::int(5));
        assert_eq!(e2.simplified(), Expr::Int(5));
    }

    #[test]
    fn overflowing_folds_are_left_alone() {
        let e = Expr::int(i64::MAX) + Expr::int(1);
        assert_eq!(e.simplified(), Expr::int(i64::MAX) + Expr::int(1));
        let m = Expr::int(i64::MAX) * Expr::int(2);
        assert_eq!(m.simplified(), Expr::int(i64::MAX) * Expr::int(2));
        let n = Expr::Un(UnOp::Neg, Box::new(Expr::int(i64::MIN)));
        assert_eq!(n.simplified(), Expr::Un(UnOp::Neg, Box::new(Expr::int(i64::MIN))));
        let s = Expr::int(i64::MIN) - Expr::int(1);
        assert_eq!(s.simplified(), Expr::int(i64::MIN) - Expr::int(1));
    }

    #[test]
    fn simplifies_inside_statements() {
        let mut k = Kernel::new("k").body(vec![Stmt::for_(
            "i",
            Expr::int(0) + Expr::int(0),
            Expr::int(1) * Expr::var("n"),
            vec![Stmt::store("x", Expr::int(0) * Expr::var("d") + Expr::var("i"), Expr::float(0.0))],
        )]);
        k.simplify();
        match &k.body[0] {
            Stmt::For { lo, hi, body, .. } => {
                assert_eq!(*lo, Expr::Int(0));
                assert_eq!(*hi, Expr::var("n"));
                match &body[0] {
                    Stmt::Store { idx, .. } => assert_eq!(*idx, Expr::var("i")),
                    other => panic!("expected store, got {other:?}"),
                }
            }
            other => panic!("expected for, got {other:?}"),
        }
    }
}
