//! Operand forms: the one-node expressions of the resolved IR.
//!
//! The compiler resolves `p < B_pos[i + 1]` into five nodes — a compare
//! over a slot read and a load whose index is a sum of a slot read and a
//! literal — and the interpreter pays a recursive call for each. Merge and
//! assembly loops are made of little else, so [`specialise`] rewrites those
//! shapes into single nodes once per [`Executable`](crate::Executable), at
//! the end of [`Executable::compile`](crate::Executable::compile):
//!
//! * `slot + lit` is [`IExpr::VarPlus`];
//! * an int or `f64` load at `slot` or `slot + lit` is [`IExpr::LoadAt`] or
//!   [`FExpr::LoadF64At`], its element an [`At`];
//! * an int compare of two slots is [`BExpr::CmpVars`], of a slot and any
//!   other expression [`BExpr::CmpVarE`] or [`BExpr::CmpEVar`] by side.
//!
//! A form evaluates without recursing into a child node and means exactly
//! the tree it replaces: same value, same wrapping, the same range check
//! through `AccessPolicy::index` and the same `RunError` payload. The native
//! backend emits C from the same body and prints each form as the text of
//! that tree, so the C is byte for byte what it was. Nothing chooses
//! between the two trees at run time: an `Executable` has the one body.

use crate::exec::{At, BExpr, FExpr, IExpr, RStmt};
use crate::BinOp;

/// Rewrites every expression under `body` that has an operand form into it,
/// in place and children first: `slot + lit` ([`IExpr::VarPlus`]), an int
/// or `f64` load at `slot` or `slot + lit` ([`IExpr::LoadAt`],
/// [`FExpr::LoadF64At`]), and an int compare with a slot on either side
/// ([`BExpr::CmpVars`], [`BExpr::CmpVarE`], [`BExpr::CmpEVar`]). These are
/// the nodes of per-element merge and assembly code (`p < B_pos[i + 1]`,
/// `j == jB`, `B[p]`, `nnz + 1`). A leaf loop's plan is left as it is: its
/// strip was made from the tree before.
pub(crate) fn specialise(body: &mut [RStmt]) {
    for s in body {
        match s {
            RStmt::AssignI(_, e)
            | RStmt::MemsetI(_, e)
            | RStmt::Alloc(_, _, e)
            | RStmt::Realloc(_, e)
            | RStmt::WsInit(_, e) => int(e),
            RStmt::AssignF(_, e) | RStmt::MemsetF64(_, e) | RStmt::MemsetF32(_, e) => float(e),
            RStmt::AssignB(_, e) | RStmt::MemsetB(_, e) => boolean(e),
            RStmt::StoreI(_, i, v) | RStmt::StoreAddI(_, i, v) => {
                int(i);
                int(v);
            }
            RStmt::StoreF64(_, i, v)
            | RStmt::StoreF32(_, i, v)
            | RStmt::StoreAddF64(_, i, v)
            | RStmt::StoreAddF32(_, i, v)
            | RStmt::WsScatter(_, i, v, _) => {
                int(i);
                float(v);
            }
            RStmt::StoreB(_, i, v) => {
                int(i);
                boolean(v);
            }
            RStmt::For(_, lo, hi, b) => {
                int(lo);
                int(hi);
                specialise(b.stmts_mut());
            }
            RStmt::While(c, b) => {
                boolean(c);
                specialise(b);
            }
            RStmt::If(c, t, e) => {
                boolean(c);
                specialise(t);
                specialise(e);
            }
            RStmt::WsDrain(.., b) => specialise(b),
        }
    }

    fn int(e: &mut IExpr) {
        match e {
            IExpr::Load(_, i) | IExpr::Neg(i) => int(i),
            IExpr::Bin(_, a, b) => {
                int(a);
                int(b);
            }
            _ => {}
        }
        match e {
            IExpr::Bin(BinOp::Add, a, b) => {
                if let (IExpr::Var(s), IExpr::Lit(k)) = (&**a, &**b) {
                    *e = IExpr::VarPlus(*s, *k);
                }
            }
            IExpr::Load(arr, i) => {
                if let Some(at) = at(*arr, i) {
                    *e = IExpr::LoadAt(at);
                }
            }
            _ => {}
        }
    }

    fn float(e: &mut FExpr) {
        match e {
            FExpr::LoadF64(_, i) | FExpr::LoadF32(_, i) | FExpr::FromInt(i) => int(i),
            FExpr::Bin(_, a, b) => {
                float(a);
                float(b);
            }
            FExpr::Neg(a) => float(a),
            _ => {}
        }
        if let FExpr::LoadF64(arr, i) = e {
            if let Some(at) = at(*arr, i) {
                *e = FExpr::LoadF64At(at);
            }
        }
    }

    fn boolean(e: &mut BExpr) {
        match e {
            BExpr::Load(_, i) => int(i),
            BExpr::CmpI(_, a, b) => {
                int(a);
                int(b);
            }
            BExpr::CmpF(_, a, b) => {
                float(a);
                float(b);
            }
            BExpr::Bin(_, a, b) => {
                boolean(a);
                boolean(b);
            }
            BExpr::Not(a) => boolean(a),
            _ => {}
        }
        if !matches!(e, BExpr::CmpI(..)) {
            return;
        }
        // Moved out and back, boxes and all: nothing is cloned or allocated.
        let BExpr::CmpI(op, a, b) = std::mem::replace(e, BExpr::Lit(false)) else {
            unreachable!("matched above")
        };
        let var = |e: &IExpr| match *e {
            IExpr::Var(s) => Some(s),
            _ => None,
        };
        *e = match (var(&a), var(&b)) {
            (Some(x), Some(y)) => BExpr::CmpVars(op, x, y),
            (Some(x), None) => BExpr::CmpVarE(op, x, b),
            (None, Some(y)) => BExpr::CmpEVar(op, a, y),
            (None, None) => BExpr::CmpI(op, a, b),
        };
    }

    /// The [`At`] of a load of `arr` at an already rewritten `index`: the
    /// bare slot, or `slot + k` for `k != 0` (`slot + 0` keeps its node, so
    /// that cgen still prints it as a sum).
    fn at(arr: usize, index: &IExpr) -> Option<At> {
        let (slot, k) = match *index {
            IExpr::Var(s) => (s, 0),
            IExpr::VarPlus(s, k) if k != 0 => (s, k),
            _ => return None,
        };
        Some(At {
            arr: u32::try_from(arr).ok()?,
            slot: u32::try_from(slot).ok()?,
            k,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        emit_native, run_body, ArrayTy, Binding, Executable, Expr, Kernel, Param, Progress,
        ResourceBudget, RunControls, RunError, Stmt,
    };
    use proptest::prelude::*;
    use std::mem::size_of;

    /// The forms fit the nodes they replace: no tree node, and so no body,
    /// grew. A form that needs two slots and a literal takes `u32` slots.
    #[test]
    fn operand_forms_leave_every_node_its_size() {
        let sizes = (size_of::<IExpr>(), size_of::<FExpr>(), size_of::<BExpr>());
        assert_eq!(sizes, (24, 24, 24));
        assert_eq!(size_of::<RStmt>(), 104);
    }

    fn v(name: &str) -> Expr {
        Expr::var(name)
    }

    fn ld(arr: &str, idx: Expr) -> Expr {
        Expr::load(arr, idx)
    }

    /// Every nonempty subset of `ops`, largest first: the points of a merge
    /// lattice (Fig. 13) over `ops`.
    fn points<'a>(ops: &[&'a str]) -> Vec<Vec<&'a str>> {
        let mut masks: Vec<u32> = (1..1u32 << ops.len()).collect();
        masks.sort_by_key(|m| (std::cmp::Reverse(m.count_ones()), *m));
        let pick = |m: u32| {
            (0..ops.len())
                .filter(|t| m & 1 << t != 0)
                .map(|t| ops[t])
                .collect()
        };
        masks.into_iter().map(pick).collect()
    }

    /// `A_crd[nnz] = j; A_vals[nnz] = val; nnz += 1`, growing both by
    /// doubling.
    fn append(j: Expr, val: Expr) -> Vec<Stmt> {
        let grow = |arr: &str| {
            Stmt::if_(
                Expr::len(arr).le(v("nnz")),
                vec![Stmt::Realloc {
                    arr: arr.into(),
                    len: (v("nnz") + Expr::int(1)) * Expr::int(2),
                }],
            )
        };
        vec![
            grow("A_crd"),
            Stmt::store("A_crd", v("nnz"), j),
            grow("A_vals"),
            Stmt::store("A_vals", v("nnz"), val),
            Stmt::incr("nnz"),
        ]
    }

    /// The merge addition `A = Σ ops` of CSR matrices into a CSR result, as
    /// the lowerer writes Fig. 13: per row, one `while` per lattice point,
    /// whose body finds the least column, appends the sum of the operands
    /// that have it through an `if` cascade over the point's subsets, and
    /// advances those operands.
    fn merge(ops: &[&str]) -> Kernel {
        let and = |c: Vec<Expr>| c.into_iter().reduce(Expr::and).expect("nonempty");
        let at_j = |q: &[&str]| and(q.iter().map(|t| v(&format!("j{t}")).eq(v("j"))).collect());
        let rows = points(ops).into_iter().map(|point| {
            let p = |t: &str| format!("p{t}");
            let end = |t: &str| ld(&format!("{t}_pos"), v("i") + Expr::int(1));
            let more = and(point.iter().map(|t| v(&p(t)).lt(end(t))).collect());
            let mut body: Vec<Stmt> = point
                .iter()
                .map(|t| Stmt::DeclInt(format!("j{t}"), ld(&format!("{t}_crd"), v(&p(t)))))
                .collect();
            let least = point.iter().map(|t| v(&format!("j{t}"))).reduce(Expr::min);
            body.push(Stmt::DeclInt("j".into(), least.expect("nonempty")));
            let cascade = points(&point).into_iter().rev().fold(Vec::new(), |els, q| {
                let sum = q
                    .iter()
                    .map(|t| ld(&format!("{t}_vals"), v(&p(t))))
                    .reduce(|a, b| a + b);
                vec![Stmt::if_else(
                    at_j(&q),
                    append(v("j"), sum.expect("nonempty")),
                    els,
                )]
            });
            body.extend(cascade);
            body.extend(
                point
                    .iter()
                    .map(|t| Stmt::if_(at_j(&[t]), vec![Stmt::incr(&p(t))])),
            );
            Stmt::while_(more, body)
        });
        let mut row: Vec<Stmt> = ops
            .iter()
            .map(|t| Stmt::DeclInt(format!("p{t}"), ld(&format!("{t}_pos"), v("i"))))
            .collect();
        row.extend(rows);
        row.push(Stmt::store("A_pos", v("i") + Expr::int(1), v("nnz")));
        let kernel = ops
            .iter()
            .fold(Kernel::new("merge").scalar_param("m"), |k, t| {
                k.array_param(Param::input(format!("{t}_pos"), ArrayTy::Int))
                    .array_param(Param::input(format!("{t}_crd"), ArrayTy::Int))
                    .array_param(Param::input(format!("{t}_vals"), ArrayTy::F64))
            });
        kernel
            .array_param(Param::output("A_pos", ArrayTy::Int))
            .array_param(Param::output("A_crd", ArrayTy::Int))
            .array_param(Param::output("A_vals", ArrayTy::F64))
            .scalar_output("nnz")
            .body(vec![
                Stmt::DeclInt("nnz".into(), Expr::int(0)),
                Stmt::for_("i", Expr::int(0), v("m"), row),
            ])
    }

    /// A merge kernel compiled with its operand forms and without.
    fn both(kernel: &Kernel) -> (Executable, Executable) {
        let exe = Executable::compile(kernel).unwrap();
        (exe, Executable::compile_unspecialised(kernel).unwrap())
    }

    #[test]
    fn a_merge_loop_is_made_of_operand_forms() {
        let (exe, plain) = both(&merge(&["B", "C"]));
        // pB = B_pos[i]; pC = C_pos[i]; while (pB < B_pos[i + 1] && ...)
        let [_, RStmt::For(_, _, _, row)] = &exe.body[..] else {
            panic!("{:?}", exe.body)
        };
        let (RStmt::AssignI(_, IExpr::LoadAt(first)), RStmt::While(more, body)) =
            (&row[0], &row[2])
        else {
            panic!("{row:?}")
        };
        assert_eq!(first.k, 0);
        let BExpr::Bin(BinOp::And, b, _) = more else {
            panic!("{more:?}")
        };
        assert!(
            matches!(&**b, BExpr::CmpVarE(BinOp::Lt, _, e) if matches!(**e, IExpr::LoadAt(At { k: 1, .. }))),
            "{b:?}"
        );
        // jB = B_crd[pB]; ...; if (jB == j && jC == j) { ... A_vals[nnz] = B_vals[pB] + C_vals[pC]; nnz += 1 }
        assert!(
            matches!(&body[0], RStmt::AssignI(_, IExpr::LoadAt(_))),
            "{:?}",
            body[0]
        );
        let RStmt::If(BExpr::Bin(BinOp::And, hit, _), then, _) = &body[3] else {
            panic!("{:?}", body[3])
        };
        assert!(matches!(**hit, BExpr::CmpVars(BinOp::Eq, ..)), "{hit:?}");
        assert!(
            matches!(&then[0], RStmt::If(BExpr::CmpEVar(BinOp::Le, ..), ..)),
            "{:?}",
            then[0]
        );
        let RStmt::StoreF64(_, IExpr::Var(_), FExpr::Bin(BinOp::Add, a, _)) = &then[3] else {
            panic!("{:?}", then[3])
        };
        assert!(matches!(**a, FExpr::LoadF64At(At { k: 0, .. })), "{a:?}");
        assert!(
            matches!(&then[4], RStmt::AssignI(_, IExpr::VarPlus(_, 1))),
            "{:?}",
            then[4]
        );
        // The tree the compiler built has none of them.
        let [_, RStmt::For(_, _, _, row)] = &plain.body[..] else {
            panic!("{:?}", plain.body)
        };
        assert!(
            matches!(&row[0], RStmt::AssignI(_, IExpr::Load(..))),
            "{:?}",
            row[0]
        );
    }

    /// Corners of the rewrite: `i + 0` and `i - 1` keep their nodes, a
    /// negative and an extreme literal do not; a literal on either side of
    /// a compare; a load in a bool and an `f32` array, which have no form.
    fn corners() -> Kernel {
        Kernel::new("corners")
            .scalar_param("n")
            .array_param(Param::input("x", ArrayTy::F64))
            .array_param(Param::input("k", ArrayTy::Int))
            .array_param(Param::input("g", ArrayTy::Bool))
            .array_param(Param::input("h", ArrayTy::F32))
            .array_param(Param::output("out", ArrayTy::F64))
            .body(vec![Stmt::for_(
                "i",
                Expr::int(1),
                v("n"),
                vec![
                    Stmt::DeclInt("a".into(), ld("k", v("i") + Expr::int(0))),
                    Stmt::DeclInt("b".into(), ld("k", v("i") - Expr::int(1))),
                    Stmt::DeclInt("c".into(), ld("k", v("i") + Expr::int(-1))),
                    Stmt::DeclInt("d".into(), v("i") + Expr::int(i64::MIN)),
                    Stmt::if_else(
                        Expr::int(2)
                            .lt(v("a"))
                            .and(v("b").le(Expr::int(7)))
                            .and(ld("g", v("i"))),
                        vec![Stmt::store(
                            "out",
                            v("c"),
                            ld("x", v("d") + Expr::int(i64::MIN)),
                        )],
                        vec![Stmt::store_add(
                            "out",
                            v("i"),
                            ld("h", v("i")) + ld("x", v("a")),
                        )],
                    ),
                ],
            )])
    }

    /// cgen prints every form as the tree it stands for: the C of a kernel
    /// with its forms is the C of the kernel without them, byte for byte.
    #[test]
    fn the_c_of_a_specialised_body_is_the_c_of_the_tree() {
        for kernel in [merge(&["B", "C"]), merge(&["B", "C", "D"]), corners()] {
            let (exe, plain) = both(&kernel);
            let c = |e: &Executable| {
                let Ok(src) = emit_native(e);
                src.c_source
            };
            assert_eq!(c(&exe), c(&plain), "{}", kernel.name);
        }
    }

    /// xorshift64*: operands from a seed, without a dependency.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n.max(1)
        }
    }

    /// How a binding of a merge kernel is damaged so that a run reads or
    /// writes out of range, and where.
    #[derive(Debug, Clone, Copy)]
    enum Damage {
        None,
        /// An operand's `crd` one short: the last `T_crd[pT]` faults.
        ShortCrd,
        /// An operand's `vals` one short: `T_vals[pT]` faults.
        ShortVals,
        /// An operand's `pos` one short: `T_pos[i + 1]` faults on the last
        /// row, inside a compare.
        ShortPos,
        /// An operand's last `pos` past its `crd`.
        LongSegment,
        /// A negative `pos` entry: an index below zero.
        NegativePos,
        /// `A_pos` one short: the store at `i + 1` faults.
        ShortResult,
    }

    const DAMAGES: [Damage; 7] = [
        Damage::None,
        Damage::ShortCrd,
        Damage::ShortVals,
        Damage::ShortPos,
        Damage::LongSegment,
        Damage::NegativePos,
        Damage::ShortResult,
    ];

    /// `m` rows of `n` columns per operand, about `per_row` entries a row.
    fn merge_binding(
        ops: &[&str],
        m: usize,
        n: u64,
        per_row: u64,
        damage: Damage,
        seed: u64,
    ) -> Binding {
        let mut rng = Rng(seed | 1);
        let mut b = Binding::new();
        b.set_scalar("m", m as i64);
        let victim = ops[rng.below(ops.len() as u64) as usize];
        for t in ops {
            let (mut pos, mut crd, mut vals) = (vec![0i64], Vec::new(), Vec::new());
            for _ in 0..m {
                let mut row: Vec<i64> = (0..rng.below(2 * per_row + 1))
                    .map(|_| rng.below(n) as i64)
                    .collect();
                row.sort_unstable();
                row.dedup();
                vals.extend(row.iter().map(|_| rng.below(1000) as f64 / 8.0 - 60.0));
                crd.extend(row);
                pos.push(crd.len() as i64);
            }
            if *t == victim {
                match damage {
                    Damage::ShortCrd => drop(crd.pop()),
                    Damage::ShortVals => drop(vals.pop()),
                    Damage::ShortPos => drop(pos.pop()),
                    Damage::LongSegment => *pos.last_mut().unwrap() += 2,
                    Damage::NegativePos => pos[rng.below(m as u64) as usize] = -3,
                    Damage::None | Damage::ShortResult => {}
                }
            }
            b.set_int(format!("{t}_pos"), pos)
                .set_int(format!("{t}_crd"), crd)
                .set_f64(format!("{t}_vals"), vals);
        }
        let result_rows = if matches!(damage, Damage::ShortResult) {
            m
        } else {
            m + 1
        };
        b.set_int("A_pos", vec![0; result_rows])
            .set_int("A_crd", Vec::new())
            .set_f64("A_vals", Vec::new());
        b
    }

    /// Runs `binding` on both compilations of a kernel: the outputs, the
    /// scalar outputs, the `RunError` and the `Progress` must be identical.
    fn differential(
        (exe, plain): &(Executable, Executable),
        binding: &Binding,
        budget: &ResourceBudget,
    ) -> Result<(Progress, Result<(), RunError>), String> {
        let (mut sb, mut pb) = (binding.clone(), binding.clone());
        let (progress, result) = run_body(exe, &mut sb, budget, RunControls::default());
        let (reference_progress, reference) =
            run_body(plain, &mut pb, budget, RunControls::default());
        prop_assert_eq!(&result, &reference);
        prop_assert_eq!(progress, reference_progress);
        prop_assert_eq!(&sb, &pb);
        let bits = |b: &Binding| {
            b.f64_array("A_vals")
                .map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        prop_assert_eq!(bits(&sb), bits(&pb));
        Ok((progress, result))
    }

    thread_local! {
        static MERGES: [(Executable, Executable); 2] =
            [both(&merge(&["B", "C"])), both(&merge(&["B", "C", "D"]))];
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The 2- and 3-way merges, on operands in range and on each kind
        /// of damage, unlimited or under a fuse that trips anywhere.
        #[test]
        fn specialised_merges_match_the_tree(
            three in 0usize..2,
            m in 1usize..12,
            n in 1u64..40,
            per_row in 0u64..6,
            damage in 0usize..7,
            fused in 0u8..2,
            fuse_raw in 0u64..400,
            seed in 0u64..1_000_000,
        ) {
            let ops: &[&str] = if three == 1 { &["B", "C", "D"] } else { &["B", "C"] };
            let binding = merge_binding(ops, m, n, per_row, DAMAGES[damage], seed);
            let budget = if fused == 0 {
                ResourceBudget::unlimited()
            } else {
                ResourceBudget::unlimited().with_max_loop_iterations(fuse_raw)
            };
            let _ = MERGES.with(|kernels| differential(&kernels[three], &binding, &budget))?;
        }
    }

    /// Each kind of damage faults, and at the same element and iteration on
    /// both: the forms keep the range check and its payload.
    #[test]
    fn out_of_range_reads_fault_alike_with_and_without_forms() {
        let kernels = [both(&merge(&["B", "C"])), both(&merge(&["B", "C", "D"]))];
        for (ops, kernels) in [
            (&["B", "C"][..], &kernels[0]),
            (&["B", "C", "D"][..], &kernels[1]),
        ] {
            for damage in DAMAGES {
                let binding = merge_binding(ops, 16, 24, 6, damage, 99);
                let (progress, result) =
                    differential(kernels, &binding, &ResourceBudget::unlimited())
                        .unwrap_or_else(|e| panic!("{ops:?}, {damage:?}: {e}"));
                let faulted = matches!(result, Err(RunError::OutOfBounds { .. }));
                assert_eq!(
                    faulted,
                    !matches!(damage, Damage::None),
                    "{ops:?}, {damage:?}: {result:?}"
                );
                assert!(progress.iterations > 0, "{ops:?}, {damage:?}");
            }
        }
    }
}
