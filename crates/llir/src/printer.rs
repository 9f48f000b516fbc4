//! C source pretty-printing of kernels, in the style of the paper's listings
//! (Figures 1c, 1d, 4, 5, 7, 8, 9, 10).

use crate::{ArrayTy, BinOp, Expr, Kernel, Stmt, UnOp};
use std::fmt::Write;

impl Kernel {
    /// Renders the kernel as C source.
    ///
    /// The output is the paper-style display dialect: `int32_t` indices,
    /// `#pragma omp` parallel loops, and `taco_ws_map` workspaces. Prepended
    /// with the [`crate::TACO_KERNEL_H`] prelude it compiles as C11 — the
    /// round-trip tests syntax-check every enumerated candidate with the
    /// system C compiler. Native execution does not reuse this text: the
    /// dlopen backend emits its own translation unit from the resolved IR
    /// ([`crate::emit_native`]), and the portable path interprets
    /// [`crate::Executable`] directly.
    ///
    /// # Example
    ///
    /// ```
    /// use taco_llir::{ArrayTy, Expr, Kernel, Param, Stmt};
    ///
    /// let k = Kernel::new("zero")
    ///     .scalar_param("n")
    ///     .array_param(Param::output("x", ArrayTy::F64))
    ///     .body(vec![Stmt::Memset { arr: "x".into(), val: Expr::float(0.0) }]);
    /// assert!(k.to_c().contains("memset(x, 0,"));
    /// ```
    pub fn to_c(&self) -> String {
        let mut out = String::new();
        let mut params: Vec<String> =
            self.scalar_params.iter().map(|s| format!("int {s}")).collect();
        // Each array parameter travels with its element count so `Len`
        // expressions and whole-array fills are compilable C.
        params.extend(self.array_params.iter().map(|p| {
            format!("{}* restrict {}, int32_t {}_size", c_ty(p.ty), p.name, p.name)
        }));
        let _ = writeln!(out, "void {}({}) {{", self.name, params.join(", "));
        for s in &self.body {
            // The loop a parallel kernel's row ranges split.
            match (&self.rows, s) {
                (Some(rows), Stmt::For { var, .. }) if *var == rows.var => {
                    let mut pragma = String::from("  #pragma omp parallel for schedule(static)");
                    if rows.threads > 0 {
                        let _ = write!(pragma, " num_threads({})", rows.threads);
                    }
                    let _ = writeln!(out, "{pragma}");
                }
                _ => {}
            }
            print_stmt(&mut out, s, 1);
        }
        let _ = writeln!(out, "}}");
        out
    }
}

/// Renders a single statement as one line of C (nested bodies elided as
/// `{ ... }`), for diagnostics that point at a statement.
pub fn stmt_to_c(s: &Stmt) -> String {
    let mut out = String::new();
    print_stmt(&mut out, s, 0);
    let first = out.lines().next().unwrap_or("").trim().to_string();
    match s {
        Stmt::For { .. }
        | Stmt::While { .. }
        | Stmt::If { .. }
        | Stmt::WsDrain { .. } => {
            format!("{} ... }}", first)
        }
        _ => first,
    }
}

fn c_ty(ty: ArrayTy) -> &'static str {
    match ty {
        ArrayTy::Int => "int32_t",
        ArrayTy::F64 => "double",
        ArrayTy::F32 => "float",
        ArrayTy::Bool => "bool",
    }
}

fn indent(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn print_block(out: &mut String, body: &[Stmt], level: usize) {
    for s in body {
        print_stmt(out, s, level);
    }
}

fn print_stmt(out: &mut String, s: &Stmt, level: usize) {
    indent(out, level);
    match s {
        Stmt::DeclInt(name, init) => {
            let _ = writeln!(out, "int32_t {name} = {};", print_expr(init));
        }
        Stmt::DeclFloat(name, init) => {
            let _ = writeln!(out, "double {name} = {};", print_expr(init));
        }
        Stmt::DeclBool(name, init) => {
            let _ = writeln!(out, "bool {name} = {};", print_expr(init));
        }
        Stmt::Assign(name, val) => {
            // Render `x = x + 1` as the idiomatic `x++`.
            if let Expr::Bin(BinOp::Add, a, b) = val {
                if matches!(&**a, Expr::Var(v) if v == name)
                    && matches!(&**b, Expr::Int(1))
                {
                    let _ = writeln!(out, "{name}++;");
                    return;
                }
            }
            let _ = writeln!(out, "{name} = {};", print_expr(val));
        }
        Stmt::Store { arr, idx, val } => {
            let _ = writeln!(out, "{arr}[{}] = {};", print_expr(idx), print_expr(val));
        }
        Stmt::StoreAdd { arr, idx, val } => {
            let _ = writeln!(out, "{arr}[{}] += {};", print_expr(idx), print_expr(val));
        }
        Stmt::For { var, lo, hi, body } => {
            let _ = writeln!(
                out,
                "for (int32_t {var} = {}; {var} < {}; {var}++) {{",
                print_expr(lo),
                print_expr(hi)
            );
            print_block(out, body, level + 1);
            indent(out, level);
            let _ = writeln!(out, "}}");
        }
        Stmt::While { cond, body } => {
            let _ = writeln!(out, "while ({}) {{", print_expr(cond));
            print_block(out, body, level + 1);
            indent(out, level);
            let _ = writeln!(out, "}}");
        }
        Stmt::If { cond, then, els } => {
            let _ = writeln!(out, "if ({}) {{", print_expr(cond));
            print_block(out, then, level + 1);
            indent(out, level);
            if els.is_empty() {
                let _ = writeln!(out, "}}");
            } else {
                let _ = writeln!(out, "}} else {{");
                print_block(out, els, level + 1);
                indent(out, level);
                let _ = writeln!(out, "}}");
            }
        }
        Stmt::Memset { arr, val } => {
            if is_zero(val) {
                let _ = writeln!(out, "memset({arr}, 0, {arr}_size * sizeof(*{arr}));");
            } else {
                let _ = writeln!(
                    out,
                    "for (int32_t p = 0; p < {arr}_size; p++) {arr}[p] = {};",
                    print_expr(val)
                );
            }
        }
        Stmt::Alloc { arr, ty, len } => {
            let t = c_ty(*ty);
            let l = print_expr(len);
            let _ = writeln!(out, "{t}* restrict {arr} = ({t}*)calloc({l}, sizeof({t}));");
            indent(out, level);
            let _ = writeln!(out, "int32_t {arr}_size = {l};");
        }
        Stmt::Realloc { arr, len } => {
            let l = print_expr(len);
            let _ = writeln!(out, "{arr} = realloc({arr}, ({l}) * sizeof(*{arr}));");
            indent(out, level);
            let _ = writeln!(out, "{arr}_size = {l};");
        }
        // Every workspace kind displays as the prelude's ordered map, whose
        // drain is always ascending.
        Stmt::WsInit { ws, kind, extent, .. } => {
            let _ = writeln!(
                out,
                "taco_ws_map* restrict {ws} = taco_ws_map_init({}, {});",
                kind.c_tag(),
                print_expr(extent)
            );
        }
        Stmt::WsScatter { ws, key, val, add } => {
            let f = if *add { "taco_ws_map_accum" } else { "taco_ws_map_put" };
            let _ = writeln!(out, "{f}({ws}, {}, {});", print_expr(key), print_expr(val));
        }
        Stmt::WsDrain { ws, key, val, body, .. } => {
            let _ = writeln!(
                out,
                "for (taco_ws_iter {ws}_it = taco_ws_drain_sorted({ws}); \
                 taco_ws_iter_next(&{ws}_it);) {{"
            );
            indent(out, level + 1);
            let _ = writeln!(out, "int32_t {key} = (int32_t){ws}_it.key;");
            indent(out, level + 1);
            let _ = writeln!(out, "double {val} = {ws}_it.val;");
            print_block(out, body, level + 1);
            indent(out, level);
            let _ = writeln!(out, "}}");
        }
        Stmt::Comment(text) => {
            let _ = writeln!(out, "// {text}");
        }
    }
}

fn is_zero(e: &Expr) -> bool {
    matches!(e, Expr::Int(0)) || matches!(e, Expr::Float(v) if *v == 0.0)
}

fn op_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::And => "&&",
        BinOp::Or => "||",
        BinOp::Min | BinOp::Max => unreachable!("min/max printed as calls"),
    }
}

fn prec(op: BinOp) -> u8 {
    match op {
        BinOp::Mul | BinOp::Div | BinOp::Rem => 5,
        BinOp::Add | BinOp::Sub => 4,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
        BinOp::Eq | BinOp::Ne => 2,
        BinOp::And => 1,
        BinOp::Or => 0,
        BinOp::Min | BinOp::Max => 6,
    }
}

fn print_expr(e: &Expr) -> String {
    print_prec(e, 0)
}

fn print_prec(e: &Expr, parent: u8) -> String {
    match e {
        Expr::Int(v) => v.to_string(),
        Expr::Float(v) => {
            if v.fract() == 0.0 && v.abs() < 1e15 {
                format!("{v:.1}")
            } else {
                format!("{v}")
            }
        }
        Expr::Bool(v) => v.to_string(),
        Expr::Var(n) => n.clone(),
        Expr::Load(arr, idx) => format!("{arr}[{}]", print_expr(idx)),
        Expr::Len(arr) => format!("{arr}_size"),
        Expr::Un(UnOp::Neg, inner) => format!("-{}", print_prec(inner, 6)),
        Expr::Un(UnOp::Not, inner) => format!("!{}", print_prec(inner, 6)),
        Expr::Bin(BinOp::Min, a, b) => {
            format!("min({}, {})", print_expr(a), print_expr(b))
        }
        Expr::Bin(BinOp::Max, a, b) => {
            format!("max({}, {})", print_expr(a), print_expr(b))
        }
        Expr::Bin(op, a, b) => {
            let p = prec(*op);
            let s = format!("{} {} {}", print_prec(a, p), op_str(*op), print_prec(b, p + 1));
            if p < parent {
                format!("({s})")
            } else {
                s
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Param;

    #[test]
    fn prints_gustavson_style_loop() {
        let k = Kernel::new("spmm")
            .scalar_param("m")
            .array_param(Param::input("B_pos", ArrayTy::Int))
            .array_param(Param::input("B_crd", ArrayTy::Int))
            .array_param(Param::input("B", ArrayTy::F64))
            .array_param(Param::output("A", ArrayTy::F64))
            .body(vec![Stmt::for_(
                "i",
                Expr::int(0),
                Expr::var("m"),
                vec![Stmt::for_(
                    "pB",
                    Expr::load("B_pos", Expr::var("i")),
                    Expr::load("B_pos", Expr::var("i") + Expr::int(1)),
                    vec![
                        Stmt::DeclInt("k".into(), Expr::load("B_crd", Expr::var("pB"))),
                        Stmt::store_add("A", Expr::var("k"), Expr::load("B", Expr::var("pB"))),
                    ],
                )],
            )]);
        let c = k.to_c();
        assert!(c.contains("void spmm(int m, int32_t* restrict B_pos"));
        assert!(c.contains("for (int32_t pB = B_pos[i]; pB < B_pos[i + 1]; pB++) {"));
        assert!(c.contains("int32_t k = B_crd[pB];"));
        assert!(c.contains("A[k] += B[pB];"));
    }

    #[test]
    fn min_and_comparisons_render() {
        let e = Expr::var("jB").min(Expr::var("jC"));
        assert_eq!(print_expr(&e), "min(jB, jC)");
        let c = Expr::var("a").eq(Expr::var("j")).and(Expr::var("b").eq(Expr::var("j")));
        assert_eq!(print_expr(&c), "a == j && b == j");
    }

    #[test]
    fn precedence_parenthesizes() {
        let e = (Expr::var("a") + Expr::var("b")) * Expr::var("c");
        assert_eq!(print_expr(&e), "(a + b) * c");
        let e2 = Expr::var("a") + Expr::var("b") * Expr::var("c");
        assert_eq!(print_expr(&e2), "a + b * c");
    }

    #[test]
    fn increment_renders_as_plus_plus() {
        let mut out = String::new();
        print_stmt(&mut out, &Stmt::incr("pA2"), 0);
        assert_eq!(out, "pA2++;\n");
    }

    #[test]
    fn memset_and_workspace_nodes_render() {
        let mut out = String::new();
        print_stmt(&mut out, &Stmt::Memset { arr: "w".into(), val: Expr::float(0.0) }, 0);
        assert!(out.contains("memset(w, 0, w_size * sizeof(*w));"));
        let init = Stmt::WsInit {
            ws: "row".into(),
            kind: crate::WorkspaceKind::Dense,
            ty: ArrayTy::F64,
            extent: Expr::var("n"),
        };
        let printed = "taco_ws_map* restrict row = taco_ws_map_init(TACO_WS_DENSE, n);";
        assert_eq!(stmt_to_c(&init), printed);
        let drain = Stmt::WsDrain {
            ws: "row".into(),
            key: "j".into(),
            val: "v".into(),
            sorted: true,
            body: Vec::new(),
        };
        let mut out2 = String::new();
        print_stmt(&mut out2, &drain, 0);
        assert!(out2.contains("taco_ws_drain_sorted(row)"), "{out2}");
        assert!(out2.contains("int32_t j = (int32_t)row_it.key;"), "{out2}");
    }
}
