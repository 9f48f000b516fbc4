//! A taco-style command-line code generator: parse an index notation
//! expression, schedule it, and print the concrete index notation and
//! generated C kernel.
//!
//! ```text
//! cargo run --bin taco -- "A(i,j) = B(i,k) * C(k,j)" -f A:ds -f B:ds -f C:ds \
//!     -reorder k,j -precompute "B(i,k) * C(k,j)":j:w
//! ```
//!
//! Options (taco CLI inspired):
//!
//! ```text
//!   -f TENSOR:MODES      per-mode format, `d` dense / `s` compressed
//!                        (e.g. `ds` = CSR, `sss` = CSF); default all-dense
//!   -d N                 dimension of every index variable (default 16)
//!   -reorder A,B         exchange two index variables
//!   -precompute EXPR:VAR:WS
//!                        apply the workspace transformation to EXPR over
//!                        VAR, storing into a dense workspace WS
//!   -kind KIND           compute | assemble | fused (default: fused for
//!                        sparse results, compute otherwise)
//!   -print-suggestions   run the Section V-C heuristics and print them
//! ```

use std::process::ExitCode;
use taco_core::parse::{parse_assignment, Declarations};
use taco_core::IndexStmt;
use taco_ir::expr::{IndexVar, TensorVar};
use taco_lower::{KernelKind, LowerOptions};
use taco_tensor::{Format, LevelType};

struct Args {
    expr: String,
    formats: Vec<(String, String)>,
    dim: usize,
    reorders: Vec<(String, String)>,
    precomputes: Vec<(String, String, String)>,
    kind: Option<String>,
    suggestions: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut out = Args {
        expr: String::new(),
        formats: Vec::new(),
        dim: 16,
        reorders: Vec::new(),
        precomputes: Vec::new(),
        kind: None,
        suggestions: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-f" => {
                let v = it.next().ok_or("missing value after -f")?;
                let (t, m) = v.split_once(':').ok_or("expected -f tensor:modes")?;
                out.formats.push((t.to_string(), m.to_string()));
            }
            "-d" => {
                out.dim = it
                    .next()
                    .ok_or("missing value after -d")?
                    .parse()
                    .map_err(|_| "invalid -d value")?;
            }
            "-reorder" => {
                let v = it.next().ok_or("missing value after -reorder")?;
                let (x, y) = v.split_once(',').ok_or("expected -reorder a,b")?;
                out.reorders.push((x.to_string(), y.to_string()));
            }
            "-precompute" => {
                let v = it.next().ok_or("missing value after -precompute")?;
                let parts: Vec<&str> = v.rsplitn(3, ':').collect();
                if parts.len() != 3 {
                    return Err("expected -precompute expr:var:workspace".to_string());
                }
                out.precomputes.push((
                    parts[2].to_string(),
                    parts[1].to_string(),
                    parts[0].to_string(),
                ));
            }
            "-kind" => out.kind = Some(it.next().ok_or("missing value after -kind")?),
            "-print-suggestions" => out.suggestions = true,
            other if out.expr.is_empty() && !other.starts_with('-') => {
                out.expr = other.to_string();
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if out.expr.is_empty() {
        return Err("usage: taco \"A(i,j) = B(i,k) * C(k,j)\" [-f T:modes] [-d N] ...".into());
    }
    Ok(out)
}

fn run(args: &Args) -> Result<(), String> {
    let mut decls = Declarations::with_default_dim(args.dim);
    for (t, m) in &args.formats {
        decls = decls.format_str(t, m).map_err(|e| e.to_string())?;
    }
    let assignment = parse_assignment(&args.expr, &decls).map_err(|e| e.to_string())?;
    println!("index notation:    {assignment}");

    let mut stmt = IndexStmt::new(assignment.clone()).map_err(|e| e.to_string())?;
    println!("concretized:       {stmt}");

    for (a, b) in &args.reorders {
        stmt.reorder(&IndexVar::new(a), &IndexVar::new(b)).map_err(|e| e.to_string())?;
        println!("after reorder:     {stmt}");
    }
    for (expr_str, var, ws_name) in &args.precomputes {
        let sub = parse_assignment(&format!("__t({var}) = {expr_str}"), &decls)
            .map_err(|e| format!("in -precompute expression: {e}"))?;
        // Strip the implicit sums the helper parse added.
        let mut target = sub.rhs().clone();
        while let taco_ir::expr::IndexExpr::Sum(_, inner) = target {
            target = *inner;
        }
        let v = IndexVar::new(var);
        let ws = TensorVar::new(
            ws_name.clone(),
            vec![args.dim],
            Format::new(vec![LevelType::Dense]),
        );
        stmt.precompute(&target, &[(v.clone(), v.clone(), v.clone())], &ws)
            .map_err(|e| e.to_string())?;
        println!("after precompute:  {stmt}");
    }

    if args.suggestions {
        let s = stmt.suggestions();
        if s.is_empty() {
            println!("\nno heuristic suggestions (Section V-C)");
        } else {
            println!("\nheuristic suggestions (Section V-C):");
            for sg in s {
                println!("  [{:?}] {}", sg.reason, sg.description);
            }
        }
    }

    let sparse_result = assignment.lhs().tensor().format().has_compressed();
    let kind = match args.kind.as_deref() {
        Some("compute") => KernelKind::Compute,
        Some("assemble") => KernelKind::Assemble,
        Some("fused") => KernelKind::Fused,
        Some(other) => return Err(format!("unknown -kind `{other}`")),
        None if sparse_result => KernelKind::Fused,
        None => KernelKind::Compute,
    };
    let opts = LowerOptions { kind, ..LowerOptions::compute("kernel") };
    let kernel = stmt.compile(opts).map_err(|e| e.to_string())?;
    println!("\ngenerated kernel ({kind:?}):\n{}", kernel.to_c());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
