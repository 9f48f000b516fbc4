//! Regenerates Figure 13: sparse matrix addition.
//!
//! Left: total time to assemble and compute `n` additions (n+1 operands)
//! for the compiled binary kernel run once per addition (taco bin), the
//! compiled multi-operand merge (taco), the compiled result-reuse workspace
//! kernel, and Eigen/MKL-style pairwise baselines. Paper shapes: libraries
//! lose to code generation; the workspace kernel overtakes the merge kernel
//! as operands grow.
//!
//! Right: assembly/compute breakdown for adding 7 operands with the paper's
//! densities; each compiled code is an `assemble` kernel and a `compute`
//! kernel over the structure it built.
//!
//! The merge kernel's C grows with the number of operand subsets: at 7
//! operands it is ≈ 4 MB, and its `cc` run takes minutes. That growth is
//! what the figure is about; the `native:` lines report it, off the clock.

use taco_bench::figures::{fig13_breakdown, fig13_scaling, verify_consistency};
use taco_bench::timing::{fmt_duration, print_table};
use taco_bench::BenchArgs;

fn main() {
    let args = BenchArgs::from_env();
    assert!(verify_consistency(400), "kernel cross-check failed; refusing to benchmark");
    // The paper does not state the addition dimensions; 20k scaled by
    // --scale keeps the default run fast.
    let n = ((20_000.0 * args.scale.max(1e-3)) as usize).max(500);
    println!("FIGURE 13 (left): time for n additions of {n}x{n} operands ({} reps)\n", args.reps);

    let fig = fig13_scaling(n, 6, args.reps);
    let mut table = Vec::new();
    for r in &fig.rows {
        table.push(vec![
            r.additions.to_string(),
            fmt_duration(r.t_taco_binop),
            fmt_duration(r.t_taco),
            fmt_duration(r.t_workspace),
            fmt_duration(r.t_eigen),
            fmt_duration(r.t_mkl),
        ]);
    }
    print_table(&["Additions", "taco-binop", "taco", "workspace", "eigen", "mkl"], &table);
    println!("off the clock: {}", fig.setup);

    println!("\nFIGURE 13 (right): assembly/compute breakdown, 7 operands\n");
    let brk = fig13_breakdown(n, 7, args.reps);
    let mut table = Vec::new();
    for b in &brk.rows {
        table.push(vec![
            b.code.to_string(),
            b.assembly.map(fmt_duration).unwrap_or_else(|| "-".to_string()),
            fmt_duration(b.compute),
        ]);
    }
    print_table(&["Code", "Assembly", "Compute"], &table);
    println!("\npaper (ms): taco bin 247/211, taco 190/182, workspace 190/93.3, Eigen 436, MKL 1141");
    println!("off the clock: {}", brk.setup);
}
