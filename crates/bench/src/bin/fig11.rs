//! Regenerates Figure 11: sparse matrix multiplication, the compiled Fig. 2
//! workspace kernel vs Eigen-style (sorted) and MKL-style (unsorted)
//! baselines, for every Table I matrix at synthetic-operand densities 4E-4
//! and 1E-4.
//!
//! The paper reports normalized time (baseline / taco-workspace); averages
//! of 4x (Eigen, sorted) and ~1.16–1.28x (MKL, unsorted) are the shapes to
//! look for.

use taco_bench::figures::{fig11, verify_consistency};
use taco_bench::timing::{fmt_duration, print_table};
use taco_bench::BenchArgs;

fn main() {
    let args = BenchArgs::from_env();
    assert!(verify_consistency(400), "kernel cross-check failed; refusing to benchmark");
    println!(
        "FIGURE 11: SpGEMM normalized runtimes at scale {} ({} reps)\n",
        args.scale, args.reps
    );

    let fig = fig11(args.scale, args.reps);
    let rows = fig.rows;

    for sorted in [true, false] {
        let label = if sorted { "SORTED (vs Eigen-style)" } else { "UNSORTED (vs MKL-style)" };
        println!("{label}");
        let mut table = Vec::new();
        let mut ratios = Vec::new();
        for r in rows.iter().filter(|r| r.sorted == sorted) {
            ratios.push(r.normalized());
            table.push(vec![
                r.id.to_string(),
                r.name.to_string(),
                format!("{:.0E}", r.density),
                fmt_duration(r.t_workspace),
                fmt_duration(r.t_baseline),
                format!("{:.2}x", r.normalized()),
            ]);
        }
        print_table(
            &["#", "Matrix", "C density", "workspace", "baseline", "normalized (baseline/ws)"],
            &table,
        );
        let geo: f64 =
            (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
        println!("geometric-mean normalized time: {geo:.2}x  (paper: ~4x sorted, ~1.2x unsorted)\n");
    }
    println!("off the clock: {}", fig.setup);
}
