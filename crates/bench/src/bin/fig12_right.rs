//! Regenerates Figure 12 (right): relative MTTKRP time of the compiled
//! Fig. 10 kernel (sparse output + sparse factors) / the compiled workspace
//! kernel (dense output + dense factors) as the factor-matrix density sweeps
//! the paper's values {1.0, 0.25, 0.02, 0.01, 2.5E-3, 1E-4}.
//!
//! Paper shapes: crossover at about 25% density; speedups of 4.5–11x at
//! density 1E-4.

use taco_bench::figures::{fig12_right, verify_consistency};
use taco_bench::timing::{fmt_duration, print_table};
use taco_bench::BenchArgs;

fn main() {
    let args = BenchArgs::from_env();
    assert!(verify_consistency(400), "kernel cross-check failed; refusing to benchmark");
    println!(
        "FIGURE 12 (right): sparse/dense MTTKRP relative time, scale {} rank {} ({} reps)\n",
        args.scale, args.rank, args.reps
    );

    let fig = fig12_right(args.scale, args.rank, 4096, args.reps);
    let rows = fig.rows;
    let mut table = Vec::new();
    for r in &rows {
        table.push(vec![
            r.name.to_string(),
            format!("{:.1E}", r.density),
            fmt_duration(r.t_sparse),
            fmt_duration(r.t_dense),
            format!("{:.3}", r.relative()),
        ]);
    }
    print_table(&["Tensor", "Density", "sparse", "dense", "sparse/dense"], &table);

    // Report the crossover per tensor.
    for name in ["Facebook", "NELL-2", "NELL-1"] {
        let mut crossover = None;
        for r in rows.iter().filter(|r| r.name == name) {
            if r.relative() <= 1.0 && crossover.is_none() {
                crossover = Some(r.density);
            }
        }
        match crossover {
            Some(d) => println!("{name}: sparse wins from density {d:.1E} (paper: ~0.25)"),
            None => println!("{name}: sparse never wins at this scale"),
        }
    }
    println!("off the clock: {}", fig.setup);
}
