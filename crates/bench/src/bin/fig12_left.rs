//! Regenerates Figure 12 (left): dense-output MTTKRP running times for
//! the compiled kernel without a workspace (taco), the compiled workspace
//! kernel, and the SPLATT-style kernel, normalized to taco.
//!
//! Paper shapes: the workspace kernel wins by 12% (NELL-1) and 35% (NELL-2)
//! and is within 5% of SPLATT; on the small Facebook tensor the merge-based
//! kernel is fastest.

use taco_bench::figures::{fig12_left, verify_consistency};
use taco_bench::timing::{fmt_duration, print_table};
use taco_bench::BenchArgs;

fn main() {
    let args = BenchArgs::from_env();
    assert!(verify_consistency(400), "kernel cross-check failed; refusing to benchmark");
    println!(
        "FIGURE 12 (left): MTTKRP normalized to taco, scale {} rank {} ({} reps)\n",
        args.scale, args.rank, args.reps
    );

    let fig = fig12_left(args.scale, args.rank, 4096, args.reps);
    let mut table = Vec::new();
    for r in &fig.rows {
        let base = r.t_taco.as_secs_f64();
        table.push(vec![
            r.name.to_string(),
            fmt_duration(r.t_taco),
            fmt_duration(r.t_workspace),
            fmt_duration(r.t_splatt),
            format!("{:.2}", 1.0),
            format!("{:.2}", r.t_workspace.as_secs_f64() / base),
            format!("{:.2}", r.t_splatt.as_secs_f64() / base),
        ]);
    }
    print_table(
        &["Tensor", "taco", "workspace", "splatt", "taco (norm)", "ws (norm)", "splatt (norm)"],
        &table,
    );
    println!("\npaper: workspace beats taco by 12–35% on the NELL tensors and loses on Facebook.");
    println!("off the clock: {}", fig.setup);
}
