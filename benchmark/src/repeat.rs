//! `benchmark repeat-check`: runs the suite in alternating sets of the same
//! binary and checks that the sets agree — the benchmark's own test that a
//! difference it reports between two commits is not a difference between
//! two runs.

use crate::metrics::END_TO_END;
use crate::run::{self, Args};
use crate::stats::median;
use crate::workloads::WORKLOADS;

/// Runs `sets × runs` untraced runs of every workload, set by set within
/// each repetition (A B A B …), and prints per workload and end-to-end
/// metric both set medians, their relative difference and the bound.
/// Returns whether every difference stays within **half** the bound.
///
/// # Errors
///
/// A rendered error for unusable arguments.
pub fn check(
    sets: usize,
    runs: usize,
    seconds: f64,
    seed: u64,
    quick: bool,
) -> Result<bool, String> {
    if sets < 2 || runs < 1 {
        return Err("repeat-check needs --sets >= 2 and --runs >= 1".to_string());
    }
    // values[set][workload][metric] = one value per run.
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()]; sets];
    let mut all_correct = true;
    for rep in 0..runs {
        for (set, of_set) in values.iter_mut().enumerate() {
            for (w, workload) in WORKLOADS.iter().enumerate() {
                let outcome = run::run(&Args {
                    workload: workload.to_string(),
                    seed,
                    seconds,
                    trace: false,
                    quick,
                });
                eprintln!(
                    "repeat-check: repetition {rep} set {set} {workload}: correct {}",
                    outcome.correct
                );
                if !outcome.correct {
                    all_correct = false;
                    eprint!("{}", outcome.text);
                }
                for (m, metric) in END_TO_END.iter().enumerate() {
                    of_set[w][m].push(outcome.value(metric.name).unwrap_or(f64::NAN));
                }
            }
        }
    }
    println!(
        "| workload | metric | {} | worst difference | half bound | verdict |",
        (0..sets)
            .map(|s| format!("set {s} median"))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    println!("|---|---|{}---|---|---|", "---|".repeat(sets));
    let mut within = true;
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let medians: Vec<f64> = values.iter().map(|of_set| median(&of_set[w][m])).collect();
            let (lo, hi) = medians
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
                    (lo.min(*v), hi.max(*v))
                });
            let difference = (hi - lo) / lo;
            let ok = difference <= metric.bound / 2.0;
            within &= ok;
            println!(
                "| {workload} | {} | {} | {:.2} % | {:.2} % | {} |",
                metric.name,
                medians
                    .iter()
                    .map(|v| format!("{v:.4}"))
                    .collect::<Vec<_>>()
                    .join(" | "),
                difference * 100.0,
                metric.bound * 50.0,
                if ok { "ok" } else { "EXCEEDED" }
            );
        }
    }
    Ok(within && all_correct)
}
