//! One run of one workload: a sequence of epoch processes, never two at
//! once, aggregated into the metrics the run reports.

use crate::epoch::Report;
use crate::json::Json;
use crate::metrics::{EndToEnd, Kind, END_TO_END, PER_LAYER};
use crate::refloop::REF_NOMINAL_MS;
use crate::stats::{max, median, quantile};
use crate::trace::{self, Span};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Epochs per run: fresh processes, so the per-process layout bias (constant
/// within a process, up to 12 % between processes) is sampled this often.
pub const EPOCHS: usize = 6;

/// Rounds an untraced epoch runs at least: 2 discarded + 10 kept.
pub const MIN_ROUNDS: usize = 12;

/// Rounds a traced epoch runs at least; its numbers are not gated.
const MIN_TRACED_ROUNDS: usize = 5;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One epoch, three rounds, tiny operands.
    pub quick: bool,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The human-readable account printed before the result line.
    pub text: String,
}

impl Outcome {
    /// The result line of the driver's contract.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// The benchmark's own directory in the checkout it was built in: every
/// file the benchmark writes goes under its `out/`.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Removes the run's private directory when the run ends, however it ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = bench_dir()
            .join("out")
            .join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(dir.join("warm"))?;
        std::fs::create_dir_all(dir.join("tmp"))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn spawn_epoch(args: &Args, index: usize, budget_s: f64, work: &Path) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (min_rounds, warmup) = match (args.quick, args.trace) {
        (true, _) => (3, 0),
        (false, true) => (MIN_TRACED_ROUNDS, crate::epoch::WARMUP_ROUNDS),
        (false, false) => (MIN_ROUNDS, crate::epoch::WARMUP_ROUNDS),
    };
    let output = Command::new(exe)
        .arg("epoch")
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--budget", &budget_s.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--index", &index.to_string()])
        .args(["--min-rounds", &min_rounds.to_string()])
        .args(["--warmup", &warmup.to_string()])
        .args(["--quick", if args.quick { "1" } else { "0" }])
        .arg("--work-dir")
        .arg(work)
        // The C compiler's temporaries stay inside the checkout too.
        .env("TMPDIR", work.join("tmp"))
        .output()
        .map_err(|e| format!("spawning epoch {index}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().rev().find_map(|l| l.strip_prefix("EPOCH "));
    match line {
        Some(line) if output.status.success() => Report::from_json(&Json::parse(line)?),
        _ => Err(format!(
            "epoch {index} ended with {} and no report: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
                .lines()
                .last()
                .unwrap_or("")
        )),
    }
}

/// p25 of an epoch's kept reference samples.
fn ref_p25(r: &Report) -> f64 {
    quantile(r.samples.get("ref_ms").map_or(&[], Vec::as_slice), 0.25)
}

/// An epoch is quiet if its reference p25 is within this share of the run's
/// fastest.
const QUIET_SHARE: f64 = 0.08;

/// At least this many epochs count, however noisy the run.
const MIN_QUIET: usize = 3;

/// The epochs the run's values are taken from: those during which the
/// machine ran the reference loop about as fast as it ever did in this run.
/// A noisy neighbour slows whole epochs by 1.5–1.7x, and not every code by
/// the same factor (the reference loop 1.70x where the interpreter slowed
/// 1.51x), so calibration alone leaves such epochs 10 % off; the reference
/// loop is the benchmark's own, so choosing epochs by it cannot favour a
/// change to the system.
fn quiet_epochs(reports: &[Report]) -> Vec<usize> {
    let refs: Vec<f64> = reports.iter().map(ref_p25).collect();
    let fastest = refs.iter().copied().fold(f64::INFINITY, f64::min);
    let mut order: Vec<usize> = (0..refs.len()).collect();
    order.sort_by(|a, b| refs[*a].total_cmp(&refs[*b]));
    let quiet = order
        .iter()
        .filter(|i| refs[**i] <= fastest * (1.0 + QUIET_SHARE))
        .count();
    order.truncate(quiet.max(MIN_QUIET.min(refs.len())));
    order.sort_unstable();
    order
}

/// One epoch's value of an end-to-end metric (see `metrics::Kind`).
fn epoch_value(m: &EndToEnd, r: &Report) -> f64 {
    let samples = r.samples.get(m.name).map_or(&[][..], Vec::as_slice);
    let slow = REF_NOMINAL_MS / ref_p25(r);
    match m.kind {
        Kind::TimeMs => quantile(samples, 0.25) * slow,
        Kind::SetupS => r.values.get(m.name).copied().unwrap_or(f64::NAN) * slow,
        Kind::Rate => quantile(samples, 0.75) / slow,
        Kind::LatencyQuantile(q) => quantile(&r.serve_latencies_ms, f64::from(q) / 100.0) * slow,
        Kind::PeakRss => r.values.get(m.name).copied().unwrap_or(f64::NAN),
        Kind::Exact => median(samples),
    }
}

/// The run's value from its epochs' (`quiet` indexes the epochs that count
/// for the calibrated metrics).
fn run_value(m: &EndToEnd, epochs: &[f64], quiet: &[usize]) -> f64 {
    let calm: Vec<f64> = quiet.iter().map(|i| epochs[*i]).collect();
    match m.kind {
        // The tail of a burst moves in scheduler-tick steps (+4 ms), so an
        // epoch's p95 is bimodal and its median over epochs flips between
        // the modes; the calmest epoch's tail repeats.
        Kind::LatencyQuantile(q) if q >= 90 => quantile(&calm, 0.0),
        Kind::TimeMs | Kind::SetupS | Kind::Rate | Kind::LatencyQuantile(_) => median(&calm),
        Kind::PeakRss => max(epochs),
        Kind::Exact => median(epochs),
    }
}

fn end_to_end(reports: &[Report], text: &mut String) -> Vec<Metric> {
    let _ = writeln!(
        text,
        "{:<20} {:>12} {:<4}  {:>9} {:>9} {:>9} {:>5}  epoch values",
        "end-to-end", "value", "unit", "raw p50", "raw p25", "raw p90", "n"
    );
    let quiet = quiet_epochs(reports);
    let _ = writeln!(
        text,
        "reference p25 per epoch [{}] ms; quiet epochs {quiet:?}",
        reports
            .iter()
            .map(|r| format!("{:.3}", ref_p25(r)))
            .collect::<Vec<_>>()
            .join(" ")
    );
    END_TO_END
        .iter()
        .map(|m| {
            let epochs: Vec<f64> = reports.iter().map(|r| epoch_value(m, r)).collect();
            let value = run_value(m, &epochs, &quiet);
            // Uncalibrated, pooled over the epochs, beside the value.
            let raw: Vec<f64> = match m.kind {
                Kind::LatencyQuantile(_) => reports
                    .iter()
                    .flat_map(|r| r.serve_latencies_ms.iter().copied())
                    .collect(),
                Kind::SetupS | Kind::PeakRss => reports
                    .iter()
                    .filter_map(|r| r.values.get(m.name).copied())
                    .collect(),
                _ => reports
                    .iter()
                    .flat_map(|r| r.samples.get(m.name).into_iter().flatten().copied())
                    .collect(),
            };
            let list = epochs
                .iter()
                .map(|v| format!("{v:.4}"))
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(
                text,
                "{:<20} {:>12.5} {:<4}  {:>9.4} {:>9.4} {:>9.4} {:>5}  [{list}]",
                m.name,
                value,
                m.unit,
                median(&raw),
                quantile(&raw, 0.25),
                quantile(&raw, 0.9),
                raw.len()
            );
            Metric {
                name: m.name,
                unit: m.unit,
                value,
            }
        })
        .collect()
}

/// Per-epoch value of every traced measurement: p25 of samples, or the
/// epoch's single value.
fn layer_values(r: &Report) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = r.values.clone();
    for (name, samples) in &r.samples {
        out.insert(name.clone(), quantile(samples, 0.25));
    }
    out
}

fn per_layer(reports: &[Report], text: &mut String) -> Vec<Metric> {
    let epochs: Vec<BTreeMap<String, f64>> = reports.iter().map(layer_values).collect();
    // Median over the epochs that have the measurement (`native.cold_growth`
    // is taken by the first epoch only). Uncalibrated: the stages of one
    // request are compared with each other, not across commits.
    let get = |name: &str| -> f64 {
        let xs: Vec<f64> = epochs
            .iter()
            .filter_map(|e| e.get(name).copied())
            .filter(|v| v.is_finite())
            .collect();
        median(&xs)
    };
    let warm_interp: Vec<f64> = reports
        .iter()
        .map(|r| {
            quantile(
                r.samples
                    .get("e2e.warm_interp_ms")
                    .map_or(&[], Vec::as_slice),
                0.25,
            ) * REF_NOMINAL_MS
                / ref_p25(r)
        })
        .collect();
    let derived = |name: &str| -> Option<f64> {
        Some(match name {
            "llir.interp_ns_per_iter" => {
                get("llir.interp_run_ms") * 1e6 / get("llir.interp_iterations")
            }
            "runtime.engine_overhead_ms" => {
                get("e2e.warm_interp_ms") - get("runtime.direct_run_ms")
            }
            "serve.overhead_ms" => get("serve.latency_p50_ms") - get("e2e.warm_native_ms"),
            "kernels.native_vs_handwritten" => get("native.run_ms") / get("kernels.handwritten_ms"),
            "kernels.interp_vs_handwritten" => {
                get("llir.interp_run_ms") / get("kernels.handwritten_ms")
            }
            "bench.trace_coverage_compile" => {
                get("replay.cold_compile_stages_ms") / get("e2e.cold_compile_ms")
            }
            "bench.trace_coverage_warm" => {
                get("replay.warm_interp_stages_ms") / get("e2e.warm_interp_ms")
            }
            "bench.ref_ms" => get("ref_ms"),
            "bench.trace_overhead" => {
                get("replay.warm_interp_ms") / get("e2e.warm_interp_ms") - 1.0
            }
            "bench.epoch_spread" => {
                (max(&warm_interp) - quantile(&warm_interp, 0.0)) / median(&warm_interp)
            }
            _ => return None,
        })
    };
    let _ = writeln!(text, "{:<32} {:>14} unit", "per-layer", "value");
    PER_LAYER
        .iter()
        .map(|m| {
            let value = derived(m.name).unwrap_or_else(|| get(m.name));
            let _ = writeln!(text, "{:<32} {:>14.6} {}", m.name, value, m.unit);
            Metric {
                name: m.name,
                unit: m.unit,
                value,
            }
        })
        .collect()
}

/// Per-stage self time over all requests of the run, and the trace file.
fn account_spans(workload: &str, reports: &[Report], text: &mut String) -> Result<(), String> {
    let mut all: Vec<Span> = Vec::new();
    for r in reports {
        trace::check_nesting(&r.spans)?;
        // Parent indices are per epoch; shift them into the merged list.
        let base = all.len();
        all.extend(r.spans.iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s.clone()
        }));
    }
    let mut children_ms = vec![0.0; all.len()];
    for s in &all {
        if let Some(p) = s.parent {
            children_ms[p] += s.duration_ms();
        }
    }
    let mut by_name: BTreeMap<(String, String), (usize, f64)> = BTreeMap::new();
    for (i, s) in all.iter().enumerate() {
        let request = s.parent.map_or(&s.name, |p| &all[p].name).clone();
        let e = by_name.entry((request, s.name.clone())).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += s.duration_ms() - children_ms[i];
    }
    let _ = writeln!(
        text,
        "{:<24} {:<22} {:>7} {:>12}",
        "request", "span", "count", "self ms/span"
    );
    for ((request, name), (count, self_ms)) in &by_name {
        let _ = writeln!(
            text,
            "{request:<24} {name:<22} {count:>7} {:>12.5}",
            self_ms / *count as f64
        );
    }
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::write(&path, trace::spans_to_json(&all).render())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let _ = writeln!(text, "{} spans written to {}", all.len(), path.display());
    Ok(())
}

/// Runs one workload: epochs in sequence, then aggregation.
pub fn run(args: &Args) -> Outcome {
    let started = Instant::now();
    let mut text = String::new();
    let mut failures: Vec<String> = Vec::new();
    let mut reports: Vec<Report> = Vec::new();
    let epochs = if args.quick { 1 } else { EPOCHS };
    match WorkDir::create() {
        Ok(work) => {
            for index in 0..epochs {
                // What is left of the run's time, shared by the epochs left.
                // (A quick run has no budget: every epoch stops at its minimum.)
                let seconds = if args.quick { 0.0 } else { args.seconds };
                let left = (seconds - started.elapsed().as_secs_f64()).max(0.0);
                match spawn_epoch(args, index, left / (epochs - index) as f64, &work.0) {
                    Ok(report) => reports.push(report),
                    Err(e) => failures.push(e),
                }
            }
        }
        Err(e) => failures.push(format!("creating the run's directory: {e}")),
    }

    let mut attempted: u64 = reports.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = reports.iter().map(|r| r.failed).sum();
    attempted += failures.len() as u64;
    failed += failures.len() as u64;
    failures.extend(reports.iter().flat_map(|r| r.failures.clone()));
    if reports.windows(2).any(|w| w[0].digest != w[1].digest) {
        failed += 1;
        failures.push("epochs generated different operands from one seed".to_string());
    }

    let _ = writeln!(
        text,
        "workload {}  seed {}  trace {}  epochs {}  rounds {:?}  operands {:016x}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        reports.len(),
        reports.iter().map(|r| r.rounds).collect::<Vec<_>>(),
        reports.first().map_or(0, |r| r.digest),
    );
    // Every sample of the run, for whoever wants to try another estimator.
    let raw = Json::Arr(reports.iter().map(Report::to_json).collect()).render();
    let raw_path = bench_dir().join("out").join(format!(
        "samples-{}-trace{}.json",
        args.workload,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&raw_path, raw) {
        failed += 1;
        failures.push(format!("writing {}: {e}", raw_path.display()));
    }
    let metrics = if reports.is_empty() {
        Vec::new()
    } else if args.trace {
        if let Err(e) = account_spans(&args.workload, &reports, &mut text) {
            failed += 1;
            failures.push(format!("trace: {e}"));
        }
        per_layer(&reports, &mut text)
    } else {
        end_to_end(&reports, &mut text)
    };
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        failed += 1;
        failures.push(format!("metric {} has no value", m.name));
    }
    let _ = writeln!(
        text,
        "operations attempted {attempted}, failed {failed}; wall {:.1} s",
        started.elapsed().as_secs_f64()
    );
    for f in failures.iter().take(12) {
        let _ = writeln!(text, "FAILED: {f}");
    }
    let declared = if args.trace {
        PER_LAYER.len()
    } else {
        END_TO_END.len()
    };
    Outcome {
        correct: failed == 0 && metrics.len() == declared,
        attempted,
        failed,
        metrics,
        text,
    }
}
