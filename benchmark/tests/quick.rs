//! Runs the benchmark binary in `--quick` mode (one epoch, three rounds,
//! tiny operands) and holds its output to the contract in `BENCHMARK.json`.

use benchmark::json::Json;
use benchmark::metrics::{END_TO_END, PER_LAYER};
use benchmark::workloads::WORKLOADS;
use std::process::Command;

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(contract: &Json, key: &str) -> Vec<(String, String)> {
    contract
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has `{key}`"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("`{key}` entry has `{k}`"))
            };
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

/// One quick run; returns the parsed result line.
fn quick(workload: &str, trace: bool) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args([
            "--workload",
            workload,
            "--seed",
            "41",
            "--seconds",
            "1",
            "--quick",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace {trace}: exit {}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("result line is JSON ({e}): {last}"))
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric `{name}` has a value"))
}

/// Checks one result line against the declared metrics of its kind.
fn check_result(workload: &str, result: &Json, declared: &[(String, String)]) {
    let keys: Vec<&str> = result
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}: exactly the contract's keys"
    );
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: outputs are correct"
    );
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(
        result.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{workload}: no operation fails"
    );
    let printed = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics");
    let printed_names: Vec<&str> = printed.iter().map(|(k, _)| k.as_str()).collect();
    let declared_names: Vec<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        printed_names, declared_names,
        "{workload}: every declared metric, and only those"
    );
    for ((name, unit), (_, value)) in declared.iter().zip(printed) {
        assert!(valid_name(name), "metric name `{name}`");
        assert_eq!(
            value.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{workload} {name}: unit"
        );
        let v = value
            .get("value")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{workload} {name}: a number"));
        assert!(v.is_finite(), "{workload} {name}: finite");
    }
}

#[test]
fn contract_matches_the_metric_tables() {
    let contract = contract();
    let keys: Vec<&str> = contract
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let e2e = names(&contract, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for ((name, unit), m) in e2e.iter().zip(&END_TO_END) {
        assert_eq!((name.as_str(), unit.as_str()), (m.name, m.unit));
    }
    for (entry, m) in contract
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .zip(&END_TO_END)
    {
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(m.better.label()),
            "{}",
            m.name
        );
        assert_eq!(
            entry.get("bound").and_then(Json::as_f64),
            Some(m.bound),
            "{}",
            m.name
        );
        assert!(m.bound <= 0.25);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is declared");
    assert!(
        END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    let layers = names(&contract, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    for ((name, unit), m) in layers.iter().zip(&PER_LAYER) {
        assert_eq!((name.as_str(), unit.as_str()), (m.name, m.unit));
    }
    for (entry, m) in contract
        .get("per_layer")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .zip(&PER_LAYER)
    {
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(m.better.label()),
            "{}",
            m.name
        );
    }
    let workloads: Vec<&str> = contract
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert!(workloads.iter().all(|w| valid_name(w)));
    assert_eq!(
        contract.get("paths").and_then(Json::as_arr).unwrap(),
        [Json::Str("benchmark".into())]
    );
}

/// Per workload: the untraced run prints every end-to-end metric, the
/// traced run every per-layer metric, and a second pair of runs repeats the
/// exact counts.
fn quick_runs_of(workload: &str) {
    let contract = contract();
    let (e2e, layers) = (
        names(&contract, "end_to_end"),
        names(&contract, "per_layer"),
    );
    let (plain, traced) = (quick(workload, false), quick(workload, true));
    check_result(workload, &plain, &e2e);
    check_result(workload, &traced, &layers);
    for m in &e2e {
        assert!(
            metric(&plain, &m.0) > 0.0,
            "{workload} {}: end-to-end metrics are never 0",
            m.0
        );
    }
    let (plain2, traced2) = (quick(workload, false), quick(workload, true));
    assert_eq!(
        metric(&plain, "warm_alloc_mb").to_bits(),
        metric(&plain2, "warm_alloc_mb").to_bits(),
        "{workload}: warm_alloc_mb repeats exactly"
    );
    for name in ["llir.interp_iterations", "core.candidates", "lower.c_lines"] {
        assert_eq!(
            metric(&traced, name).to_bits(),
            metric(&traced2, name).to_bits(),
            "{workload}: {name} repeats exactly"
        );
    }
    let trace_file = format!("{}/out/trace-{workload}.json", env!("CARGO_MANIFEST_DIR"));
    let spans =
        Json::parse(&std::fs::read_to_string(&trace_file).expect("the traced run wrote its spans"))
            .unwrap();
    let spans = benchmark::trace::spans_from_json(&spans).unwrap();
    benchmark::trace::check_nesting(&spans).unwrap();
    for layer in [
        "ir.", "lower.", "llir.", "verify.", "core.", "native.", "runtime.", "tensor.", "kernels.",
        "serve.",
    ] {
        assert!(
            spans.iter().any(|s| s.name.starts_with(layer)),
            "{workload}: a span of layer {layer}"
        );
    }
}

#[test]
fn quick_spgemm_assemble() {
    quick_runs_of("spgemm-assemble");
}

#[test]
fn quick_mttkrp_compute() {
    quick_runs_of("mttkrp-compute");
}

#[test]
fn quick_add_merge() {
    quick_runs_of("add-merge");
}

#[test]
fn quick_format_churn() {
    quick_runs_of("format-churn");
}
