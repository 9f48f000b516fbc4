//! The metric tables: every name the benchmark prints, with its unit,
//! direction and — for the end-to-end metrics — regression bound. The test
//! in `tests/quick.rs` holds `BENCHMARK.json` to these tables.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How one epoch's value is made from its samples, and the run's value from
/// its epochs' (see README, "Measurement protocol").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Time in ms: p25 of the round samples, calibrated by the epoch's
    /// reference p25; median over the quiet epochs.
    TimeMs,
    /// Set-up seconds of the epoch, calibrated; median over the quiet
    /// epochs.
    SetupS,
    /// Requests per second: p75 of the round samples, calibrated the
    /// inverse way; median over the quiet epochs.
    Rate,
    /// A quantile of the epoch's pooled serve latencies, calibrated; median
    /// over the quiet epochs (minimum for the p95).
    LatencyQuantile(u8),
    /// `VmHWM` of the epoch process; maximum over epochs.
    PeakRss,
    /// An exact count per epoch; median over epochs.
    Exact,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub kind: Kind,
}

pub const END_TO_END: [EndToEnd; 12] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::SetupS,
    },
    EndToEnd {
        name: "warm_interp_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.1,
        kind: Kind::TimeMs,
    },
    EndToEnd {
        name: "warm_native_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.2,
        kind: Kind::TimeMs,
    },
    EndToEnd {
        name: "cold_compile_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
        kind: Kind::TimeMs,
    },
    EndToEnd {
        name: "cold_tuned_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.1,
        kind: Kind::TimeMs,
    },
    EndToEnd {
        name: "cold_native_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::TimeMs,
    },
    EndToEnd {
        name: "restart_native_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::TimeMs,
    },
    EndToEnd {
        name: "serve_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.2,
        kind: Kind::Rate,
    },
    EndToEnd {
        name: "serve_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::LatencyQuantile(50),
    },
    EndToEnd {
        name: "serve_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        kind: Kind::LatencyQuantile(95),
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
        kind: Kind::PeakRss,
    },
    EndToEnd {
        name: "warm_alloc_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.03,
        kind: Kind::Exact,
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn ms(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ms",
        better: Better::Lower,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Layer = crate name. Every workload's traced run prints all of them.
pub const PER_LAYER: [PerLayer; 57] = [
    ms("tensor.generate_ms"),
    ms("tensor.convert_ms"),
    ms("tensor.validate_ms"),
    count("tensor.operand_mb", "MB", Better::Lower),
    ms("core.parse_ms"),
    ms("core.fingerprint_ms"),
    ms("core.enumerate_ms"),
    count("core.candidates", "count", Better::Lower),
    ms("core.bind_ms"),
    ms("core.extract_ms"),
    ms("ir.concretize_ms"),
    ms("ir.transform_ms"),
    ms("lower.lower_ms"),
    count("lower.c_lines", "count", Better::Lower),
    ms("llir.simplify_ms"),
    ms("llir.exec_compile_ms"),
    ms("llir.interp_run_ms"),
    count("llir.interp_iterations", "count", Better::Lower),
    count("llir.interp_ns_per_iter", "ns", Better::Lower),
    count("llir.peak_workspace_bytes", "B", Better::Lower),
    ms("llir.cgen_ms"),
    count("llir.cgen_bytes", "B", Better::Lower),
    ms("llir.parallel2_run_ms"),
    count("llir.parallel2_alloc_mb", "MB", Better::Lower),
    ms("verify.verify_ms"),
    count("verify.denies", "count", Better::Lower),
    count("verify.warns", "count", Better::Lower),
    ms("verify.cost_ms"),
    count("verify.bound_tightness", "ratio", Better::Lower),
    ms("native.probe_ms"),
    ms("native.cc_ms"),
    ms("native.dlopen_ms"),
    ms("native.run_ms"),
    count("native.so_bytes", "B", Better::Lower),
    count("native.cold_growth", "ratio", Better::Lower),
    ms("runtime.cache_hit_ms"),
    count("runtime.cache_hit_rate", "ratio", Better::Higher),
    ms("runtime.engine_overhead_ms"),
    ms("runtime.trust_run_ms"),
    count("runtime.tune_compiles", "count", Better::Lower),
    count("runtime.tune_timed", "count", Better::Lower),
    count("runtime.tune_pruned", "count", Better::Higher),
    count("runtime.tune_decision_flips", "count", Better::Lower),
    ms("serve.submit_ms"),
    ms("serve.queue_wait_ms"),
    ms("serve.overhead_ms"),
    count("serve.completed", "count", Better::Higher),
    count("serve.shed", "count", Better::Lower),
    count("serve.degraded", "count", Better::Lower),
    ms("kernels.handwritten_ms"),
    count("kernels.native_vs_handwritten", "ratio", Better::Lower),
    count("kernels.interp_vs_handwritten", "ratio", Better::Lower),
    ms("bench.ref_ms"),
    count("bench.epoch_spread", "ratio", Better::Lower),
    count("bench.trace_overhead", "ratio", Better::Lower),
    count("bench.trace_coverage_compile", "ratio", Better::Higher),
    count("bench.trace_coverage_warm", "ratio", Better::Higher),
];
