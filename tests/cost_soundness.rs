//! Differential soundness harness for the symbolic cost analyzer.
//!
//! The analyzer's contract is an *upper bound*: for any kernel it derives a
//! finite peak-byte bound for, no real execution may allocate past it. This
//! suite drives that claim adversarially — random shapes, densities, and
//! operand formats through the autotuner's whole candidate space (every
//! loop order, workspace placement, format conversion, and workspace
//! backend that compiles), comparing the bound evaluated at bind time
//! against the budget meter's allocation high-water mark from a real run.

use proptest::prelude::*;
use taco_core::{enumerate_candidates, IndexStmt, Supervisor};
use taco_ir::expr::{sum, IndexVar, TensorVar};
use taco_ir::notation::IndexAssignment;
use taco_lower::LowerOptions;
use taco_tensor::gen::random_csr;
use taco_tensor::{Format, Tensor};

fn spgemm(dims: (usize, usize, usize), fmts: (Format, Format, Format)) -> IndexStmt {
    let (m, k, n) = dims;
    let (fa, fb, fc) = fmts;
    let a = TensorVar::new("A", vec![m, n], fa);
    let b = TensorVar::new("B", vec![m, k], fb);
    let c = TensorVar::new("C", vec![k, n], fc);
    let (i, j, kk) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"));
    IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(kk.clone(), b.access([i, kk.clone()]) * c.access([kk, j])),
    ))
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For every candidate the enumerator accepts — across output/operand
    /// formats and all three workspace backends — the statically proven
    /// peak-byte bound, evaluated against the real binding, dominates the
    /// meter's observed allocation peak. A single violation here is an
    /// analyzer soundness bug, not flake: both sides are deterministic
    /// functions of the inputs.
    #[test]
    fn static_peak_bound_dominates_observed_peak_for_every_accepted_candidate(
        m in 2usize..12,
        k in 2usize..12,
        n in 2usize..12,
        db in 0.05f64..0.6,
        dc in 0.05f64..0.6,
        fmt_sel in 0usize..4,
        seed in 0u64..1000,
    ) {
        let fmts = match fmt_sel {
            0 => (Format::csr(), Format::csr(), Format::csr()),
            1 => (Format::dense(2), Format::csr(), Format::csr()),
            2 => (Format::csr(), Format::dcsr(), Format::csr()),
            _ => (Format::csr(), Format::csr(), Format::dcsr()),
        };
        let stmt = spgemm((m, k, n), fmts.clone());
        let bt = random_csr(m, k, db, seed).to_tensor().convert(fmts.1).unwrap();
        let ct = random_csr(k, n, dc, seed + 1).to_tensor().convert(fmts.2).unwrap();

        let supervisor = Supervisor::new();
        let mut accepted = 0usize;
        let mut finite_bounds = 0usize;
        for cand in enumerate_candidates(&stmt) {
            let opts = LowerOptions::fused("soundness").with_workspace_kind(cand.workspace_kind);
            let kernel = cand.stmt.compile(opts).expect("a candidate lowers under fused options");
            // Conversion candidates expect their operand in the rewritten
            // format; feed them what the engine would.
            let ops: Vec<(String, Tensor)> = [("B", &bt), ("C", &ct)]
                .into_iter()
                .map(|(name, t)| {
                    let t = match cand.conversions.iter().find(|(cn, _)| cn == name) {
                        Some((_, f)) if t.format() != f => t.convert(f.clone()).unwrap(),
                        _ => t.clone(),
                    };
                    (name.to_string(), t)
                })
                .collect();
            let op_refs: Vec<(&str, &Tensor)> =
                ops.iter().map(|(nm, t)| (nm.as_str(), t)).collect();
            let Ok(mut binding) = kernel.bind(&op_refs, None) else { continue };
            // The bound is evaluated on the pre-run binding: soundness is
            // a promise about what the run *will* allocate.
            let bound = kernel.static_peak_bytes(&binding);
            let Ok(report) = kernel.run_bound_supervised(&mut binding, &supervisor) else {
                continue;
            };
            accepted += 1;
            let observed = report.progress.peak_bytes();
            // An unknown bound is conservative (it can never admit or
            // prune anything), so it cannot be unsound — but it should be
            // the exception, which `finite_bounds` checks below.
            if let Some(bound) = bound {
                finite_bounds += 1;
                prop_assert!(
                    bound >= observed,
                    "unsound bound for `{}` ({}): static {} < observed {} \
                     (dims {m}x{k}x{n}, fmt {fmt_sel}, seed {seed})",
                    cand.name, cand.workspace_kind, bound, observed,
                );
            }
        }
        prop_assert!(accepted > 0, "no candidate ran for dims {m}x{k}x{n}, fmt {fmt_sel}");
        prop_assert!(
            finite_bounds > 0,
            "analyzer proved nothing finite across {accepted} accepted candidates \
             (dims {m}x{k}x{n}, fmt {fmt_sel})"
        );
    }
}
