//! Kernel engine walkthrough: the serving layer on top of the compiler.
//!
//! Demonstrates the three things `taco_runtime::Engine` adds over calling
//! `IndexStmt::compile` directly:
//!
//! 1. **kernel caching** — the second request for a structurally identical
//!    kernel skips the compile pipeline (fingerprint hit, shared `Arc`);
//! 2. **autotuning** — an *unscheduled* SpGEMM into a dense result gets its
//!    loop order and operand formats picked by ranking the Section V-C
//!    candidate space with the cost analyzer's iteration bounds on the real
//!    operands, replying with the best and checking the runner-up; the
//!    decision is remembered. (Into a CSR result the space is the Figure 2
//!    schedule alone: any other loop order would append out of the result's
//!    level order.)
//! 3. **one event log** — fallbacks and autotune decisions all land in
//!    `Engine::last_events()`.
//!
//! ```text
//! cargo run --release --example engine
//! ```

use taco_core::oracle::eval_dense;
use taco_tensor::gen::random_csr;
use taco_workspaces::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 64;
    let a = TensorVar::new("A", vec![n, n], Format::dense(2));
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j, k) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"));
    let source = IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(k.clone(), b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()])),
    );
    // Note: no reorder, no precompute — the engine will schedule it.
    let spgemm = IndexStmt::new(source.clone())?;

    let bt = random_csr(n, n, 0.1, 7).to_tensor();
    let ct = random_csr(n, n, 0.1, 8).to_tensor();
    let inputs: Vec<(&str, &Tensor)> = vec![("B", &bt), ("C", &ct)];

    let engine = Engine::new();

    // --- Autotuned first request ------------------------------------------
    let first = engine.run_tuned(&spgemm, LowerOptions::fused("spgemm"), &inputs)?;
    println!("first request:  tuned={} schedule=`{}`", first.tuned, first.schedule);
    // What the search did: every candidate is ranked by its iteration bound
    // on these operands, and only the reply and the check are compiled and
    // run.
    for event in engine.last_events() {
        if let EngineEvent::Autotuned {
            candidates, viable, pruned, best_nanos, predicted, checked, ..
        } = event
        {
            let compiles = engine.cache_stats().compiles;
            println!(
                "autotune: ranked {candidates}, ran {} ({compiles} compiles, {viable} to \
                 completion), {pruned} pruned",
                candidates - pruned
            );
            println!("  reply:  predicted {predicted} iterations, measured {best_nanos} ns");
            match checked {
                Some((name, predicted, Some(nanos))) => {
                    println!("  check:  `{name}` predicted {predicted}, measured {nanos} ns")
                }
                Some((name, predicted, None)) => {
                    println!("  check:  `{name}` predicted {predicted}, cut at the reply's time")
                }
                None => println!("  check:  none (nothing predicted worse, or out of search time)"),
            }
        }
    }

    let oracle = eval_dense(&source, &inputs)?;
    assert!(first.result.to_dense().approx_eq(&oracle, 1e-10));
    println!("result matches the dense oracle (nnz={})", first.result.nnz());

    // --- Warm second request ----------------------------------------------
    // Same expression, same operand class: the tuning decision and the
    // compiled kernel are both reused.
    let second = engine.run_tuned(&spgemm, LowerOptions::fused("spgemm"), &inputs)?;
    assert!(!second.tuned);
    println!("second request: tuned={} (decision + kernel cache reused)", second.tuned);

    // --- Explicitly scheduled requests share the same cache ---------------
    let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
    let mut by_hand = IndexStmt::new(source)?;
    by_hand.reorder(&k, &j)?;
    let w = TensorVar::new("w", vec![n], Format::dvec());
    by_hand.precompute(&mul, &[(j.clone(), j.clone(), j.clone())], &w)?;
    let kernel = engine.compile(&by_hand, LowerOptions::fused("spgemm"))?;
    let again = engine.compile(&by_hand, LowerOptions::fused("spgemm"))?;
    assert_eq!(kernel.fingerprint(), again.fingerprint());
    let out = kernel.run(&inputs)?;
    assert!(out.to_dense().approx_eq(&oracle, 1e-10));

    // --- The ledger -------------------------------------------------------
    let stats = engine.cache_stats();
    println!("\ncache: {stats}");
    println!("tuning searches executed: {}", engine.tuner().tunings());
    println!("\nevent log:");
    for event in engine.last_events() {
        println!("  - {event}");
    }

    // --- Low-budget mode (TACO_BUDGET_BYTES) ------------------------------
    // CI's low-budget matrix sets TACO_BUDGET_BYTES to a few kilobytes: the
    // dense row workspace of a 1024-column SpGEMM (~17 KB) no longer fits,
    // so the engine must complete the request through a sparse workspace,
    // which only the compile-time budget walk (DESIGN.md §13) chooses: the
    // tuner searches schedules, not storage, and direct merge cannot lower
    // for a CSR result at all.
    let budget = ResourceBudget::from_env();
    if !budget.is_unlimited() {
        use taco_tensor::gen::{random_csr_nnz, Pattern};
        let n = 1024; // 256 nonzeros per operand: huge rows, tiny working set
        let lb = random_csr_nnz(n, n, 256, Pattern::Uniform, 7).to_tensor();
        let lc = random_csr_nnz(n, n, 256, Pattern::Uniform, 8).to_tensor();
        let a = TensorVar::new("A", vec![n, n], Format::csr());
        let b = TensorVar::new("B", vec![n, n], Format::csr());
        let c = TensorVar::new("C", vec![n, n], Format::csr());
        let (i, j, k) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"));
        let source = IndexAssignment::assign(
            a.access([i.clone(), j.clone()]),
            sum(k.clone(), b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()])),
        );
        let big = IndexStmt::new(source.clone())?;

        let low = Engine::builder().budget(budget).verify(VerifyMode::Deny).build();
        let tuned = low.run_tuned(&big, LowerOptions::fused("spgemm"), &[("B", &lb), ("C", &lc)])?;

        // Oracle: the Figure 2 dense-workspace kernel, compiled with no
        // budget (the dense evaluator is O(n³) — too slow at n = 1024).
        let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
        let mut fig2 = IndexStmt::new(source)?;
        fig2.reorder(&k, &j)?;
        let w = TensorVar::new("w", vec![n], Format::dvec());
        fig2.precompute(&mul, &[(j.clone(), j.clone(), j.clone())], &w)?;
        let unconstrained = Engine::new()
            .compile(&fig2, LowerOptions::fused("spgemm"))?
            .run(&[("B", &lb), ("C", &lc)])?;
        assert!(tuned.result.to_dense().approx_eq(&unconstrained.to_dense(), 1e-10));

        let downgraded = low.last_events().iter().any(|e| {
            matches!(
                e,
                EngineEvent::Fallback(FallbackEvent::OverBudget {
                    rung: DegradeRung::CoordListWorkspace,
                    ..
                })
            )
        });
        assert!(
            downgraded,
            "budget {budget:?} should have forced a sparse workspace, \
             not `{}`",
            tuned.schedule
        );
        println!("\nlow-budget event log:");
        for event in low.last_events() {
            println!("  - {event}");
        }
        println!(
            "low-budget: SpGEMM completed via sparse workspace \
             (budget {} bytes, schedule `{}`)",
            budget.max_workspace_bytes.unwrap_or(0),
            tuned.schedule
        );
    }
    Ok(())
}
