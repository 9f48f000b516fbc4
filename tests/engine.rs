//! Integration tests for the runtime kernel engine: cache warm paths,
//! single-flight under contention, LRU eviction, autotuning, and the
//! thread-safety contract.

use std::sync::{Arc, Barrier};
use std::time::Duration;
use taco_core::oracle::eval_dense;
use taco_core::ScheduleCandidate;
use taco_runtime::{entry_weight, KernelCache, TuneDecision, TuneKey};
use taco_tensor::gen::random_csr;
use taco_workspaces::prelude::*;

/// The Figure 2 SpGEMM, scheduled by hand (Gustavson: reorder + row
/// workspace), over `n`×`n` CSR matrices.
fn scheduled_spgemm(n: usize) -> IndexStmt {
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j, k) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"));
    let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
    let mut stmt = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(k.clone(), mul.clone()),
    ))
    .unwrap();
    stmt.reorder(&k, &j).unwrap();
    let w = TensorVar::new("w", vec![n], Format::dvec());
    stmt.precompute(&mul, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
    stmt
}

/// The same SpGEMM with no schedule applied (autotuner input).
fn unscheduled_spgemm(n: usize) -> IndexStmt {
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j, k) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"));
    IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(k.clone(), b.access([i, k.clone()]) * c.access([k, j])),
    ))
    .unwrap()
}

fn operands(n: usize) -> (Tensor, Tensor) {
    (random_csr(n, n, 0.1, 11).to_tensor(), random_csr(n, n, 0.1, 12).to_tensor())
}

#[test]
fn second_run_of_identical_statement_skips_compile() {
    let n = 24;
    let stmt = scheduled_spgemm(n);
    let (b, c) = operands(n);
    let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("C", &c)];

    let engine = Engine::new();
    let first = engine.run(&stmt, LowerOptions::fused("spgemm"), &inputs).unwrap();
    let after_first = engine.cache_stats();
    assert_eq!(after_first.compiles, 1);
    assert_eq!(after_first.hits, 0);

    // A *separately constructed* but structurally identical statement, under
    // a different kernel name, still hits: the fingerprint is structural and
    // name-insensitive.
    let same = scheduled_spgemm(n);
    let second = engine.run(&same, LowerOptions::fused("other_name"), &inputs).unwrap();
    let after_second = engine.cache_stats();
    assert_eq!(after_second.compiles, 1, "warm path must not recompile");
    assert_eq!(after_second.hits, 1, "warm path must be a cache hit");
    assert!(after_second.compile_nanos_saved > 0);
    assert!(first.to_dense().approx_eq(&second.to_dense(), 0.0));
}

#[test]
fn eight_threads_concurrent_access_compiles_exactly_once() {
    let n = 24;
    let stmt = scheduled_spgemm(n);
    let (b, c) = operands(n);
    let engine = Engine::new();
    let barrier = Barrier::new(8);

    let dense_results: Vec<DenseTensor> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (stmt, engine, barrier) = (&stmt, &engine, &barrier);
                let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("C", &c)];
                scope.spawn(move || {
                    barrier.wait();
                    engine
                        .run(stmt, LowerOptions::fused("spgemm"), &inputs)
                        .unwrap()
                        .to_dense()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let stats = engine.cache_stats();
    assert_eq!(stats.compiles, 1, "single-flight: 8 threads, exactly 1 compile ({stats})");
    assert_eq!(stats.hits + stats.misses, 8);
    for r in &dense_results[1..] {
        assert!(r.approx_eq(&dense_results[0], 0.0), "all threads must see identical results");
    }
}

#[test]
fn lru_eviction_respects_byte_budget_and_recency() {
    // Three kernels over different dimensions: distinct fingerprints,
    // near-identical byte weights.
    let opts = LowerOptions::fused("spgemm");
    let kernels: Vec<_> = [16usize, 17, 18]
        .iter()
        .map(|&n| Arc::new(scheduled_spgemm(n).compile(opts.clone()).unwrap()))
        .collect();
    let (k1, k2, k3) = (&kernels[0], &kernels[1], &kernels[2]);
    let (w1, w2, w3) = (entry_weight(k1), entry_weight(k2), entry_weight(k3));

    // Budget holds the first two (and the first plus the third), never all
    // three. One shard so global LRU order is exact.
    let budget = (w1 + w2).max(w1 + w3);
    assert!(budget < w1 + w2 + w3);
    let cache = KernelCache::new(budget, 64, 1);

    cache.insert(k1.fingerprint(), Arc::clone(k1), 1_000);
    cache.insert(k2.fingerprint(), Arc::clone(k2), 1_000);
    assert!(cache.contains(k1.fingerprint()) && cache.contains(k2.fingerprint()));

    // Touch k1 so k2 becomes the least recently used entry.
    let hit = cache.get_or_compile(k1.fingerprint(), || panic!("must hit")).unwrap();
    assert_eq!(hit.fingerprint(), k1.fingerprint());

    // Inserting k3 must evict k2 (LRU), not k1 (recently used).
    cache.insert(k3.fingerprint(), Arc::clone(k3), 1_000);
    assert!(cache.contains(k1.fingerprint()), "recently used entry survives");
    assert!(!cache.contains(k2.fingerprint()), "least recently used entry is evicted");
    assert!(cache.contains(k3.fingerprint()));

    let stats = cache.stats();
    assert_eq!(stats.evictions, 1);
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.bytes, w1 + w3);
    assert!(stats.bytes <= budget);
}

#[test]
fn autotuner_picks_workspace_schedule_and_tunes_once_per_key() {
    let n = 32;
    let stmt = unscheduled_spgemm(n);
    let (b, c) = operands(n);
    let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("C", &c)];
    // Deny-mode verification in every build profile: a candidate with a
    // proven violation would fail to compile instead of being raced.
    let engine = Engine::builder().verify(VerifyMode::Deny).build();

    let first = engine.run_tuned(&stmt, LowerOptions::fused("spgemm"), &inputs).unwrap();
    assert!(first.tuned, "first request runs the search");
    // SpGEMM into CSR cannot be lowered without a workspace, so the winner
    // must be a workspace schedule — i.e. at least as fast as direct merge,
    // which does not even compile.
    assert!(
        first.schedule.contains("precompute"),
        "winner must use a workspace, got `{}`",
        first.schedule
    );

    // Correctness of the tuned result.
    let source = unscheduled_spgemm(n).source().clone();
    let oracle = eval_dense(&source, &inputs).unwrap();
    assert!(first.result.to_dense().approx_eq(&oracle, 1e-10));

    // Same expression + same operand class: decision reused, no new search.
    let second = engine.run_tuned(&stmt, LowerOptions::fused("spgemm"), &inputs).unwrap();
    assert!(!second.tuned, "second request reuses the decision");
    assert_eq!(second.schedule, first.schedule);
    assert_eq!(engine.tuner().tunings(), 1, "tuning must run exactly once per key");

    // Both decisions flow through the unified event log.
    let events = engine.last_events();
    assert!(
        events.iter().any(|e| matches!(e, EngineEvent::Autotuned { .. })),
        "search must be logged: {events:?}"
    );
    assert!(
        events.iter().any(|e| matches!(e, EngineEvent::AutotuneReused { .. })),
        "reuse must be logged: {events:?}"
    );
    // So does every fresh compile's verdict, and under deny none may carry
    // a deny-severity finding.
    let verdicts: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            EngineEvent::Verified { denies, .. } => Some(*denies),
            _ => None,
        })
        .collect();
    assert!(!verdicts.is_empty(), "compiles must be verified: {events:?}");
    assert!(verdicts.iter().all(|d| *d == 0), "deny-mode search admitted a denied kernel");
}

#[test]
fn autotuner_is_deterministic_across_engines() {
    // Operand streams are seeded (the rand shim is deterministic in the
    // seed), and candidate enumeration order is structural, so two engines
    // tuning the same statement on identically generated operands must pick
    // the same schedule. A generous search deadline keeps the candidate
    // *set* identical across the engines even when sibling tests load the
    // machine — what's under test is the decision protocol (structural
    // order + displacement margins + best-of-reps timing), not the
    // deadline's truncation point.
    let n = 32;
    let stmt = unscheduled_spgemm(n);
    let mut chosen = Vec::new();
    for _ in 0..2 {
        let b = random_csr(n, n, 0.1, 21).to_tensor();
        let c = random_csr(n, n, 0.1, 22).to_tensor();
        let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("C", &c)];
        let engine = Engine::builder().tuning_deadline(Duration::from_secs(30)).build();
        let out = engine.run_tuned(&stmt, LowerOptions::fused("spgemm"), &inputs).unwrap();
        chosen.push(out.schedule);
        // With the whole space searched, the cost analyzer's proven peak
        // bounds must spare the search at least one timing run.
        let events = engine.last_events();
        assert!(
            events.iter().any(|e| matches!(e, EngineEvent::Autotuned { pruned, .. } if *pruned >= 1)),
            "the search must statically prune a dominated candidate: {events:?}"
        );
    }
    assert_eq!(chosen[0], chosen[1], "same inputs, same decision");
}

#[test]
fn a_search_compiles_each_candidate_once_and_a_reuse_compiles_nothing() {
    // Compiles are counted, not timed. With a deadline that never cuts the
    // search short, every (candidate, pinned thread count) pair is one miss
    // and one compile — the pruning probe and the timing runs share the
    // kernel — and none of them fails, because a candidate is a schedule
    // that compiles.
    let n = 32;
    let stmt = unscheduled_spgemm(n);
    let (b, c) = operands(n);
    let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("C", &c)];
    let opts = LowerOptions::fused("spgemm");
    let engine = Engine::builder().tuning_deadline(Duration::from_secs(60)).build();

    engine.run_tuned(&stmt, opts.clone(), &inputs).unwrap();
    let searched = engine.cache_stats();

    // The tuner times a parallel candidate at two threads and at the machine
    // width, where that is wider, and not at all on one core; a candidate
    // pruned at its first width is not compiled at its second.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let candidates = taco_core::enumerate_candidates_for(&stmt, &opts);
    let pairs: usize = candidates
        .iter()
        .map(|(cand, _)| match cores {
            _ if !cand.name.contains("parallelize") => 1,
            1 => 0,
            2 => 1,
            _ => 2,
        })
        .sum();
    assert_eq!(searched.compiles, searched.misses, "a miss that compiled nothing: {searched}");
    assert!(searched.compiles <= pairs as u64, "{searched} for {pairs} pairs");
    if cores <= 2 {
        assert_eq!(searched.compiles, pairs as u64, "{searched}");
        assert!(pairs <= candidates.len());
    }
    assert_eq!(searched.hits, 0, "nothing is compiled to be looked up again: {searched}");
    assert_eq!(searched.entries, searched.compiles, "a compile of the search failed: {searched}");

    engine.run_tuned(&stmt, opts, &inputs).unwrap();
    let reused = engine.cache_stats();
    assert_eq!(
        (reused.hits, reused.misses, reused.compiles),
        (searched.hits + 1, searched.misses, searched.compiles),
        "a reuse is one cache hit"
    );
}

#[test]
fn a_decision_replays_its_candidate_without_consulting_the_space() {
    // A decision is its candidate, not a name to look one up by: the Figure 2
    // schedule recorded by hand under a name no enumeration produces (and
    // with a workspace no enumeration names) replays as recorded.
    let n = 24;
    let stmt = unscheduled_spgemm(n);
    let (b, c) = operands(n);
    let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("C", &c)];
    let engine = Engine::new();
    engine.tuner().record(
        TuneKey::new(&stmt, &inputs),
        TuneDecision {
            candidate: ScheduleCandidate {
                name: "gustavson-by-hand".to_string(),
                stmt: scheduled_spgemm(n),
                workspace_kind: WorkspaceKind::Dense,
                conversions: Vec::new(),
            },
            threads: None,
            best_nanos: 1,
        },
    );

    let out = engine.run_tuned(&stmt, LowerOptions::fused("spgemm"), &inputs).unwrap();
    assert!(!out.tuned);
    assert_eq!(out.schedule, "gustavson-by-hand");
    let oracle = eval_dense(stmt.source(), &inputs).unwrap();
    assert!(out.result.to_dense().approx_eq(&oracle, 1e-10));
    assert_eq!(engine.cache_stats().compiles, 1, "the remembered statement, and nothing else");
}

#[test]
fn tuning_key_distinguishes_sparsity_classes() {
    let n = 32;
    let stmt = unscheduled_spgemm(n);
    let engine = Engine::new();
    let opts = LowerOptions::fused("spgemm");

    let b1 = random_csr(n, n, 0.5, 31).to_tensor();
    let c1 = random_csr(n, n, 0.5, 32).to_tensor();
    engine.run_tuned(&stmt, opts.clone(), &[("B", &b1), ("C", &c1)]).unwrap();

    // Three orders of magnitude sparser: a different sparsity bucket, so a
    // fresh tuning run.
    let b2 = random_csr(n, n, 0.002, 33).to_tensor();
    let c2 = random_csr(n, n, 0.002, 34).to_tensor();
    let out = engine.run_tuned(&stmt, opts, &[("B", &b2), ("C", &c2)]).unwrap();
    assert!(out.tuned, "different sparsity class must re-tune");
    assert_eq!(engine.tuner().tunings(), 2);
}

#[test]
fn engine_and_kernels_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<taco_workspaces::llir::Executable>();
    assert_send_sync::<CompiledKernel>();
    assert_send_sync::<Engine>();
    assert_send_sync::<KernelCache>();
    assert_send_sync::<CacheStats>();
    assert_send_sync::<EngineEvent>();
}

#[test]
fn event_log_is_a_ring_buffer_bounded_by_max_events() {
    let n = 16;
    let stmt = unscheduled_spgemm(n);
    let (b, c) = operands(n);
    let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("C", &c)];

    // Pinned to the interpreter: the twin-engine accounting below needs
    // both engines to emit the same event count, and native compile/trust
    // events vary with toolchain state and autotune timing.
    let engine = Engine::builder().max_events(3).backend(Backend::Interp).build();
    assert_eq!(engine.config().max_events, 3);
    assert_eq!(engine.dropped_events(), 0, "nothing dropped before overflow");

    // One fresh tune + five reuses = six events through a capacity of three.
    for _ in 0..6 {
        engine.run_tuned(&stmt, LowerOptions::fused("spgemm"), &inputs).unwrap();
    }

    let events = engine.last_events();
    assert_eq!(events.len(), 3, "ring buffer must cap at max_events");
    // The fresh `Autotuned` decision was the oldest event; it must have been
    // dropped, leaving only the newest reuse events.
    assert!(
        events.iter().all(|e| matches!(e, EngineEvent::AutotuneReused { .. })),
        "oldest events must be dropped first, got: {events:?}"
    );
    // The monotonic loss counter accounts for exactly the overflow: a twin
    // engine with a roomy buffer sees every event, and the bounded engine's
    // retained + dropped must equal that total. A consumer can therefore
    // trust `last_events` to be complete iff `dropped_events` reads zero.
    let roomy = Engine::builder().max_events(1024).backend(Backend::Interp).build();
    for _ in 0..6 {
        roomy.run_tuned(&stmt, LowerOptions::fused("spgemm"), &inputs).unwrap();
    }
    assert_eq!(roomy.dropped_events(), 0);
    let total = roomy.last_events().len() as u64;
    assert!(total > 3, "the workload must overflow the capacity-3 ring");
    assert_eq!(
        engine.dropped_events(),
        total - 3,
        "retained + dropped must account for every event"
    );
}
