//! Integration tests for the runtime kernel engine: cache warm paths,
//! single-flight under contention, LRU eviction, autotuning, and the
//! thread-safety contract.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;
use taco_core::oracle::eval_dense;
use taco_core::ScheduleCandidate;
use taco_runtime::{entry_weight, KernelCache, TuneDecision, TuneKey, TunedOutcome};
use taco_tensor::gen::{random_csr, random_csr_nnz, Pattern};
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
    // three.
    let budget = (w1 + w2).max(w1 + w3);
    assert!(budget < w1 + w2 + w3);
    let cache = KernelCache::new(budget, 64);

    cache.insert(k1.fingerprint(), Arc::clone(k1), 1_000);
    cache.insert(k2.fingerprint(), Arc::clone(k2), 1_000);
    assert!(cache.contains(k1.fingerprint()) && cache.contains(k2.fingerprint()));

    // Touch k1 so k2 becomes the least recently used entry.
    let hit = cache.get_or_compile(k1.fingerprint(), || panic!("must hit")).unwrap();
    assert_eq!(hit.kernel().fingerprint(), k1.fingerprint());

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
fn a_panicking_compile_does_not_wedge_its_key() {
    let cache = Arc::new(KernelCache::new(u64::MAX, 64));
    let leader =
        catch_unwind(AssertUnwindSafe(|| cache.get_or_compile(7, || panic!("compile panics"))));
    assert!(leader.is_err(), "the panic reaches the leader");

    // A later request for the key compiles instead of waiting on the dead
    // leader's flight. Waited for with a timeout: a wedged key blocks forever.
    let (tx, rx) = mpsc::channel();
    let retry = Arc::clone(&cache);
    let handle = std::thread::spawn(move || {
        let compiled = retry.get_or_compile(7, || {
            scheduled_spgemm(8).compile(LowerOptions::fused("spgemm"))
        });
        tx.send(compiled.is_ok()).unwrap();
    });
    let compiled = rx.recv_timeout(Duration::from_secs(60)).expect("the key is wedged");
    handle.join().unwrap();
    assert!(compiled, "the retry compiles");
    assert!(cache.contains(7));
    assert_eq!(cache.stats().compiles, 2, "the panicking compile counts as one");
}

#[test]
fn autotuner_picks_workspace_schedule_and_tunes_once_per_key() {
    let n = 96;
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
    // seed), candidate enumeration order is structural, and the ranking is a
    // function of the candidates and the operands alone, so two engines
    // tuning the same statement on identically generated operands must pick
    // the same schedule. A generous search deadline keeps the check of the
    // runner-up in both searches even when sibling tests load the machine —
    // what's under test is the decision protocol (rank, reply, one check),
    // not the deadline's truncation point. The checked candidate (SpMV over
    // a COO conversion of `B`) does more work than the leader, conversion
    // entries included, so the clock cannot hand it the decision.
    let n = 96;
    let stmt = spmv(n, n);
    let mut chosen = Vec::new();
    for _ in 0..2 {
        let b = random_csr(n, n, 0.1, 21).to_tensor();
        let x = dense_operand(vec![n], 22);
        let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("x", &x)];
        let engine = Engine::builder().tuning_deadline(Duration::from_secs(30)).build();
        let out = engine.run_tuned(&stmt, LowerOptions::fused("spmv"), &inputs).unwrap();
        chosen.push(out.schedule);
        // The ranking must spare the search most of the space: at least one
        // candidate is never compiled or run, and at most two are.
        let events = engine.last_events();
        assert!(
            events.iter().any(|e| matches!(
                e,
                EngineEvent::Autotuned { pruned, viable, .. } if *pruned >= 1 && *viable <= 2
            )),
            "the search must rank candidates out, not run them: {events:?}"
        );
    }
    assert_eq!(chosen[0], chosen[1], "same inputs, same decision");
}

#[test]
fn a_search_compiles_what_it_runs_and_a_reuse_compiles_nothing() {
    // Compiles are counted, not timed. A search finishes only the candidates
    // it runs — the reply and at most one check — every one of them a miss
    // and a compile, none looked up twice, and none failing, because a
    // candidate is a schedule that compiles.
    let n = 32;
    let stmt = spmv(n, n);
    let (b, x) = (random_csr(n, n, 0.1, 11).to_tensor(), dense_operand(vec![n], 12));
    let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("x", &x)];
    let opts = LowerOptions::fused("spmv");
    let engine = Engine::builder().tuning_deadline(Duration::from_secs(60)).build();

    engine.run_tuned(&stmt, opts.clone(), &inputs).unwrap();
    let searched = engine.cache_stats();

    assert_eq!(searched.compiles, searched.misses, "a miss that compiled nothing: {searched}");
    assert!((1..=2).contains(&searched.compiles), "{searched}");
    assert!(searched.compiles < taco_core::enumerate_candidates_for(&stmt, &opts).len() as u64);
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

/// `A = B + C + D` over `n`×`n` CSR matrices.
fn add3(n: usize) -> IndexStmt {
    let (i, j) = (IndexVar::new("i"), IndexVar::new("j"));
    let term = |name: &str| -> IndexExpr {
        TensorVar::new(name, vec![n, n], Format::csr()).access([i.clone(), j.clone()]).into()
    };
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let rhs = term("B") + term("C") + term("D");
    IndexStmt::new(IndexAssignment::assign(a.access([i.clone(), j.clone()]), rhs)).unwrap()
}

/// `y = B x` over an `m`×`n` CSR matrix.
fn spmv(m: usize, n: usize) -> IndexStmt {
    let y = TensorVar::new("y", vec![m], Format::dvec());
    let b = TensorVar::new("B", vec![m, n], Format::csr());
    let x = TensorVar::new("x", vec![n], Format::dvec());
    let (i, j) = (IndexVar::new("i"), IndexVar::new("j"));
    IndexStmt::new(IndexAssignment::assign(
        y.access([i.clone()]),
        sum(j.clone(), b.access([i, j.clone()]) * x.access([j])),
    ))
    .unwrap()
}

fn csf() -> Format {
    use taco_tensor::LevelType;
    Format::new(vec![LevelType::Dense, LevelType::Compressed, LevelType::Compressed])
}

/// MTTKRP over a CSF tensor with dense rank-`r` factor matrices.
fn mttkrp(dims: [usize; 3], r: usize) -> IndexStmt {
    let b = TensorVar::new("B", dims.to_vec(), csf());
    let matrix = |name: &str, rows: usize| TensorVar::new(name, vec![rows, r], Format::dense(2));
    let (a, c, d) = (matrix("A", dims[0]), matrix("C", dims[2]), matrix("D", dims[1]));
    let (i, j, k, l) =
        (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"), IndexVar::new("l"));
    IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(
            k.clone(),
            sum(
                l.clone(),
                b.access([i, k.clone(), l.clone()]) * c.access([l, j.clone()]) * d.access([k, j]),
            ),
        ),
    ))
    .unwrap()
}

fn dense_operand(shape: Vec<usize>, seed: u64) -> Tensor {
    let len = shape.iter().product();
    let data = taco_tensor::gen::random_dense(len, 1, seed).into_data();
    let format = Format::dense(shape.len());
    Tensor::from_dense(&DenseTensor::from_data(shape, data), format).unwrap()
}

/// A CSF tensor whose `(i, k·l)` unfolding has the given pattern.
fn tensor3(dims: [usize; 3], nnz: usize, pattern: Pattern, seed: u64) -> Tensor {
    let [di, dk, dl] = dims;
    let entries = random_csr_nnz(di, dk * dl, nnz, pattern, seed)
        .to_tensor()
        .entries()
        .into_iter()
        .map(|(c, v)| (vec![c[0], c[1] / dl, c[1] % dl], v))
        .collect();
    Tensor::from_entries(dims.to_vec(), csf(), entries).unwrap()
}

/// Every candidate of `stmt` run to completion in the test, conversions
/// included in both measures: `(name, work, nanos)` in enumeration order,
/// where work is the meter's iteration count plus the entries the
/// candidate's conversions touch, and nanos one time per round of three
/// rounds over the whole space (so a stall of the machine falls on one round
/// of every candidate, not on three runs of one).
fn exhaustive_race(
    stmt: &IndexStmt,
    opts: &LowerOptions,
    inputs: &[(&str, &Tensor)],
) -> Vec<(String, u64, [u128; 3])> {
    let candidates = taco_core::enumerate_candidates_for(stmt, opts);
    let mut race: Vec<(String, u64, [u128; 3])> =
        candidates.iter().map(|(cand, _)| (cand.name.clone(), 0, [0; 3])).collect();
    let kernels: Vec<CompiledKernel> =
        candidates.iter().map(|(cand, _)| cand.stmt.compile(opts.clone()).unwrap()).collect();
    for round in 0..3 {
        for (((cand, _), kernel), entry) in candidates.iter().zip(&kernels).zip(&mut race) {
            let converts = |name: &str, t: &Tensor| {
                let target = cand.conversions.iter().find(|(n, f)| n == name && t.format() != f);
                target.map(|(_, f)| f.clone())
            };
            let clock = std::time::Instant::now();
            let convert = |t: &Tensor, f: Format| t.convert(f).unwrap();
            let ops: Vec<(&str, Tensor)> = inputs
                .iter()
                .map(|&(name, t)| (name, converts(name, t).map_or(t.clone(), |f| convert(t, f))))
                .collect();
            let refs: Vec<(&str, &Tensor)> = ops.iter().map(|(name, t)| (*name, t)).collect();
            let (_, report) = kernel.run_supervised(&refs, None, &Supervisor::new()).unwrap();
            entry.2[round] = clock.elapsed().as_nanos();
            let converted = inputs.iter().filter(|(name, t)| converts(name, t).is_some());
            entry.1 = report.progress.iterations
                + converted.map(|(_, t)| (t.nnz() * t.rank()) as u64).sum::<u64>();
        }
    }
    race
}

/// The reply of a search with no time for the check: predicted rank 1, by a
/// fresh engine (so no remembered decision answers instead).
fn rank_one(stmt: &IndexStmt, opts: &LowerOptions, inputs: &[(&str, &Tensor)]) -> TunedOutcome {
    let engine =
        Engine::builder().backend(Backend::Interp).tuning_deadline(Duration::ZERO).build();
    engine.run_tuned(stmt, opts.clone(), inputs).unwrap()
}

#[test]
fn predicted_rank_one_is_the_winner_of_an_exhaustive_race() {
    // The decision table: four unscheduled statements on uniform, banded and
    // power-law operands at two sizes. The tuner ranks and replies (its search
    // deadline is zero, so the reply is rank 1 whatever the clock would say
    // about the check); the test runs every candidate. Rank 1 must be the
    // pinned schedule, do the least work of the whole space (ties in
    // enumeration order), and not lose the clock to any other candidate by
    // more than 2x in every round of a best-of-3 race — a margin two machines
    // would agree on.
    let patterns = [Pattern::Uniform, Pattern::Banded(0.1), Pattern::PowerLaw];
    for (size, pattern) in [48usize, 96].into_iter().flat_map(|n| patterns.map(|p| (n, p))) {
        let matrix =
            |seed: u64| random_csr_nnz(size, size, size * 5, pattern, seed).to_tensor();
        let (b, c, d) = (matrix(1), matrix(2), matrix(3));
        let x = dense_operand(vec![size], 4);
        // Four rows of rank 4 under many fibers: the direct loop order's
        // `j` loop (once per row) is the cheap one.
        let dims = [4, size / 2, size / 2];
        let t = tensor3(dims, size * 4, pattern, 5);
        let (f, g) = (dense_operand(vec![size / 2, 4], 6), dense_operand(vec![size / 2, 4], 7));
        let what = |kernel: &str| format!("{kernel} at {size}, {pattern:?}");
        let (fused, compute) = (LowerOptions::fused("t"), LowerOptions::compute("t"));
        let fig2 = "reorder(j,k) + precompute(j)";
        let operands = [("B", &b), ("C", &c)];
        agrees_with_the_race(&what("spgemm"), &unscheduled_spgemm(size), &fused, &operands, fig2);
        let operands = [("B", &t), ("C", &f), ("D", &g)];
        let direct = "direct-merge";
        agrees_with_the_race(&what("mttkrp"), &mttkrp(dims, 4), &compute, &operands, direct);
        let operands = [("B", &b), ("C", &c), ("D", &d)];
        agrees_with_the_race(&what("add3"), &add3(size), &fused, &operands, direct);
        let operands = [("B", &b), ("x", &x)];
        agrees_with_the_race(&what("spmv"), &spmv(size, size), &compute, &operands, direct);
    }
}

/// One row of the decision table: rank 1 is `pinned`, which is also the
/// candidate that does the least work and no other schedule's loser by the
/// clock.
fn agrees_with_the_race(
    what: &str,
    stmt: &IndexStmt,
    opts: &LowerOptions,
    inputs: &[(&str, &Tensor)],
    pinned: &str,
) {
    let out = rank_one(stmt, opts, inputs);
    assert_eq!(out.schedule, pinned, "{what}");
    assert!(!out.schedule.contains("convert("), "{what}: the operands already lower");

    let race = exhaustive_race(stmt, opts, inputs);
    let by_work = race.iter().min_by_key(|(_, work, _)| *work).unwrap();
    assert_eq!(by_work.0, pinned, "{what}: least work of {race:?}");
    let leader = race.iter().find(|r| r.0 == pinned).unwrap().2;
    for (other, _, nanos) in &race {
        assert!(
            (0..3).any(|round| leader[round] <= 2 * nanos[round]),
            "{what}: `{other}` beats rank 1 by more than 2x every time: {race:?}"
        );
    }
}

#[test]
fn the_ranking_follows_the_operands_not_the_enumeration_order() {
    // MTTKRP's direct loop order runs `j` once per row, `reorder(j,k)` once
    // per stored `(i,k)` fiber: which is cheaper depends on how many fibers
    // the tensor has against rows × rank, and the tuner says so either way.
    let (dims, r) = ([8, 16, 16], 8);
    let (c, d) = (dense_operand(vec![16, r], 1), dense_operand(vec![16, r], 2));
    let opts = LowerOptions::compute("t");
    let few_fibers = tensor3(dims, 96, Pattern::Banded(0.02), 3);
    let many_fibers = tensor3(dims, 512, Pattern::Uniform, 4);
    let mut chosen = Vec::new();
    for b in [&few_fibers, &many_fibers] {
        let inputs = [("B", b), ("C", &c), ("D", &d)];
        let out = rank_one(&mttkrp(dims, r), &opts, &inputs);
        let race = exhaustive_race(&mttkrp(dims, r), &opts, &inputs);
        assert_eq!(race.iter().min_by_key(|(_, work, _)| *work).unwrap().0, out.schedule);
        chosen.push(out.schedule);
    }
    assert_eq!(chosen, ["reorder(j,k)", "direct-merge"]);
}

#[test]
fn a_leader_that_aborts_hands_the_reply_to_the_next_in_the_ranking() {
    // One stored entry in a 1×1 CSR matrix: the direct kernel takes two loop
    // iterations (the row, then its entry), the COO kernel one. The ranking
    // puts direct first — converting costs more than it saves — and under a
    // one-iteration budget direct aborts, so the reply comes from rank 2.
    let b = Tensor::from_entries(vec![1, 1], Format::csr(), vec![(vec![0, 0], 2.0)]).unwrap();
    let x = dense_operand(vec![1], 1);
    let inputs = [("B", &b), ("x", &x)];
    let (stmt, opts) = (spmv(1, 1), LowerOptions::compute("t"));

    let budget = ResourceBudget::unlimited().with_max_loop_iterations(1);
    let tight = Engine::builder().backend(Backend::Interp).budget(budget).build();
    let out = tight.run_tuned(&stmt, opts, &inputs).unwrap();
    assert!(out.schedule.starts_with("convert(B:"), "rank 2 replies: `{}`", out.schedule);
    let oracle = eval_dense(stmt.source(), &inputs).unwrap();
    assert!(out.result.to_dense().approx_eq(&oracle, 0.0));
    let events = tight.last_events();
    assert!(
        events.iter().any(|e| matches!(
            e,
            EngineEvent::Autotuned { viable: 1, pruned, candidates, .. } if candidates - pruned >= 2
        )),
        "the aborted leader was run, not ranked out: {events:?}"
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
                conversions: Vec::new(),
            },
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
fn the_tuning_deadline_caps_the_check_and_never_decides_whether_it_runs() {
    // Whether the runner-up check runs is decided by the ranking alone: a
    // deadline too short for any run still compiles and starts the check,
    // so two engines that differ only in the deadline log the same events.
    let n = 16;
    let stmt = spmv(n, n);
    let (b, x) = (random_csr(n, n, 0.1, 11).to_tensor(), dense_operand(vec![n], 12));
    let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("x", &x)];
    let events = |deadline: Duration| {
        let engine =
            Engine::builder().backend(Backend::Interp).tuning_deadline(deadline).build();
        for _ in 0..6 {
            engine.run_tuned(&stmt, LowerOptions::fused("spmv"), &inputs).unwrap();
        }
        (engine.last_events().len(), engine.cache_stats().compiles)
    };
    let (short, long) = (events(Duration::from_nanos(1)), events(Duration::from_secs(60)));
    assert_eq!(short, long, "(events, compiles) at 1 ns and at 60 s");
    assert_eq!(short.1, 2, "the reply and the check");
    assert_eq!(events(Duration::ZERO).1, 1, "a zero deadline runs no check");
}

#[test]
fn a_tuned_reply_keeps_the_callers_workspace_kind() {
    // The tuner searches schedules; storage is the caller's. A search asked
    // for hash workspaces replies with a hash kernel: the one kernel it
    // compiled (no time for the check) is what compiling the decided
    // statement under the caller's options finds in the cache.
    let n = 24;
    let stmt = unscheduled_spgemm(n);
    let (b, c) = operands(n);
    let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("C", &c)];
    let engine =
        Engine::builder().backend(Backend::Interp).tuning_deadline(Duration::ZERO).build();
    let opts = LowerOptions::fused("spgemm").with_workspace_kind(WorkspaceKind::Hash);
    let out = engine.run_tuned(&stmt, opts.clone(), &inputs).unwrap();
    assert_eq!(out.schedule, "reorder(j,k) + precompute(j)");
    let oracle = eval_dense(stmt.source(), &inputs).unwrap();
    assert!(out.result.to_dense().approx_eq(&oracle, 1e-10));

    let decided = engine.tuner().decision(&TuneKey::new(&stmt, &inputs)).unwrap();
    let before = engine.cache_stats();
    assert_eq!(before.compiles, 1, "the reply, and nothing else");
    let kernel = engine.compile(&decided.candidate.stmt, opts.clone()).unwrap();
    let after = engine.cache_stats();
    assert_eq!((after.compiles, after.hits), (before.compiles, before.hits + 1), "a cache hit");
    let budget = engine.config().budget;
    let expected = taco_core::fingerprint(decided.candidate.stmt.concrete(), &opts, &budget);
    assert_eq!(kernel.fingerprint(), expected);
    let workspaces = &kernel.lowered().workspaces;
    assert!(!workspaces.is_empty());
    assert!(workspaces.iter().all(|w| w.kind == WorkspaceKind::Hash), "{workspaces:?}");
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
