//! Serving-daemon soak under deliberate overload: 64 clients against a
//! 4-worker server with a small admission queue and mixed tenant policies.
//!
//! ```text
//! cargo run --release --example serve_soak
//! ```
//!
//! The example is its own assertion (CI runs it under a hard timeout and
//! greps the summary): it must finish without a panic, shed a nonzero
//! number of requests with typed reasons, serve every completed request
//! byte-identical to a serial single-tenant run, honor the degrade ladder
//! for a budget-capped tenant, and drain cleanly.

use std::sync::Arc;
use std::time::{Duration, Instant};
use taco_workspaces::prelude::*;
use taco_workspaces::tensor::gen;

fn spgemm(n: usize) -> IndexStmt {
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j, k) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"));
    let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
    let mut stmt = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(k.clone(), mul.clone()),
    ))
    .expect("valid statement");
    stmt.reorder(&k, &j).expect("reorders");
    let w = TensorVar::new("w", vec![n], Format::dvec());
    stmt.precompute(&mul, &[(j.clone(), j.clone(), j.clone())], &w).expect("precomputes");
    stmt
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    const CLIENTS: usize = 64;
    let n = 256;
    let stmt = spgemm(n);
    let b = Arc::new(gen::random_csr(n, n, 0.002, 404).to_tensor());
    let c = Arc::new(gen::random_csr(n, n, 0.002, 405).to_tensor());
    let expect = stmt
        .compile(LowerOptions::fused("serial"))
        .expect("compiles")
        .run(&[("B", &b), ("C", &c)])
        .expect("serial baseline");

    // Deliberate overload: 4 workers, 8 queue slots, 64 clients. The
    // metered tenant (every fourth client) gets a burst of two and no
    // refill, so shedding is guaranteed even on a fast machine. The capped
    // tenant's 1 KiB per-array budget rejects the 2 KiB dense row workspace
    // at run time but admits the hash backend (and the output assembly
    // arrays, which at this sparsity stay under 1 KiB each), forcing the
    // degrade ladder onto a sparse rung mid-soak.
    let server = Server::builder()
        .workers(4)
        .queue_capacity(8)
        .tenant("metered", TenantPolicy::default().with_rate(0.0, 2))
        .tenant(
            "capped",
            TenantPolicy::default()
                .with_budget(ResourceBudget::unlimited().with_max_workspace_bytes(1024)),
        )
        .build();

    let started = Instant::now();
    let results: Vec<(Duration, Result<Outcome, Rejected>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (server, stmt, b, c) = (&server, &stmt, &b, &c);
                scope.spawn(move || {
                    let tenant = match client % 4 {
                        3 => "metered",
                        2 => "capped",
                        _ => "bulk",
                    };
                    let request = Request::new(
                        tenant,
                        stmt.clone(),
                        LowerOptions::fused("spgemm"),
                        vec![("B".into(), Arc::clone(b)), ("C".into(), Arc::clone(c))],
                        Duration::from_secs(60),
                    );
                    let t0 = Instant::now();
                    let outcome = server.submit(request).map(Ticket::wait);
                    (t0.elapsed(), outcome)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread must not panic")).collect()
    });
    server.drain();
    let wall = started.elapsed();

    let mut latencies: Vec<Duration> = Vec::new();
    let (mut completed, mut degraded, mut shed, mut aborted) = (0u64, 0u64, 0u64, 0u64);
    for (latency, result) in results {
        match result {
            Ok(Outcome::Completed { result, rung, .. }) => {
                assert_eq!(result, expect, "served result diverged from the serial run");
                completed += 1;
                if rung != DegradeRung::AsScheduled {
                    degraded += 1;
                }
                latencies.push(latency);
            }
            Ok(Outcome::Aborted { reason, .. }) => {
                println!("aborted: {reason:?}");
                aborted += 1;
            }
            Ok(Outcome::Failed { message }) => panic!("no request may fail here: {message}"),
            Ok(other) => panic!("unexpected outcome: {other:?}"),
            Err(rejected) => {
                // Backpressure must be typed and renderable.
                assert!(!rejected.to_string().is_empty());
                shed += 1;
            }
        }
    }
    latencies.sort_unstable();

    let stats = server.stats();
    println!("{stats}");
    println!("soak wall time: {:.1} ms for {CLIENTS} clients", wall.as_secs_f64() * 1e3);
    let (p50, p99) = (percentile(&latencies, 0.50), percentile(&latencies, 0.99));
    println!("latency p50 {:.2} ms, p99 {:.2} ms", p50.as_secs_f64() * 1e3, p99.as_secs_f64() * 1e3);

    // The soak contract CI relies on.
    assert_eq!(completed + shed + aborted, CLIENTS as u64);
    assert!(completed > 0, "some requests must be served");
    assert!(shed > 0, "deliberate overload must shed");
    assert_eq!(stats.totals.shed(), shed);
    assert_eq!(stats.totals.completed, completed);
    assert!(p99 >= p50 && p50 > Duration::ZERO, "completed requests must take measurable time");
    assert!((0.0..=1.0).contains(&stats.shed_rate()), "shed rate {}", stats.shed_rate());
    assert!((0.0..=1.0).contains(&stats.coalesce_rate()), "coalesce {}", stats.coalesce_rate());
    let capped = &stats.tenants["capped"];
    assert_eq!(
        capped.degraded, capped.completed,
        "the capped tenant cannot complete on the dense-workspace rung"
    );
    assert_eq!(capped.failed + capped.budget_aborted, 0, "the ladder must absorb the capped budget");
    assert_eq!(stats.queued, 0, "drain must leave nothing queued");
    assert_eq!(stats.running, 0, "drain must leave nothing running");
    println!(
        "serve soak: OK ({completed} completed, {degraded} degraded, {shed} shed, \
         {aborted} aborted, shed rate {:.0}%, coalesce rate {:.0}%)",
        stats.shed_rate() * 100.0,
        stats.coalesce_rate() * 100.0,
    );
}
