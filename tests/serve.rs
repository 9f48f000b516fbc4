//! Integration tests for the multi-tenant serving daemon: typed admission
//! rejections, EDF dispatch order, byte-identity with serial runs, the
//! 64-client overload soak, the multi-tenant chaos soak, and drain /
//! shutdown semantics.

use std::sync::Arc;
use std::time::{Duration, Instant};
use taco_workspaces::serve::Quota;
use taco_workspaces::tensor::corrupt::{self, Corruption};
use taco_workspaces::tensor::gen;
use taco_workspaces::prelude::*;

/// The Figure 2 SpGEMM (Gustavson: reorder + row workspace) over `n`×`n`
/// CSR matrices.
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
    .unwrap();
    stmt.reorder(&k, &j).unwrap();
    let w = TensorVar::new("w", vec![n], Format::dvec());
    stmt.precompute(&mul, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
    stmt
}

fn operands(n: usize, density: f64, seed: u64) -> (Arc<Tensor>, Arc<Tensor>) {
    let b = Arc::new(gen::random_csr(n, n, density, seed).to_tensor());
    let c = Arc::new(gen::random_csr(n, n, density, seed + 1).to_tensor());
    (b, c)
}

/// The serial single-tenant answer the server must reproduce byte for byte.
fn serial(stmt: &IndexStmt, b: &Tensor, c: &Tensor) -> Tensor {
    stmt.compile(LowerOptions::fused("serial")).unwrap().run(&[("B", b), ("C", c)]).unwrap()
}

fn request(
    tenant: &str,
    stmt: &IndexStmt,
    b: &Arc<Tensor>,
    c: &Arc<Tensor>,
    deadline: Duration,
) -> Request {
    Request::new(
        tenant,
        stmt.clone(),
        LowerOptions::fused("spgemm"),
        vec![("B".into(), Arc::clone(b)), ("C".into(), Arc::clone(c))],
        deadline,
    )
}

/// A request sized to keep a worker busy well past the few milliseconds the
/// tests need (fresh fingerprint per `n`, so the compile is cold too): at
/// `n` = 256 the worker holds it for ≥ 90 ms in a release build with no C
/// toolchain, the fastest configuration, and half a second in a debug one.
fn plug(server: &Server, n: usize) -> Ticket {
    let (b, c) = operands(n, 0.3, 7070 + n as u64);
    let ticket =
        server.submit(request("plug", &spgemm(n), &b, &c, Duration::from_secs(120))).unwrap();
    // Returns only once a worker holds the plug: what the caller submits
    // next is then queued behind it, not racing it for the worker.
    let patience = Instant::now() + Duration::from_secs(60);
    while server.stats().running != 1 {
        assert!(Instant::now() < patience, "no worker was seen holding the plug within 60 s");
        std::thread::yield_now();
    }
    ticket
}

#[test]
fn completed_request_is_byte_identical_to_a_serial_run() {
    let n = 24;
    let stmt = spgemm(n);
    let (b, c) = operands(n, 0.1, 11);
    let expect = serial(&stmt, &b, &c);

    let server = Server::builder().workers(2).build();
    let ticket = server.submit(request("acme", &stmt, &b, &c, Duration::from_secs(60))).unwrap();
    assert_eq!(ticket.tenant(), "acme");
    match ticket.wait() {
        Outcome::Completed { result, rung, cache_hit, fallbacks, .. } => {
            assert_eq!(result, expect, "served result must be byte-identical to serial");
            assert_eq!(rung, DegradeRung::AsScheduled);
            assert!(!cache_hit, "first request compiles");
            assert!(fallbacks.is_empty());
        }
        other => panic!("expected completion, got {other:?}"),
    }

    // Same statement again: served warm from the shared cache.
    let ticket = server.submit(request("acme", &stmt, &b, &c, Duration::from_secs(60))).unwrap();
    match ticket.wait() {
        Outcome::Completed { result, cache_hit, .. } => {
            assert_eq!(result, expect);
            assert!(cache_hit, "second request must reuse the cached kernel");
        }
        other => panic!("expected completion, got {other:?}"),
    }

    server.drain();
    let stats = server.stats();
    assert_eq!(stats.totals.completed, 2);
    assert_eq!(stats.totals.cache_hits, 1);
    assert_eq!(stats.tenants["acme"].completed, 2);
    assert!(stats.coalesce_rate() > 0.4 && stats.coalesce_rate() < 0.6);
}

#[test]
fn rate_quota_and_drain_reject_with_typed_reasons() {
    let n = 16;
    let stmt = spgemm(n);
    let (b, c) = operands(n, 0.1, 21);
    let server = Server::builder()
        .workers(1)
        .tenant("metered", TenantPolicy::default().with_rate(0.0, 1))
        .build();

    // Burst of one: the first request is admitted, the second hits the
    // token bucket (rate 0 means it never refills).
    let first = server.submit(request("metered", &stmt, &b, &c, Duration::from_secs(60))).unwrap();
    let err = server
        .submit(request("metered", &stmt, &b, &c, Duration::from_secs(60)))
        .unwrap_err();
    assert_eq!(
        err,
        Rejected::QuotaExhausted { tenant: "metered".into(), quota: Quota::Rate }
    );
    assert!(!err.to_string().is_empty());
    assert!(first.wait().is_completed());

    // An unregistered tenant falls back to the permissive default policy.
    let open = server.submit(request("walk-in", &stmt, &b, &c, Duration::from_secs(60))).unwrap();
    assert!(open.wait().is_completed());

    server.drain();
    let err = server
        .submit(request("metered", &stmt, &b, &c, Duration::from_secs(60)))
        .unwrap_err();
    assert_eq!(err, Rejected::ShuttingDown);

    let stats = server.stats();
    assert_eq!(stats.tenants["metered"].shed_quota, 1);
    assert_eq!(stats.tenants["metered"].shed_shutdown, 1);
    assert_eq!(stats.tenants["metered"].completed, 1);
}

#[test]
fn in_flight_cap_and_queue_bound_reject_with_typed_reasons() {
    let n = 16;
    let stmt = spgemm(n);
    let (b, c) = operands(n, 0.1, 31);
    let server = Server::builder()
        .workers(1)
        .queue_capacity(2)
        .tenant("capped", TenantPolicy::default().with_max_in_flight(1))
        .build();

    // Occupy the single worker so subsequent submissions stay queued.
    let plugged = plug(&server, 256);

    // First capped request queues (active = 1); the second breaks the cap
    // (the queue, capacity 2, still has room — this is the quota, not the
    // bound).
    let queued = server.submit(request("capped", &stmt, &b, &c, Duration::from_secs(120))).unwrap();
    let err = server
        .submit(request("capped", &stmt, &b, &c, Duration::from_secs(120)))
        .unwrap_err();
    assert_eq!(
        err,
        Rejected::QuotaExhausted { tenant: "capped".into(), quota: Quota::InFlight }
    );

    // Fill the queue's second slot; the next submission from *any* tenant
    // is shed as QueueFull.
    let other = server.submit(request("other", &stmt, &b, &c, Duration::from_secs(120))).unwrap();
    let err = server
        .submit(request("other", &stmt, &b, &c, Duration::from_secs(120)))
        .unwrap_err();
    assert_eq!(err, Rejected::QueueFull { capacity: 2 });

    assert!(plugged.wait().is_completed());
    assert!(queued.wait().is_completed());
    assert!(other.wait().is_completed());
    server.drain();
    let stats = server.stats();
    assert_eq!(stats.totals.shed_quota, 1);
    assert_eq!(stats.totals.shed_queue_full, 1);
    assert_eq!(stats.totals.completed, 3);
}

#[test]
fn infeasible_deadline_is_shed_at_admission_once_the_server_knows_its_speed() {
    let n = 16;
    let stmt = spgemm(n);
    let (b, c) = operands(n, 0.1, 41);
    let server = Server::builder().workers(1).queue_capacity(16).build();

    // Seed the service-time estimate with one completed request.
    let warm = server.submit(request("t", &stmt, &b, &c, Duration::from_secs(60))).unwrap();
    assert!(warm.wait().is_completed());

    // Occupy the worker and put a request in the queue: the backlog now
    // makes a nanosecond deadline obviously infeasible.
    let plugged = plug(&server, 257);
    let queued = server.submit(request("t", &stmt, &b, &c, Duration::from_secs(60))).unwrap();

    let err =
        server.submit(request("t", &stmt, &b, &c, Duration::from_nanos(1))).unwrap_err();
    match err {
        Rejected::DeadlineInfeasible { deadline, estimated_wait } => {
            assert_eq!(deadline, Duration::from_nanos(1));
            assert!(estimated_wait >= deadline);
        }
        other => panic!("expected DeadlineInfeasible, got {other:?}"),
    }

    assert!(plugged.wait().is_completed());
    assert!(queued.wait().is_completed());
    server.drain();
    assert_eq!(server.stats().totals.shed_deadline, 1);
}

#[test]
fn deadline_expired_in_queue_aborts_with_rollback_instead_of_running() {
    let n = 16;
    let stmt = spgemm(n);
    let (b, c) = operands(n, 0.1, 51);
    let server = Server::builder().workers(1).build();

    // A 1 ns deadline passes admission (no service history yet) but is long
    // expired by the time a worker picks the request up.
    let ticket = server.submit(request("t", &stmt, &b, &c, Duration::from_nanos(1))).unwrap();
    match ticket.wait() {
        Outcome::Aborted { reason: RunError::DeadlineExceeded { deadline, .. }, .. } => {
            assert_eq!(deadline, Duration::from_nanos(1));
        }
        other => panic!("expected a deadline abort, got {other:?}"),
    }
    server.drain();
    let stats = server.stats();
    assert_eq!(stats.totals.deadline_aborted, 1);
    assert_eq!(stats.totals.completed, 0);
}

#[test]
fn dispatch_is_earliest_deadline_first_not_fifo() {
    let n = 16;
    let stmt = spgemm(n);
    let (b, c) = operands(n, 0.1, 61);
    let server = Server::builder().workers(1).queue_capacity(16).build();

    // While the single worker chews on the plug, submit three requests in
    // *descending* urgency order. EDF must serve them tightest-first, which
    // shows up as strictly increasing queue waits in deadline order.
    let plugged = plug(&server, 258);
    let loose = server.submit(request("t", &stmt, &b, &c, Duration::from_secs(90))).unwrap();
    let middle = server.submit(request("t", &stmt, &b, &c, Duration::from_secs(60))).unwrap();
    let tight = server.submit(request("t", &stmt, &b, &c, Duration::from_secs(30))).unwrap();

    let wait_of = |t: Ticket| match t.wait() {
        Outcome::Completed { queue_wait, .. } => queue_wait,
        other => panic!("expected completion, got {other:?}"),
    };
    let (loose, middle, tight) = (wait_of(loose), wait_of(middle), wait_of(tight));
    assert!(
        tight < middle && middle < loose,
        "EDF order violated: tight={tight:?} middle={middle:?} loose={loose:?}"
    );
    assert!(plugged.wait().is_completed());
    server.drain();
}

#[test]
fn overload_soak_64_clients_4_workers_sheds_typed_and_stays_correct() {
    let n = 24;
    let stmt = spgemm(n);
    let (b, c) = operands(n, 0.1, 71);
    let expect = serial(&stmt, &b, &c);

    let server = Server::builder()
        .workers(4)
        .queue_capacity(8)
        .tenant("metered", TenantPolicy::default().with_rate(0.0, 2))
        .build();

    // 64 clients: 48 bulk (generous deadlines, shed only by the queue
    // bound), 16 metered (burst of two, so at least 14 quota rejections).
    let outcomes: Vec<Result<Outcome, Rejected>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..64)
            .map(|client| {
                let (server, stmt, b, c) = (&server, &stmt, &b, &c);
                scope.spawn(move || {
                    let tenant = if client % 4 == 3 { "metered" } else { "bulk" };
                    let req = request(tenant, stmt, b, c, Duration::from_secs(120))
                        .with_priority(if client % 2 == 0 { Priority::High } else { Priority::Low });
                    server.submit(req).map(Ticket::wait)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    server.drain();

    let mut completed = 0u64;
    let mut shed = 0u64;
    for out in outcomes {
        match out {
            Ok(Outcome::Completed { result, queue_wait, report, .. }) => {
                completed += 1;
                assert_eq!(result, expect, "every served result must match the serial run");
                assert!(
                    queue_wait + report.elapsed < Duration::from_secs(120),
                    "completed requests must honor their deadline"
                );
            }
            Ok(other) => panic!("no admitted request may fail under pure overload: {other:?}"),
            Err(
                Rejected::QueueFull { capacity: 8 }
                | Rejected::QuotaExhausted { quota: Quota::Rate, .. },
            ) => shed += 1,
            Err(other) => panic!("unexpected rejection under this load: {other:?}"),
        }
    }

    let stats = server.stats();
    assert!(completed >= 2, "at least the metered burst completes");
    assert!(shed >= 14, "deliberate overload must shed (got {shed}): {stats}");
    assert_eq!(stats.totals.admitted, completed);
    assert_eq!(stats.totals.shed(), shed);
    assert_eq!(stats.totals.completed, completed);
    assert!((stats.shed_rate() - shed as f64 / 64.0).abs() < 1e-9);
    // One fingerprint across all clients: the cache compiled it once and
    // everyone else coalesced or hit.
    assert_eq!(server.engine().cache_stats().compiles, 1, "{stats}");
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.running, 0);
}

#[test]
fn chaos_soak_eight_tenants_with_faults_do_not_interfere() {
    const PER_TENANT: usize = 3;
    let small = spgemm(24);
    let big = spgemm(1024);
    let (sb, sc) = operands(24, 0.1, 81);
    let bb = Arc::new(gen::random_csr_nnz(1024, 1024, 256, gen::Pattern::Uniform, 82).to_tensor());
    let bc = Arc::new(gen::random_csr_nnz(1024, 1024, 256, gen::Pattern::Uniform, 83).to_tensor());
    let expect_small = serial(&small, &sb, &sc);
    let expect_big = serial(&big, &bb, &bc);
    let corrupted = Arc::new(corrupt::apply(&sb, Corruption::NanValue).unwrap());

    let mut builder = Server::builder().workers(4).queue_capacity(256);
    for t in 0..2 {
        // The n=1024 dense row workspace wants 8 KiB; these tenants get half
        // that, forcing the run onto a sparse-workspace rung every time.
        builder = builder.tenant(
            format!("budget-{t}"),
            TenantPolicy::default()
                .with_budget(ResourceBudget::unlimited().with_max_workspace_bytes(4096)),
        );
    }
    let server = builder.build();

    // 8 tenants * 3 requests, all in flight at once: 4 clean, 2 submitting
    // corrupted operands, 2 under the tiny budget, plus a deadline storm.
    std::thread::scope(|scope| {
        for t in 0..4 {
            let (server, small, sb, sc, expect) = (&server, &small, &sb, &sc, &expect_small);
            scope.spawn(move || {
                for _ in 0..PER_TENANT {
                    let ticket = server
                        .submit(request(&format!("clean-{t}"), small, sb, sc, Duration::from_secs(120)))
                        .expect("clean tenants must never be shed at this capacity");
                    match ticket.wait() {
                        Outcome::Completed { result, .. } => assert_eq!(
                            &result, expect,
                            "clean tenant results must be byte-identical despite chaos neighbours"
                        ),
                        other => panic!("clean tenant must complete, got {other:?}"),
                    }
                }
            });
        }
        for t in 0..2 {
            let (server, small, corrupted, sc) = (&server, &small, &corrupted, &sc);
            scope.spawn(move || {
                for _ in 0..PER_TENANT {
                    let ticket = server
                        .submit(request(&format!("corrupt-{t}"), small, corrupted, sc, Duration::from_secs(120)))
                        .expect("corrupt operands are an execution fault, not an admission fault");
                    match ticket.wait() {
                        Outcome::Failed { message } => assert!(!message.is_empty()),
                        Outcome::Aborted { reason, .. }
                            if !reason.is_retryable() && reason != RunError::Cancelled => {}
                        other => panic!("corrupted operands must fail typed, got {other:?}"),
                    }
                }
            });
        }
        for t in 0..2 {
            let (server, big, bb, bc, expect) = (&server, &big, &bb, &bc, &expect_big);
            scope.spawn(move || {
                for _ in 0..PER_TENANT {
                    let ticket = server
                        .submit(request(&format!("budget-{t}"), big, bb, bc, Duration::from_secs(120)))
                        .expect("budget tenants must be admitted");
                    match ticket.wait() {
                        Outcome::Completed { result, rung, .. } => {
                            assert_ne!(
                                rung,
                                DegradeRung::AsScheduled,
                                "the tiny budget must force a downgraded rung"
                            );
                            assert_eq!(&result, expect, "downgraded runs stay byte-identical");
                        }
                        other => panic!("budget tenant must complete degraded, got {other:?}"),
                    }
                }
            });
        }
        // Deadline storm: nanosecond deadlines, shed or aborted — never
        // completed, never a panic.
        scope.spawn(|| {
            for _ in 0..4 * PER_TENANT {
                match server.submit(request("storm", &small, &sb, &sc, Duration::from_nanos(1))) {
                    Ok(ticket) => match ticket.wait() {
                        Outcome::Aborted { .. } => {}
                        other => panic!("a 1 ns deadline cannot complete, got {other:?}"),
                    },
                    Err(Rejected::DeadlineInfeasible { .. }) => {}
                    Err(other) => panic!("unexpected storm rejection {other:?}"),
                }
            }
        });
    });
    server.drain();

    let stats = server.stats();
    for t in 0..4 {
        let clean = &stats.tenants[&format!("clean-{t}")];
        assert_eq!(clean.completed, PER_TENANT as u64);
        assert_eq!(clean.failed, 0, "chaos neighbours must not fail clean tenants");
        assert_eq!(clean.degraded, 0, "chaos neighbours must not degrade clean tenants");
    }
    for t in 0..2 {
        let corrupt = &stats.tenants[&format!("corrupt-{t}")];
        assert_eq!(corrupt.completed, 0);
        assert_eq!(corrupt.failed, PER_TENANT as u64);
        let budget = &stats.tenants[&format!("budget-{t}")];
        assert_eq!(budget.completed, PER_TENANT as u64);
        assert_eq!(budget.degraded, PER_TENANT as u64);
        assert_eq!(budget.failed, 0);
    }
    let storm = &stats.tenants["storm"];
    assert_eq!(storm.completed, 0);
    assert_eq!(
        storm.deadline_aborted + storm.shed_deadline,
        4 * PER_TENANT as u64,
        "every storm request is shed or deadline-aborted: {stats}"
    );
}

#[test]
fn drain_delivers_every_outstanding_outcome() {
    let n = 16;
    let stmt = spgemm(n);
    let (b, c) = operands(n, 0.1, 91);
    let server = Server::builder().workers(2).queue_capacity(32).build();

    let tickets: Vec<Ticket> = (0..8)
        .map(|_| server.submit(request("t", &stmt, &b, &c, Duration::from_secs(120))).unwrap())
        .collect();
    server.drain();
    // Drain finishes the backlog rather than dropping it.
    for ticket in tickets {
        assert!(ticket.wait().is_completed());
    }
    let stats = server.stats();
    assert_eq!(stats.totals.completed, 8);
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.running, 0);
    server.drain(); // idempotent
}

#[test]
fn shutdown_now_cancels_queued_work_with_typed_outcomes() {
    let n = 16;
    let stmt = spgemm(n);
    let (b, c) = operands(n, 0.1, 95);
    let server = Server::builder().workers(1).queue_capacity(32).build();

    // The plug occupies the only worker; everything behind it is queued
    // when the hard shutdown lands.
    let plugged = plug(&server, 259);
    let queued: Vec<Ticket> = (0..4)
        .map(|_| server.submit(request("t", &stmt, &b, &c, Duration::from_secs(120))).unwrap())
        .collect();
    server.shutdown_now();

    for ticket in queued {
        match ticket.wait() {
            Outcome::Aborted { reason: RunError::Cancelled, .. } => {}
            other => panic!("queued work must be cancelled on hard shutdown, got {other:?}"),
        }
    }
    // The in-flight plug gets an outcome too: cancelled mid-run (rolled
    // back) or completed if it won the race — never dropped.
    match plugged.wait() {
        Outcome::Completed { .. } | Outcome::Aborted { reason: RunError::Cancelled, .. } => {}
        other => panic!("in-flight work must resolve on shutdown, got {other:?}"),
    }
    let stats = server.stats();
    assert!(stats.totals.cancelled >= 4, "{stats}");
}

#[test]
fn provably_over_budget_request_is_shed_at_admission_before_compiling() {
    let n = 16;
    let stmt = spgemm(n);
    let (b, c) = operands(n, 0.1, 91);

    // 100 bytes: the analyzer proves the dense row workspace (17n = 272
    // bytes with assembly) over budget, both sparse backends' initial
    // footprints (384 / 256 bytes) over budget, and spgemm into CSR has no
    // direct-merge lowering — so the request can never run and must be
    // shed at the front door.
    let server = Server::builder()
        .workers(1)
        .tenant(
            "starved",
            TenantPolicy::default()
                .with_budget(ResourceBudget::unlimited().with_max_workspace_bytes(100)),
        )
        .build();

    let err = server
        .submit(request("starved", &stmt, &b, &c, Duration::from_secs(60)))
        .unwrap_err();
    match err {
        Rejected::BudgetInfeasible { tenant, workspace, bound_bytes, budget_bytes } => {
            assert_eq!(tenant, "starved");
            assert_eq!(workspace, "w");
            assert_eq!(budget_bytes, 100);
            assert!(bound_bytes > 100, "proven bound must exceed the limit");
        }
        other => panic!("expected BudgetInfeasible, got {other:?}"),
    }

    // Shed before queue and compile: nothing reached the engine.
    assert_eq!(server.engine().cache_stats().compiles, 0, "shed requests must not compile");
    server.drain();
    let stats = server.stats();
    assert_eq!(stats.totals.shed_budget, 1);
    assert_eq!(stats.totals.admitted, 0);
    assert_eq!(stats.tenants["starved"].shed(), 1);

    // The same statement under a budget the sparse fallback fits is
    // admitted and completes degraded, not shed: infeasibility is a proof,
    // not a heuristic.
    let server = Server::builder()
        .workers(1)
        .tenant(
            "tight",
            TenantPolicy::default()
                .with_budget(ResourceBudget::unlimited().with_max_workspace_bytes(1024)),
        )
        .build();
    let ticket = server
        .submit(request("tight", &stmt, &b, &c, Duration::from_secs(60)))
        .expect("a feasible sparse fallback means the request must be admitted");
    assert!(ticket.wait().is_completed());
    server.drain();
}
