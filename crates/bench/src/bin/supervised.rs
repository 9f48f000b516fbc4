//! Measures the cost of supervised execution and demonstrates the
//! degradation ladder.
//!
//! The supervisor arms cancellation, deadline and progress checks at loop
//! back-edges (amortized over a 1024-iteration stride) and snapshots the
//! writable output arrays for the transactional guarantee, so the
//! interesting questions are: how much slower is a supervised run of a
//! healthy kernel, and what does the report look like when a schedule has
//! to degrade?
//!
//! ```text
//! cargo run --release -p taco-bench --bin supervised
//! ```

use std::time::{Duration, Instant};
use taco_bench::timing::{fmt_duration, time_best};
use taco_bench::BenchArgs;
use taco_core::{IndexStmt, Supervisor};
use taco_ir::expr::{sum, IndexExpr, IndexVar, TensorVar};
use taco_ir::notation::IndexAssignment;
use taco_lower::LowerOptions;
use taco_runtime::{Backend, Engine};
use taco_tensor::gen::random_csr;
use taco_tensor::{DenseTensor, Format, Tensor};

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
    .expect("valid statement");
    stmt.reorder(&k, &j).expect("reorder");
    let w = TensorVar::new("w", vec![n], Format::dvec());
    stmt.precompute(&mul, &[(j.clone(), j.clone(), j.clone())], &w).expect("precompute");
    stmt
}

fn main() {
    let args = BenchArgs::from_env();
    let n = 256;
    let stmt = scheduled_spgemm(n);
    let kernel = stmt.compile(LowerOptions::fused("spgemm")).expect("compiles");
    let b = random_csr(n, n, 0.1, 31).to_tensor();
    let c = random_csr(n, n, 0.1, 32).to_tensor();
    let inputs: Vec<(&str, &Tensor)> = vec![("B", &b), ("C", &c)];

    println!("SUPERVISION OVERHEAD: {n}x{n} SpGEMM, density 0.1 ({} reps)\n", args.reps);
    let (plain, _) = time_best(args.reps, || kernel.run(&inputs).expect("runs"));
    let supervisor = Supervisor::new().with_deadline(Duration::from_secs(60));
    let (supervised, (_, report)) = time_best(args.reps, || {
        kernel.run_supervised(&inputs, None, &supervisor).expect("runs")
    });
    println!("  unsupervised run        {:>12}", fmt_duration(plain));
    println!("  supervised run          {:>12}", fmt_duration(supervised));
    println!(
        "  overhead                {:>11.1}%",
        (supervised.as_secs_f64() / plain.as_secs_f64() - 1.0) * 100.0
    );
    println!("  last report: {}\n", report.summary());

    // A pathological schedule under a tight deadline: the dense operand of
    // the sampled product is precomputed into a row workspace, so the
    // scheduled kernel scans all n columns per row while B holds three
    // nonzeros. The ladder drops to the direct merge kernel and says why.
    let (m, nn) = (128usize, 1usize << 15);
    let a2 = TensorVar::new("A", vec![m, nn], Format::csr());
    let b2 = TensorVar::new("B", vec![m, nn], Format::csr());
    let c2 = TensorVar::new("C", vec![m, nn], Format::dense(2));
    let (i, j) = (IndexVar::new("i"), IndexVar::new("j"));
    let cij: IndexExpr = c2.access([i.clone(), j.clone()]).into();
    let mut sampled = IndexStmt::new(IndexAssignment::assign(
        a2.access([i.clone(), j.clone()]),
        b2.access([i.clone(), j.clone()]) * c2.access([i.clone(), j.clone()]),
    ))
    .expect("valid statement");
    let w = TensorVar::new("w", vec![nn], Format::dvec());
    sampled.precompute(&cij, &[(j.clone(), j.clone(), j.clone())], &w).expect("precompute");

    let b2t = Tensor::from_entries(
        vec![m, nn],
        Format::csr(),
        vec![(vec![0, 5], 2.0), (vec![64, 100], 3.0), (vec![127, 7], 4.0)],
    )
    .expect("valid tensor");
    let c2t = Tensor::from_dense(
        &DenseTensor::from_data(vec![m, nn], (0..m * nn).map(|p| (p % 97) as f64 + 1.0).collect()),
        Format::dense(2),
    )
    .expect("valid tensor");

    // The deadline is a quarter of an unsupervised run of the scheduled
    // kernel on the same operands, so it aborts however fast the
    // interpreter scans.
    let scheduled = sampled.compile(LowerOptions::fused("sampled")).expect("compiles");
    let mut binding = scheduled.bind(&[("B", &b2t), ("C", &c2t)], None).expect("binds");
    let start = Instant::now();
    scheduled.run_bound(&mut binding).expect("runs");
    let limit = start.elapsed() / 4;
    println!(
        "DEGRADE AND RETRY: sampled product with a pathological workspace, {} deadline \
         (a quarter of an unsupervised run)\n",
        fmt_duration(limit)
    );
    let deadline = Supervisor::new().with_deadline(limit);
    let engine = Engine::builder().backend(Backend::Interp).budget(deadline.budget()).build();
    match engine.run_supervised(
        &sampled,
        LowerOptions::fused("sampled"),
        &deadline,
        &[("B", &b2t), ("C", &c2t)],
        None,
    ) {
        Ok(run) => println!("  {}", run.summary().replace('\n', "\n  ")),
        Err(e) => println!("  every rung aborted: {e}"),
    }
}
