//! Sparse matrix multiplication case study (paper Section II + VIII-B).
//!
//! Compiles the workspace SpGEMM kernel, compares it against the dense
//! oracle and the hand-written Gustavson kernel, and prints a small
//! performance comparison of the engine-compiled native kernel against the
//! Eigen-style and MKL-style baselines on a Table I stand-in.
//!
//! ```text
//! cargo run --release --example spgemm
//! ```

use std::time::Instant;
use taco_core::oracle::eval_dense;
use taco_kernels::spgemm::{spgemm_eigen_style, spgemm_mkl_style, spgemm_workspace_sorted};
use taco_tensor::datasets::matrix_by_name;
use taco_tensor::gen::random_csr;
use taco_workspaces::prelude::*;

/// The Fig. 2 SpGEMM over `n × n` CSR matrices: the source assignment and
/// its workspace schedule.
fn scheduled(n: usize) -> Result<(IndexAssignment, IndexStmt), CoreError> {
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j, k) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"));
    let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
    let source = IndexAssignment::assign(a.access([i, j.clone()]), sum(k.clone(), mul.clone()));
    let mut stmt = IndexStmt::new(source.clone())?;
    stmt.reorder(&k, &j)?;
    let w = TensorVar::new("w", vec![n], Format::dvec());
    stmt.precompute(&mul, &[(j.clone(), j.clone(), j)], &w)?;
    Ok((source, stmt))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Correctness: compiled kernel vs oracle on a small instance -------
    let n = 32;
    let (source, stmt) = scheduled(n)?;
    let kernel = stmt.compile(LowerOptions::fused("spgemm"))?;
    let (i, j) = (IndexVar::new("i"), IndexVar::new("j"));

    let bm = random_csr(n, n, 0.2, 1);
    let cm = random_csr(n, n, 0.2, 2);
    let (bt, ct) = (bm.to_tensor(), cm.to_tensor());
    let out = kernel.run(&[("B", &bt), ("C", &ct)])?;
    let oracle = eval_dense(&source, &[("B", &bt), ("C", &ct)])?;
    assert!(out.to_dense().approx_eq(&oracle, 1e-10));
    println!("compiled workspace SpGEMM matches the dense oracle on {n}x{n} (nnz={})", out.nnz());

    let native = spgemm_workspace_sorted(&bm, &cm);
    assert!(Csr::from_tensor(&out)?.approx_eq(&native, 1e-12));
    println!("compiled kernel matches the hand-written Gustavson workspace kernel\n");

    // --- Supervised execution: deadlines and the degradation ladder -------
    // The same kernel under a generous deadline.
    let supervisor = Supervisor::new().with_deadline(std::time::Duration::from_secs(10));
    let (_, report) = kernel.run_supervised(&[("B", &bt), ("C", &ct)], None, &supervisor)?;
    println!("supervised SpGEMM: {}", report.summary());

    // A deliberately pathological schedule: precompute a dense operand of
    // the sampled product A = B .* C into a row workspace, so the scheduled
    // kernel scans all n columns per row while B holds three nonzeros. A
    // 50 ms deadline aborts it (rolling the outputs back) and the retry
    // ladder lands on the direct merge kernel.
    let (m, nn) = (128, 1 << 15);
    let a2 = TensorVar::new("A", vec![m, nn], Format::csr());
    let b2 = TensorVar::new("B", vec![m, nn], Format::csr());
    let c2 = TensorVar::new("C", vec![m, nn], Format::dense(2));
    let cij: IndexExpr = c2.access([i.clone(), j.clone()]).into();
    let mut sampled = IndexStmt::new(IndexAssignment::assign(
        a2.access([i.clone(), j.clone()]),
        b2.access([i.clone(), j.clone()]) * c2.access([i.clone(), j.clone()]),
    ))?;
    let w2 = TensorVar::new("w", vec![nn], Format::dvec());
    sampled.precompute(&cij, &[(j.clone(), j.clone(), j.clone())], &w2)?;

    let b2t = Tensor::from_entries(
        vec![m, nn],
        Format::csr(),
        vec![(vec![0, 5], 2.0), (vec![64, 100], 3.0), (vec![127, 7], 4.0)],
    )?;
    let c2t = Tensor::from_dense(
        &taco_tensor::DenseTensor::from_data(
            vec![m, nn],
            (0..m * nn).map(|p| (p % 97) as f64 + 1.0).collect(),
        ),
        Format::dense(2),
    )?;
    let deadline = Supervisor::new().with_deadline(std::time::Duration::from_millis(50));
    let outcome = sampled.run_supervised(
        LowerOptions::fused("sampled"),
        &deadline,
        &[("B", &b2t), ("C", &c2t)],
        None,
    )?;
    println!("{}\n", outcome.summary());

    // --- Performance shape: compiled workspace vs library baselines -------
    let info = matrix_by_name("pdb1HYS").expect("table 1 matrix");
    let big = info.generate(0.05);
    let synth = random_csr(big.nrows(), big.ncols(), 4e-4, 3);
    println!(
        "pdb1HYS stand-in ({}x{}, nnz {}) times synthetic density 4E-4:",
        big.nrows(),
        big.ncols(),
        big.nnz()
    );

    // The engine compiles both kernels and trusts their native builds on a
    // first run, off the clock; the timed runs are warm native runs,
    // operands in and result tensor out.
    let engine = Engine::builder().backend(Backend::Native).build();
    let (_, big_stmt) = scheduled(big.nrows())?;
    let (bt, st) = (big.to_tensor(), synth.to_tensor());
    let inputs = [("B", &bt), ("C", &st)];
    let sorted = LowerOptions::fused("spgemm");
    let unsorted = LowerOptions::fused("spgemm").unsorted();
    for opts in [&sorted, &unsorted] {
        engine.run(&big_stmt, opts.clone(), &inputs)?;
    }
    let native = engine.native_stats();
    println!("  native: {} kernels trusted, {} rejected", native.trusted, native.rejected);

    let time = |name: &str, f: &dyn Fn() -> usize| {
        let mut best = f64::MAX;
        let mut nnz = 0;
        for _ in 0..4 {
            let start = Instant::now();
            nnz = f();
            best = best.min(start.elapsed().as_secs_f64());
        }
        println!("  {name:<22} {:>10.3} ms  (nnz {nnz})", best * 1e3);
        best
    };
    let compiled = |opts: &LowerOptions| engine.run(&big_stmt, opts.clone(), &inputs).expect("warm run").nnz();
    let tw = time("compiled sorted", &|| compiled(&sorted));
    let te = time("Eigen-style sorted", &|| spgemm_eigen_style(&big, &synth).nnz());
    let tu = time("compiled unsorted", &|| compiled(&unsorted));
    let tm = time("MKL-style unsorted", &|| spgemm_mkl_style(&big, &synth).nnz());
    println!(
        "\nEigen-style / compiled sorted: {:.2}x   MKL-style / compiled unsorted: {:.2}x",
        te / tw,
        tm / tu
    );
    println!("(paper: 4x over Eigen, 1.28x over MKL at full scale)");
    Ok(())
}
