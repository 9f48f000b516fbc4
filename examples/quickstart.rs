//! Quickstart: the paper's Figure 2 end to end.
//!
//! Builds `A(i,j) = sum(k, B(i,k) * C(k,j))` over CSR matrices, schedules it
//! with `reorder` + `precompute` (the workspace transformation), prints the
//! concrete index notation after every step and the generated C kernel, and
//! runs it.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use taco_workspaces::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 4;

    // Create three square CSR matrices (Figure 2 lines 2-4).
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());

    // Compute a sparse matrix multiplication (lines 7-9).
    let (i, j, k) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"));
    let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
    let mut matmul = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(k.clone(), mul.clone()),
    ))?;
    println!("concretized:        {matmul}");

    // Reorder to linear combinations of rows (line 12).
    matmul.reorder(&k, &j)?;
    println!("after reorder(k,j): {matmul}");

    // Precompute the mul expression into a row workspace (lines 15-18).
    let (jc, jp) = (IndexVar::new("jc"), IndexVar::new("jp"));
    let row = TensorVar::new("row", vec![n], Format::dvec());
    matmul.precompute(&mul, &[(j.clone(), jc, jp)], &row)?;
    println!("after precompute:   {matmul}\n");

    // Compile to the kernel of Figures 1d + 8 (fused assembly + compute).
    let kernel = matmul.compile(LowerOptions::fused("spgemm"))?;
    println!("generated C:\n{}", kernel.to_c());

    // Run it on the matrix of Figure 1a times itself.
    let fig1a = Tensor::from_entries(
        vec![n, n],
        Format::csr(),
        vec![
            (vec![0, 1], 1.0), // a
            (vec![0, 3], 2.0), // b
            (vec![2, 2], 3.0), // c
            (vec![3, 0], 4.0), // d
            (vec![3, 1], 5.0), // e
            (vec![3, 2], 6.0), // f
        ],
    )?;
    let result = kernel.run(&[("B", &fig1a), ("C", &fig1a)])?;
    println!("B * B = {} stored nonzeros", result.nnz());
    for (coord, v) in result.entries() {
        println!("  A({},{}) = {v}", coord[0], coord[1]);
    }

    // Run the same statement through an engine, under a supervisor with a
    // wall-clock deadline: on success the report says what was done; had the
    // deadline fired, the outputs would have been rolled back and the
    // schedule degraded one rung at a time (sparse workspace storage, then
    // drop the sort, then drop the workspace).
    let supervisor = Supervisor::new().with_deadline(std::time::Duration::from_secs(1));
    let engine = Engine::builder().backend(Backend::Interp).budget(supervisor.budget()).build();
    let run = engine.run_supervised(
        &matmul,
        LowerOptions::fused("spgemm"),
        &supervisor,
        &[("B", &fig1a), ("C", &fig1a)],
        None,
    )?;
    println!("\nsupervised: {}", run.summary());
    Ok(())
}
