//! Parallel SpGEMM quickstart: the `parallelize` schedule directive end to
//! end (ISSUE 4 tentpole, paper Section V + the privatization rule).
//!
//! Compiles the Figure 2 workspace SpGEMM schedule twice — serial and with
//! the outer row loop parallelized — runs both on the same operands, and
//! asserts the results are *byte-identical*. Also demonstrates the legality
//! check (parallelizing the unprivatized reduction variable is a typed
//! error), reports how many row ranges the supervised run used, and runs the
//! parallel kernel on a native engine, which trusts it like any other.
//!
//! ```text
//! cargo run --release --example parallel_spgemm
//! ```
//!
//! CI runs this as a smoke test and greps for the `workers:` and
//! `native: trusted` lines.

use std::time::Instant;
use taco_tensor::gen::random_csr;
use taco_workspaces::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 256;
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j, k) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"));
    let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
    let mut stmt = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(k.clone(), mul.clone()),
    ))?;

    // Figure 2 schedule: reorder + row workspace. The workspace privatizes
    // the k-reduction, which is what makes the i loop legal to parallelize.
    stmt.reorder(&k, &j)?;
    let w = TensorVar::new("w", vec![n], Format::dvec());
    stmt.precompute(&mul, &[(j.clone(), j.clone(), j.clone())], &w)?;

    // The legality check in action: before the workspace transformation the
    // reduction variable k cannot be parallelized.
    let mut illegal = IndexStmt::new(stmt.source().clone())?;
    illegal.reorder(&k, &j)?;
    let err = illegal.parallelize(&k).unwrap_err();
    println!("rejected as expected: {err}");

    // Parallelize the outer row loop (apply last: other transforms rebuild
    // the loop nest and would drop the flag).
    let mut par = stmt.clone();
    par.parallelize(&i)?;
    println!("parallel schedule: {par}");

    let bt = random_csr(n, n, 0.1, 11).to_tensor();
    let ct = random_csr(n, n, 0.1, 12).to_tensor();
    let inputs = [("B", &bt), ("C", &ct)];

    let serial_kernel = stmt.compile(LowerOptions::fused("spgemm"))?;
    let t0 = Instant::now();
    let serial = serial_kernel.run(&inputs)?;
    let serial_time = t0.elapsed();

    // Thread count: LowerOptions::with_threads pins it; 0 defers to
    // TACO_THREADS and then the machine. The supervised report says how
    // many workers actually ran.
    let par_kernel = par.compile(LowerOptions::fused("spgemm_par"))?;
    let t0 = Instant::now();
    let (out, report) = par_kernel.run_supervised(&inputs, None, &Supervisor::new())?;
    let par_time = t0.elapsed();

    assert_eq!(serial, out, "parallel result must be byte-identical to serial");
    let bits = |t: &Tensor| t.vals().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&serial), bits(&out), "values must match bitwise");

    println!("byte-identical: yes ({} nonzeros)", out.nnz());
    println!("serial: {serial_time:?}  parallel: {par_time:?}");
    println!("workers: {}", report.progress.workers);
    assert!(report.progress.workers >= 1, "expected at least one worker");

    // The native backend runs the same row ranges through the same
    // dispatcher: the first run is the differential trust check, the second
    // runs the shared object.
    let engine = Engine::builder().backend(Backend::Native).build();
    for _ in 0..2 {
        let native = engine.run(&par, LowerOptions::fused("spgemm_par"), &inputs)?;
        assert_eq!(bits(&serial), bits(&native), "native values must match bitwise");
    }
    let stats = engine.native_stats();
    match (stats.trusted, stats.native_runs) {
        (1, runs) if runs > 0 => println!("native: trusted ({runs} native runs)"),
        _ => println!("native: unavailable ({stats:?})"),
    }
    Ok(())
}
