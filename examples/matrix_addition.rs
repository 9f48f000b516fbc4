//! Sparse matrix addition case study (paper Figure 5 + Section VIII-E):
//! merge kernel vs workspace kernel with result reuse, applied once per
//! operand. The scaling with operand count is Figure 13's bench, `fig13`.
//!
//! ```text
//! cargo run --release --example matrix_addition
//! ```

use taco_workspaces::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 16;
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j) = (IndexVar::new("i"), IndexVar::new("j"));
    let bij: IndexExpr = b.access([i.clone(), j.clone()]).into();
    let cij: IndexExpr = c.access([i.clone(), j.clone()]).into();
    let source = IndexAssignment::assign(a.access([i.clone(), j.clone()]), bij.clone() + cij.clone());

    // Merge kernel (Figure 5a).
    let merge = IndexStmt::new(source.clone())?;
    println!("== merge kernel (Figure 5a) ==\n{}", merge.compile(LowerOptions::fused("add"))?.to_c());

    // Workspace + result reuse (Figure 5b): two precompute applications.
    let mut ws = IndexStmt::new(source.clone())?;
    let w = TensorVar::new("w", vec![n], Format::dvec());
    let sum_expr = bij.clone() + cij.clone();
    ws.precompute(&sum_expr, &[(j.clone(), j.clone(), j.clone())], &w)?;
    ws.precompute(&bij, &[], &w)?; // result reuse -> sequence statement
    println!("concrete: {ws}\n");
    println!("== workspace kernel (Figure 5b) ==\n{}", ws.compile(LowerOptions::fused("add_ws"))?.to_c());

    // Result reuse once per operand: k operands, k accumulations into w.
    let d = TensorVar::new("D", vec![n, n], Format::csr());
    let dij: IndexExpr = d.access([i.clone(), j.clone()]).into();
    let total = bij.clone() + cij.clone() + dij;
    let mut ws3 = IndexStmt::new(IndexAssignment::assign(a.access([i.clone(), j.clone()]), total.clone()))?;
    ws3.precompute(&total, &[(j.clone(), j.clone(), j.clone())], &w)?;
    ws3.precompute(&bij, &[], &w)?;
    ws3.precompute(&cij, &[], &w)?;
    println!("three operands: {ws3}\n");

    // How the two kernels scale with the operand count is Figure 13, timed
    // on compiled native kernels.
    println!("(Figure 13's scaling: cargo run --release -p taco-bench --bin fig13)");
    Ok(())
}
