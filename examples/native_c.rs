//! The C the native backend actually compiles, for the paper's three
//! kernels: the Fig. 2 workspace SpGEMM, the Sec. VII workspace MTTKRP and
//! the Fig. 13 three-way merge addition.
//!
//! `Kernel::to_c()` prints the *display* dialect (paper-style listings);
//! this prints what `cc` sees — the `taco_kernel_entry` translation unit
//! of `taco_llir::emit_native`, with the shared `taco_kernel.h` prelude
//! elided.
//!
//! ```text
//! cargo run --example native_c            # all three
//! cargo run --example native_c -- mttkrp  # one of: spgemm mttkrp add3
//! ```

use taco_llir::{emit_native, TACO_KERNEL_H};
use taco_workspaces::prelude::*;

fn iv(name: &str) -> IndexVar {
    IndexVar::new(name)
}

/// Fig. 2: `A(i,j) = Σ_k B(i,k)·C(k,j)`, all CSR, dense row workspace,
/// fused assemble + compute.
fn spgemm(n: usize) -> Result<CompiledKernel, CoreError> {
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j, k) = (iv("i"), iv("j"), iv("k"));
    let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
    let mut stmt = IndexStmt::new(IndexAssignment::assign(
        a.access([i, j.clone()]),
        sum(k.clone(), mul.clone()),
    ))?;
    stmt.reorder(&k, &j)?;
    let w = TensorVar::new("w", vec![n], Format::dvec());
    stmt.precompute(&mul, &[(j.clone(), j.clone(), j)], &w)?;
    stmt.compile(LowerOptions::fused("spgemm"))
}

/// Sec. VII: `A(i,j) = Σ_kl B(i,k,l)·C(l,j)·D(k,j)`, CSF × dense → dense,
/// `B·C` precomputed into a rank-length workspace, compute only.
fn mttkrp(dim: usize, rank: usize) -> Result<CompiledKernel, CoreError> {
    let a = TensorVar::new("A", vec![dim, rank], Format::dense(2));
    let b = TensorVar::new("B", vec![dim, dim, dim], Format::csf3());
    let c = TensorVar::new("C", vec![dim, rank], Format::dense(2));
    let d = TensorVar::new("D", vec![dim, rank], Format::dense(2));
    let (i, j, k, l) = (iv("i"), iv("j"), iv("k"), iv("l"));
    let bc = b.access([i.clone(), k.clone(), l.clone()]) * c.access([l.clone(), j.clone()]);
    let mut stmt = IndexStmt::new(IndexAssignment::assign(
        a.access([i, j.clone()]),
        sum(k.clone(), sum(l.clone(), bc.clone() * d.access([k.clone(), j.clone()]))),
    ))?;
    stmt.reorder(&j, &k)?;
    stmt.reorder(&j, &l)?;
    let w = TensorVar::new("w", vec![rank], Format::dvec());
    stmt.precompute(&bc, &[(j.clone(), j.clone(), j)], &w)?;
    stmt.compile(LowerOptions::compute("mttkrp"))
}

/// Fig. 13: `A = B + C + D`, all CSR, no workspace: the direct three-way
/// merge, fused assemble + compute.
fn add3(n: usize) -> Result<CompiledKernel, CoreError> {
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let (i, j) = (iv("i"), iv("j"));
    let operand = |name: &str| -> IndexExpr {
        TensorVar::new(name, vec![n, n], Format::csr()).access([i.clone(), j.clone()]).into()
    };
    let stmt = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        operand("B") + operand("C") + operand("D"),
    ))?;
    stmt.compile(LowerOptions::fused("add3"))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let only = std::env::args().nth(1);
    let kernels = [("spgemm", spgemm(512)?), ("mttkrp", mttkrp(256, 16)?), ("add3", add3(2048)?)];
    for (name, kernel) in &kernels {
        if only.as_deref().is_some_and(|want| want != *name) {
            continue;
        }
        let tu = emit_native(kernel.executable())?.c_source;
        let body = tu.split_once(TACO_KERNEL_H).map_or(tu.as_str(), |(_, body)| body);
        println!("/* ===== {name}: native translation unit (taco_kernel.h elided) ===== */");
        println!("{}", body.trim_start());
    }
    Ok(())
}
