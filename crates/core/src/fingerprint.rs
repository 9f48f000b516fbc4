//! Canonical kernel fingerprinting.
//!
//! A [`CompiledKernel`](crate::CompiledKernel) is identified by a stable
//! 64-bit structural hash over everything that determines the generated
//! code: the concrete index statement (which embeds every applied schedule
//! transform and the name/shape/format signature of every operand, result
//! and workspace), the [`LowerOptions`] that steer lowering, and the
//! [`ResourceBudget`] class the kernel is compiled under (a budget change
//! can flip the compile-time workspace fallback, producing a different
//! kernel from the same statement).
//!
//! The hash is FNV-1a — deterministic across processes and platforms, unlike
//! `std`'s randomized `SipHash` — so fingerprints are usable as persistent
//! cache keys and in machine-readable benchmark output. The human-readable
//! kernel *name* in [`LowerOptions::name`] is deliberately excluded: two
//! compilations that differ only in what the caller called them produce the
//! same code and must share a cache slot.

use taco_ir::concrete::{AssignOp, ConcreteStmt};
use taco_ir::expr::{Access, IndexExpr};
use taco_llir::ResourceBudget;
use taco_lower::{KernelKind, LowerOptions};
use taco_tensor::LevelType;

/// A stable 64-bit FNV-1a accumulator.
///
/// Kept minimal on purpose: `write` plus typed helpers, no `std::hash`
/// integration, so nothing can accidentally route through a randomized
/// hasher state.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(FNV_OFFSET)
    }
}

impl Fnv64 {
    /// A fresh accumulator at the FNV offset basis.
    pub fn new() -> Fnv64 {
        Fnv64::default()
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write(&v.to_le_bytes())
    }

    /// Absorbs one tag byte (used to separate structural cases so that,
    /// e.g., two adjacent strings cannot collide with one longer string).
    pub fn write_tag(&mut self, tag: u8) -> &mut Self {
        self.write(&[tag])
    }

    /// Absorbs a length-prefixed string.
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64).write(s.as_bytes())
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Computes the canonical fingerprint of a compilation request: concrete
/// statement (schedule + operand signature) × lowering options × budget
/// class.
///
/// This is what [`CompiledKernel::fingerprint`](crate::CompiledKernel::fingerprint)
/// returns, and what the runtime engine uses as its cache key *before*
/// compiling, so a cache hit skips the whole Figure 6 pipeline.
pub fn fingerprint(stmt: &ConcreteStmt, opts: &LowerOptions, budget: &ResourceBudget) -> u64 {
    let mut h = Fnv64::new();
    hash_stmt(&mut h, stmt);
    hash_opts(&mut h, opts);
    hash_budget(&mut h, budget);
    h.finish()
}

/// Fingerprints a concrete statement alone — schedule and operand signature
/// without lowering options or budget. The autotuner keys decisions by the
/// fingerprint of the unscheduled expression.
pub fn fingerprint_stmt(stmt: &ConcreteStmt) -> u64 {
    let mut h = Fnv64::new();
    hash_stmt(&mut h, stmt);
    h.finish()
}

/// Fingerprints a lowered kernel structurally: parameter signature plus the
/// whole body, nested bodies included (its derived `Debug` rendering, which
/// spells every field of every statement and brackets every body, so distinct
/// trees render distinctly), and a parallel kernel's row ranges. The function
/// name is excluded: two lowerings that differ only in what they were called
/// must collide. The candidate enumerator uses this to recognize schedules
/// that are distinct at the concrete level but lower to identical code — e.g.
/// reorders of loops co-iterated anyway.
pub fn fingerprint_kernel(kernel: &taco_llir::Kernel) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(kernel.scalar_params.len() as u64);
    for p in &kernel.scalar_params {
        h.write_str(p);
    }
    h.write_u64(kernel.array_params.len() as u64);
    for p in &kernel.array_params {
        h.write_str(&p.name);
        h.write_str(&format!("{:?}/{:?}", p.ty, p.kind));
    }
    h.write_u64(kernel.scalar_outputs.len() as u64);
    for s in &kernel.scalar_outputs {
        h.write_str(s);
    }
    h.write_str(&format!("{:?}", kernel.body));
    // A serial kernel hashes as it always has.
    if let Some(rows) = &kernel.rows {
        h.write_str(&format!("{rows:?}"));
    }
    h.finish()
}

fn hash_stmt(h: &mut Fnv64, stmt: &ConcreteStmt) {
    match stmt {
        ConcreteStmt::Assign { lhs, op, rhs } => {
            h.write_tag(1);
            hash_access(h, lhs);
            h.write_tag(match op {
                AssignOp::Assign => 0,
                AssignOp::Accum => 1,
            });
            hash_expr(h, rhs);
        }
        ConcreteStmt::Forall { var, body, parallel } => {
            h.write_tag(2).write_str(var.name());
            h.write_tag(*parallel as u8);
            hash_stmt(h, body);
        }
        ConcreteStmt::Where { consumer, producer } => {
            h.write_tag(3);
            hash_stmt(h, consumer);
            hash_stmt(h, producer);
        }
        ConcreteStmt::Sequence { first, second } => {
            h.write_tag(4);
            hash_stmt(h, first);
            hash_stmt(h, second);
        }
    }
}

fn hash_expr(h: &mut Fnv64, expr: &IndexExpr) {
    match expr {
        IndexExpr::Access(a) => {
            h.write_tag(10);
            hash_access(h, a);
        }
        IndexExpr::Literal(v) => {
            h.write_tag(11).write_u64(v.to_bits());
        }
        IndexExpr::Neg(e) => {
            h.write_tag(12);
            hash_expr(h, e);
        }
        IndexExpr::Add(a, b) => {
            h.write_tag(13);
            hash_expr(h, a);
            hash_expr(h, b);
        }
        IndexExpr::Sub(a, b) => {
            h.write_tag(14);
            hash_expr(h, a);
            hash_expr(h, b);
        }
        IndexExpr::Mul(a, b) => {
            h.write_tag(15);
            hash_expr(h, a);
            hash_expr(h, b);
        }
        IndexExpr::Sum(v, e) => {
            h.write_tag(16).write_str(v.name());
            hash_expr(h, e);
        }
    }
}

/// An access contributes the full operand signature: tensor name, dense
/// dimensions, per-mode storage formats, and the index variables it is
/// accessed with.
fn hash_access(h: &mut Fnv64, access: &Access) {
    let t = access.tensor();
    h.write_str(t.name());
    h.write_u64(t.rank() as u64);
    for &d in t.shape() {
        h.write_u64(d as u64);
    }
    for &m in t.format().modes() {
        h.write_tag(match m {
            LevelType::Dense => 0,
            LevelType::Compressed => 1,
            LevelType::Singleton => 2,
            LevelType::Hashed => 3,
        });
    }
    // The mode order is part of the format's identity: CSR and CSC share a
    // level-type chain but generate different kernels.
    for &m in t.format().mode_order() {
        h.write_u64(m as u64);
    }
    h.write_u64(access.vars().len() as u64);
    for v in access.vars() {
        h.write_str(v.name());
    }
}

fn hash_opts(h: &mut Fnv64, opts: &LowerOptions) {
    // LowerOptions::name is excluded: it only labels the generated function.
    h.write_tag(match opts.kind {
        KernelKind::Compute => 0,
        KernelKind::Assemble => 1,
        KernelKind::Fused => 2,
    });
    h.write_tag(opts.f32_workspaces as u8);
    // The workspace storage backend changes the lowered idiom entirely
    // (array scatter/drain vs. map scatter/sorted drain).
    h.write_tag(match opts.workspace_kind {
        taco_llir::WorkspaceKind::Dense => 0,
        taco_llir::WorkspaceKind::Hash => 1,
        taco_llir::WorkspaceKind::CoordList => 2,
    });
    // A pinned worker-thread count changes the generated parallel loop (it
    // is baked into the kernel), so it is part of the kernel's identity.
    // The statement's own parallel flags are hashed with the statement.
    match opts.num_threads {
        Some(n) => h.write_tag(1).write_u64(n as u64),
        None => h.write_tag(0),
    };
}

fn hash_budget(h: &mut Fnv64, budget: &ResourceBudget) {
    for limit in [
        budget.max_workspace_bytes,
        budget.max_total_bytes,
        budget.max_loop_iterations,
    ] {
        match limit {
            Some(v) => h.write_tag(1).write_u64(v),
            None => h.write_tag(0),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_ir::concretize::concretize;
    use taco_ir::expr::{sum, IndexVar, TensorVar};
    use taco_ir::notation::IndexAssignment;
    use taco_tensor::Format;

    fn spgemm(fmt: Format) -> ConcreteStmt {
        spgemm_into(fmt.clone(), fmt)
    }

    fn spgemm_into(result: Format, fmt: Format) -> ConcreteStmt {
        let n = 16;
        let a = TensorVar::new("A", vec![n, n], result);
        let b = TensorVar::new("B", vec![n, n], fmt.clone());
        let c = TensorVar::new("C", vec![n, n], fmt);
        let (i, j, k) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"));
        concretize(&IndexAssignment::assign(
            a.access([i.clone(), j.clone()]),
            sum(k.clone(), b.access([i, k.clone()]) * c.access([k, j])),
        ))
        .unwrap()
    }

    #[test]
    fn deterministic_and_name_insensitive() {
        let s = spgemm(Format::csr());
        let b = ResourceBudget::unlimited();
        let f1 = fingerprint(&s, &LowerOptions::fused("first"), &b);
        let f2 = fingerprint(&s, &LowerOptions::fused("second"), &b);
        assert_eq!(f1, f2, "the kernel name must not affect identity");
        assert_eq!(f1, fingerprint(&s.clone(), &LowerOptions::fused("x"), &b));
    }

    #[test]
    fn formats_schedules_options_and_budgets_distinguish() {
        let b = ResourceBudget::unlimited();
        let opts = LowerOptions::fused("k");
        let csr = fingerprint(&spgemm(Format::csr()), &opts, &b);
        assert_ne!(csr, fingerprint(&spgemm(Format::dcsr()), &opts, &b), "format signature");
        let dh = Format::new(vec![LevelType::Dense, LevelType::Hashed]);
        assert_ne!(csr, fingerprint(&spgemm_into(dh, Format::csr()), &opts, &b), "result order");
        let assemble = LowerOptions::assemble("k");
        assert_ne!(csr, fingerprint(&spgemm(Format::csr()), &assemble, &b), "lower options");
        assert_ne!(
            csr,
            fingerprint(
                &spgemm(Format::csr()),
                &opts,
                &ResourceBudget::unlimited().with_max_workspace_bytes(1 << 20)
            ),
            "budget class"
        );
        let s = spgemm(Format::csr());
        let reordered =
            taco_ir::transform::reorder(&s, &IndexVar::new("k"), &IndexVar::new("j")).unwrap();
        assert_ne!(csr, fingerprint(&reordered, &opts, &b), "applied schedule");
    }
}
