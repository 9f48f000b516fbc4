//! The four workloads, as plain data: which expressions, at which sizes,
//! on which generated operands. `sut.rs` turns a [`CaseSpec`] into the
//! system's own statement and tensor types; nothing here names them.
//!
//! Why these four (the long form is in README.md):
//! * `spgemm-assemble` is the paper's headline kernel (Fig. 2 / Fig. 11);
//!   scatter, append, sort and sparse-result extraction do the work.
//! * `mttkrp-compute` has a dense result (no assembly), the widest
//!   native-vs-interpreter gap, and visible operand-binding cost.
//! * `add-merge` uses the same lowering and executor layers through merge
//!   lattices (while loops, conditionals) and no workspace, so a change
//!   that helps `spgemm-assemble` at its cost shows.
//! * `format-churn` runs 24 tiny statements where kernel run time is
//!   negligible and fingerprinting, caching, bind/extract, the compile
//!   pipeline, the tuner and the serve queue do the work: executor
//!   optimisations should predict **no change** here.

use crate::gen::{Digest, RawCoo3, RawCsr, RawDense, RawOperand, Rng};

pub const WORKLOADS: [&str; 4] = [
    "spgemm-assemble",
    "mttkrp-compute",
    "add-merge",
    "format-churn",
];

/// The seed the committed digests and README numbers were taken with.
pub const DEFAULT_SEED: u64 = 41;

/// Storage of a workspace in the Fig. 2 SpGEMM schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workspace {
    Dense,
    Hash,
    CoordList,
}

/// Format of a sparse matrix operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatFormat {
    Csr,
    Dcsr,
    Coo,
    Csc,
    Dcsc,
    /// 2x2-blocked CSR, stored as a rank-4 tensor.
    Bcsr,
}

impl MatFormat {
    pub fn label(self) -> &'static str {
        match self {
            MatFormat::Csr => "csr",
            MatFormat::Dcsr => "dcsr",
            MatFormat::Coo => "coo",
            MatFormat::Csc => "csc",
            MatFormat::Dcsc => "dcsc",
            MatFormat::Bcsr => "bcsr",
        }
    }
}

/// The expression of one case, with the schedule it is compiled under.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `A(i,j) = Σ_k B(i,k)·C(k,j)`, CSR result, the paper's Fig. 2
    /// schedule (`reorder(k,j)` + `precompute` into a row workspace), fused
    /// assemble+compute, sorted output. Operands `B`, `C`.
    Spgemm {
        n: usize,
        workspace: Workspace,
        b: MatFormat,
        c: MatFormat,
    },
    /// `A(i,j) = Σ_kl B(i,k,l)·C(l,j)·D(k,j)`, CSF tensor × dense factors →
    /// dense, the §VII-C workspace schedule, compute-only. Operands `B`,
    /// `C`, `D`.
    Mttkrp { dims: [usize; 3], rank: usize },
    /// `A = B + C (+ D + E)`, CSR result, **no workspace**: the direct
    /// merge-lattice kernel (Fig. 13), fused assemble+compute. Operands
    /// `B`, `C`[, `D`, `E`], all in `format`.
    Add {
        n: usize,
        operands: usize,
        format: MatFormat,
    },
    /// `a(i) = Σ_j B(i,j)·x(j)`, dense result, compute-only; column-major
    /// formats get their loops reordered to match. Operands `B`, `x`.
    Spmv { n: usize, format: MatFormat },
}

impl Expr {
    /// Whether `taco-kernels` has a hand-written function for it.
    pub fn has_handwritten(&self) -> bool {
        !matches!(self, Expr::Spmv { .. })
    }
}

/// One statement with its generated operands.
#[derive(Debug, Clone)]
pub struct CaseSpec {
    /// Unique within the workload; also the kernel name.
    pub name: String,
    pub expr: Expr,
    /// Operand name → generated data, in binding order. Sparse matrices are
    /// always generated as CSR; `sut.rs` converts to the declared format.
    pub operands: Vec<(&'static str, RawOperand)>,
}

impl CaseSpec {
    /// The generated operand of that name.
    ///
    /// # Panics
    ///
    /// Panics if the case has none: every expression's operands are
    /// generated with it.
    pub fn operand(&self, name: &str) -> &RawOperand {
        let found = self.operands.iter().find(|(n, _)| *n == name);
        &found
            .unwrap_or_else(|| panic!("case {} has no operand {name}", self.name))
            .1
    }

    /// The CSR matrix operand of that name (panics on another kind: the
    /// expression fixes each operand's kind).
    pub fn csr(&self, name: &str) -> &RawCsr {
        match self.operand(name) {
            RawOperand::Csr(m) => m,
            other => panic!(
                "operand {name} of {} is not a CSR matrix: {other:?}",
                self.name
            ),
        }
    }

    /// The dense operand of that name.
    pub fn dense(&self, name: &str) -> &RawDense {
        match self.operand(name) {
            RawOperand::Dense(m) => m,
            other => panic!("operand {name} of {} is not dense: {other:?}", self.name),
        }
    }

    /// The rank-3 sparse operand of that name.
    pub fn coo3(&self, name: &str) -> &RawCoo3 {
        match self.operand(name) {
            RawOperand::Coo3(t) => t,
            other => panic!(
                "operand {name} of {} is not a rank-3 tensor: {other:?}",
                self.name
            ),
        }
    }

    pub fn operand_bytes(&self) -> usize {
        self.operands.iter().map(|(_, o)| o.bytes()).sum()
    }
}

/// Operand sizes of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured sizes.
    Full,
    /// Tiny operands for `--quick` and the tests.
    Quick,
}

/// Everything one epoch needs for a workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Cases the warm and serve metrics run: one large case for the paper
    /// workloads, all 24 for `format-churn`.
    pub warm: Vec<CaseSpec>,
    /// Cases the cold metrics (`cold_tuned_ms`, `cold_native_ms`,
    /// `restart_native_ms`) run: the same expressions on small operands, so
    /// the compile work, not the kernel run, is what is timed.
    pub cold: Vec<CaseSpec>,
    /// Digest over every generated operand, in order.
    pub digest: u64,
}

/// Digests of the generated operands for [`DEFAULT_SEED`] at full scale.
/// A change here means the inputs changed and every committed number is
/// void.
pub const PINNED_DIGESTS: [(&str, u64); 4] = [
    ("spgemm-assemble", 0x6802_b985_99c8_a2f2),
    ("mttkrp-compute", 0x28d7_0d0c_940f_ebf6),
    ("add-merge", 0x5595_8d39_8e39_db6f),
    ("format-churn", 0xe7d6_b5c4_2c86_ed9b),
];

pub fn pinned_digest(workload: &str) -> Option<u64> {
    PINNED_DIGESTS
        .iter()
        .find(|(n, _)| *n == workload)
        .map(|(_, d)| *d)
}

fn csr(nrows: usize, ncols: usize, per_row: usize, rng: &mut Rng) -> RawOperand {
    RawOperand::Csr(RawCsr::fixed_rows(nrows, ncols, per_row, rng))
}

fn spgemm_case(name: &str, n: usize, per_row: usize, rng: &mut Rng) -> CaseSpec {
    CaseSpec {
        name: name.to_string(),
        expr: Expr::Spgemm {
            n,
            workspace: Workspace::Dense,
            b: MatFormat::Csr,
            c: MatFormat::Csr,
        },
        operands: vec![
            ("B", csr(n, n, per_row, rng)),
            ("C", csr(n, n, per_row, rng)),
        ],
    }
}

fn mttkrp_case(name: &str, dim: usize, fibers: usize, rank: usize, rng: &mut Rng) -> CaseSpec {
    let dims = [dim, dim, dim];
    CaseSpec {
        name: name.to_string(),
        expr: Expr::Mttkrp { dims, rank },
        operands: vec![
            (
                "B",
                RawOperand::Coo3(RawCoo3::fibered(dims, fibers, 4, rng)),
            ),
            ("C", RawOperand::Dense(RawDense::random(dim, rank, rng))),
            ("D", RawOperand::Dense(RawDense::random(dim, rank, rng))),
        ],
    }
}

fn add_case(
    name: &str,
    n: usize,
    operands: usize,
    per_row: usize,
    format: MatFormat,
    rng: &mut Rng,
) -> CaseSpec {
    const NAMES: [&str; 4] = ["B", "C", "D", "E"];
    CaseSpec {
        name: name.to_string(),
        expr: Expr::Add {
            n,
            operands,
            format,
        },
        operands: NAMES[..operands]
            .iter()
            .map(|&nm| (nm, csr(n, n, per_row, rng)))
            .collect(),
    }
}

fn spmv_case(name: &str, n: usize, per_row: usize, format: MatFormat, rng: &mut Rng) -> CaseSpec {
    CaseSpec {
        name: name.to_string(),
        expr: Expr::Spmv { n, format },
        operands: vec![
            ("B", csr(n, n, per_row, rng)),
            ("x", RawOperand::Dense(RawDense::random(n, 1, rng))),
        ],
    }
}

/// The 24 statements of `format-churn`: at each of two dimension sets, SpMV
/// over all six formats, a CSR and a DCSR two-operand addition, the Fig. 2
/// SpGEMM under each workspace storage, and a fourth DCSR×DCSR SpGEMM. The
/// *kinds* are fixed so every seed compiles and runs the same mix (a free
/// draw would make `cold_compile_ms` differ by seed more than its bound);
/// the seed draws the operand data, the format of each SpGEMM's `C` (CSR or
/// DCSR), the workspace storage of the fourth SpGEMM, and the order.
fn churn_cases(scale: Scale, rng: &mut Rng) -> Vec<CaseSpec> {
    let dim_sets: [(usize, usize); 2] = match scale {
        Scale::Full => [(192, 4), (256, 6)],
        Scale::Quick => [(24, 3), (32, 4)],
    };
    const SPMV: [MatFormat; 6] = [
        MatFormat::Csr,
        MatFormat::Dcsr,
        MatFormat::Coo,
        MatFormat::Csc,
        MatFormat::Dcsc,
        MatFormat::Bcsr,
    ];
    let mut cases = Vec::with_capacity(24);
    for (n, per_row) in dim_sets {
        for format in SPMV {
            cases.push(spmv_case(
                &format!("spmv_{}_{n}", format.label()),
                n,
                per_row,
                format,
                rng,
            ));
        }
        for format in [MatFormat::Csr, MatFormat::Dcsr] {
            cases.push(add_case(
                &format!("add2_{}_{n}", format.label()),
                n,
                2,
                per_row,
                format,
                rng,
            ));
        }
        let mut kinds = vec![
            ("dense", Workspace::Dense),
            ("hash", Workspace::Hash),
            ("coord", Workspace::CoordList),
        ];
        // The fourth SpGEMM repeats one workspace storage, chosen by seed,
        // and is kept distinct by its operand formats.
        kinds.push(kinds[rng.below(3)]);
        for (idx, (label, workspace)) in kinds.into_iter().enumerate() {
            let (b, c) = if idx < 3 {
                (MatFormat::Csr, MatFormat::Csr)
            } else {
                (MatFormat::Dcsr, MatFormat::Csr)
            };
            let mut case = spgemm_case(
                &format!("spgemm_{label}_{}{}_{n}", b.label(), c.label()),
                n,
                per_row.min(3),
                rng,
            );
            case.expr = Expr::Spgemm { n, workspace, b, c };
            cases.push(case);
        }
    }
    rng.shuffle(&mut cases);
    cases
}

/// The `k`-th variant of a case for `native.cold_growth`: the same
/// expression at a slightly larger dimension, which is a distinct kernel
/// (dimensions are part of a kernel's fingerprint).
pub fn resized(base: &CaseSpec, k: usize) -> CaseSpec {
    let mut rng = Rng::new(0x6772_6f77_7468, k as u64);
    let name = format!("{}_g{k}", base.name);
    match &base.expr {
        Expr::Spgemm { n, workspace, b, c } => {
            let mut case = spgemm_case(&name, n + 2 * k, 3, &mut rng);
            case.expr = Expr::Spgemm {
                n: n + 2 * k,
                workspace: *workspace,
                b: *b,
                c: *c,
            };
            case
        }
        Expr::Mttkrp { dims, rank } => mttkrp_case(&name, dims[0] + k, 40, *rank, &mut rng),
        Expr::Add {
            n,
            operands,
            format,
        } => add_case(&name, n + 2 * k, *operands, 3, *format, &mut rng),
        Expr::Spmv { n, format } => spmv_case(&name, n + 2 * k, 3, *format, &mut rng),
    }
}

/// Generates a workload's cases from the seed.
///
/// # Panics
///
/// Panics on an unknown workload name (the command line is checked before).
pub fn build(name: &str, seed: u64, scale: Scale) -> Workload {
    // One stream per workload, so adding a workload never shifts another's
    // operands.
    let salt = WORKLOADS
        .iter()
        .position(|w| *w == name)
        .expect("known workload") as u64;
    let mut rng = Rng::new(seed, salt);
    let full = scale == Scale::Full;
    let (warm, cold) = match name {
        "spgemm-assemble" => {
            let (n, small) = if full { (512, 128) } else { (64, 24) };
            (
                vec![spgemm_case("spgemm", n, if full { 8 } else { 4 }, &mut rng)],
                vec![spgemm_case(
                    "spgemm_small",
                    small,
                    if full { 8 } else { 3 },
                    &mut rng,
                )],
            )
        }
        "mttkrp-compute" => {
            let (dim, fibers, small, small_fibers) = if full {
                (256, 7500, 16, 120)
            } else {
                (24, 60, 12, 20)
            };
            (
                vec![mttkrp_case("mttkrp", dim, fibers, 16, &mut rng)],
                vec![mttkrp_case(
                    "mttkrp_small",
                    small,
                    small_fibers,
                    16,
                    &mut rng,
                )],
            )
        }
        "add-merge" => {
            let (n, small) = if full { (2048, 128) } else { (96, 32) };
            (
                vec![add_case(
                    "add3",
                    n,
                    3,
                    if full { 6 } else { 3 },
                    MatFormat::Csr,
                    &mut rng,
                )],
                vec![add_case(
                    "add3_small",
                    small,
                    3,
                    if full { 6 } else { 3 },
                    MatFormat::Csr,
                    &mut rng,
                )],
            )
        }
        "format-churn" => {
            let warm = churn_cases(scale, &mut rng);
            // Two statements stand for the cold metrics, which cost a tuner
            // search or a C compile each: the cheapest kind (CSR SpMV) and
            // the dearest (the dense-workspace CSR SpGEMM), at the larger
            // dimension set whatever the order.
            let pick = |pred: &dyn Fn(&Expr) -> bool| {
                warm.iter()
                    .filter(|c| pred(&c.expr))
                    .max_by_key(|c| c.operand_bytes())
                    .expect("kind present")
                    .clone()
            };
            let cold = vec![
                pick(&|e| {
                    matches!(
                        e,
                        Expr::Spmv {
                            format: MatFormat::Csr,
                            ..
                        }
                    )
                }),
                pick(&|e| {
                    matches!(
                        e,
                        Expr::Spgemm {
                            workspace: Workspace::Dense,
                            b: MatFormat::Csr,
                            c: MatFormat::Csr,
                            ..
                        }
                    )
                }),
            ];
            (warm, cold)
        }
        other => panic!("unknown workload `{other}`"),
    };
    let mut d = Digest::default();
    for case in warm.iter().chain(&cold) {
        for (_, op) in &case.operands {
            op.digest_into(&mut d);
        }
    }
    Workload {
        name: WORKLOADS[salt as usize],
        warm,
        cold,
        digest: d.finish(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_has_24_distinct_statements_with_a_fixed_mix() {
        for seed in [41, 97, 5] {
            let w = build("format-churn", seed, Scale::Quick);
            assert_eq!(w.warm.len(), 24);
            let mut names: Vec<&str> = w.warm.iter().map(|c| c.name.as_str()).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), 24, "seed {seed}: statement names are distinct");
            let count = |f: &dyn Fn(&Expr) -> bool| w.warm.iter().filter(|c| f(&c.expr)).count();
            assert_eq!(count(&|e| matches!(e, Expr::Spmv { .. })), 12);
            assert_eq!(count(&|e| matches!(e, Expr::Add { .. })), 4);
            assert_eq!(count(&|e| matches!(e, Expr::Spgemm { .. })), 8);
            assert_eq!(w.cold.len(), 2);
        }
    }

    #[test]
    fn default_seed_operands_match_the_pinned_digests() {
        let generated: Vec<(&str, u64)> = WORKLOADS
            .iter()
            .map(|name| (*name, build(name, DEFAULT_SEED, Scale::Full).digest))
            .collect();
        assert_eq!(
            generated, PINNED_DIGESTS,
            "generated operands changed; every committed number is void (digests: {generated:#018x?})"
        );
    }

    #[test]
    fn same_seed_same_digest_and_other_seed_other_digest() {
        for name in WORKLOADS {
            let a = build(name, 41, Scale::Quick);
            let b = build(name, 41, Scale::Quick);
            let c = build(name, 42, Scale::Quick);
            assert_eq!(a.digest, b.digest, "{name}");
            assert_ne!(a.digest, c.digest, "{name}");
        }
    }
}
