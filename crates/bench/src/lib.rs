//! Benchmark harness reproducing the evaluation of *Tensor Algebra
//! Compilation with Workspaces* (CGO 2019, Section VIII): Table I and
//! Figures 11, 12 and 13.
//!
//! Run the binaries to regenerate each artifact:
//!
//! ```text
//! cargo run --release -p taco-bench --bin table1
//! cargo run --release -p taco-bench --bin fig11      [-- --scale 0.05]
//! cargo run --release -p taco-bench --bin fig12_left [-- --scale 0.01]
//! cargo run --release -p taco-bench --bin fig12_right
//! cargo run --release -p taco-bench --bin fig13
//! ```
//!
//! The paper's absolute numbers came from compiled C on a dual-socket Xeon
//! against the real SuiteSparse/FROSTT datasets; this harness runs native
//! Rust kernels on synthetic stand-ins (DESIGN.md §5), so only the *shape*
//! of each result — who wins, by roughly what factor, where crossovers
//! fall — is expected to match. `EXPERIMENTS.md` records both.

#![warn(missing_docs)]

pub mod figures;
pub mod timing;
pub mod workloads;

/// Parses `--scale X`, `--rank N` and `--reps N` from argv.
#[derive(Debug, Clone, Copy)]
pub struct BenchArgs {
    /// Dataset scale factor in `(0, 1]`.
    pub scale: f64,
    /// Factorization rank (columns of MTTKRP factor matrices).
    pub rank: usize,
    /// Timing repetitions (minimum is reported).
    pub reps: usize,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs { scale: 0.02, rank: 16, reps: 3 }
    }
}

impl BenchArgs {
    /// Parses command-line arguments, falling back to defaults.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn from_env() -> BenchArgs {
        let mut out = BenchArgs::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut grab = || {
                it.next().unwrap_or_else(|| panic!("missing value after {a}")).parse::<f64>()
                    .unwrap_or_else(|e| panic!("bad value after {a}: {e}"))
            };
            match a.as_str() {
                "--scale" => out.scale = grab(),
                "--rank" => out.rank = grab() as usize,
                "--reps" => out.reps = (grab() as usize).max(1),
                other => panic!("unknown option `{other}` (expected --scale/--rank/--reps)"),
            }
        }
        out
    }
}
