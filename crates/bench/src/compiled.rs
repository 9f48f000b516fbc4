//! The compiled side of every figure: the paper's kernels as scheduled index
//! statements, and a [`Harness`] that has the engine compile them and run
//! them natively.
//!
//! A kernel's first run is not timed. It is where the engine lowers the
//! statement, `cc` builds the shared object, and the differential trust run
//! checks the native build against the interpreter (and hands back the
//! interpreter's result, which the trust run has shown to be the native
//! one). [`Harness::trusted`] refuses to go on unless every kernel passed;
//! [`Harness::time`] then times warm runs only, each one operands in, result
//! tensor out — the span a baseline call covers.

use crate::timing::time_best;
use std::cell::Cell;
use std::time::{Duration, Instant};
use taco_core::{IndexStmt, Supervisor};
use taco_ir::expr::{sum, IndexExpr, IndexVar, TensorVar};
use taco_ir::notation::IndexAssignment;
use taco_kernels::mttkrp::DenseMat;
use taco_lower::LowerOptions;
use taco_runtime::{Backend, Engine, EngineEvent, NativeStats};
use taco_tensor::{Csr, Format, LevelType, Tensor};

/// A scheduled statement and how it is lowered: one compiled kernel.
#[derive(Debug, Clone)]
pub struct Kernel {
    stmt: IndexStmt,
    opts: LowerOptions,
}

fn iv(name: &str) -> IndexVar {
    IndexVar::new(name)
}

/// The Fig. 2 SpGEMM `A = B·C` over CSR operands: `reorder(k, j)` to linear
/// combinations of rows, then `B·C` precomputed into a dense row workspace.
/// Fused assembly into a CSR result (`sorted`) or a `(d,h)` one, whose rows
/// stay in scatter order.
pub fn spgemm(m: usize, k: usize, n: usize, sorted: bool) -> Kernel {
    let rows = if sorted { LevelType::Compressed } else { LevelType::Hashed };
    let a = TensorVar::new("A", vec![m, n], Format::new(vec![LevelType::Dense, rows]));
    let b = TensorVar::new("B", vec![m, k], Format::csr());
    let c = TensorVar::new("C", vec![k, n], Format::csr());
    let (i, j, kv) = (iv("i"), iv("j"), iv("k"));
    let mul = b.access([i.clone(), kv.clone()]) * c.access([kv.clone(), j.clone()]);
    let source = IndexAssignment::assign(a.access([i, j.clone()]), sum(kv.clone(), mul.clone()));
    let mut stmt = IndexStmt::new(source).expect("SpGEMM is a valid statement");
    stmt.reorder(&kv, &j).expect("SpGEMM reorders to rows");
    let w = TensorVar::new("w", vec![n], Format::dvec());
    stmt.precompute(&mul, &[(j.clone(), j.clone(), j)], &w).expect("SpGEMM workspace");
    Kernel { stmt, opts: LowerOptions::fused("spgemm") }
}

/// Which MTTKRP schedule to build ([`mttkrp`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mttkrp {
    /// `reorder(j, k), reorder(j, l)`: everything in the innermost loop.
    Merge,
    /// `B·C` precomputed into a rank-length workspace (Fig. 9, green).
    Workspace,
    /// Both workspaces of Fig. 10, over CSR factors into a CSR result.
    Sparse,
}

/// `A(i,j) = Σ_kl B(i,k,l)·C(l,j)·D(k,j)` over a CSF tensor `B` of shape
/// `[di, dk, dl]` and rank-`rank` factors, scheduled as `schedule` says.
/// The dense forms compute into a dense result; the sparse form assembles
/// its CSR result fused.
pub fn mttkrp(dims: [usize; 3], rank: usize, schedule: Mttkrp) -> Kernel {
    let [di, dk, dl] = dims;
    let fmt = if schedule == Mttkrp::Sparse { Format::csr() } else { Format::dense(2) };
    let a = TensorVar::new("A", vec![di, rank], fmt.clone());
    let b = TensorVar::new("B", vec![di, dk, dl], Format::csf3());
    let c = TensorVar::new("C", vec![dl, rank], fmt.clone());
    let d = TensorVar::new("D", vec![dk, rank], fmt);
    let (i, j, k, l) = (iv("i"), iv("j"), iv("k"), iv("l"));
    let bc = b.access([i.clone(), k.clone(), l.clone()]) * c.access([l.clone(), j.clone()]);
    let source = IndexAssignment::assign(
        a.access([i, j.clone()]),
        sum(k.clone(), sum(l.clone(), bc.clone() * d.access([k.clone(), j.clone()]))),
    );
    let mut stmt = IndexStmt::new(source).expect("MTTKRP is a valid statement");
    stmt.reorder(&j, &k).expect("MTTKRP reorders j inward");
    stmt.reorder(&j, &l).expect("MTTKRP reorders j inward");
    let split = [(j.clone(), j.clone(), j.clone())];
    if schedule != Mttkrp::Merge {
        let w = TensorVar::new("w", vec![rank], Format::dvec());
        stmt.precompute(&bc, &split, &w).expect("MTTKRP workspace");
        if schedule == Mttkrp::Sparse {
            let wd = IndexExpr::from(w.access([j.clone()])) * d.access([k, j]);
            let v = TensorVar::new("v", vec![rank], Format::dvec());
            stmt.precompute(&wd, &split, &v).expect("MTTKRP second workspace");
            return Kernel { stmt, opts: LowerOptions::fused("mttkrp_fig10") };
        }
    }
    Kernel { stmt, opts: LowerOptions::compute("mttkrp") }
}

/// The names of an `operands`-way addition's operands, `B0`, `B1`, ….
pub fn operand_names(operands: usize) -> Vec<String> {
    (0..operands).map(|x| format!("B{x}")).collect()
}

/// `A = B0 + … + B{operands-1}` over `n × n` CSR matrices, lowered with
/// `opts`. Without a workspace it is the k-way merge taco generates. With
/// one, the sum is precomputed into a row workspace and result reuse is
/// applied once per operand (Fig. 13's workspace kernel):
/// `∀i ((∀j A(i,j) = w(j)) where (∀j w(j) = B0(i,j) ; ∀j w(j) += B1(i,j) ; …))`.
pub fn add(n: usize, operands: usize, workspace: bool, opts: LowerOptions) -> Kernel {
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let (i, j) = (iv("i"), iv("j"));
    let ops: Vec<IndexExpr> = operand_names(operands)
        .into_iter()
        .map(|name| {
            TensorVar::new(name, vec![n, n], Format::csr()).access([i.clone(), j.clone()]).into()
        })
        .collect();
    let total = IndexExpr::sum_of(ops.clone());
    let source = IndexAssignment::assign(a.access([i, j.clone()]), total.clone());
    let mut stmt = IndexStmt::new(source).expect("addition is a valid statement");
    if workspace {
        let w = TensorVar::new("w", vec![n], Format::dvec());
        stmt.precompute(&total, &[(j.clone(), j.clone(), j)], &w).expect("addition workspace");
        for op in &ops[..operands - 1] {
            stmt.precompute(op, &[], &w).expect("result reuse");
        }
    }
    Kernel { stmt, opts }
}

/// Binds `tensors` to the operands [`operand_names`] gives them.
pub fn operands<'a>(names: &'a [String], tensors: &[&'a Tensor]) -> Vec<(&'a str, &'a Tensor)> {
    names.iter().map(String::as_str).zip(tensors.iter().copied()).collect()
}

/// What getting a figure's kernels ready cost, off the clock.
#[derive(Debug, Clone)]
pub struct Setup {
    /// The native backend's counters after every kernel's first run.
    pub native: NativeStats,
    /// Wall time of the C compiler runs.
    pub cc: Duration,
    /// Shared objects loaded from the on-disk artifact cache, no `cc` run.
    pub cached: usize,
    /// Wall time of the first runs: front half, `cc` and the trust run.
    pub first_runs: Duration,
}

impl std::fmt::Display for Setup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.native;
        write!(
            f,
            "{} kernels compiled ({} from the artifact cache), {} trusted, {} rejected; \
             cc {:.2} s, first runs {:.2} s in all",
            n.compiled,
            self.cached,
            n.trusted,
            n.rejected,
            self.cc.as_secs_f64(),
            self.first_runs.as_secs_f64()
        )
    }
}

/// One engine on the native backend. Runs before [`Harness::trusted`] are
/// first runs, off the clock; runs after it are what [`Harness::time`]
/// times.
#[derive(Debug)]
pub struct Harness {
    engine: Engine,
    /// Wall time of the runs made before [`Harness::trusted`].
    first_runs: Cell<Duration>,
    trusted: Cell<bool>,
}

impl Default for Harness {
    fn default() -> Self {
        Harness::new()
    }
}

impl Harness {
    /// A fresh engine pinned to [`Backend::Native`].
    pub fn new() -> Harness {
        Harness {
            engine: Engine::builder().backend(Backend::Native).build(),
            first_runs: Cell::new(Duration::ZERO),
            trusted: Cell::new(false),
        }
    }

    /// Runs `kernel` on `inputs`: operands in, result tensor out.
    /// `structure` is the assembled result a `compute` kernel writes into.
    /// A kernel's first run is where the engine compiles it, `cc` builds it,
    /// and the differential trust run checks the native build against the
    /// interpreter; make it before [`Harness::trusted`].
    ///
    /// # Panics
    ///
    /// If the engine fails to compile or run the kernel.
    pub fn run(
        &self,
        kernel: &Kernel,
        inputs: &[(&str, &Tensor)],
        structure: Option<&Tensor>,
    ) -> Tensor {
        let start = Instant::now();
        let Kernel { stmt, opts } = kernel;
        // `Engine::run` takes no result structure; the supervised entry does,
        // and adds a copy of the result's values array (its rollback
        // snapshot) to the span.
        let out = match structure {
            None => self.engine.run(stmt, opts.clone(), inputs),
            Some(s) => self
                .engine
                .run_supervised(stmt, opts.clone(), &Supervisor::new(), inputs, Some(s))
                .map(|run| run.result),
        };
        if !self.trusted.get() {
            self.first_runs.set(self.first_runs.get() + start.elapsed());
        }
        out.unwrap_or_else(|e| panic!("kernel `{}` failed: {e}", opts.name))
    }

    /// Ends the first runs: prints the figure's `native:` line, what they
    /// cost, before anything is timed.
    ///
    /// # Panics
    ///
    /// Unless every kernel run so far was built and trusted: a refused
    /// kernel runs on the interpreter, and the figure would time that.
    pub fn trusted(&self) -> Setup {
        let native = self.engine.native_stats();
        let (mut cc, mut cached) = (Duration::ZERO, 0);
        for event in self.engine.last_events() {
            if let EngineEvent::NativeCompiled { compile_nanos, .. } = event {
                cc += Duration::from_nanos(compile_nanos);
                cached += usize::from(compile_nanos == 0);
            }
        }
        let setup = Setup { native, cc, cached, first_runs: self.first_runs.get() };
        println!("native: {setup}");
        assert!(
            native.compiled > 0
                && native.trusted == native.compiled
                && native.rejected == 0
                && native.unavailable == 0,
            "a kernel did not run natively ({:?}); refusing to time the interpreter",
            self.engine.last_events()
        );
        self.trusted.set(true);
        setup
    }

    /// Best-of-`reps` warm time of `f`, which runs trusted kernels.
    ///
    /// # Panics
    ///
    /// Before [`Harness::trusted`], if `f` compiled anything, or if it ran
    /// no native kernel: every timed run is a warm native run.
    pub fn time<R>(&self, reps: usize, f: impl FnMut() -> R) -> (Duration, R) {
        assert!(self.trusted.get(), "timing before the kernels were trusted");
        let counts = |h: &Harness| {
            let n = h.engine.native_stats();
            (h.engine.cache_stats().compiles, n.compiled, n.trusted, n.rejected, n.unavailable)
        };
        let (before, runs) = (counts(self), self.engine.native_stats().native_runs);
        let timed = time_best(reps, f);
        assert_eq!(counts(self), before, "a timed run compiled a kernel");
        assert!(
            self.engine.native_stats().native_runs > runs,
            "a timed series ran no native kernel"
        );
        timed
    }
}

/// True when `got` holds the entries of `want` up to `tol`, in any order
/// within a row: an unsorted baseline and a sorted result agree.
pub fn agrees(got: &Tensor, want: &Csr, tol: f64) -> bool {
    let Ok(got) = Csr::from_tensor(got) else {
        return false;
    };
    let row = |m: &Csr, i: usize| {
        let (c, v) = m.row(i);
        let mut e: Vec<(usize, f64)> = c.iter().copied().zip(v.iter().copied()).collect();
        e.sort_unstable_by_key(|x| x.0);
        e
    };
    (got.nrows(), got.ncols()) == (want.nrows(), want.ncols())
        && (0..want.nrows()).all(|i| {
            let (g, w) = (row(&got, i), row(want, i));
            g.len() == w.len()
                && g.iter()
                    .zip(&w)
                    .all(|(a, b)| a.0 == b.0 && (a.1 - b.1).abs() <= tol * (1.0 + b.1.abs()))
        })
}

/// True when the dense tensor `got` equals `want` up to `tol`.
pub fn agrees_dense(got: &Tensor, want: &DenseMat, tol: f64) -> bool {
    let got = got.to_dense();
    got.shape() == [want.nrows, want.ncols]
        && got.data().iter().zip(&want.data).all(|(a, b)| (a - b).abs() <= tol * (1.0 + b.abs()))
}
