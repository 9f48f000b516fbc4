//! The adapter to the system under test: the **only** file of the benchmark
//! that names a `taco-*` crate. Everything else works on plain arrays
//! (`gen.rs`), names (`workloads.rs`) and the opaque handles exported here,
//! so the public functions this file calls are exactly the API surface the
//! benchmark pins (listed in README.md). A refactor that changes one of
//! their signatures has to change this file and nothing else.
//!
//! Functions come in two groups: *requests*, which do what a user of the
//! system does in one call and are what the end-to-end metrics time; and
//! *stages*, which call one layer's public function each and are what the
//! traced run replays to attribute a request's time.

use crate::gen::{RawCoo3, RawCsr, RawOperand};
use crate::workloads::{CaseSpec, Expr, MatFormat, Workspace};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;
use taco_core::parse::{parse_assignment, Declarations};
use taco_core::{enumerate_candidates, CompiledKernel, IndexStmt, ResourceBudget, Supervisor};
use taco_ir::expr::{sum, IndexExpr, IndexVar, TensorVar};
use taco_ir::notation::IndexAssignment;
use taco_kernels::mttkrp::DenseMat;
use taco_llir::{emit_native, Binding, Executable, NativeSource, WorkspaceKind};
use taco_lower::{lower, LowerOptions, LoweredKernel};
use taco_native::{NativeCompiler, NativeKernel, NativeRunOptions};
use taco_runtime::{Backend, Engine, EngineEvent, VerifyMode};
use taco_serve::{Outcome, Request, Server, TenantPolicy, Ticket};
use taco_tensor::{Csf3, Csr, DenseTensor, Format, Tensor};

/// Failures are reported as rendered strings: the benchmark only counts and
/// prints them.
pub type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

// ---------------------------------------------------------------------------
// Cases: statements and tensors built from a `CaseSpec`
// ---------------------------------------------------------------------------

/// One scheduling directive of a case, in application order.
#[derive(Debug, Clone)]
enum Directive {
    Reorder(IndexVar, IndexVar),
    Precompute {
        expr: IndexExpr,
        over: IndexVar,
        workspace: TensorVar,
    },
}

/// A statement with its schedule, lowering options and bound operands.
#[derive(Debug, Clone)]
pub struct Case {
    /// Index-notation text of the expression and the declarations it parses
    /// under (`core.parse_ms`).
    text: &'static str,
    decls: Declarations,
    source: IndexAssignment,
    schedule: Vec<Directive>,
    opts: LowerOptions,
    operands: Vec<(String, Arc<Tensor>)>,
}

fn format_of(f: MatFormat) -> Format {
    match f {
        MatFormat::Csr => Format::csr(),
        MatFormat::Dcsr => Format::dcsr(),
        MatFormat::Coo => Format::coo(2),
        MatFormat::Csc => Format::csc(),
        MatFormat::Dcsc => Format::dcsc(),
        MatFormat::Bcsr => Format::bcsr(),
    }
}

fn workspace_kind(w: Workspace) -> WorkspaceKind {
    match w {
        Workspace::Dense => WorkspaceKind::Dense,
        Workspace::Hash => WorkspaceKind::Hash,
        Workspace::CoordList => WorkspaceKind::CoordList,
    }
}

fn csr_of(raw: &RawCsr) -> Csr {
    Csr::from_raw(
        raw.nrows,
        raw.ncols,
        raw.pos.clone(),
        raw.crd.clone(),
        raw.vals.clone(),
    )
}

const BLOCK: usize = 2;

fn csf3_of(raw: &RawCoo3) -> Csf3 {
    let quads: Vec<(usize, usize, usize, f64)> = raw
        .coords
        .iter()
        .zip(&raw.vals)
        .map(|(c, v)| (c[0], c[1], c[2], *v))
        .collect();
    Csf3::from_quads(raw.dims, &quads)
}

/// Packs one generated operand into the system's tensor type, in the format
/// the case declares for it.
fn pack(raw: &RawOperand, format: Option<MatFormat>) -> Res<Tensor> {
    match raw {
        RawOperand::Csr(m) => {
            let t = csr_of(m).to_tensor();
            match format {
                Some(MatFormat::Bcsr) => t.to_blocked(BLOCK, BLOCK).map_err(err("to_blocked")),
                Some(MatFormat::Csr) | None => Ok(t),
                Some(f) => t.convert(format_of(f)).map_err(err("convert")),
            }
        }
        RawOperand::Coo3(t) => Ok(csf3_of(t).to_tensor()),
        RawOperand::Dense(m) => {
            let (shape, layout) = match (format, m.ncols) {
                // The vector of a blocked SpMV, reshaped to [n/bc, bc].
                (Some(MatFormat::Bcsr), _) => (vec![m.nrows / BLOCK, BLOCK], Format::dense(2)),
                (_, 1) => (vec![m.nrows], Format::dvec()),
                _ => (vec![m.nrows, m.ncols], Format::dense(2)),
            };
            let dense = DenseTensor::from_data(shape, m.data.clone());
            Tensor::from_dense(&dense, layout).map_err(err("from_dense"))
        }
    }
}

fn iv(name: &str) -> IndexVar {
    IndexVar::new(name)
}

impl Case {
    /// Builds the statement and packs the operands of a case.
    ///
    /// # Errors
    ///
    /// A rendered error if an operand cannot be packed into its format.
    pub fn build(spec: &CaseSpec) -> Res<Case> {
        let name = spec.name.as_str();
        let packed = |pairs: &[(&str, Option<MatFormat>)]| -> Res<Vec<(String, Arc<Tensor>)>> {
            pairs
                .iter()
                .map(|(nm, f)| Ok((nm.to_string(), Arc::new(pack(spec.operand(nm), *f)?))))
                .collect()
        };
        match &spec.expr {
            Expr::Spgemm { n, workspace, b, c } => {
                let n = *n;
                let a = TensorVar::new("A", vec![n, n], Format::csr());
                let bv = TensorVar::new("B", vec![n, n], format_of(*b));
                let cv = TensorVar::new("C", vec![n, n], format_of(*c));
                let (i, j, k) = (iv("i"), iv("j"), iv("k"));
                let mul = bv.access([i.clone(), k.clone()]) * cv.access([k.clone(), j.clone()]);
                let source = IndexAssignment::assign(
                    a.access([i.clone(), j.clone()]),
                    sum(k.clone(), mul.clone()),
                );
                let w = TensorVar::new("w", vec![n], Format::dvec());
                Ok(Case {
                    text: "A(i,j) = B(i,k) * C(k,j)",
                    decls: Declarations::with_default_dim(n)
                        .format("A", Format::csr())
                        .format("B", format_of(*b))
                        .format("C", format_of(*c)),
                    source,
                    schedule: vec![
                        Directive::Reorder(k, j.clone()),
                        Directive::Precompute {
                            expr: mul,
                            over: j,
                            workspace: w,
                        },
                    ],
                    opts: LowerOptions::fused(name).with_workspace_kind(workspace_kind(*workspace)),
                    operands: packed(&[("B", Some(*b)), ("C", Some(*c))])?,
                })
            }
            Expr::Mttkrp { dims, rank } => {
                let [di, dk, dl] = *dims;
                let a = TensorVar::new("A", vec![di, *rank], Format::dense(2));
                let b = TensorVar::new("B", vec![di, dk, dl], Format::csf3());
                let c = TensorVar::new("C", vec![dl, *rank], Format::dense(2));
                let d = TensorVar::new("D", vec![dk, *rank], Format::dense(2));
                let (i, j, k, l) = (iv("i"), iv("j"), iv("k"), iv("l"));
                let bc =
                    b.access([i.clone(), k.clone(), l.clone()]) * c.access([l.clone(), j.clone()]);
                let source = IndexAssignment::assign(
                    a.access([i, j.clone()]),
                    sum(
                        k.clone(),
                        sum(l.clone(), bc.clone() * d.access([k.clone(), j.clone()])),
                    ),
                );
                let w = TensorVar::new("w", vec![*rank], Format::dvec());
                Ok(Case {
                    text: "A(i,j) = B(i,k,l) * C(l,j) * D(k,j)",
                    decls: Declarations::with_default_dim(di)
                        .format("A", Format::dense(2))
                        .format("B", Format::csf3())
                        .format("C", Format::dense(2))
                        .format("D", Format::dense(2)),
                    source,
                    schedule: vec![
                        Directive::Reorder(j.clone(), k),
                        Directive::Reorder(j.clone(), l),
                        Directive::Precompute {
                            expr: bc,
                            over: j,
                            workspace: w,
                        },
                    ],
                    opts: LowerOptions::compute(name),
                    operands: packed(&[("B", None), ("C", None), ("D", None)])?,
                })
            }
            Expr::Add {
                n,
                operands,
                format,
            } => {
                let n = *n;
                const NAMES: [&str; 4] = ["B", "C", "D", "E"];
                const TEXTS: [&str; 5] = [
                    "",
                    "",
                    "A(i,j) = B(i,j) + C(i,j)",
                    "A(i,j) = B(i,j) + C(i,j) + D(i,j)",
                    "A(i,j) = B(i,j) + C(i,j) + D(i,j) + E(i,j)",
                ];
                let a = TensorVar::new("A", vec![n, n], Format::csr());
                let (i, j) = (iv("i"), iv("j"));
                let mut decls = Declarations::with_default_dim(n).format("A", Format::csr());
                let mut rhs: Option<IndexExpr> = None;
                for nm in &NAMES[..*operands] {
                    let v = TensorVar::new(*nm, vec![n, n], format_of(*format));
                    decls = decls.format(*nm, format_of(*format));
                    let acc: IndexExpr = v.access([i.clone(), j.clone()]).into();
                    rhs = Some(match rhs {
                        Some(e) => e + acc,
                        None => acc,
                    });
                }
                let pairs: Vec<(&str, Option<MatFormat>)> = NAMES[..*operands]
                    .iter()
                    .map(|nm| (*nm, Some(*format)))
                    .collect();
                Ok(Case {
                    text: TEXTS[*operands],
                    decls,
                    source: IndexAssignment::assign(
                        a.access([i, j]),
                        rhs.expect("at least two operands"),
                    ),
                    schedule: Vec::new(),
                    opts: LowerOptions::fused(name),
                    operands: packed(&pairs)?,
                })
            }
            Expr::Spmv {
                n,
                format: MatFormat::Bcsr,
            } => {
                let (nb, b) = (*n / BLOCK, BLOCK);
                let y = TensorVar::new("y", vec![nb, b], Format::dense(2));
                let bt = TensorVar::new("B", vec![nb, nb, b, b], Format::bcsr());
                let xt = TensorVar::new("x", vec![nb, b], Format::dense(2));
                let (i, j, k, l) = (iv("i"), iv("j"), iv("k"), iv("l"));
                let source = IndexAssignment::assign(
                    y.access([i.clone(), k.clone()]),
                    sum(
                        j.clone(),
                        sum(
                            l.clone(),
                            bt.access([i, j.clone(), k, l.clone()]) * xt.access([j, l]),
                        ),
                    ),
                );
                Ok(Case {
                    text: "y(i,k) = B(i,j,k,l) * x(j,l)",
                    decls: Declarations::with_default_dim(nb)
                        .format("y", Format::dense(2))
                        .format("B", Format::bcsr())
                        .format("x", Format::dense(2)),
                    source,
                    schedule: Vec::new(),
                    opts: LowerOptions::compute(name),
                    operands: packed(&[
                        ("B", Some(MatFormat::Bcsr)),
                        ("x", Some(MatFormat::Bcsr)),
                    ])?,
                })
            }
            Expr::Spmv { n, format } => {
                let n = *n;
                let fmt = format_of(*format);
                let a = TensorVar::new("a", vec![n], Format::dvec());
                let bv = TensorVar::new("B", vec![n, n], fmt.clone());
                let xv = TensorVar::new("x", vec![n], Format::dvec());
                let (i, j) = (iv("i"), iv("j"));
                let source = IndexAssignment::assign(
                    a.access([i.clone()]),
                    sum(
                        j.clone(),
                        bv.access([i.clone(), j.clone()]) * xv.access([j.clone()]),
                    ),
                );
                // Column-major storage iterates columns outermost.
                let schedule = if fmt.is_identity_order() {
                    Vec::new()
                } else {
                    vec![Directive::Reorder(i, j)]
                };
                Ok(Case {
                    text: "a(i) = B(i,j) * x(j)",
                    decls: Declarations::with_default_dim(n)
                        .format("a", Format::dvec())
                        .format("B", fmt)
                        .format("x", Format::dvec()),
                    source,
                    schedule,
                    opts: LowerOptions::compute(name),
                    operands: packed(&[("B", Some(*format)), ("x", None)])?,
                })
            }
        }
    }

    fn inputs(&self) -> Vec<(&str, &Tensor)> {
        self.operands
            .iter()
            .map(|(n, t)| (n.as_str(), &**t))
            .collect()
    }

    /// Bytes of operand storage as bound (`tensor.operand_mb`).
    pub fn operand_bytes(&self) -> usize {
        self.operands
            .iter()
            .map(|(_, t)| {
                let index: usize = (0..t.rank())
                    .map(|l| {
                        t.pos(l).map_or(0, <[usize]>::len) + t.crd(l).map_or(0, <[usize]>::len)
                    })
                    .sum();
                8 * (index + t.vals().len())
            })
            .sum()
    }
}

// ---------------------------------------------------------------------------
// Results as plain arrays, and the hand-written baselines
// ---------------------------------------------------------------------------

/// A result tensor as plain arrays, for comparison in `reference.rs`.
#[derive(Debug, Clone, PartialEq)]
pub enum RawResult {
    Csr(RawCsr),
    Dense(Vec<f64>),
}

/// An opaque result of a request.
#[derive(Debug, Clone)]
pub struct Output(Tensor);

impl Output {
    /// # Errors
    ///
    /// A rendered error if a CSR result's arrays cannot be read.
    pub fn to_raw(&self) -> Res<RawResult> {
        let t = &self.0;
        if *t.format() == Format::csr() {
            Ok(RawResult::Csr(RawCsr {
                nrows: t.shape()[0],
                ncols: t.shape()[1],
                pos: t.pos(1).map_err(err("pos"))?.to_vec(),
                crd: t.crd(1).map_err(err("crd"))?.to_vec(),
                vals: t.vals().to_vec(),
            }))
        } else {
            Ok(RawResult::Dense(t.to_dense().into_data()))
        }
    }

    /// Bit-for-bit equality of two results (format, index arrays, values).
    pub fn identical(&self, other: &Output) -> bool {
        self.0 == other.0
            && self
                .0
                .vals()
                .iter()
                .zip(other.0.vals())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// The hand-written `taco-kernels` function for a case's expression with
/// its operands packed for it; the paper's baseline and the first reference
/// of the correctness gate. `taco-kernels` has no SpMV, so those cases have
/// none (their reference is the benchmark's own loop).
pub enum Handwritten {
    Spgemm(Csr, Csr),
    Add(Vec<Csr>),
    Mttkrp(Csf3, DenseMat, DenseMat),
}

enum HandwrittenOut {
    Sparse(Csr),
    Dense(DenseMat),
}

impl Handwritten {
    pub fn prepare(spec: &CaseSpec) -> Option<Handwritten> {
        let csr = |nm: &str| csr_of(spec.csr(nm));
        let mat = |nm: &str| {
            let m = spec.dense(nm);
            DenseMat {
                nrows: m.nrows,
                ncols: m.ncols,
                data: m.data.clone(),
            }
        };
        match &spec.expr {
            Expr::Spgemm { .. } => Some(Handwritten::Spgemm(csr("B"), csr("C"))),
            Expr::Add { operands, .. } => Some(Handwritten::Add(
                ["B", "C", "D", "E"][..*operands]
                    .iter()
                    .map(|n| csr(n))
                    .collect(),
            )),
            Expr::Mttkrp { .. } => Some(Handwritten::Mttkrp(
                csf3_of(spec.coo3("B")),
                mat("C"),
                mat("D"),
            )),
            Expr::Spmv { .. } => None,
        }
    }

    fn call(&self) -> HandwrittenOut {
        match self {
            Handwritten::Spgemm(b, c) => {
                HandwrittenOut::Sparse(taco_kernels::spgemm::spgemm_workspace_sorted(b, c))
            }
            Handwritten::Add(ops) => {
                let refs: Vec<&Csr> = ops.iter().collect();
                HandwrittenOut::Sparse(taco_kernels::add::add_kway_merge(&refs))
            }
            Handwritten::Mttkrp(b, c, d) => {
                HandwrittenOut::Dense(taco_kernels::mttkrp::mttkrp_workspace(b, c, d))
            }
        }
    }

    /// `kernels.handwritten_ms`: the kernel alone.
    pub fn run_discard(&self) {
        std::hint::black_box(self.call());
    }

    /// The kernel's result as plain arrays.
    pub fn run(&self) -> RawResult {
        match self.call() {
            HandwrittenOut::Sparse(m) => RawResult::Csr(RawCsr {
                nrows: m.nrows(),
                ncols: m.ncols(),
                pos: m.pos().to_vec(),
                crd: m.crd().to_vec(),
                vals: m.vals().to_vec(),
            }),
            HandwrittenOut::Dense(m) => RawResult::Dense(m.data),
        }
    }
}

// ---------------------------------------------------------------------------
// Requests: what the end-to-end metrics time
// ---------------------------------------------------------------------------

/// Which execution backend an engine is pinned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    Interp,
    Native,
    Auto,
}

/// An opaque long-lived engine.
pub struct Runtime(Arc<Engine>);

/// A fresh engine on the given backend. The tuning deadline is raised to a
/// minute so a tuner search is exhaustive — deterministic work — instead of
/// being cut at the 250 ms default wherever the machine happens to be.
pub fn engine(exec: Exec) -> Runtime {
    let backend = match exec {
        Exec::Interp => Backend::Interp,
        Exec::Native => Backend::Native,
        Exec::Auto => Backend::Auto,
    };
    Runtime(Arc::new(
        Engine::builder()
            .backend(backend)
            .verify(VerifyMode::Warn)
            .tuning_deadline(Duration::from_secs(60))
            .max_events(4096)
            .build(),
    ))
}

/// Points the native backend's on-disk cache at `dir` for engines built
/// afterwards. Call only while no other thread of the process is running.
pub fn set_native_cache(dir: &Path) {
    std::env::set_var("TACO_NATIVE_CACHE", dir);
}

/// Removes the ambient knobs that would change what is measured.
pub fn clear_ambient_env() {
    std::env::remove_var("TACO_THREADS");
    std::env::remove_var("TACO_BACKEND");
}

impl Case {
    /// The statement as scheduled: `IndexStmt::new` (concretize) plus the
    /// schedule's `reorder`/`precompute` directives (transform).
    ///
    /// # Errors
    ///
    /// A rendered error if the schedule does not apply.
    pub fn scheduled(&self) -> Res<Statement> {
        let mut stmt = self.concretize()?;
        self.transform(&mut stmt)?;
        Ok(stmt)
    }

    /// One warm request: `Engine::run` of the scheduled statement (kernel
    /// cached, native kernel trusted where the backend is native).
    ///
    /// # Errors
    ///
    /// A rendered compile, bind or run error.
    pub fn run(&self, rt: &Runtime, stmt: &Statement) -> Res<Output> {
        rt.0.run(&stmt.0, self.opts.clone(), &self.inputs())
            .map(Output)
            .map_err(err("Engine::run"))
    }

    /// `cold_compile_ms`: a fresh interpreter engine builds the scheduled
    /// statement and compiles it (concretize → transform → lower → simplify
    /// → verify → cost → exec-compile).
    ///
    /// # Errors
    ///
    /// A rendered schedule or compile error.
    pub fn cold_compile(&self) -> Res<()> {
        let rt = engine(Exec::Interp);
        let stmt = self.scheduled()?;
        rt.0.compile(&stmt.0, self.opts.clone())
            .map(drop)
            .map_err(err("Engine::compile"))
    }

    /// `cold_tuned_ms`: a fresh interpreter engine tunes the *unscheduled*
    /// statement on this case's operands and returns the result with what
    /// the search did.
    ///
    /// # Errors
    ///
    /// A rendered tuning error.
    pub fn cold_tuned(&self) -> Res<(Output, TuneSummary)> {
        let rt = engine(Exec::Interp);
        let stmt = self.concretize()?;
        let opts = self.opts.clone().with_workspace_kind(WorkspaceKind::Dense);
        let out =
            rt.0.run_tuned(&stmt.0, opts, &self.inputs())
                .map_err(err("Engine::run_tuned"))?;
        let mut summary = TuneSummary {
            schedule: out.schedule,
            ..TuneSummary::default()
        };
        for event in rt.0.last_events() {
            if let EngineEvent::Autotuned { viable, pruned, .. } = event {
                summary.timed = viable;
                summary.pruned = pruned;
            }
        }
        summary.compiles = rt.0.cache_stats().compiles;
        Ok((Output(out.result), summary))
    }

    /// `cold_native_ms` and `restart_native_ms`: a fresh native engine over
    /// whatever on-disk cache [`set_native_cache`] last named, built through
    /// its first reply (compiler probe, cgen, `cc` or cache load, dlopen,
    /// differential trust run). Returns the reply and whether the kernel
    /// ended up trusted.
    ///
    /// # Errors
    ///
    /// A rendered compile or run error.
    pub fn first_native_reply(&self) -> Res<(Output, NativeOutcome)> {
        let rt = engine(Exec::Native);
        let stmt = self.scheduled()?;
        let out = self.run(&rt, &stmt)?;
        Ok((out, native_outcome(&rt)))
    }
}

/// What a tuner search did (`runtime.tune_*`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TuneSummary {
    pub schedule: String,
    pub timed: usize,
    pub pruned: usize,
    pub compiles: u64,
}

/// Where an engine's native backend stands.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NativeOutcome {
    /// Kernels whose differential check passed.
    pub trusted: u64,
    /// Nanoseconds the engine spent in the C compiler (0 on a cache load).
    pub cc_nanos: u64,
}

pub fn native_outcome(rt: &Runtime) -> NativeOutcome {
    let cc_nanos =
        rt.0.last_events()
            .iter()
            .map(|e| match e {
                EngineEvent::NativeCompiled { compile_nanos, .. } => *compile_nanos,
                _ => 0,
            })
            .sum();
    NativeOutcome {
        trusted: rt.0.native_stats().trusted,
        cc_nanos,
    }
}

/// Kernel-cache counters of an engine (`runtime.cache_hit_rate`).
pub fn cache_counters(rt: &Runtime) -> (u64, u64) {
    let s = rt.0.cache_stats();
    (s.hits, s.misses)
}

// ---------------------------------------------------------------------------
// Serving
// ---------------------------------------------------------------------------

/// An opaque long-lived server: one worker over one `Backend::Auto` engine,
/// one tenant with the default policy.
pub struct Daemon {
    server: Server,
}

const TENANT: &str = "bench";

/// What the server says about one completed request.
#[derive(Debug, Clone)]
pub struct Served {
    pub output: Output,
    pub queue_wait: Duration,
}

/// Totals of a server's counters (`serve.completed`, `serve.shed`,
/// `serve.degraded`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeTotals {
    pub completed: u64,
    pub shed: u64,
    pub degraded: u64,
}

/// An admitted request whose reply has not been read yet.
pub struct Pending(Ticket);

impl Pending {
    /// Blocks until the outcome arrives.
    ///
    /// # Errors
    ///
    /// The rendered outcome, if the request did not complete.
    pub fn wait(self) -> Res<Served> {
        match self.0.wait() {
            Outcome::Completed {
                result, queue_wait, ..
            } => Ok(Served {
                output: Output(result),
                queue_wait,
            }),
            Outcome::Aborted { reason, .. } => Err(format!("aborted: {reason}")),
            Outcome::Failed { message } => Err(format!("failed: {message}")),
            other => Err(format!("unexpected outcome: {other:?}")),
        }
    }
}

impl Daemon {
    pub fn start(rt: &Runtime) -> Daemon {
        Daemon {
            server: Server::builder()
                .engine(Arc::clone(&rt.0))
                .workers(1)
                .tenant(TENANT, TenantPolicy::default())
                .build(),
        }
    }

    /// One request, submit to outcome. A shed, aborted or failed request is
    /// an error.
    ///
    /// # Errors
    ///
    /// The rendered rejection or outcome.
    pub fn request(&self, case: &Case, stmt: &Statement) -> Res<Served> {
        self.submit(case, stmt)?.wait()
    }

    /// Admission alone (`serve.submit_ms`); the reply is waited for on the
    /// returned handle.
    ///
    /// # Errors
    ///
    /// The rendered rejection.
    pub fn submit(&self, case: &Case, stmt: &Statement) -> Res<Pending> {
        let request = Request::new(
            TENANT,
            stmt.0.clone(),
            case.opts.clone(),
            case.operands.clone(),
            Duration::from_secs(60),
        );
        self.server
            .submit(request)
            .map(Pending)
            .map_err(err("shed"))
    }

    pub fn totals(&self) -> ServeTotals {
        let t = self.server.stats().totals;
        ServeTotals {
            completed: t.completed,
            shed: t.shed(),
            degraded: t.degraded,
        }
    }

    /// Graceful drain; joins the worker.
    pub fn stop(self) {
        self.server.drain();
    }
}

// ---------------------------------------------------------------------------
// Stages: one public function of one layer each, for the traced replay
// ---------------------------------------------------------------------------

/// An opaque scheduled (or unscheduled) statement.
#[derive(Debug, Clone)]
pub struct Statement(IndexStmt);

/// An opaque lowered kernel.
pub struct Lowered(LoweredKernel);

/// An opaque compiled kernel (cached by an engine).
pub struct Kernel(Arc<CompiledKernel>);

/// An opaque operand binding.
pub struct Bound(Binding);

/// An opaque emitted C translation unit.
pub struct CSource(NativeSource);

/// An opaque probed C compiler.
pub struct Cc(NativeCompiler);

/// An opaque loaded shared object.
pub struct Loaded(NativeKernel);

/// Counters of one interpreted run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounters {
    pub iterations: u64,
    pub peak_bytes: u64,
}

impl Case {
    /// `core.parse_ms`: `parse_assignment` of the expression text.
    ///
    /// # Errors
    ///
    /// A rendered parse error.
    pub fn parse(&self) -> Res<()> {
        parse_assignment(self.text, &self.decls)
            .map(drop)
            .map_err(err("parse_assignment"))
    }

    /// `ir.concretize_ms`: `IndexStmt::new` on the source assignment.
    ///
    /// # Errors
    ///
    /// A rendered concretization error.
    pub fn concretize(&self) -> Res<Statement> {
        IndexStmt::new(self.source.clone())
            .map(Statement)
            .map_err(err("IndexStmt::new"))
    }

    /// `ir.transform_ms`: the schedule's `reorder` / `precompute` calls.
    ///
    /// # Errors
    ///
    /// A rendered transformation error.
    pub fn transform(&self, stmt: &mut Statement) -> Res<()> {
        for d in &self.schedule {
            match d {
                Directive::Reorder(a, b) => {
                    stmt.0.reorder(a, b).map(drop).map_err(err("reorder"))?
                }
                Directive::Precompute {
                    expr,
                    over,
                    workspace,
                } => stmt
                    .0
                    .precompute(
                        expr,
                        &[(over.clone(), over.clone(), over.clone())],
                        workspace,
                    )
                    .map(drop)
                    .map_err(err("precompute"))?,
            }
        }
        Ok(())
    }

    /// `core.fingerprint_ms`: the cache key of a compile request.
    pub fn fingerprint(&self, stmt: &Statement) -> u64 {
        taco_core::fingerprint(stmt.0.concrete(), &self.opts, &ResourceBudget::unlimited())
    }

    /// `core.enumerate_ms`: the tuner's candidate space for the unscheduled
    /// statement; returns its size (`core.candidates`).
    pub fn enumerate(&self, unscheduled: &Statement) -> usize {
        enumerate_candidates(&unscheduled.0).len()
    }

    /// `lower.lower_ms`: `taco_lower::lower` (which simplifies on its way
    /// out).
    ///
    /// # Errors
    ///
    /// A rendered lowering error.
    pub fn lower(&self, stmt: &Statement) -> Res<Lowered> {
        lower(stmt.0.concrete(), &self.opts)
            .map(Lowered)
            .map_err(err("lower"))
    }

    /// `runtime.cache_hit_ms`: `Engine::compile` of an already cached
    /// statement.
    ///
    /// # Errors
    ///
    /// A rendered compile error.
    pub fn compile(&self, rt: &Runtime, stmt: &Statement) -> Res<Kernel> {
        rt.0.compile(&stmt.0, self.opts.clone())
            .map(Kernel)
            .map_err(err("Engine::compile"))
    }

    /// `core.bind_ms`: `CompiledKernel::bind`.
    ///
    /// # Errors
    ///
    /// A rendered bind error.
    pub fn bind(&self, kernel: &Kernel) -> Res<Bound> {
        kernel
            .0
            .bind(&self.inputs(), None)
            .map(Bound)
            .map_err(err("bind"))
    }

    /// `tensor.validate_ms`: `Tensor::validate` on every operand.
    ///
    /// # Errors
    ///
    /// A rendered storage error.
    pub fn validate_operands(&self) -> Res<()> {
        self.operands
            .iter()
            .try_for_each(|(_, t)| t.validate().map_err(err("validate")))
    }

    /// `tensor.convert_ms`: the first sparse operand converted to another
    /// format of its rank and back.
    ///
    /// # Errors
    ///
    /// A rendered conversion error.
    pub fn convert_round_trip(&self) -> Res<()> {
        let Some((_, t)) = self
            .operands
            .iter()
            .find(|(_, t)| !t.format().is_all_dense())
        else {
            return Ok(());
        };
        let (there, back) = match t.rank() {
            2 if *t.format() == Format::csr() => (Format::dcsr(), Format::csr()),
            2 => (Format::csr(), t.format().clone()),
            rank => (Format::coo(rank), t.format().clone()),
        };
        if t.rank() == 4 {
            // Blocked tensors convert through their flat form.
            return t
                .from_blocked(Format::csr())
                .map(drop)
                .map_err(err("from_blocked"));
        }
        let mid = t.convert(there).map_err(err("convert"))?;
        mid.convert(back).map(drop).map_err(err("convert back"))
    }
}

/// `tensor.generate_ms`: packs a case's generated operands into tensors.
///
/// # Errors
///
/// A rendered packing error.
pub fn pack_operands(spec: &CaseSpec) -> Res<()> {
    Case::build(spec).map(drop)
}

impl Lowered {
    /// `llir.simplify_ms`: `Kernel::simplify` re-run on a copy of the
    /// lowered kernel (`lower` already ran it once, inside its own span; the
    /// pass is idempotent, so this times the same traversal).
    pub fn simplify_copy(&self) -> impl FnOnce() {
        let mut copy = self.0.kernel.clone();
        move || copy.simplify()
    }

    /// `verify.verify_ms`: `verify_lowered`; returns (denies, warns).
    pub fn verify(&self) -> (usize, usize) {
        let report = taco_verify::verify_lowered(&self.0);
        (report.denies(), report.warns())
    }

    /// `verify.cost_ms`: `analyze_cost`.
    pub fn cost(&self) {
        std::hint::black_box(taco_verify::analyze_cost(&self.0));
    }

    /// `llir.exec_compile_ms`: `Executable::compile`.
    ///
    /// # Errors
    ///
    /// A rendered executable-compile error.
    pub fn exec_compile(&self) -> Res<()> {
        Executable::compile(&self.0.kernel)
            .map(drop)
            .map_err(err("Executable::compile"))
    }

    /// `lower.c_lines`: lines of the paper-style C listing.
    pub fn c_lines(&self) -> usize {
        self.0.kernel.to_c().lines().count()
    }
}

impl Kernel {
    /// `llir.interp_run_ms`: the interpreter on a fresh binding.
    ///
    /// # Errors
    ///
    /// A rendered run error.
    pub fn run_interp(&self, bound: &mut Bound) -> Res<()> {
        self.0.run_bound(&mut bound.0).map_err(err("run_bound"))
    }

    /// The same run under a supervisor, for its counters
    /// (`llir.interp_iterations`, `llir.peak_workspace_bytes`).
    ///
    /// # Errors
    ///
    /// A rendered abort.
    pub fn run_counted(&self, bound: &mut Bound) -> Res<RunCounters> {
        let report = self
            .0
            .run_bound_supervised(&mut bound.0, &Supervisor::new())
            .map_err(err("supervised run"))?;
        Ok(RunCounters {
            iterations: report.progress.iterations,
            peak_bytes: report.progress.peak_bytes(),
        })
    }

    /// `core.extract_ms`: `CompiledKernel::extract`.
    ///
    /// # Errors
    ///
    /// A rendered extraction error.
    pub fn extract(&self, bound: &Bound) -> Res<Output> {
        self.0
            .extract(&bound.0, None)
            .map(Output)
            .map_err(err("extract"))
    }

    /// The proven peak-allocation bound against a binding
    /// (`verify.bound_tightness` divides it by the observed peak).
    pub fn static_peak_bytes(&self, bound: &Bound) -> Option<u64> {
        self.0.static_peak_bytes(&bound.0)
    }

    /// `llir.cgen_ms`: `emit_native`.
    ///
    /// # Errors
    ///
    /// A rendered emitter refusal.
    pub fn cgen(&self) -> Res<CSource> {
        emit_native(self.0.executable())
            .map(CSource)
            .map_err(err("emit_native"))
    }

    pub fn fingerprint(&self) -> u64 {
        self.0.fingerprint()
    }

    /// What the kernel cache charges for the entry (`entry_weight` prints
    /// the kernel's C listing to size it; an insert pays this).
    pub fn cache_weight(&self) -> u64 {
        taco_runtime::entry_weight(&self.0)
    }
}

impl CSource {
    /// `llir.cgen_bytes`.
    pub fn bytes(&self) -> usize {
        self.0.c_source.len()
    }
}

/// `native.probe_ms`: `NativeCompiler::from_env`.
///
/// # Errors
///
/// The rendered reason no C compiler is usable.
pub fn probe_cc() -> Res<Cc> {
    NativeCompiler::from_env()
        .map(Cc)
        .map_err(err("no C compiler"))
}

impl Cc {
    /// `native.cc_ms` on an empty cache, `native.dlopen_ms` on a warm one:
    /// `NativeCompiler::compile` builds or finds the shared object and loads
    /// it.
    ///
    /// # Errors
    ///
    /// A rendered compile or load error.
    pub fn build_and_load(&self, source: &CSource, fingerprint: u64) -> Res<Loaded> {
        self.0
            .compile(&source.0, fingerprint)
            .map(Loaded)
            .map_err(err("NativeCompiler::compile"))
    }
}

impl Loaded {
    /// `native.run_ms`: the shared object on a fresh binding.
    ///
    /// # Errors
    ///
    /// A rendered run error.
    pub fn run(&self, bound: &mut Bound) -> Res<()> {
        self.0
            .run(
                &mut bound.0,
                &ResourceBudget::unlimited(),
                NativeRunOptions::default(),
            )
            .map(drop)
            .map_err(err("NativeKernel::run"))
    }

    /// `native.so_bytes`.
    pub fn so_bytes(&self) -> u64 {
        std::fs::metadata(self.0.so_path()).map_or(0, |m| m.len())
    }
}

/// `llir.parallel2_run_ms`: the case's schedule with its outermost result
/// loop parallelized, pinned to two threads, compiled through `rt`. `None`
/// for cases the directive does not apply to (no workspace privatizes the
/// reduction, or the parallel executor cannot chunk the loop).
pub fn parallel2(case: &Case, rt: &Runtime) -> Option<Kernel> {
    let outer = case.source.lhs().vars().first()?.clone();
    let mut stmt = case.scheduled().ok()?;
    stmt.0.parallelize(&outer).ok()?;
    rt.0.compile(&stmt.0, case.opts.clone().with_threads(2))
        .ok()
        .map(Kernel)
}

impl Kernel {
    /// One bind + run + extract of the kernel on the case's operands,
    /// outside any engine (`runtime.engine_overhead_ms` subtracts this from
    /// a warm `Engine::run`).
    ///
    /// # Errors
    ///
    /// A rendered bind or run error.
    pub fn run_direct(&self, case: &Case) -> Res<Output> {
        self.0
            .run(&case.inputs())
            .map(Output)
            .map_err(err("CompiledKernel::run"))
    }
}
