//! One epoch: a fresh process that sets a workload up and then runs rounds.
//!
//! A round takes one sample of every timing metric in a fixed order, so all
//! metrics see the same machine phases, and starts with one sample of the
//! reference loop, so each can be divided by what the machine was doing at
//! the time. The parent (`run.rs`) never runs two epochs at once.
//!
//! Everything an epoch measures goes into a [`Report`]: raw per-round
//! samples by name (milliseconds), per-epoch values, per-request serve
//! latencies, operation counts and — in a traced epoch — the spans.

use crate::alloc::requested_bytes;
use crate::json::Json;
use crate::reference;
use crate::refloop::RefLoop;
use crate::sut::{
    self, Case, Daemon, Exec, Handwritten, Kernel, Loaded, Output, RawResult, Res, Runtime,
    Statement,
};
use crate::trace::{self, Span, Tracer};
use crate::workloads::{self, CaseSpec, Scale, Workload, DEFAULT_SEED};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Rounds discarded at the start of every epoch (caches fill, lazy set-up
/// finishes).
pub const WARMUP_ROUNDS: usize = 2;

/// A sample shorter than this is batched: `k` operations per sample,
/// divided by `k`.
const MIN_SAMPLE_MS: f64 = 10.0;

/// A serve burst lasts at least about this long (and has 8 to 96 requests):
/// a 10 ms burst of 1 ms requests is mostly thread wake-ups.
const MIN_BURST_MS: f64 = 25.0;

/// Distinct kernels of the `native.cold_growth` probe.
const GROWTH_KERNELS: usize = 24;

/// The same probe in a quick run.
const QUICK_GROWTH_KERNELS: usize = 3;

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub scale: Scale,
    pub trace: bool,
    /// Wall-clock budget of the whole epoch, set-up included; rounds stop
    /// when the next one would not fit, but never before `min_rounds`.
    pub budget_s: f64,
    pub min_rounds: usize,
    /// Rounds discarded at the start of the epoch.
    pub warmup: usize,
    /// Position of the epoch in its run (epoch 0 of a traced run also takes
    /// the `native.cold_growth` probe).
    pub index: usize,
    /// The run's private directory: `warm/` is the native cache the run's
    /// epochs share, everything else in it is scratch.
    pub work_dir: PathBuf,
}

#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Kept-round samples by name, in milliseconds (requests per second for
    /// `serve_rps`).
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Per-epoch values and counts by name.
    pub values: BTreeMap<String, f64>,
    /// Submit-to-outcome latency of every kept serve request.
    pub serve_latencies_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, rendered.
    pub failures: Vec<String>,
    pub digest: u64,
    pub rounds: usize,
    pub spans: Vec<Span>,
}

impl Report {
    fn sample(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    fn value(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Counts one operation; a failure is recorded and yields `None`.
    fn op<T>(&mut self, what: &str, r: Res<T>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Records a correctness check of an operation already counted.
    fn check(&mut self, what: &str, r: Result<(), String>) {
        if let Err(e) = r {
            self.fail(format!("{what}: {e}"));
        }
    }

    pub fn to_json(&self) -> Json {
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
        Json::obj(vec![
            (
                "samples",
                Json::Obj(
                    self.samples
                        .iter()
                        .map(|(k, v)| (k.clone(), nums(v)))
                        .collect(),
                ),
            ),
            (
                "values",
                Json::Obj(
                    self.values
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("serve_latencies_ms", nums(&self.serve_latencies_ms)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(|f| Json::Str(f.clone())).collect()),
            ),
            // As text: a u64 does not survive a trip through f64.
            ("digest", Json::Str(format!("{:016x}", self.digest))),
            ("rounds", Json::Num(self.rounds as f64)),
            ("spans", trace::spans_to_json(&self.spans)),
        ])
    }

    /// # Errors
    ///
    /// What the child's report lacks.
    pub fn from_json(v: &Json) -> Result<Report, String> {
        let nums = |j: &Json| -> Result<Vec<f64>, String> {
            j.as_arr()
                .ok_or("expected an array")?
                .iter()
                .map(|x| x.as_f64().ok_or_else(|| "expected a number".to_string()))
                .collect()
        };
        let field = |k: &str| v.get(k).ok_or_else(|| format!("epoch report lacks `{k}`"));
        let mut r = Report::default();
        for (k, xs) in field("samples")?
            .as_obj()
            .ok_or("samples is not an object")?
        {
            r.samples.insert(k.clone(), nums(xs)?);
        }
        for (k, x) in field("values")?.as_obj().ok_or("values is not an object")? {
            r.values.insert(k.clone(), x.as_f64().unwrap_or(f64::NAN));
        }
        r.serve_latencies_ms = nums(field("serve_latencies_ms")?)?;
        r.attempted = field("attempted")?.as_f64().ok_or("attempted")? as u64;
        r.failed = field("failed")?.as_f64().ok_or("failed")? as u64;
        r.failures = field("failures")?
            .as_arr()
            .ok_or("failures")?
            .iter()
            .filter_map(|f| f.as_str().map(str::to_string))
            .collect();
        r.digest = u64::from_str_radix(field("digest")?.as_str().ok_or("digest")?, 16)
            .map_err(|e| e.to_string())?;
        r.rounds = field("rounds")?.as_f64().ok_or("rounds")? as usize;
        r.spans = trace::spans_from_json(field("spans")?)?;
        Ok(r)
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (ms_since(t), out)
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A case with everything the rounds need next to it.
struct Ready {
    spec: CaseSpec,
    case: Case,
    stmt: Statement,
    /// The interpreter's output, checked against the references in set-up;
    /// every later reply must be bit-identical to it.
    verified: Option<Output>,
    /// Dense reference, for replies that may legitimately differ in the
    /// last bits (a tuned schedule sums in another order).
    dense: Option<Vec<f64>>,
}

struct Epoch {
    cfg: Config,
    report: Report,
    refloop: RefLoop,
    warm: Vec<Ready>,
    cold: Vec<Ready>,
    interp: Runtime,
    native: Runtime,
    daemon: Option<Daemon>,
    /// Passes per warm sample, so a sample lasts at least `MIN_SAMPLE_MS`.
    interp_batch: usize,
    native_batch: usize,
    compile_batch: usize,
    serve_requests: usize,
    scratch: usize,
}

fn ready(spec: &CaseSpec, report: &mut Report) -> Option<Ready> {
    let case = report.op(&format!("build {}", spec.name), Case::build(spec))?;
    let stmt = report.op(&format!("schedule {}", spec.name), case.scheduled())?;
    Some(Ready {
        spec: spec.clone(),
        case,
        stmt,
        verified: None,
        dense: None,
    })
}

/// The correctness gate of set-up: the interpreter's output against the
/// hand-written kernel and, where the dense loops are affordable, the
/// benchmark's own reference.
fn gate(r: &mut Ready, out: &Output, report: &mut Report) {
    let name = r.spec.name.clone();
    let Some(raw) = report.op(&format!("read result of {name}"), out.to_raw()) else {
        return;
    };
    let handwritten = match Handwritten::prepare(&r.spec) {
        Some(h) => h.run(),
        None => RawResult::Dense(reference::spmv_csr(&r.spec)),
    };
    report.check(
        &format!("{name} vs hand-written"),
        reference::check_handwritten(&raw, &handwritten),
    );
    r.dense = reference::dense_reference(&r.spec);
    if let Some(d) = &r.dense {
        report.check(
            &format!("{name} vs dense loops"),
            reference::check_dense(&raw, d),
        );
    }
}

/// Bit-for-bit comparison of a reply with the one checked in set-up.
fn unchanged(reply: &Output, verified: &Option<Output>) -> Result<(), String> {
    match verified {
        Some(v) if reply.identical(v) => Ok(()),
        Some(_) => Err("reply differs from the interpreter's checked one".to_string()),
        None => Err("no checked reply to compare with".to_string()),
    }
}

impl Epoch {
    fn set_up(cfg: Config) -> Epoch {
        let mut report = Report::default();
        let workload: Workload = workloads::build(&cfg.workload, cfg.seed, cfg.scale);
        report.digest = workload.digest;
        if cfg.seed == DEFAULT_SEED && cfg.scale == Scale::Full {
            report.attempted += 1;
            if workloads::pinned_digest(workload.name) != Some(workload.digest) {
                report.fail(format!(
                    "operand digest {:016x} of {} differs from the pinned one",
                    workload.digest, workload.name
                ));
            }
        }
        let warm_dir = cfg.work_dir.join("warm");
        sut::set_native_cache(&warm_dir);
        let mut warm: Vec<Ready> = workload
            .warm
            .iter()
            .filter_map(|s| ready(s, &mut report))
            .collect();
        let mut cold: Vec<Ready> = workload
            .cold
            .iter()
            .filter_map(|s| ready(s, &mut report))
            .collect();
        let (interp, native, auto) = (
            sut::engine(Exec::Interp),
            sut::engine(Exec::Native),
            sut::engine(Exec::Auto),
        );
        let daemon = Daemon::start(&auto);

        // First replies: the interpreter's pass the gate; the native
        // engine's first is the differential trust run, its second must be
        // served by the trusted shared object and be bit-identical.
        for r in &mut warm {
            let name = r.spec.name.clone();
            if let Some(out) = report.op(&format!("interp {name}"), r.case.run(&interp, &r.stmt)) {
                gate(r, &out, &mut report);
                r.verified = Some(out);
            }
            for pass in 0..2 {
                let reply = report.op(&format!("native {name}"), r.case.run(&native, &r.stmt));
                if let (1, Some(reply)) = (pass, reply) {
                    report.check(&format!("native {name}"), unchanged(&reply, &r.verified));
                }
                report.op(&format!("serve {name}"), daemon.request(&r.case, &r.stmt));
            }
        }
        let trusted = sut::native_outcome(&native).trusted;
        if trusted != warm.len() as u64 {
            report.fail(format!(
                "native backend trusted {trusted} of {} kernels (no C compiler?): native metrics \
                 are not native",
                warm.len()
            ));
        }
        // The cold cases: references for their replies, and their shared
        // objects into the run's warm cache (the first epoch of a run pays
        // the C compiler here, the others load).
        for r in &mut cold {
            let name = r.spec.name.clone();
            if let Some(out) = report.op(&format!("interp {name}"), r.case.run(&interp, &r.stmt)) {
                gate(r, &out, &mut report);
                r.verified = Some(out);
            }
            report.op(&format!("native {name}"), r.case.first_native_reply());
        }

        let mut epoch = Epoch {
            serve_requests: 8,
            cfg,
            report,
            refloop: RefLoop::new(),
            warm,
            cold,
            interp,
            native,
            daemon: Some(daemon),
            interp_batch: 1,
            native_batch: 1,
            compile_batch: 1,
            scratch: 0,
        };
        let batch = |ms: f64| ((MIN_SAMPLE_MS / ms.max(1e-3)).ceil() as usize).clamp(1, 256);
        epoch.interp_batch = batch(epoch.warm_pass(false, 1).0);
        let native_pass_ms = epoch.warm_pass(true, 1).0;
        epoch.native_batch = batch(native_pass_ms);
        // The one worker serves requests one after another, so a burst of n
        // lasts about n native requests: enough of them for MIN_BURST_MS.
        let request_ms = (native_pass_ms / epoch.warm.len() as f64).max(1e-3);
        epoch.serve_requests = 2 * ((MIN_BURST_MS / request_ms / 2.0).ceil() as usize).clamp(4, 48);
        epoch.compile_batch = batch(epoch.compile_pass(1) * epoch.warm.len() as f64);
        epoch
    }

    /// `k` warm passes over every warm case on one engine; returns the time
    /// per pass and the bytes the first pass requested from the allocator.
    fn warm_pass(&mut self, native: bool, k: usize) -> (f64, u64) {
        let rt = if native { &self.native } else { &self.interp };
        let what = if native { "warm native" } else { "warm interp" };
        let mut last: Vec<Option<Output>> = Vec::new();
        let mut first_pass_bytes = 0;
        let start = Instant::now();
        for pass in 0..k {
            let before = requested_bytes();
            last.clear();
            for r in &self.warm {
                last.push(r.case.run(rt, &r.stmt).ok());
            }
            if pass == 0 {
                first_pass_bytes = requested_bytes() - before;
            }
        }
        let per_pass = ms_since(start) / k as f64;
        self.report.attempted += (k * self.warm.len()) as u64;
        for (r, out) in self.warm.iter().zip(&last) {
            let check = match out {
                Some(o) => unchanged(o, &r.verified),
                None => Err("no reply".to_string()),
            };
            self.report.check(&format!("{what} {}", r.spec.name), check);
        }
        (per_pass, first_pass_bytes)
    }

    /// `k` cold compiles of every warm case; milliseconds per statement.
    fn compile_pass(&mut self, k: usize) -> f64 {
        let start = Instant::now();
        let mut errors = Vec::new();
        for _ in 0..k {
            for r in &self.warm {
                if let Err(e) = r.case.cold_compile() {
                    errors.push(format!("cold compile {}: {e}", r.spec.name));
                }
            }
        }
        let per_stmt = ms_since(start) / (k * self.warm.len()) as f64;
        self.report.attempted += (k * self.warm.len()) as u64;
        errors.into_iter().for_each(|e| self.report.fail(e));
        per_stmt
    }

    /// A fresh empty directory for one cold-native sample.
    fn scratch_dir(&mut self) -> PathBuf {
        self.scratch += 1;
        let dir = self
            .cfg
            .work_dir
            .join(format!("cold-{}-{}", self.cfg.index, self.scratch));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch directory inside the checkout is writable");
        dir
    }

    /// First native reply of every cold case over an empty (`cold`) or the
    /// run's warm on-disk cache; milliseconds per statement.
    fn first_native_pass(&mut self, cold: bool) -> f64 {
        let what = if cold {
            "cold native"
        } else {
            "restart native"
        };
        let mut total = 0.0;
        for i in 0..self.cold.len() {
            let dir = if cold { Some(self.scratch_dir()) } else { None };
            sut::set_native_cache(dir.as_deref().unwrap_or(&self.cfg.work_dir.join("warm")));
            let (ms, reply) = timed(|| self.cold[i].case.first_native_reply());
            total += ms;
            let name = self.cold[i].spec.name.clone();
            if let Some((out, outcome)) = self.report.op(&format!("{what} {name}"), reply) {
                let state = if outcome.trusted != 1 {
                    Err(format!("kernel not trusted ({outcome:?})"))
                } else if cold != (outcome.cc_nanos > 0) {
                    Err(format!("C compiler ran for {} ns", outcome.cc_nanos))
                } else {
                    unchanged(&out, &self.cold[i].verified)
                };
                self.report.check(&format!("{what} {name}"), state);
            }
            if let Some(dir) = dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
        sut::set_native_cache(&self.cfg.work_dir.join("warm"));
        total / self.cold.len() as f64
    }

    /// First tuned run of every cold case on a fresh engine; milliseconds
    /// per statement, plus what each search did.
    fn tuned_pass(&mut self) -> (f64, Vec<sut::TuneSummary>) {
        let mut total = 0.0;
        let mut summaries = Vec::new();
        for i in 0..self.cold.len() {
            let (ms, reply) = timed(|| self.cold[i].case.cold_tuned());
            total += ms;
            let name = self.cold[i].spec.name.clone();
            if let Some((out, summary)) = self.report.op(&format!("cold tuned {name}"), reply) {
                // A tuned schedule may sum in another order: tolerance, not
                // bits.
                let check = match (&self.cold[i].dense, out.to_raw()) {
                    (Some(d), Ok(raw)) => reference::check_dense(&raw, d),
                    (None, Ok(_)) => Err("no dense reference".to_string()),
                    (_, Err(e)) => Err(e),
                };
                self.report.check(&format!("cold tuned {name}"), check);
                summaries.push(summary);
            }
        }
        (total / self.cold.len() as f64, summaries)
    }

    /// One closed-loop burst: two client threads, each submitting its next
    /// request when the last reply arrives, against the one-worker server.
    /// Returns requests per second and each request's latency (ms) with
    /// what the server said about it.
    fn serve_burst(&mut self) -> (f64, Vec<(f64, sut::Served)>) {
        let daemon = self
            .daemon
            .as_ref()
            .expect("server runs until the epoch ends");
        let warm = &self.warm;
        let per_client = self.serve_requests / 2;
        let start = Instant::now();
        let replies: Vec<Vec<(usize, f64, Res<sut::Served>)>> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..2)
                .map(|client| {
                    scope.spawn(move || {
                        (0..per_client)
                            .map(|i| {
                                let at = (2 * i + client) % warm.len();
                                let (ms, reply) =
                                    timed(|| daemon.request(&warm[at].case, &warm[at].stmt));
                                (at, ms, reply)
                            })
                            .collect()
                    })
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread does not panic"))
                .collect()
        });
        let rps = (2 * per_client) as f64 / start.elapsed().as_secs_f64();
        let mut served = Vec::new();
        for (at, ms, reply) in replies.into_iter().flatten() {
            let name = self.warm[at].spec.name.clone();
            if let Some(s) = self.report.op(&format!("serve {name}"), reply) {
                let check = unchanged(&s.output, &self.warm[at].verified);
                self.report.check(&format!("serve {name}"), check);
                served.push((ms, s));
            }
        }
        (rps, served)
    }

    /// The untraced round: one sample of every end-to-end timing, in a
    /// fixed order.
    fn round(&mut self, round: usize) {
        let keep = round >= self.cfg.warmup;
        let put = |e: &mut Epoch, name: &str, v: f64| {
            if keep {
                e.report.sample(name, v);
            }
        };
        let r = self.refloop.sample_ms();
        put(self, "ref_ms", r);
        let cases = self.warm.len() as f64;
        let (ms, bytes) = self.warm_pass(false, self.interp_batch);
        put(self, "warm_interp_ms", ms / cases);
        put(self, "warm_alloc_mb", bytes as f64 / cases / 1e6);
        let (ms, _) = self.warm_pass(true, self.native_batch);
        put(self, "warm_native_ms", ms / cases);
        let ms = self.compile_pass(self.compile_batch);
        put(self, "cold_compile_ms", ms);
        let (ms, _) = self.tuned_pass();
        put(self, "cold_tuned_ms", ms);
        // The two samples that cost a C-compiler probe or run alternate on
        // every third round.
        match round % 3 {
            2 => {
                let ms = self.first_native_pass(true);
                put(self, "cold_native_ms", ms);
            }
            1 => {
                let ms = self.first_native_pass(false);
                put(self, "restart_native_ms", ms);
            }
            _ => {}
        }
        let (rps, served) = self.serve_burst();
        put(self, "serve_rps", rps);
        if keep {
            self.report
                .serve_latencies_ms
                .extend(served.iter().map(|(ms, _)| *ms));
        }
    }
}

// ---------------------------------------------------------------------------
// The traced epoch
// ---------------------------------------------------------------------------

/// What the traced rounds need besides the untraced state.
struct Layers {
    tracer: Tracer,
    kernels: Vec<Kernel>,
    loaded: Vec<Option<Loaded>>,
    handwritten: Vec<Option<Handwritten>>,
}

impl Epoch {
    fn layers(&mut self) -> Layers {
        let mut kernels = Vec::new();
        let mut loaded = Vec::new();
        let cc = self.report.op("probe C compiler", sut::probe_cc());
        for i in 0..self.warm.len() {
            let r = &self.warm[i];
            let name = r.spec.name.clone();
            let kernel = r.case.compile(&self.interp, &r.stmt);
            let Some(kernel) = self.report.op(&format!("compile {name}"), kernel) else {
                continue;
            };
            let so = match &cc {
                Some(cc) => {
                    let built = kernel
                        .cgen()
                        .and_then(|src| cc.build_and_load(&src, kernel.fingerprint()));
                    self.report.op(&format!("load {name}"), built)
                }
                None => None,
            };
            loaded.push(so);
            kernels.push(kernel);
        }
        Layers {
            // Request ids are unique across the epochs of a run.
            tracer: Tracer::new((self.cfg.index as u64) << 32),
            kernels,
            loaded,
            handwritten: self
                .warm
                .iter()
                .map(|r| Handwritten::prepare(&r.spec))
                .collect(),
        }
    }

    /// Replays, per warm case and stage by stage, a cold compile, a warm
    /// interpreted request and a warm native request; then the probes that
    /// belong to no request. Stage samples are per statement.
    fn traced_round(&mut self, round: usize, l: &mut Layers) {
        let keep = round >= self.cfg.warmup;
        let n = self.warm.len() as f64;
        let mut acc: BTreeMap<String, f64> = BTreeMap::new();
        let mut add = |name: &str, ms: f64| *acc.entry(name.to_string()).or_insert(0.0) += ms;

        let r = self.refloop.sample_ms();
        if keep {
            self.report.sample("ref_ms", r);
        }
        let (ms, _) = self.warm_pass(false, self.interp_batch);
        add("e2e.warm_interp_ms", ms);
        let (ms, _) = self.warm_pass(true, self.native_batch);
        add("e2e.warm_native_ms", ms);
        let ms = self.compile_pass(self.compile_batch);
        add("e2e.cold_compile_ms", ms * n);

        let t = &mut l.tracer;
        for (i, r) in self.warm.iter().enumerate() {
            let Some(kernel) = l.kernels.get(i) else {
                continue;
            };
            let mark = t.spans().len();

            t.begin("request.cold_compile");
            let stmt = t.stage("ir.concretize", || r.case.concretize());
            let lowered = stmt.ok().and_then(|mut stmt| {
                t.stage("ir.transform", || r.case.transform(&mut stmt))
                    .ok()?;
                t.stage("lower.lower", || r.case.lower(&stmt)).ok()
            });
            if let Some(lowered) = &lowered {
                t.stage("core.fingerprint", || r.case.fingerprint(&r.stmt));
                t.stage("verify.verify", || lowered.verify());
                t.stage("verify.cost", || lowered.cost());
                let _ = t.stage("llir.exec_compile", || lowered.exec_compile());
                t.stage("runtime.cache_weigh", || kernel.cache_weight());
            }
            let root = t.end();
            add("replay.cold_compile_stages_ms", t.stages_ms(root));

            t.begin("request.warm_interp");
            let _ = t.stage("runtime.cache_hit", || {
                r.case.compile(&self.interp, &r.stmt)
            });
            let bound = t.stage("core.bind", || r.case.bind(kernel));
            if let Ok(mut bound) = bound {
                let _ = t.stage("llir.interp_run", || kernel.run_interp(&mut bound));
                let _ = t.stage("core.extract", || kernel.extract(&bound));
            }
            let root = t.end();
            add("replay.warm_interp_ms", t.spans()[root].duration_ms());
            add("replay.warm_interp_stages_ms", t.stages_ms(root));

            if let Some(Some(so)) = l.loaded.get(i) {
                t.begin("request.warm_native");
                let _ = t.stage("runtime.cache_hit", || {
                    r.case.compile(&self.interp, &r.stmt)
                });
                if let Ok(mut bound) = t.stage("core.bind", || r.case.bind(kernel)) {
                    let _ = t.stage("native.run", || so.run(&mut bound));
                    let _ = t.stage("core.extract", || kernel.extract(&bound));
                }
                t.end();
            }

            t.begin("probe");
            let _ = t.stage("core.parse", || r.case.parse());
            if let Some(lowered) = &lowered {
                let simplify = lowered.simplify_copy();
                t.stage("llir.simplify", simplify);
            }
            let _ = t.stage("tensor.validate", || r.case.validate_operands());
            let _ = t.stage("runtime.direct_run", || kernel.run_direct(&r.case));
            match l.handwritten.get(i) {
                Some(Some(h)) => t.stage("kernels.handwritten", || h.run_discard()),
                _ => t.stage("kernels.handwritten", || {
                    std::hint::black_box(reference::spmv_csr(&r.spec));
                }),
            }
            t.end();

            // `runtime.cache_hit`, `core.bind` and `core.extract` occur in
            // two replays; count the interpreter's.
            for s in &t.spans()[mark..] {
                let Some(parent) = s.parent else { continue };
                if t.spans()[parent].name != "request.warm_native" || s.name == "native.run" {
                    add(&s.name, s.duration_ms());
                }
            }
        }
        self.report.attempted += 3 * self.warm.len() as u64;
        if keep {
            for (name, total) in acc {
                let name = if name.ends_with("_ms") {
                    name
                } else {
                    format!("{name}_ms")
                };
                self.report.sample(&name, total / n);
            }
        }
    }

    /// What a traced epoch measures once: the cold-native replay, the
    /// tuner's counts, the two-thread kernel, the serve phase with its
    /// stage times, and the counts taken at the layer boundaries.
    fn traced_once(&mut self, l: &mut Layers) {
        // tensor: packing, conversion, operand size.
        let (ms, packed) = timed(|| {
            self.warm
                .iter()
                .try_for_each(|r| sut::pack_operands(&r.spec))
        });
        self.report.op("pack operands", packed);
        self.report
            .value("tensor.generate_ms", ms / self.warm.len() as f64);
        let (ms, converted) = timed(|| {
            self.warm
                .iter()
                .try_for_each(|r| r.case.convert_round_trip())
        });
        self.report.op("convert operands", converted);
        self.report
            .value("tensor.convert_ms", ms / self.warm.len() as f64);
        let bytes: usize = self.warm.iter().map(|r| r.case.operand_bytes()).sum();
        self.report.value(
            "tensor.operand_mb",
            bytes as f64 / self.warm.len() as f64 / 1e6,
        );

        // Counts at the lowering, verification and execution boundaries.
        let (mut c_lines, mut denies, mut warns) = (0, 0, 0);
        let (mut iterations, mut peak, mut tightness) = (0u64, 0u64, Vec::new());
        for (i, r) in self.warm.iter().enumerate() {
            if let Ok(lowered) = r.case.lower(&r.stmt) {
                c_lines += lowered.c_lines();
                let (d, w) = lowered.verify();
                denies += d;
                warns += w;
            }
            let Some(kernel) = l.kernels.get(i) else {
                continue;
            };
            if let Ok(mut bound) = r.case.bind(kernel) {
                let bound_bytes = kernel.static_peak_bytes(&bound);
                if let Ok(c) = kernel.run_counted(&mut bound) {
                    iterations += c.iterations;
                    peak = peak.max(c.peak_bytes);
                    if let (Some(b), true) = (bound_bytes, c.peak_bytes > 0) {
                        tightness.push(b as f64 / c.peak_bytes as f64);
                    }
                }
            }
        }
        let n = self.warm.len() as f64;
        self.report.value("lower.c_lines", c_lines as f64);
        self.report.value("verify.denies", denies as f64);
        self.report.value("verify.warns", warns as f64);
        self.report
            .value("llir.interp_iterations", iterations as f64 / n);
        self.report.value("llir.peak_workspace_bytes", peak as f64);
        self.report.value(
            "verify.bound_tightness",
            if tightness.is_empty() {
                1.0
            } else {
                tightness.iter().sum::<f64>() / tightness.len() as f64
            },
        );

        // core: the tuner's candidate space; runtime: what a search does,
        // and whether three searches in a row agree.
        let (mut enumerate_ms, mut candidates) = (0.0, 0);
        for r in &self.cold {
            if let Ok(unscheduled) = r.case.concretize() {
                let (ms, count) = timed(|| r.case.enumerate(&unscheduled));
                enumerate_ms += ms;
                candidates += count;
            }
        }
        self.report
            .value("core.enumerate_ms", enumerate_ms / self.cold.len() as f64);
        self.report.value("core.candidates", candidates as f64);
        let (mut flips, mut previous): (u64, Option<Vec<String>>) = (0, None);
        for _ in 0..3 {
            let (ms, summaries) = self.tuned_pass();
            self.report.sample("e2e.cold_tuned_ms", ms);
            let schedules: Vec<String> = summaries.iter().map(|s| s.schedule.clone()).collect();
            if let Some(p) = &previous {
                flips += p.iter().zip(&schedules).filter(|(a, b)| a != b).count() as u64;
            }
            previous = Some(schedules);
            let total = |f: fn(&sut::TuneSummary) -> f64| summaries.iter().map(f).sum::<f64>();
            self.report
                .value("runtime.tune_compiles", total(|s| s.compiles as f64));
            self.report
                .value("runtime.tune_timed", total(|s| s.timed as f64));
            self.report
                .value("runtime.tune_pruned", total(|s| s.pruned as f64));
        }
        self.report
            .value("runtime.tune_decision_flips", flips as f64);

        // native: the cold request, stage by stage, on an empty cache.
        let (mut cgen_bytes, mut so_bytes) = (0usize, 0u64);
        for i in 0..self.cold.len() {
            let dir = self.scratch_dir();
            sut::set_native_cache(&dir);
            let r = &self.cold[i];
            let kernel = r.case.compile(&self.interp, &r.stmt);
            let t = &mut l.tracer;
            t.begin("request.cold_native");
            let cc = t.stage("native.probe", sut::probe_cc);
            let built = kernel.and_then(|kernel| {
                let src = t.stage("llir.cgen", || kernel.cgen())?;
                cgen_bytes += src.bytes();
                let cc = cc?;
                // The first call builds and loads; the second finds the
                // artifact and only loads it.
                drop(t.stage("native.cc+dlopen", || {
                    cc.build_and_load(&src, kernel.fingerprint())
                })?);
                let so = t.stage("native.dlopen", || {
                    cc.build_and_load(&src, kernel.fingerprint())
                })?;
                so_bytes += so.so_bytes();
                t.stage("runtime.trust_run", || {
                    let mut a = r.case.bind(&kernel)?;
                    kernel.run_interp(&mut a)?;
                    let reference = kernel.extract(&a)?;
                    let mut b = r.case.bind(&kernel)?;
                    so.run(&mut b)?;
                    let got = kernel.extract(&b)?;
                    if got.identical(&reference) {
                        Ok(())
                    } else {
                        Err("native differs from interpreter".to_string())
                    }
                })
            });
            let root = t.end();
            let stage = |name: &str| {
                t.spans()
                    .iter()
                    .find(|s| s.parent == Some(root) && s.name == name)
                    .map(Span::duration_ms)
            };
            for name in [
                "native.probe",
                "llir.cgen",
                "native.dlopen",
                "runtime.trust_run",
            ] {
                if let Some(ms) = stage(name) {
                    self.report.sample(&format!("{name}_ms"), ms);
                }
            }
            if let (Some(both), Some(load)) = (stage("native.cc+dlopen"), stage("native.dlopen")) {
                self.report.sample("native.cc_ms", both - load);
            }
            let name = self.cold[i].spec.name.clone();
            self.report.op(&format!("cold native replay {name}"), built);
            let _ = std::fs::remove_dir_all(dir);
        }
        sut::set_native_cache(&self.cfg.work_dir.join("warm"));
        self.report.value(
            "llir.cgen_bytes",
            cgen_bytes as f64 / self.cold.len() as f64,
        );
        self.report
            .value("native.so_bytes", so_bytes as f64 / self.cold.len() as f64);

        // llir: the two-thread kernel (never an end-to-end metric on two
        // shared cores; see README).
        let par = self
            .warm
            .iter()
            .find_map(|r| sut::parallel2(&r.case, &self.interp).map(|k| (r, k)));
        match par {
            Some((r, kernel)) => {
                let mut times = Vec::new();
                let mut bytes = 0;
                for _ in 0..5 {
                    let before = requested_bytes();
                    let (ms, out) = timed(|| kernel.run_direct(&r.case));
                    bytes = requested_bytes() - before;
                    times.push(ms);
                    let same = match (&out, &r.verified) {
                        (Ok(o), Some(v)) => o.identical(v),
                        _ => false,
                    };
                    self.report.attempted += 1;
                    if !same {
                        self.report
                            .fail(format!("parallel {}: differs from serial", r.spec.name));
                    }
                }
                self.report.value(
                    "llir.parallel2_run_ms",
                    crate::stats::quantile(&times, 0.25),
                );
                self.report
                    .value("llir.parallel2_alloc_mb", bytes as f64 / 1e6);
            }
            None => {
                // No case of this workload has a loop the directive applies
                // to; the metric is declared for every workload, so say so
                // with a zero.
                self.report.value("llir.parallel2_run_ms", 0.0);
                self.report.value("llir.parallel2_alloc_mb", 0.0);
            }
        }

        // serve: a request in two stages (admission, then queue + run +
        // delivery), then bursts for the queue wait under the closed loop.
        let mut submit_ms = Vec::new();
        for i in 0..self.warm.len().max(8) {
            let r = &self.warm[i % self.warm.len()];
            let daemon = self
                .daemon
                .as_ref()
                .expect("server runs until the epoch ends");
            let t = &mut l.tracer;
            t.begin("request.serve");
            let reply = t
                .stage("serve.submit", || daemon.submit(&r.case, &r.stmt))
                .and_then(|pending| t.stage("serve.wait", || pending.wait()));
            let root = t.end();
            submit_ms.extend(
                t.spans()
                    .iter()
                    .filter(|s| s.parent == Some(root) && s.name == "serve.submit")
                    .map(Span::duration_ms),
            );
            let name = r.spec.name.clone();
            self.report.op(&format!("serve {name}"), reply);
        }
        self.report
            .value("serve.submit_ms", crate::stats::median(&submit_ms));
        let mut latencies = Vec::new();
        let mut waits = Vec::new();
        for _ in 0..4 {
            let (_, served) = self.serve_burst();
            latencies.extend(served.iter().map(|(ms, _)| *ms));
            waits.extend(served.iter().map(|(_, s)| s.queue_wait.as_secs_f64() * 1e3));
        }
        self.report
            .value("serve.queue_wait_ms", crate::stats::median(&waits));
        self.report
            .value("serve.latency_p50_ms", crate::stats::median(&latencies));
        let totals = self.daemon.as_ref().expect("server runs").totals();
        self.report
            .value("serve.completed", totals.completed as f64);
        self.report.value("serve.shed", totals.shed as f64);
        self.report.value("serve.degraded", totals.degraded as f64);
        if self.cfg.index == 0 {
            self.cold_growth();
        }
    }

    /// `native.cold_growth`: first-native-request time of the 24th distinct
    /// kernel over the first's, on one long-lived engine over an empty
    /// cache.
    fn cold_growth(&mut self) {
        let Some(base) = self.cold.last().map(|r| r.spec.clone()) else {
            return;
        };
        let dir = self.scratch_dir();
        sut::set_native_cache(&dir);
        let rt = sut::engine(Exec::Native);
        let mut times = Vec::new();
        let kernels = if self.cfg.scale == Scale::Quick {
            QUICK_GROWTH_KERNELS
        } else {
            GROWTH_KERNELS
        };
        for k in 0..kernels {
            // The same expression at another dimension is another kernel.
            let spec = workloads::resized(&base, k);
            let built = Case::build(&spec).and_then(|case| {
                let stmt = case.scheduled()?;
                let (ms, reply) = timed(|| case.run(&rt, &stmt));
                reply.map(|_| ms)
            });
            if let Some(ms) = self.report.op(&format!("growth kernel {k}"), built) {
                times.push(ms);
            }
        }
        if let (Some(first), Some(last)) = (times.first(), times.last()) {
            self.report.value("native.cold_growth", last / first);
        }
        let _ = std::fs::remove_dir_all(dir);
        sut::set_native_cache(&self.cfg.work_dir.join("warm"));
    }
}

/// Runs one epoch to completion.
pub fn run(cfg: Config) -> Report {
    let started = Instant::now();
    sut::clear_ambient_env();
    let trace = cfg.trace;
    let mut epoch = Epoch::set_up(cfg);
    let setup_s = started.elapsed().as_secs_f64();
    epoch.report.value("setup_s", setup_s);

    let mut layers = if trace { Some(epoch.layers()) } else { None };
    if let Some(l) = &mut layers {
        epoch.traced_once(l);
    }
    let mut round = 0;
    let mut longest_round_s = 0.0f64;
    loop {
        let enough = round >= epoch.cfg.min_rounds;
        if enough && started.elapsed().as_secs_f64() + longest_round_s > epoch.cfg.budget_s {
            break;
        }
        let t = Instant::now();
        match &mut layers {
            Some(l) => epoch.traced_round(round, l),
            None => epoch.round(round),
        }
        longest_round_s = longest_round_s.max(t.elapsed().as_secs_f64());
        round += 1;
    }
    epoch.report.rounds = round;
    if let Some(daemon) = epoch.daemon.take() {
        daemon.stop();
    }
    if let Some(l) = layers {
        epoch.report.spans = l.tracer.spans().to_vec();
        // Over the whole epoch: every warm request is a lookup.
        let (hits, misses) = sut::cache_counters(&epoch.interp);
        epoch.report.value(
            "runtime.cache_hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
    }
    epoch.report.value("peak_rss_mb", peak_rss_mb());
    epoch.report
}
