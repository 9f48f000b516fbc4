//! The autotuner's candidate list is exact under the caller's options: a
//! candidate is a schedule that lowers and verifies under the options it was
//! enumerated for, nothing else is listed, what is listed compiles, and what
//! compiles computes what the dense oracle does.

use std::collections::HashSet;
use taco_core::oracle::eval_dense;
use taco_core::enumerate_candidates_for;
use taco_llir::{emit_native, Executable, Kernel, KernelBody};
use taco_native::NativeCompiler;
use taco_tensor::gen::{random_csf3, random_csr, random_dense};
use taco_tensor::LevelType;
use taco_workspaces::prelude::*;

fn iv(n: &str) -> IndexVar {
    IndexVar::new(n)
}

fn spgemm(n: usize) -> IndexStmt {
    spgemm_into(n, Format::csr())
}

fn spgemm_into(n: usize, result: Format) -> IndexStmt {
    let a = TensorVar::new("A", vec![n, n], result);
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j, k) = (iv("i"), iv("j"), iv("k"));
    IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(k.clone(), b.access([i, k.clone()]) * c.access([k, j])),
    ))
    .unwrap()
}

/// `A = B + C` or `A = B + C + D`, all CSR.
fn sparse_add(m: usize, n: usize, operands: usize) -> IndexStmt {
    let (i, j) = (iv("i"), iv("j"));
    let term = |name: &str| -> IndexExpr {
        TensorVar::new(name, vec![m, n], Format::csr()).access([i.clone(), j.clone()]).into()
    };
    let rhs = ["C", "D"][..operands - 1].iter().fold(term("B"), |acc, name| acc + term(name));
    let a = TensorVar::new("A", vec![m, n], Format::csr());
    IndexStmt::new(IndexAssignment::assign(a.access([i.clone(), j.clone()]), rhs)).unwrap()
}

/// MTTKRP over a CSF tensor; the factor matrices and the result are dense
/// or all CSR.
fn mttkrp(di: usize, dk: usize, dl: usize, r: usize, sparse: bool) -> IndexStmt {
    let matrix = |name: &str, rows: usize| {
        let format = if sparse { Format::csr() } else { Format::dense(2) };
        TensorVar::new(name, vec![rows, r], format)
    };
    let csf = Format::new(vec![LevelType::Dense, LevelType::Compressed, LevelType::Compressed]);
    let b = TensorVar::new("B", vec![di, dk, dl], csf);
    let (a, c, d) = (matrix("A", di), matrix("C", dl), matrix("D", dk));
    let (i, j, k, l) = (iv("i"), iv("j"), iv("k"), iv("l"));
    IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(
            k.clone(),
            sum(
                l.clone(),
                b.access([i, k.clone(), l.clone()]) * c.access([l, j.clone()]) * d.access([k, j]),
            ),
        ),
    ))
    .unwrap()
}

fn spmv(n: usize) -> IndexStmt {
    let y = TensorVar::new("y", vec![n], Format::dvec());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let x = TensorVar::new("x", vec![n], Format::dvec());
    let (i, j) = (iv("i"), iv("j"));
    IndexStmt::new(IndexAssignment::assign(
        y.access([i.clone()]),
        sum(j.clone(), b.access([i, j.clone()]) * x.access([j])),
    ))
    .unwrap()
}

fn option_sets() -> [LowerOptions; 4] {
    [
        LowerOptions::fused("k"),
        LowerOptions::compute("k"),
        LowerOptions::assemble("k"),
        LowerOptions::fused("k").with_f32_workspaces(),
    ]
}

/// The workspace kinds a candidate runs under: the tuner's space leaves
/// storage to the caller, so the check adds the map kinds itself wherever
/// there is a workspace to store.
fn kinds_of(stmt: &IndexStmt) -> &'static [WorkspaceKind] {
    if stmt_workspaces(stmt.concrete()).is_empty() {
        &[WorkspaceKind::Dense]
    } else {
        &[WorkspaceKind::Dense, WorkspaceKind::Hash, WorkspaceKind::CoordList]
    }
}

/// A working C compiler, or `None` with a visible skip marker: resolving
/// `$CC` spawns nothing, so one trivial build shows the toolchain works.
fn native_compiler() -> Option<NativeCompiler> {
    let trivial = Executable::compile(&Kernel::new("candidates_cc")).unwrap();
    let Ok(src) = emit_native(&trivial);
    match NativeCompiler::from_env().and_then(|cc| cc.compile(&src, 0).map(|_| cc)) {
        Ok(cc) => Some(cc),
        Err(e) => {
            eprintln!("SKIPPED the native leg: no C toolchain ({e})");
            None
        }
    }
}

/// Operands for one statement: every tensor its right-hand side reads, in
/// its declared format, with strictly positive values so no sum cancels and
/// the oracle's nonzero pattern is the structural one.
fn operands_of(stmt: &IndexStmt) -> Vec<(String, Tensor)> {
    let mut out: Vec<(String, Tensor)> = Vec::new();
    stmt.source().rhs().visit(&mut |e| {
        let IndexExpr::Access(a) = e else { return };
        let var = a.tensor();
        if out.iter().any(|(name, _)| name == var.name()) {
            return;
        }
        let seed = 7 + out.len() as u64;
        let shape = var.shape().to_vec();
        let dense = match shape[..] {
            [n] => DenseTensor::from_data(vec![n], random_dense(n, 1, seed).into_data()),
            [m, n] if var.format().is_all_dense() => random_dense(m, n, seed),
            [m, n] => random_csr(m, n, 0.3, seed).to_tensor().to_dense(),
            [a, b, c] => random_csf3([a, b, c], a * b * c / 4, seed).to_tensor().to_dense(),
            _ => unreachable!("the table's statements have rank 1-3 operands"),
        };
        let t = Tensor::from_dense(&dense, var.format().clone()).unwrap();
        out.push((var.name().to_string(), t));
    });
    out
}

/// What a candidate must compute, and from what: its operands (converted as
/// it asks), the structure a compute kernel runs over, and the oracle.
struct Oracle<'a> {
    ops: &'a [(&'a str, &'a Tensor)],
    structure: Option<&'a Tensor>,
    expect: &'a DenseTensor,
    tol: f64,
}

impl Oracle<'_> {
    /// Runs one compiled candidate through `body`: a sparse assemble
    /// result's pattern must be the oracle's nonzero pattern, every other
    /// result's values the oracle's.
    fn check<B: KernelBody>(&self, kernel: &CompiledKernel, body: &B) -> Result<(), String> {
        let (result, _) = kernel
            .run_with_body(body, self.ops, self.structure, None)
            .map_err(|e| format!("the run failed: {e}"))?;
        if kernel.lowered().kind == KernelKind::Assemble {
            let pattern: Vec<Vec<usize>> = result.entries().into_iter().map(|(c, _)| c).collect();
            let oracle: Vec<Vec<usize>> = self.expect.iter_nonzeros().map(|(c, _)| c).collect();
            if pattern != oracle {
                let (got, want) = (pattern.len(), oracle.len());
                return Err(format!("assembled {got} entries against the oracle's {want}"));
            }
        } else if !result.to_dense().approx_eq(self.expect, self.tol) {
            let got = result.to_dense();
            let diff = got.data().iter().zip(self.expect.data()).map(|(a, b)| (a - b).abs());
            let diff = diff.fold(0.0, f64::max);
            return Err(format!("values differ from the oracle's by up to {diff}"));
        }
        Ok(())
    }
}

#[test]
fn every_candidate_compiles_under_the_options_it_was_enumerated_for() {
    // Candidates per kernel under [fused, compute, assemble, f32
    // workspaces]: the option-sensitivity table of EXPERIMENTS.md, "One
    // front half, run once". A row is not constant, which is why the
    // enumerator takes the caller's options instead of guessing with one set.
    // Result order is the result's format: `spgemm-hashed` is SpGEMM into
    // `(d,h)`, where a compute kernel must drain through the structure
    // (a counter-ordered write could miss a hashed row's order).
    //
    // Every candidate also runs, under every workspace kind it lowers with,
    // against the dense oracle on the interpreter; where a C toolchain
    // works, the fused candidates with dense workspaces run natively too.
    let dh = Format::new(vec![LevelType::Dense, LevelType::Hashed]);
    let kernels: [(&str, IndexStmt, [usize; 4]); 7] = [
        ("spgemm", spgemm(16), [1, 2, 1, 1]),
        ("spgemm-hashed", spgemm_into(16, dh), [1, 2, 1, 1]),
        ("add2", sparse_add(16, 20, 2), [1, 1, 1, 1]),
        ("add3", sparse_add(16, 20, 3), [1, 1, 1, 1]),
        ("mttkrp-dense", mttkrp(12, 10, 11, 8, false), [6, 6, 0, 6]),
        ("mttkrp-sparse", mttkrp(14, 9, 10, 12, true), [0, 0, 0, 0]),
        ("spmv", spmv(12), [5, 5, 0, 5]),
    ];
    let cc = native_compiler();
    let (mut wrong, mut table) = (Vec::new(), Vec::new());
    for (kernel, stmt, _) in &kernels {
        let inputs = operands_of(stmt);
        let input_refs: Vec<(&str, &Tensor)> =
            inputs.iter().map(|(n, t)| (n.as_str(), t)).collect();
        let expect = eval_dense(stmt.source(), &input_refs).unwrap();
        let result_format = stmt.source().lhs().tensor().format().clone();
        let structure = Tensor::from_dense(&expect, result_format).unwrap();
        let mut counts = [0usize; 4];
        for (count, opts) in counts.iter_mut().zip(option_sets()) {
            let cands = enumerate_candidates_for(stmt, &opts);
            *count = cands.len();
            let structure = (opts.kind == KernelKind::Compute).then_some(&structure);
            let tol = if opts.f32_workspaces { 1e-5 } else { 1e-9 };
            let mut names = HashSet::new();
            for (cand, front) in &cands {
                let what = format!("{kernel} [{}] under {opts:?}", cand.name);
                assert!(names.insert(cand.name.as_str()), "{what}: duplicate name");
                let compiled = cand
                    .stmt
                    .compile_checked(opts.clone(), ResourceBudget::unlimited(), VerifyMode::Deny)
                    .unwrap_or_else(|e| panic!("{what}: does not compile: {e}"));
                assert_eq!(
                    compiled.lowered().kernel,
                    front.lowered().kernel,
                    "{what}: the carried product is not what the statement compiles to"
                );

                // Conversion candidates take their operand in the rewritten
                // format, as the engine feeds them.
                let converted: Vec<(&str, Tensor)> = input_refs
                    .iter()
                    .map(|&(name, t)| match cand.conversions.iter().find(|(c, _)| c == name) {
                        Some((_, f)) => (name, t.convert(f.clone()).unwrap()),
                        None => (name, t.clone()),
                    })
                    .collect();
                let ops: Vec<(&str, &Tensor)> = converted.iter().map(|(n, t)| (*n, t)).collect();
                let oracle = Oracle { ops: &ops, structure, expect: &expect, tol };
                for &kind in kinds_of(&cand.stmt) {
                    let what = format!("{what} with {kind} workspaces");
                    let Ok(k) = cand.stmt.compile(opts.clone().with_workspace_kind(kind)) else {
                        assert_ne!(kind, WorkspaceKind::Dense, "{what}: does not compile");
                        continue;
                    };
                    let checked = oracle.check(&k, k.executable());
                    wrong.extend(checked.err().map(|e| format!("{what}: {e}")));
                }
                let native = opts.kind == KernelKind::Fused && !opts.f32_workspaces;
                if let Some(cc) = cc.as_ref().filter(|_| native) {
                    let Ok(src) = emit_native(compiled.executable());
                    let so = cc.compile(&src, compiled.fingerprint()).unwrap();
                    let checked = oracle.check(&compiled, &so);
                    wrong.extend(checked.err().map(|e| format!("{what}, native: {e}")));
                }
            }
        }
        table.push((*kernel, counts));
    }
    assert!(wrong.is_empty(), "{} wrong runs:\n{}", wrong.len(), wrong.join("\n"));
    let expected: Vec<(&str, [usize; 4])> = kernels.iter().map(|(k, _, c)| (*k, *c)).collect();
    assert_eq!(table, expected, "candidates per option set");
}

#[test]
fn kernels_that_differ_only_inside_a_loop_nest_are_distinct_candidates() {
    // The dedupe hash reads the whole body. Of the dense MTTKRP kernels
    // under `compute`, `reorder(j,k)` has the top-level statements of
    // `direct-merge`, and `reorder(j,k) + precompute(l)` those of
    // `precompute(l)`, each with a different loop nest below.
    let stmt = mttkrp(12, 10, 11, 8, false);
    let cands = enumerate_candidates_for(&stmt, &LowerOptions::compute("k"));
    let names = ["direct-merge", "reorder(j,k)", "precompute(l)", "reorder(j,k) + precompute(l)"];
    let kernels: Vec<&taco_llir::Kernel> = names
        .iter()
        .map(|name| {
            let found = cands.iter().find(|(c, _)| c.name == *name);
            let (_, front) = found.unwrap_or_else(|| panic!("`{name}` is not a candidate"));
            &front.lowered().kernel
        })
        .collect();
    for (a, first) in kernels.iter().enumerate() {
        for second in &kernels[a + 1..] {
            assert_ne!(first.body, second.body);
        }
    }
}

#[test]
fn a_hand_applied_schedule_competes_first_under_every_option_set() {
    let n = 16;
    let (i, j, k) = (iv("i"), iv("j"), iv("k"));
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let mul = b.access([i, k.clone()]) * c.access([k.clone(), j.clone()]);
    let mut fig2 = spgemm(n);
    fig2.reorder(&k, &j).unwrap();
    let w = TensorVar::new("w", vec![n], Format::dvec());
    fig2.precompute(&mul, &[(j.clone(), j.clone(), j)], &w).unwrap();
    for opts in option_sets() {
        let cands = enumerate_candidates_for(&fig2, &opts);
        assert_eq!(cands[0].0.name, "as-scheduled", "under {opts:?}");
        assert_eq!(cands[0].0.stmt.concrete(), fig2.concrete());
    }
}
