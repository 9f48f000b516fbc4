//! The format matrix: COO, CSC/DCSC, and blocked BCSR run SpMV and SpGEMM
//! end to end — through the engine, on both execution backends, on square
//! and non-square operands — and the results are byte-identical to the
//! dense/CSR oracle. Along the way every kernel's dimension parameters are
//! checked to mean the same thing to the binder, the cost environment and
//! the verifier's assumptions.
//!
//! Byte-identity (not approximate equality) holds because every format's
//! loop order visits each accumulator's contributions in the same global
//! column/reduction order as the CSR kernel, and the explicit zeros that pad
//! BCSR tiles contribute exactly `+0.0`.

use taco_core::{enumerate_candidates_for, ScheduleCandidate};
use taco_core::oracle::eval_dense;
use taco_runtime::TuneDecision;
use taco_tensor::gen::random_csr;
use taco_verify::Assumptions;
use taco_workspaces::prelude::*;

fn iv(n: &str) -> IndexVar {
    IndexVar::new(n)
}

/// A strictly positive dense vector (so padded-block products can never
/// produce `-0.0` contributions).
fn dense_vec(n: usize) -> Tensor {
    Tensor::from_entries(
        vec![n],
        Format::dvec(),
        (0..n).map(|c| (vec![c], (c % 7) as f64 + 1.0)).collect(),
    )
    .unwrap()
}

fn dense_mat(m: usize, n: usize, seed: u64) -> Tensor {
    Tensor::from_dense(&taco_tensor::gen::random_dense(m, n, seed), Format::dense(2)).unwrap()
}

/// `a(i) = Σ_j B(i,j) · x(j)` with `B` an `m`×`n` matrix in `fmt`.
/// Column-major formats (CSC, DCSC) iterate columns at the outer level, so
/// their loops are reordered to `(j, i)`; per accumulator `a(i)` the
/// contributions still arrive in increasing `j` either way, which is what
/// keeps the results bitwise equal.
fn spmv(m: usize, n: usize, fmt: Format) -> (IndexAssignment, IndexStmt) {
    let a = TensorVar::new("a", vec![m], Format::dvec());
    let b = TensorVar::new("B", vec![m, n], fmt.clone());
    let x = TensorVar::new("x", vec![n], Format::dvec());
    let (i, j) = (iv("i"), iv("j"));
    let source = IndexAssignment::assign(
        a.access([i.clone()]),
        sum(j.clone(), b.access([i.clone(), j.clone()]) * x.access([j.clone()])),
    );
    let mut stmt = IndexStmt::new(source.clone()).unwrap();
    if !fmt.is_identity_order() {
        stmt.reorder(&i, &j).unwrap();
    }
    (source, stmt)
}

/// Dense-result SpGEMM `A(i,j) = Σ_k B(i,k) · C(k,j)` with `B` an `m`×`k`
/// matrix in `fmt` and `C` a dense `k`×`n` matrix. Column-major `B` gets `k`
/// hoisted outermost (`(k,j,i)`), which preserves the increasing-`k`
/// accumulation order per `A(i,j)`.
fn spgemm_dense(m: usize, k: usize, n: usize, fmt: Format) -> (IndexAssignment, IndexStmt) {
    let a = TensorVar::new("A", vec![m, n], Format::dense(2));
    let b = TensorVar::new("B", vec![m, k], fmt.clone());
    let c = TensorVar::new("C", vec![k, n], Format::dense(2));
    let (i, j, kv) = (iv("i"), iv("j"), iv("k"));
    let source = IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(kv.clone(), b.access([i.clone(), kv.clone()]) * c.access([kv.clone(), j.clone()])),
    );
    let mut stmt = IndexStmt::new(source.clone()).unwrap();
    if !fmt.is_identity_order() {
        stmt.reorder(&i, &kv).unwrap();
    }
    (source, stmt)
}

fn sparse_formats() -> Vec<Format> {
    vec![Format::csr(), Format::dcsr(), Format::coo(2), Format::csc(), Format::dcsc()]
}

fn backends() -> [Backend; 2] {
    [Backend::Interp, Backend::Native]
}

/// The kernel's dimension parameters are per *storage level*, and every
/// reader must value them as `bind` does: the compile-time cost environment
/// scalar for scalar, and the verifier may alias only dims bound equal (the
/// native backend elides load checks on proofs made under those aliases).
fn assert_dim_params_agree(kernel: &CompiledKernel, inputs: &[(&str, &Tensor)]) {
    let binding = kernel.bind(inputs, None).unwrap();
    let env = CostEnv::from_shapes(kernel.lowered());
    let bound: Vec<(&str, i64)> = binding.scalar_entries().collect();
    assert_eq!(bound.len(), env.vars.len(), "{bound:?} vs {:?}", env.vars);
    for (dim, value) in bound {
        assert_eq!(
            env.vars.get(dim).copied(),
            Some(value as u64),
            "CostEnv::from_shapes and bind disagree on {dim}"
        );
    }
    for (dim, canon) in &Assumptions::for_lowered(kernel.lowered()).dim_alias {
        assert_eq!(
            binding.scalar(dim),
            binding.scalar(canon),
            "the verifier assumes {dim} = {canon}, which bind does not honour"
        );
    }
}

#[test]
fn spmv_is_byte_identical_across_formats_and_backends() {
    // Square, wide and tall: on the non-square shapes a level/mode mix-up
    // in any reader of the dim parameters changes a number.
    for (m, n) in [(16, 16), (3, 7), (7, 3)] {
        let b_csr = random_csr(m, n, 0.3, 101).to_tensor();
        let x = dense_vec(n);

        let (source, stmt) = spmv(m, n, Format::csr());
        let baseline = Engine::builder()
            .backend(Backend::Interp)
            .build()
            .run(&stmt, LowerOptions::compute("spmv"), &[("B", &b_csr), ("x", &x)])
            .unwrap();
        let expect = eval_dense(&source, &[("B", &b_csr), ("x", &x)]).unwrap();
        assert!(baseline.to_dense().approx_eq(&expect, 1e-12), "CSR SpMV matches the oracle");

        for fmt in sparse_formats() {
            let b = b_csr.convert(fmt.clone()).unwrap();
            let (_, stmt) = spmv(m, n, fmt.clone());
            let kernel = stmt.compile(LowerOptions::compute("spmv")).unwrap();
            assert_dim_params_agree(&kernel, &[("B", &b), ("x", &x)]);
            for backend in backends() {
                let engine = Engine::builder().backend(backend).build();
                let got = engine
                    .run(&stmt, LowerOptions::compute("spmv"), &[("B", &b), ("x", &x)])
                    .unwrap();
                assert!(
                    got.to_dense().approx_eq(&baseline.to_dense(), 0.0),
                    "{m}x{n} SpMV over {fmt} on {backend:?} must be byte-identical to CSR"
                );
            }
        }
    }
}

#[test]
fn spgemm_is_byte_identical_across_formats_and_backends() {
    for (m, k, n) in [(12, 12, 12), (3, 7, 5), (7, 3, 5)] {
        let b_csr = random_csr(m, k, 0.3, 103).to_tensor();
        let c = dense_mat(k, n, 104);

        let (source, stmt) = spgemm_dense(m, k, n, Format::csr());
        let baseline = Engine::builder()
            .backend(Backend::Interp)
            .build()
            .run(&stmt, LowerOptions::compute("spgemm"), &[("B", &b_csr), ("C", &c)])
            .unwrap();
        let expect = eval_dense(&source, &[("B", &b_csr), ("C", &c)]).unwrap();
        assert!(baseline.to_dense().approx_eq(&expect, 1e-12), "CSR SpGEMM matches the oracle");

        for fmt in sparse_formats() {
            let b = b_csr.convert(fmt.clone()).unwrap();
            let (_, stmt) = spgemm_dense(m, k, n, fmt.clone());
            let kernel = stmt.compile(LowerOptions::compute("spgemm")).unwrap();
            assert_dim_params_agree(&kernel, &[("B", &b), ("C", &c)]);
            for backend in backends() {
                let engine = Engine::builder().backend(backend).build();
                let got = engine
                    .run(&stmt, LowerOptions::compute("spgemm"), &[("B", &b), ("C", &c)])
                    .unwrap();
                assert!(
                    got.to_dense().approx_eq(&baseline.to_dense(), 0.0),
                    "{m}x{k}x{n} SpGEMM over {fmt} on {backend:?} must be byte-identical to CSR"
                );
            }
        }
    }
}

#[test]
fn blocked_spmv_matches_flat_csr_on_both_backends() {
    // y(i,k) = Σ_{j,l} B(i,j,k,l) · x(j,l): BCSR SpMV over the rank-4
    // blocked tensor, flattened back against the flat CSR kernel.
    let n = 16;
    let (br, bc) = (2, 2);
    let b_flat = random_csr(n, n, 0.3, 105).to_tensor();
    let x_flat = dense_vec(n);

    let (_, stmt) = spmv(n, n, Format::csr());
    let baseline = Engine::builder()
        .backend(Backend::Interp)
        .build()
        .run(&stmt, LowerOptions::compute("spmv"), &[("B", &b_flat), ("x", &x_flat)])
        .unwrap();

    let b4 = b_flat.to_blocked(br, bc).unwrap();
    let x2 = Tensor::from_entries(
        vec![n / bc, bc],
        Format::dense(2),
        (0..n).map(|c| (vec![c / bc, c % bc], x_flat.to_dense().data()[c])).collect(),
    )
    .unwrap();

    let y = TensorVar::new("y", vec![n / br, br], Format::dense(2));
    let bt = TensorVar::new("B", vec![n / br, n / bc, br, bc], Format::bcsr());
    let xt = TensorVar::new("x", vec![n / bc, bc], Format::dense(2));
    let (i, j, k, l) = (iv("i"), iv("j"), iv("k"), iv("l"));
    let stmt = IndexStmt::new(IndexAssignment::assign(
        y.access([i.clone(), k.clone()]),
        sum(
            j.clone(),
            sum(
                l.clone(),
                bt.access([i.clone(), j.clone(), k.clone(), l.clone()])
                    * xt.access([j.clone(), l.clone()]),
            ),
        ),
    ))
    .unwrap();

    let kernel = stmt.compile(LowerOptions::compute("bspmv")).unwrap();
    assert_dim_params_agree(&kernel, &[("B", &b4), ("x", &x2)]);
    for backend in backends() {
        let engine = Engine::builder().backend(backend).build();
        let got = engine
            .run(&stmt, LowerOptions::compute("bspmv"), &[("B", &b4), ("x", &x2)])
            .unwrap();
        // Row-major [n/br, br] linearizes to exactly the flat row index.
        assert_eq!(
            got.to_dense().data(),
            baseline.to_dense().data(),
            "blocked SpMV on {backend:?} must be byte-identical to flat CSR"
        );
    }
}

#[test]
fn blocked_spgemm_matches_flat_csr_on_both_backends() {
    // A4(bi,bj,ri,cj) = Σ_{bk,rk} B4(bi,bk,ri,rk) · C4(bk,bj,rk,cj): BCSR
    // matmul against a dense blocked operand, unblocked and compared to the
    // flat dense-result SpGEMM.
    let n = 8;
    let (br, bc) = (2, 2);
    let b_flat = random_csr(n, n, 0.4, 107).to_tensor();
    let c_flat = dense_mat(n, n, 108);

    let (_, stmt) = spgemm_dense(n, n, n, Format::csr());
    let baseline = Engine::builder()
        .backend(Backend::Interp)
        .build()
        .run(&stmt, LowerOptions::compute("spgemm"), &[("B", &b_flat), ("C", &c_flat)])
        .unwrap();

    let b4 = b_flat.to_blocked(br, bc).unwrap();
    let c4 = c_flat.to_blocked(br, bc).unwrap().convert(Format::dense(4)).unwrap();

    let a4 = TensorVar::new("A", vec![n / br, n / bc, br, bc], Format::dense(4));
    let b4v = TensorVar::new("B", vec![n / br, n / br, br, br], Format::bcsr());
    let c4v = TensorVar::new("C", vec![n / br, n / bc, br, bc], Format::dense(4));
    let (bi, bj, ri, cj) = (iv("bi"), iv("bj"), iv("ri"), iv("cj"));
    let (bk, rk) = (iv("bk"), iv("rk"));
    let stmt = IndexStmt::new(IndexAssignment::assign(
        a4.access([bi.clone(), bj.clone(), ri.clone(), cj.clone()]),
        sum(
            bk.clone(),
            sum(
                rk.clone(),
                b4v.access([bi.clone(), bk.clone(), ri.clone(), rk.clone()])
                    * c4v.access([bk.clone(), bj.clone(), rk.clone(), cj.clone()]),
            ),
        ),
    ))
    .unwrap();

    for backend in backends() {
        let engine = Engine::builder().backend(backend).build();
        let got = engine
            .run(&stmt, LowerOptions::compute("bspgemm"), &[("B", &b4), ("C", &c4)])
            .unwrap();
        let flat = got.from_blocked(Format::dense(2)).unwrap();
        assert!(
            flat.to_dense().approx_eq(&baseline.to_dense(), 0.0),
            "blocked SpGEMM on {backend:?} must be byte-identical to flat CSR"
        );
    }
}

#[test]
fn sparse_result_spgemm_agrees_across_row_major_operand_formats() {
    // True SpGEMM (CSR result, Gustavson workspace schedule) with the
    // operands in every row-major sparse format pairing: the assembled
    // result must be byte-identical — same pos/crd, bitwise-equal values —
    // to the CSR×CSR kernel, across every workspace backend.
    let n = 14;
    let b_csr = random_csr(n, n, 0.3, 109).to_tensor();
    let c_csr = random_csr(n, n, 0.3, 110).to_tensor();

    let spgemm = |bf: Format, cf: Format| {
        let a = TensorVar::new("A", vec![n, n], Format::csr());
        let b = TensorVar::new("B", vec![n, n], bf);
        let c = TensorVar::new("C", vec![n, n], cf);
        let (i, j, k) = (iv("i"), iv("j"), iv("k"));
        let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
        let mut stmt = IndexStmt::new(IndexAssignment::assign(
            a.access([i.clone(), j.clone()]),
            sum(k.clone(), mul.clone()),
        ))
        .unwrap();
        stmt.reorder(&k, &j).unwrap();
        let w = TensorVar::new("w", vec![n], Format::dvec());
        stmt.precompute(&mul, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
        stmt
    };

    let baseline = spgemm(Format::csr(), Format::csr())
        .compile(LowerOptions::fused("spgemm"))
        .unwrap()
        .run(&[("B", &b_csr), ("C", &c_csr)])
        .unwrap();

    for bf in [Format::csr(), Format::dcsr()] {
        for cf in [Format::csr(), Format::dcsr()] {
            let b = b_csr.convert(bf.clone()).unwrap();
            let c = c_csr.convert(cf.clone()).unwrap();
            let stmt = spgemm(bf.clone(), cf.clone());
            for kind in [WorkspaceKind::Dense, WorkspaceKind::Hash, WorkspaceKind::CoordList] {
                let got = stmt
                    .compile(LowerOptions::fused("spgemm").with_workspace_kind(kind))
                    .unwrap()
                    .run(&[("B", &b), ("C", &c)])
                    .unwrap();
                assert_eq!(
                    got, baseline,
                    "B:{bf} C:{cf} workspace {kind} must assemble the identical CSR result"
                );
            }
        }
    }
}

#[test]
fn candidate_space_includes_format_conversions() {
    let n = 12;
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j, k) = (iv("i"), iv("j"), iv("k"));
    let stmt = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(k.clone(), b.access([i, k.clone()]) * c.access([k, j])),
    ))
    .unwrap();

    // Under `compute`: a fused SpGEMM appends to its result in loop order, so
    // only conversions of C lower there, and a candidate is a schedule that
    // lowers under the options it is enumerated for.
    let cands: Vec<ScheduleCandidate> =
        enumerate_candidates_for(&stmt, &LowerOptions::compute("spgemm"))
            .into_iter()
            .map(|(c, _)| c)
            .collect();
    let convs: Vec<_> = cands.iter().filter(|c| !c.conversions.is_empty()).collect();
    assert!(
        !convs.is_empty(),
        "the candidate space must include format-conversion candidates: {:?}",
        cands.iter().map(|c| &c.name).collect::<Vec<_>>()
    );
    for cand in &convs {
        assert!(cand.name.contains("convert("), "conversion candidate named {}", cand.name);
    }
    // Both operands are offered alternatives.
    assert!(convs.iter().any(|c| c.name.contains("convert(B:")));
    assert!(convs.iter().any(|c| c.name.contains("convert(C:")));
}

#[test]
fn recorded_conversion_decision_replays_through_the_reuse_path() {
    // The autotuner records the winning candidate, conversions included, in
    // its TuneDecision; a remembered conversion decision must convert the
    // bound operands on reuse and still produce the oracle answer.
    let n = 12;
    let (source, stmt) = spmv(n, n, Format::csr());
    let opts = LowerOptions::compute("spmv");

    let bt = random_csr(n, n, 0.3, 111).to_tensor();
    let x = dense_vec(n);
    let inputs: Vec<(&str, &Tensor)> = vec![("B", &bt), ("x", &x)];

    let cands = enumerate_candidates_for(&stmt, &opts);
    let (conv, _) = cands
        .iter()
        .find(|(c, _)| !c.conversions.is_empty())
        .expect("a conversion candidate exists");
    conv.stmt
        .compile(opts.clone().with_workspace_kind(conv.workspace_kind))
        .expect("every candidate compiles under the options it was enumerated for");

    let engine = Engine::new();
    engine.tuner().record(
        TuneKey::new(&stmt, &inputs),
        TuneDecision { candidate: conv.clone(), best_nanos: 1 },
    );

    let out = engine.run_tuned(&stmt, opts, &inputs).unwrap();
    assert!(!out.tuned, "the recorded decision must be reused, not re-searched");
    assert_eq!(out.schedule, conv.name);
    let expect = eval_dense(&source, &inputs).unwrap();
    assert!(
        out.result.to_dense().approx_eq(&expect, 1e-9),
        "converted-operand reuse must still match the oracle"
    );
}
