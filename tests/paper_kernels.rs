//! End-to-end tests: every kernel discussed in the paper is scheduled,
//! compiled through all stages of Figure 6, executed, and checked against
//! the dense oracle. The SpGEMM and dense MTTKRP kernels are also checked
//! against the hand-written references in `taco-kernels`.

use taco_core::oracle::eval_dense;
use taco_core::IndexStmt;
use taco_ir::expr::{sum, IndexExpr, IndexVar, TensorVar};
use taco_ir::notation::IndexAssignment;
use taco_lower::LowerOptions;
use taco_tensor::gen::{random_csf3, random_csr, random_dense, random_svec};
use taco_tensor::{Csr, Format, Tensor};

fn iv(n: &str) -> IndexVar {
    IndexVar::new(n)
}

fn csr_tensor(m: &Csr) -> Tensor {
    m.to_tensor()
}

fn assert_matches_oracle(stmt: &IndexAssignment, result: &Tensor, inputs: &[(&str, &Tensor)]) {
    let expect = eval_dense(stmt, inputs).expect("oracle evaluates");
    let got = result.to_dense();
    assert!(
        got.approx_eq(&expect, 1e-10),
        "kernel result disagrees with dense oracle\nexpected {expect}\ngot      {got}"
    );
}

/// Figure 1c: SpGEMM with a dense result — sparse B and C iterated, dense
/// scatter into A.
#[test]
fn fig1c_spgemm_dense_result() {
    let n = 20;
    let a = TensorVar::new("A", vec![n, n], Format::dense(2));
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j, k) = (iv("i"), iv("j"), iv("k"));
    let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
    let source =
        IndexAssignment::assign(a.access([i.clone(), j.clone()]), sum(k.clone(), mul.clone()));
    let mut stmt = IndexStmt::new(source.clone()).unwrap();
    stmt.reorder(&k, &j).unwrap();

    let kernel = stmt.compile(LowerOptions::compute("spmm_dense")).unwrap();
    let src = kernel.to_c();
    assert!(src.contains("memset(A"), "dense result is zero-initialized:\n{src}");

    let bt = csr_tensor(&random_csr(n, n, 0.15, 10));
    let ct = csr_tensor(&random_csr(n, n, 0.15, 11));
    let out = kernel.run(&[("B", &bt), ("C", &ct)]).unwrap();
    assert_matches_oracle(&source, &out, &[("B", &bt), ("C", &ct)]);
}

/// Figures 1d + 2: SpGEMM with a sparse result via the workspace
/// transformation, in fused assemble-and-compute mode.
#[test]
fn fig1d_spgemm_sparse_result_fused() {
    let n = 24;
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j, k) = (iv("i"), iv("j"), iv("k"));
    let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
    let source =
        IndexAssignment::assign(a.access([i.clone(), j.clone()]), sum(k.clone(), mul.clone()));
    let mut stmt = IndexStmt::new(source.clone()).unwrap();
    stmt.reorder(&k, &j).unwrap();
    let w = TensorVar::new("w", vec![n], Format::dvec());
    stmt.precompute(&mul, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();

    let kernel = stmt.compile(LowerOptions::fused("spgemm")).unwrap();
    let bm = random_csr(n, n, 0.12, 20);
    let cm = random_csr(n, n, 0.12, 21);
    let (bt, ct) = (csr_tensor(&bm), csr_tensor(&cm));
    let out = kernel.run(&[("B", &bt), ("C", &ct)]).unwrap();
    assert_matches_oracle(&source, &out, &[("B", &bt), ("C", &ct)]);

    // The compiled kernel agrees with the hand-written workspace SpGEMM
    // (same algorithm).
    let native = taco_kernels::spgemm::spgemm_workspace_sorted(&bm, &cm);
    assert!(Csr::from_tensor(&out).unwrap().approx_eq(&native, 1e-12));
}

/// Figure 1d in compute mode: the result's CSR index is pre-assembled and
/// only values are computed.
#[test]
fn fig1d_spgemm_sparse_result_precomputed_structure() {
    let n = 16;
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j, k) = (iv("i"), iv("j"), iv("k"));
    let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
    let source =
        IndexAssignment::assign(a.access([i.clone(), j.clone()]), sum(k.clone(), mul.clone()));
    let mut stmt = IndexStmt::new(source.clone()).unwrap();
    stmt.reorder(&k, &j).unwrap();
    let w = TensorVar::new("w", vec![n], Format::dvec());
    stmt.precompute(&mul, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();

    let bm = random_csr(n, n, 0.2, 30);
    let cm = random_csr(n, n, 0.2, 31);
    let (bt, ct) = (csr_tensor(&bm), csr_tensor(&cm));

    // Assemble the structure with the symbolic kernel (Figure 8) ...
    let assemble = stmt.compile(LowerOptions::assemble("spgemm_assemble")).unwrap();
    let structure = assemble.run(&[("B", &bt), ("C", &ct)]).unwrap();

    // ... then compute values against it (Figure 1d).
    let compute = stmt.compile(LowerOptions::compute("spgemm_compute")).unwrap();
    let out = compute.run_with(&[("B", &bt), ("C", &ct)], Some(&structure)).unwrap();
    assert_matches_oracle(&source, &out, &[("B", &bt), ("C", &ct)]);
}

/// Figure 4: inner products of rows, before (merge) and after (workspace).
#[test]
fn fig4_row_inner_products() {
    let n = 30;
    let av = TensorVar::new("a", vec![n], Format::dvec());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j) = (iv("i"), iv("j"));
    let bij: IndexExpr = b.access([i.clone(), j.clone()]).into();
    let source = IndexAssignment::assign(
        av.access([i.clone()]),
        sum(j.clone(), bij.clone() * c.access([i.clone(), j.clone()])),
    );

    let bm = random_csr(n, n, 0.2, 40);
    let cm = random_csr(n, n, 0.2, 41);
    let (bt, ct) = (csr_tensor(&bm), csr_tensor(&cm));

    // Before: merge loop (Figure 4a).
    let before = IndexStmt::new(source.clone()).unwrap();
    let kb = before.compile(LowerOptions::compute("inner_before")).unwrap();
    assert!(kb.to_c().contains("while ("), "expected a coiteration merge loop:\n{}", kb.to_c());
    let out_b = kb.run(&[("B", &bt), ("C", &ct)]).unwrap();
    assert_matches_oracle(&source, &out_b, &[("B", &bt), ("C", &ct)]);

    // After: precompute B into a workspace (Figure 4b) — merge loop gone.
    let mut after = IndexStmt::new(source.clone()).unwrap();
    let w = TensorVar::new("w", vec![n], Format::dvec());
    after.precompute(&bij, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
    let ka = after.compile(LowerOptions::compute("inner_after")).unwrap();
    assert!(!ka.to_c().contains("while ("), "workspace removes the merge loop:\n{}", ka.to_c());
    let out_a = ka.run(&[("B", &bt), ("C", &ct)]).unwrap();
    assert_matches_oracle(&source, &out_a, &[("B", &bt), ("C", &ct)]);
}

/// Figure 5: sparse matrix addition — merge-based (5a), then with the
/// workspace transformation applied twice including result reuse (5b).
#[test]
fn fig5_sparse_matrix_addition() {
    let n = 24;
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j) = (iv("i"), iv("j"));
    let bij: IndexExpr = b.access([i.clone(), j.clone()]).into();
    let cij: IndexExpr = c.access([i.clone(), j.clone()]).into();
    let source =
        IndexAssignment::assign(a.access([i.clone(), j.clone()]), bij.clone() + cij.clone());

    let bm = random_csr(n, n, 0.1, 50);
    let cm = random_csr(n, n, 0.1, 51);
    let (bt, ct) = (csr_tensor(&bm), csr_tensor(&cm));

    // 5a: merge loops appending directly to A (compute with pre-assembled
    // structure derived from the fused merge run).
    let before = IndexStmt::new(source.clone()).unwrap();
    let kb = before.compile(LowerOptions::fused("add_merge")).unwrap();
    assert!(kb.to_c().contains("while ("), "expected merge loops:\n{}", kb.to_c());
    let out_b = kb.run(&[("B", &bt), ("C", &ct)]).unwrap();
    assert_matches_oracle(&source, &out_b, &[("B", &bt), ("C", &ct)]);

    // 5b: workspace + result reuse.
    let mut after = IndexStmt::new(source.clone()).unwrap();
    let w = TensorVar::new("w", vec![n], Format::dvec());
    let sum_expr = bij.clone() + cij;
    after.precompute(&sum_expr, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
    after.precompute(&bij, &[], &w).unwrap();
    assert_eq!(
        after.concrete().to_string(),
        "∀i ((∀j A(i,j) = w(j)) where (∀j w(j) = B(i,j) ; ∀j w(j) += C(i,j)))"
    );
    let ka = after.compile(LowerOptions::fused("add_workspace")).unwrap();
    assert!(!ka.to_c().contains("while ("), "workspace removes merge loops:\n{}", ka.to_c());
    let out_a = ka.run(&[("B", &bt), ("C", &ct)]).unwrap();
    assert_matches_oracle(&source, &out_a, &[("B", &bt), ("C", &ct)]);
}

/// Figure 13: a seven-operand addition with result reuse applied once per
/// operand. Each application splits the assignment the previous one left in
/// the sequence, so every operand is scattered into the row workspace by a
/// loop of its own and no merge loop remains.
#[test]
fn fig13_kway_addition_with_result_reuse() {
    let n = 30;
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let (i, j) = (iv("i"), iv("j"));
    let names: Vec<String> = (0..7).map(|x| format!("B{x}")).collect();
    let ops: Vec<IndexExpr> = names
        .iter()
        .map(|name| TensorVar::new(name, vec![n, n], Format::csr()).access([i.clone(), j.clone()]).into())
        .collect();
    let total = IndexExpr::sum_of(ops.clone());
    let source = IndexAssignment::assign(a.access([i.clone(), j.clone()]), total.clone());

    let mut stmt = IndexStmt::new(source.clone()).unwrap();
    let w = TensorVar::new("w", vec![n], Format::dvec());
    stmt.precompute(&total, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
    for op in &ops[..6] {
        stmt.precompute(op, &[], &w).unwrap();
    }
    let kernel = stmt.compile(LowerOptions::fused("add7_workspace")).unwrap();
    assert!(!kernel.to_c().contains("while ("), "no merge loop:\n{}", kernel.to_c());

    let tensors: Vec<Tensor> =
        (0..7).map(|x| csr_tensor(&random_csr(n, n, 0.02 * (x + 1) as f64, 130 + x))).collect();
    let inputs: Vec<(&str, &Tensor)> = names.iter().map(String::as_str).zip(&tensors).collect();
    let out = kernel.run(&inputs).unwrap();
    assert_matches_oracle(&source, &out, &inputs);
}

/// Figure 7: sparse tensor-times-vector with coiteration in the inner loop.
#[test]
fn fig7_tensor_times_vector() {
    let (di, dj, dk) = (10, 9, 40);
    let a = TensorVar::new("A", vec![di, dj], Format::dense(2));
    let b = TensorVar::new("B", vec![di, dj, dk], Format::csf3());
    let c = TensorVar::new("c", vec![dk], Format::svec());
    let (i, j, k) = (iv("i"), iv("j"), iv("k"));
    let source = IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(k.clone(), b.access([i.clone(), j.clone(), k.clone()]) * c.access([k.clone()])),
    );
    let stmt = IndexStmt::new(source.clone()).unwrap();
    let kernel = stmt.compile(LowerOptions::compute("tensor_vec")).unwrap();
    let src = kernel.to_c();
    assert!(src.contains("while ("), "inner loop coiterates B's mode 3 with c:\n{src}");

    let bq = random_csf3([di, dj, dk], 200, 60);
    let bt = bq.to_tensor();
    let cvec = random_svec(dk, 0.3, 61);
    let ct = Tensor::from_entries(
        vec![dk],
        Format::svec(),
        cvec.iter().map(|(k, v)| (vec![*k], *v)).collect(),
    )
    .unwrap();

    let out = kernel.run(&[("B", &bt), ("c", &ct)]).unwrap();
    assert_matches_oracle(&source, &out, &[("B", &bt), ("c", &ct)]);
}

/// Figure 9: MTTKRP with dense output, before and after the first
/// workspace transformation.
#[test]
fn fig9_mttkrp_dense() {
    let (di, dk, dl, r) = (12, 10, 11, 8);
    let a = TensorVar::new("A", vec![di, r], Format::dense(2));
    let b = TensorVar::new("B", vec![di, dk, dl], Format::csf3());
    let c = TensorVar::new("C", vec![dl, r], Format::dense(2));
    let d = TensorVar::new("D", vec![dk, r], Format::dense(2));
    let (i, j, k, l) = (iv("i"), iv("j"), iv("k"), iv("l"));
    let bc = b.access([i.clone(), k.clone(), l.clone()]) * c.access([l.clone(), j.clone()]);
    let source = IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(k.clone(), sum(l.clone(), bc.clone() * d.access([k.clone(), j.clone()]))),
    );

    let bq = random_csf3([di, dk, dl], 160, 70);
    let bt = bq.to_tensor();
    let cd = random_dense(dl, r, 71);
    let dd = random_dense(dk, r, 72);
    let ct = Tensor::from_dense(&cd, Format::dense(2)).unwrap();
    let dt = Tensor::from_dense(&dd, Format::dense(2)).unwrap();

    // Before: ∀iklj with everything in the inner loop.
    let mut before = IndexStmt::new(source.clone()).unwrap();
    before.reorder(&j, &k).unwrap();
    before.reorder(&j, &l).unwrap();
    let kb = before.compile(LowerOptions::compute("mttkrp_before")).unwrap();
    let out_b = kb.run(&[("B", &bt), ("C", &ct), ("D", &dt)]).unwrap();
    assert_matches_oracle(&source, &out_b, &[("B", &bt), ("C", &ct), ("D", &dt)]);

    // After: precompute B*C into a workspace over j (Figure 9 green).
    let mut after = IndexStmt::new(source.clone()).unwrap();
    after.reorder(&j, &k).unwrap();
    after.reorder(&j, &l).unwrap();
    let w = TensorVar::new("w", vec![r], Format::dvec());
    after.precompute(&bc, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
    let ka = after.compile(LowerOptions::compute("mttkrp_after")).unwrap();
    let out_a = ka.run(&[("B", &bt), ("C", &ct), ("D", &dt)]).unwrap();
    assert_matches_oracle(&source, &out_a, &[("B", &bt), ("C", &ct), ("D", &dt)]);

    // Matches the hand-written workspace MTTKRP.
    let cm = taco_kernels::mttkrp::DenseMat { nrows: dl, ncols: r, data: cd.data().to_vec() };
    let dm = taco_kernels::mttkrp::DenseMat { nrows: dk, ncols: r, data: dd.data().to_vec() };
    let native = taco_kernels::mttkrp::mttkrp_workspace(&bq, &cm, &dm);
    let got = out_a.to_dense();
    for i in 0..di {
        for j in 0..r {
            assert!((got.get(&[i, j]) - native.get(i, j)).abs() < 1e-10);
        }
    }
}

/// Figure 10: MTTKRP with sparse matrices and sparse output, after both
/// workspace transformations.
#[test]
fn fig10_mttkrp_sparse() {
    let (di, dk, dl, r) = (14, 9, 10, 12);
    let a = TensorVar::new("A", vec![di, r], Format::csr());
    let b = TensorVar::new("B", vec![di, dk, dl], Format::csf3());
    let c = TensorVar::new("C", vec![dl, r], Format::csr());
    let d = TensorVar::new("D", vec![dk, r], Format::csr());
    let (i, j, k, l) = (iv("i"), iv("j"), iv("k"), iv("l"));
    let bc = b.access([i.clone(), k.clone(), l.clone()]) * c.access([l.clone(), j.clone()]);
    let source = IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(k.clone(), sum(l.clone(), bc.clone() * d.access([k.clone(), j.clone()]))),
    );

    let mut stmt = IndexStmt::new(source.clone()).unwrap();
    stmt.reorder(&j, &k).unwrap();
    stmt.reorder(&j, &l).unwrap();
    let w = TensorVar::new("w", vec![r], Format::dvec());
    stmt.precompute(&bc, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
    let wd = IndexExpr::from(w.access([j.clone()])) * d.access([k.clone(), j.clone()]);
    let v = TensorVar::new("v", vec![r], Format::dvec());
    stmt.precompute(&wd, &[(j.clone(), j.clone(), j.clone())], &v).unwrap();
    assert_eq!(
        stmt.concrete().to_string(),
        "∀i ((∀j A(i,j) = v(j)) where (∀k ((∀j v(j) += w(j) * D(k,j)) where (∀l ∀j w(j) += B(i,k,l) * C(l,j)))))"
    );

    let kernel = stmt.compile(LowerOptions::fused("mttkrp_sparse")).unwrap();
    let src = kernel.to_c();
    // Figure 10 line 6: w is re-zeroed inside the k loop because D's sparse
    // row drives the consumer.
    assert!(src.contains("memset(w"), "w must be memset per where entry:\n{src}");

    let bq = random_csf3([di, dk, dl], 120, 80);
    let bt = bq.to_tensor();
    let cm = random_csr(dl, r, 0.4, 81);
    let dm = random_csr(dk, r, 0.4, 82);
    let (ct, dt) = (csr_tensor(&cm), csr_tensor(&dm));

    let out = kernel.run(&[("B", &bt), ("C", &ct), ("D", &dt)]).unwrap();
    assert_matches_oracle(&source, &out, &[("B", &bt), ("C", &ct), ("D", &dt)]);
}

/// Section V-B: dense-result vector addition with result reuse compiles to
/// a sequence (two loops, no temporary).
#[test]
fn result_reuse_vector_addition() {
    let n = 50;
    let a = TensorVar::new("a", vec![n], Format::dvec());
    let b = TensorVar::new("b", vec![n], Format::svec());
    let c = TensorVar::new("c", vec![n], Format::svec());
    let i = iv("i");
    let bi: IndexExpr = b.access([i.clone()]).into();
    let source =
        IndexAssignment::assign(a.access([i.clone()]), bi.clone() + c.access([i.clone()]));

    let mut stmt = IndexStmt::new(source.clone()).unwrap();
    stmt.precompute(&bi, &[], &a).unwrap();
    assert_eq!(stmt.concrete().to_string(), "∀i a(i) = b(i) ; ∀i a(i) += c(i)");

    let kernel = stmt.compile(LowerOptions::compute("vec_add_reuse")).unwrap();
    assert!(!kernel.to_c().contains("while ("), "no merge loop needed:\n{}", kernel.to_c());

    let bv = random_svec(n, 0.2, 90);
    let cv = random_svec(n, 0.2, 91);
    let bt = Tensor::from_entries(
        vec![n],
        Format::svec(),
        bv.iter().map(|(k, v)| (vec![*k], *v)).collect(),
    )
    .unwrap();
    let ct = Tensor::from_entries(
        vec![n],
        Format::svec(),
        cv.iter().map(|(k, v)| (vec![*k], *v)).collect(),
    )
    .unwrap();
    let out = kernel.run(&[("b", &bt), ("c", &ct)]).unwrap();
    assert_matches_oracle(&source, &out, &[("b", &bt), ("c", &ct)]);
}

/// A scalar inner reduction concretizes to a scalar-temporary where
/// statement and still compiles and runs.
#[test]
fn scalar_temporary_reduction() {
    let n = 12;
    let a = TensorVar::new("a", vec![n], Format::dvec());
    let d = TensorVar::new("d", vec![n], Format::dvec());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let (i, j) = (iv("i"), iv("j"));
    let source = IndexAssignment::assign(
        a.access([i.clone()]),
        IndexExpr::from(d.access([i.clone()])) + sum(j.clone(), b.access([i.clone(), j.clone()])),
    );
    let stmt = IndexStmt::new(source.clone()).unwrap();
    let kernel = stmt.compile(LowerOptions::compute("scalar_temp")).unwrap();

    let dm = random_dense(n, 1, 100);
    let dt = Tensor::from_dense(
        &taco_tensor::DenseTensor::from_data(vec![n], dm.data().to_vec()),
        Format::dvec(),
    )
    .unwrap();
    let bt = csr_tensor(&random_csr(n, n, 0.3, 101));
    let out = kernel.run(&[("d", &dt), ("B", &bt)]).unwrap();
    assert_matches_oracle(&source, &out, &[("d", &dt), ("B", &bt)]);
}
