//! Integration tests for the scheduling API (paper Section III): error
//! behaviour, heuristics-driven scheduling, split variables, and the
//! mixed-precision workspace option.

use taco_core::oracle::eval_dense;
use taco_core::{CoreError, IndexStmt};
use taco_ir::expr::{sum, IndexExpr, IndexVar, TensorVar};
use taco_ir::heuristics::Reason;
use taco_ir::notation::IndexAssignment;
use taco_ir::IrError;
use taco_lower::{LowerError, LowerOptions};
use taco_tensor::gen::random_csr;
use taco_tensor::Format;

fn iv(n: &str) -> IndexVar {
    IndexVar::new(n)
}

fn spgemm_stmt(n: usize) -> (IndexStmt, IndexExpr, IndexAssignment) {
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j, k) = (iv("i"), iv("j"), iv("k"));
    let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
    let source =
        IndexAssignment::assign(a.access([i.clone(), j.clone()]), sum(k.clone(), mul.clone()));
    (IndexStmt::new(source.clone()).unwrap(), mul, source)
}

/// Scattering into a sparse result without a workspace is rejected by the
/// lowerer with the error that motivates the transformation (Section V:
/// "avoid expensive inserts").
#[test]
fn sparse_scatter_without_workspace_is_rejected() {
    let (mut stmt, _, _) = spgemm_stmt(8);
    stmt.reorder(&iv("k"), &iv("j")).unwrap();
    let err = stmt.compile(LowerOptions::fused("bad")).unwrap_err();
    match err {
        CoreError::Lower(LowerError::SparseScatter { result, var }) => {
            assert_eq!(result, "A");
            assert_eq!(var, "k");
        }
        other => panic!("expected SparseScatter, got {other}"),
    }
}

/// The heuristics point at the problem, and following them fixes it.
#[test]
fn following_the_insert_heuristic_makes_the_kernel_compile() {
    let n = 12;
    let (mut stmt, _mul, source) = spgemm_stmt(n);
    stmt.reorder(&iv("k"), &iv("j")).unwrap();

    let suggestions = stmt.suggestions();
    let s = suggestions
        .iter()
        .find(|s| s.reason == Reason::AvoidExpensiveInsert)
        .expect("insert heuristic fires on sparse-output SpGEMM");

    // Apply the suggestion: precompute the flagged expression over the
    // flagged variables into a dense workspace.
    let dim = 12;
    let ws = TensorVar::new("w", vec![dim], Format::dvec());
    let splits: Vec<_> =
        s.over.iter().map(|v| (v.clone(), v.clone(), v.clone())).collect();
    stmt.precompute(&s.expr, &splits, &ws).unwrap();
    let kernel = stmt.compile(LowerOptions::fused("fixed")).unwrap();

    let bt = random_csr(n, n, 0.2, 1).to_tensor();
    let ct = random_csr(n, n, 0.2, 2).to_tensor();
    let out = kernel.run(&[("B", &bt), ("C", &ct)]).unwrap();
    let expect = eval_dense(&source, &[("B", &bt), ("C", &ct)]).unwrap();
    assert!(out.to_dense().approx_eq(&expect, 1e-10));
}

/// Split variables (Figure 2's `{j, jc, jp}`) rename the consumer and
/// producer loops; the kernel still computes the same function.
#[test]
fn split_variables_compute_the_same_result() {
    let n = 10;
    let (mut stmt, mul, source) = spgemm_stmt(n);
    stmt.reorder(&iv("k"), &iv("j")).unwrap();
    let ws = TensorVar::new("row", vec![n], Format::dvec());
    stmt.precompute(&mul, &[(iv("j"), iv("jc"), iv("jp"))], &ws).unwrap();
    let src = stmt.concrete().to_string();
    assert!(src.contains("∀jc") && src.contains("∀jp"), "split vars visible: {src}");

    let kernel = stmt.compile(LowerOptions::fused("split")).unwrap();
    let bt = random_csr(n, n, 0.25, 3).to_tensor();
    let ct = random_csr(n, n, 0.25, 4).to_tensor();
    let out = kernel.run(&[("B", &bt), ("C", &ct)]).unwrap();
    let expect = eval_dense(&source, &[("B", &bt), ("C", &ct)]).unwrap();
    assert!(out.to_dense().approx_eq(&expect, 1e-10));
}

/// Mixed precision (Section III): an f32 workspace accumulates in single
/// precision; results approximate the f64 result.
#[test]
fn f32_workspace_mixed_precision() {
    let n = 12;
    let (mut stmt, mul, source) = spgemm_stmt(n);
    stmt.reorder(&iv("k"), &iv("j")).unwrap();
    let ws = TensorVar::new("w", vec![n], Format::dvec());
    stmt.precompute(&mul, &[(iv("j"), iv("j"), iv("j"))], &ws).unwrap();

    let kernel =
        stmt.compile(LowerOptions::fused("spgemm_f32").with_f32_workspaces()).unwrap();
    let c = taco_llir::emit_native(kernel.executable()).unwrap().c_source;
    assert!(c.contains("float* restrict"), "f32 workspace in generated code");

    let bt = random_csr(n, n, 0.3, 5).to_tensor();
    let ct = random_csr(n, n, 0.3, 6).to_tensor();
    let out = kernel.run(&[("B", &bt), ("C", &ct)]).unwrap();
    let expect = eval_dense(&source, &[("B", &bt), ("C", &ct)]).unwrap();
    // Single-precision tolerance.
    assert!(out.to_dense().approx_eq(&expect, 1e-5));
}

/// Precompute of an expression that is not in the statement errors.
#[test]
fn precompute_unknown_expression_errors() {
    let (mut stmt, _, _) = spgemm_stmt(8);
    let z = TensorVar::new("Z", vec![8, 8], Format::csr());
    let bogus: IndexExpr = z.access([iv("i"), iv("j")]).into();
    let ws = TensorVar::new("w", vec![8], Format::dvec());
    let err = stmt.precompute(&bogus, &[(iv("j"), iv("j"), iv("j"))], &ws).unwrap_err();
    assert!(matches!(err, CoreError::Ir(IrError::ExpressionNotFound(_))));
}

/// Reorder of variables in different chains errors.
#[test]
fn reorder_across_chains_errors() {
    let (mut stmt, mul, _) = spgemm_stmt(8);
    stmt.reorder(&iv("k"), &iv("j")).unwrap();
    let ws = TensorVar::new("w", vec![8], Format::dvec());
    stmt.precompute(&mul, &[(iv("j"), iv("j"), iv("j"))], &ws).unwrap();
    // j is now inside the where sides; i is outside: not one chain.
    let err = stmt.reorder(&iv("i"), &iv("j")).unwrap_err();
    assert!(matches!(err, CoreError::Ir(IrError::NotInSameForallChain { .. })));
}

/// Assembly of a dense-result kernel is meaningless and rejected.
#[test]
fn assemble_dense_result_errors() {
    let n = 6;
    let a = TensorVar::new("A", vec![n, n], Format::dense(2));
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let (i, j) = (iv("i"), iv("j"));
    let stmt = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        IndexExpr::from(b.access([i, j])),
    ))
    .unwrap();
    let err = stmt.compile(LowerOptions::assemble("nope")).unwrap_err();
    assert!(matches!(err, CoreError::Lower(LowerError::NothingToAssemble)));
}

/// Compute kernels with sparse results refuse to run without a
/// pre-assembled structure.
#[test]
fn compute_sparse_result_requires_structure() {
    let n = 8;
    let (mut stmt, mul, _) = spgemm_stmt(n);
    stmt.reorder(&iv("k"), &iv("j")).unwrap();
    let ws = TensorVar::new("w", vec![n], Format::dvec());
    stmt.precompute(&mul, &[(iv("j"), iv("j"), iv("j"))], &ws).unwrap();
    let kernel = stmt.compile(LowerOptions::compute("needs_structure")).unwrap();
    let bt = random_csr(n, n, 0.2, 7).to_tensor();
    let ct = random_csr(n, n, 0.2, 8).to_tensor();
    let err = kernel.run(&[("B", &bt), ("C", &ct)]).unwrap_err();
    assert!(matches!(err, CoreError::MissingOutputStructure));
}

/// Binding a tensor with the wrong shape or format is rejected.
#[test]
fn operand_mismatch_is_rejected() {
    let n = 8;
    let (stmt, _, _) = spgemm_stmt(n);
    let kernel = stmt.compile(LowerOptions::compute("mismatch")).unwrap_err();
    // The unscheduled ijk inner-product form iterates C's column mode
    // before its row variable k is bound.
    assert!(matches!(
        kernel,
        CoreError::Lower(LowerError::UnboundVariable { .. })
    ), "got {kernel:?}");

    // A dense-output version binds fine but rejects a wrong-shape operand.
    let a = TensorVar::new("A", vec![n, n], Format::dense(2));
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j, k) = (iv("i"), iv("j"), iv("k"));
    let mut stmt = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(k.clone(), b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()])),
    ))
    .unwrap();
    stmt.reorder(&k, &j).unwrap();
    let kernel = stmt.compile(LowerOptions::compute("dense_out")).unwrap();
    let wrong = random_csr(n + 1, n, 0.2, 9).to_tensor();
    let ct = random_csr(n, n, 0.2, 10).to_tensor();
    let err = kernel.run(&[("B", &wrong), ("C", &ct)]).unwrap_err();
    assert!(matches!(err, CoreError::OperandMismatch { .. }));

    // And a missing operand.
    let err2 = kernel.run(&[("C", &ct)]).unwrap_err();
    assert!(matches!(err2, CoreError::UnknownOperand(_)));
}

/// The concrete display of the doubly-transformed MTTKRP matches the
/// paper's Section VII formula exactly (golden test).
#[test]
fn mttkrp_concrete_notation_golden() {
    let (di, dk, dl, r) = (4, 4, 4, 4);
    let a = TensorVar::new("A", vec![di, r], Format::csr());
    let b = TensorVar::new("B", vec![di, dk, dl], Format::csf3());
    let c = TensorVar::new("C", vec![dl, r], Format::csr());
    let d = TensorVar::new("D", vec![dk, r], Format::csr());
    let (i, j, k, l) = (iv("i"), iv("j"), iv("k"), iv("l"));
    let bc = b.access([i.clone(), k.clone(), l.clone()]) * c.access([l.clone(), j.clone()]);
    let mut stmt = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(k.clone(), sum(l.clone(), bc.clone() * d.access([k.clone(), j.clone()]))),
    ))
    .unwrap();
    stmt.reorder(&j, &k).unwrap();
    stmt.reorder(&j, &l).unwrap();
    let w = TensorVar::new("w", vec![r], Format::dvec());
    stmt.precompute(&bc, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
    assert_eq!(
        stmt.to_string(),
        "∀i ∀k ((∀j A(i,j) += w(j) * D(k,j)) where (∀l ∀j w(j) += B(i,k,l) * C(l,j)))"
    );
}
