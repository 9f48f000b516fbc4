//! Binding tensors to kernel parameters and extracting results, following
//! the lowerer's parameter convention ([`taco_lower::params`]).

use crate::{CoreError, Result};
use std::sync::Arc;
use taco_ir::expr::TensorVar;
use taco_llir::Binding;
use taco_lower::params::{crd_name, dim_name, level_extent, pos_name};
use taco_lower::KernelKind;
use taco_tensor::Tensor;

/// Binds one operand tensor's dims, index arrays and values. The arrays are
/// the tensor's own, shared: a bind copies none of them.
pub(crate) fn bind_operand(
    b: &mut Binding,
    var: &TensorVar,
    t: &Tensor,
    with_vals: bool,
) -> Result<()> {
    if t.rank() != var.rank() || t.format() != var.format() || t.shape() != var.shape() {
        return Err(CoreError::OperandMismatch {
            name: var.name().to_string(),
            expected: format!("shape {:?} format {}", var.shape(), var.format()),
        });
    }
    // Reject corrupted storage before the executor can index with it: the
    // generated kernels trust pos/crd invariants the way the paper's C code
    // does. The verdict is the tensor's, reached on its first bind.
    let arrays = t.index_arrays().map_err(|e| CoreError::OperandMismatch {
        name: var.name().to_string(),
        expected: format!("valid {} storage: {e}", var.format()),
    })?;
    for l in 0..t.rank() {
        b.set_scalar(dim_name(var.name(), l), level_extent(var, l) as i64);
        let lt = var.format().level(l)?;
        if lt.has_pos_array() {
            b.set_shared_int(pos_name(var.name(), l), Arc::clone(arrays.pos(l)?));
        }
        if lt.has_crd_array() {
            b.set_shared_int(crd_name(var.name(), l), Arc::clone(arrays.crd(l)?));
        }
    }
    if with_vals {
        b.set_shared_f64(var.name(), Arc::clone(t.shared_vals()));
    }
    Ok(())
}

/// The result's append (compressed or hashed) level, if any. Uses the checked
/// [`Format::level`] accessor so a malformed result format surfaces as a
/// typed error at bind time rather than a panic.
fn result_append_level(var: &TensorVar) -> Result<Option<usize>> {
    for l in 0..var.rank() {
        if var.format().level(l)?.has_append() {
            return Ok(Some(l));
        }
    }
    Ok(None)
}

/// The pre-assembled structure a compute kernel with a sparse result writes
/// into, checked to have the result's shape and format.
fn output_structure<'a>(var: &TensorVar, structure: Option<&'a Tensor>) -> Result<&'a Tensor> {
    let s = structure.ok_or(CoreError::MissingOutputStructure)?;
    if s.shape() != var.shape() || s.format() != var.format() {
        return Err(CoreError::OperandMismatch {
            name: var.name().to_string(),
            expected: format!(
                "output structure with shape {:?} format {}",
                var.shape(),
                var.format()
            ),
        });
    }
    Ok(s)
}

/// Binds the result tensor's buffers according to the kernel kind.
/// `structure` supplies the pre-assembled index arrays for compute kernels
/// with sparse results.
pub(crate) fn bind_result(
    b: &mut Binding,
    var: &TensorVar,
    kind: KernelKind,
    structure: Option<&Tensor>,
) -> Result<()> {
    let name = var.name();
    for l in 0..var.rank() {
        b.set_scalar(dim_name(name, l), level_extent(var, l) as i64);
    }
    let sparse_level = result_append_level(var)?;
    match sparse_level {
        None => {
            let len: usize = var.shape().iter().product();
            b.set_f64(name, vec![0.0; len]);
        }
        Some(l) => {
            let parents: usize = (0..l).map(|k| level_extent(var, k)).product();
            match kind {
                KernelKind::Compute => {
                    let s = output_structure(var, structure)?;
                    let arrays = s.index_arrays().map_err(|e| CoreError::OperandMismatch {
                        name: name.to_string(),
                        expected: format!("valid output structure: {e}"),
                    })?;
                    b.set_shared_int(pos_name(name, l), Arc::clone(arrays.pos(l)?));
                    b.set_shared_int(crd_name(name, l), Arc::clone(arrays.crd(l)?));
                    b.set_f64(name, vec![0.0; s.nnz()]);
                }
                KernelKind::Fused => {
                    b.set_int(pos_name(name, l), vec![0; parents + 1]);
                    b.set_int(crd_name(name, l), Vec::new());
                    b.set_f64(name, Vec::new());
                }
                KernelKind::Assemble => {
                    b.set_int(pos_name(name, l), vec![0; parents + 1]);
                    b.set_int(crd_name(name, l), Vec::new());
                }
            }
        }
    }
    Ok(())
}

/// Extracts the result tensor after a run. The kernel owned the result
/// buffers during the run, so they are untrusted: sparse results go through
/// [`Tensor::from_appended_level`]'s one checked pass. A hashed result keeps
/// the drain's order; a compressed one is left sorted.
pub(crate) fn extract_result(
    b: &Binding,
    var: &TensorVar,
    kind: KernelKind,
    structure: Option<&Tensor>,
    nnz_output: Option<&str>,
) -> Result<Tensor> {
    let name = var.name();
    let missing = || CoreError::UnknownOperand(name.to_string());
    let vals = || b.f64_array(name).ok_or_else(missing);
    let Some(l) = result_append_level(var)? else {
        return Ok(Tensor::from_dense_vals(var.shape().to_vec(), vals()?)?);
    };
    let (shape, format) = (var.shape().to_vec(), var.format().clone());
    Ok(match kind {
        KernelKind::Compute => {
            let arrays = output_structure(var, structure)?.index_arrays()?;
            let (pos, crd) = (arrays.pos(l)?, arrays.crd(l)?);
            Tensor::from_appended_level(shape, format, pos, crd, None, Some(vals()?))?
        }
        KernelKind::Fused | KernelKind::Assemble => {
            let pos = b.int_array(&pos_name(name, l)).ok_or_else(missing)?;
            let crd = b.int_array(&crd_name(name, l)).ok_or_else(missing)?;
            let nnz = nnz_output.and_then(|n| b.scalar_output(n));
            let vals = if kind == KernelKind::Fused { Some(vals()?) } else { None };
            Tensor::from_appended_level(shape, format, pos, crd, nnz, vals)?
        }
    })
}
