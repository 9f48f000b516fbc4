//! Binding tensors to kernel parameters and extracting results, following
//! the lowerer's parameter convention ([`taco_lower::params`]).

use crate::{CoreError, Result};
use taco_ir::expr::TensorVar;
use taco_llir::Binding;
use taco_lower::params::{crd_name, dim_name, level_extent, pos_name};
use taco_lower::KernelKind;
use taco_tensor::{Format, Tensor};

/// Binds one operand tensor's dims, index arrays and values.
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
    // does.
    t.validate().map_err(|e| CoreError::OperandMismatch {
        name: var.name().to_string(),
        expected: format!("valid {} storage: {e}", var.format()),
    })?;
    for l in 0..t.rank() {
        b.set_scalar(dim_name(var.name(), l), level_extent(var, l) as i64);
        let lt = var.format().level(l)?;
        if lt.has_pos_array() {
            b.set_usize(pos_name(var.name(), l), t.pos(l)?);
        }
        if lt.has_crd_array() {
            b.set_usize(crd_name(var.name(), l), t.crd(l)?);
        }
    }
    if with_vals {
        b.set_f64(var.name(), t.vals().to_vec());
    }
    Ok(())
}

/// The result's append (compressed) level, if any. Uses the checked
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
            let parents: usize = var.shape()[..l].iter().product();
            match kind {
                KernelKind::Compute => {
                    let s = structure.ok_or(CoreError::MissingOutputStructure)?;
                    if s.shape() != var.shape() || s.format() != var.format() {
                        return Err(CoreError::OperandMismatch {
                            name: name.to_string(),
                            expected: format!(
                                "output structure with shape {:?} format {}",
                                var.shape(),
                                var.format()
                            ),
                        });
                    }
                    s.validate().map_err(|e| CoreError::OperandMismatch {
                        name: name.to_string(),
                        expected: format!("valid output structure: {e}"),
                    })?;
                    b.set_usize(pos_name(name, l), s.pos(l)?);
                    b.set_usize(crd_name(name, l), s.crd(l)?);
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

/// Extracts the result tensor after a run.
pub(crate) fn extract_result(
    b: &Binding,
    var: &TensorVar,
    kind: KernelKind,
    structure: Option<&Tensor>,
    nnz_output: Option<&str>,
) -> Result<Tensor> {
    let name = var.name();
    let sparse_level = result_append_level(var)?;
    match sparse_level {
        None => {
            let vals =
                b.f64_array(name).ok_or_else(|| CoreError::UnknownOperand(name.to_string()))?;
            Ok(Tensor::from_dense(
                &taco_tensor::DenseTensor::from_data(var.shape().to_vec(), vals.to_vec()),
                Format::dense(var.rank()),
            )?)
        }
        Some(l) => match kind {
            KernelKind::Compute => {
                let s = structure.ok_or(CoreError::MissingOutputStructure)?;
                let vals = b
                    .f64_array(name)
                    .ok_or_else(|| CoreError::UnknownOperand(name.to_string()))?;
                let entries: Vec<(Vec<usize>, f64)> = s
                    .entries()
                    .into_iter()
                    .zip(vals)
                    .map(|((coord, _), v)| (coord, *v))
                    .collect();
                Ok(Tensor::from_entries(var.shape().to_vec(), var.format().clone(), entries)?)
            }
            KernelKind::Fused | KernelKind::Assemble => {
                // Borrow the kernel's i64 buffers directly — converting
                // through `usize_array` would copy both index arrays on
                // every extraction. Elements are range-checked as they are
                // consumed instead.
                let pos = b
                    .int_array(&pos_name(name, l))
                    .ok_or_else(|| CoreError::UnknownOperand(name.to_string()))?;
                let crd = b
                    .int_array(&crd_name(name, l))
                    .ok_or_else(|| CoreError::UnknownOperand(name.to_string()))?;
                // The kernel owns these arrays during the run, so treat their
                // relative sizes and signs as untrusted when rebuilding the
                // tensor.
                let inconsistent = |detail: String| {
                    CoreError::Tensor(taco_tensor::TensorError::InvalidStorage { level: l, detail })
                };
                let index = |v: i64, what: &str| {
                    usize::try_from(v).map_err(|_| {
                        inconsistent(format!("negative {what} value {v} in kernel output"))
                    })
                };
                let nnz = match nnz_output.and_then(|n| b.scalar_output(n)) {
                    Some(v) => index(v, "nnz")?,
                    None => index(pos.last().copied().unwrap_or(0), "pos")?,
                };
                let vals: Vec<f64> = if kind == KernelKind::Fused {
                    let all = b
                        .f64_array(name)
                        .ok_or_else(|| CoreError::UnknownOperand(name.to_string()))?;
                    all.get(..nnz)
                        .ok_or_else(|| {
                            inconsistent(format!(
                                "kernel reported {nnz} result entries but produced {}",
                                all.len()
                            ))
                        })?
                        .to_vec()
                } else {
                    vec![0.0; nnz]
                };

                // Decode parent coordinates from dense offsets and rebuild
                // the tensor (handles unsorted rows from unsorted kernels).
                let parent_dims = &var.shape()[..l];
                let parents: usize = parent_dims.iter().product();
                let mut entries = Vec::with_capacity(nnz);
                for p in 0..parents {
                    let mut coord = vec![0usize; l];
                    let mut rem = p;
                    for (k, d) in parent_dims.iter().enumerate().rev() {
                        coord[k] = rem % d;
                        rem /= d;
                    }
                    let seg = pos.get(p..=p + 1).ok_or_else(|| {
                        inconsistent(format!(
                            "result pos has {} entries, expected {}",
                            pos.len(),
                            parents + 1
                        ))
                    })?;
                    let (lo, hi) = (index(seg[0], "pos")?, index(seg[1], "pos")?);
                    for q in lo..hi {
                        let mut full = coord.clone();
                        let c = crd.get(q).copied().ok_or_else(|| {
                            inconsistent(format!(
                                "result pos segment {lo}..{hi} exceeds crd length {}",
                                crd.len()
                            ))
                        })?;
                        let v = vals.get(q).ok_or_else(|| {
                            inconsistent(format!(
                                "result pos segment {lo}..{hi} exceeds value count {}",
                                vals.len()
                            ))
                        })?;
                        full.push(index(c, "crd")?);
                        entries.push((full, *v));
                    }
                }
                Ok(Tensor::from_entries(var.shape().to_vec(), var.format().clone(), entries)?)
            }
        },
    }
}
