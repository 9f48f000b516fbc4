//! The reorder and workspace (precompute) transformations of Sections IV-B
//! and V of the paper.

use crate::concrete::{AssignOp, ConcreteStmt};
use crate::expr::{IndexExpr, IndexVar, TensorVar};
use crate::{IrError, Result};

// ---------------------------------------------------------------------------
// Reorder (Section IV-B)
// ---------------------------------------------------------------------------

/// Exchanges the positions of index variables `a` and `b` in the forall
/// chain that binds them (paper Section IV-B; scheduling method `reorder`
/// of Section III).
///
/// Exchanging foralls is semantically valid when the statement below
/// modifies its tensor with an assignment or an associative incrementing
/// assignment — true for every [`AssignOp`] — and the statement contains no
/// sequences.
///
/// # Errors
///
/// Returns an error if the two variables are not bound in the same forall
/// chain, or the chain's body contains a sequence statement.
pub fn reorder(stmt: &ConcreteStmt, a: &IndexVar, b: &IndexVar) -> Result<ConcreteStmt> {
    fn go(stmt: &ConcreteStmt, a: &IndexVar, b: &IndexVar) -> Result<Option<ConcreteStmt>> {
        match stmt {
            ConcreteStmt::Forall { .. } => {
                // Gather the maximal forall chain starting here.
                let mut vars = Vec::new();
                let mut cur = stmt;
                while let ConcreteStmt::Forall { var, body, .. } = cur {
                    vars.push(var.clone());
                    cur = body;
                }
                let pa = vars.iter().position(|v| v == a);
                let pb = vars.iter().position(|v| v == b);
                match (pa, pb) {
                    (Some(pa), Some(pb)) => {
                        if cur.contains_sequence() {
                            return Err(IrError::ContainsSequence);
                        }
                        vars.swap(pa, pb);
                        Ok(Some(ConcreteStmt::forall_chain(vars, cur.clone())))
                    }
                    (None, None) => match go(cur, a, b)? {
                        Some(body) => Ok(Some(ConcreteStmt::forall_chain(vars, body))),
                        None => Ok(None),
                    },
                    _ => Err(IrError::NotInSameForallChain {
                        a: a.name().to_string(),
                        b: b.name().to_string(),
                    }),
                }
            }
            ConcreteStmt::Where { consumer, producer } => {
                if let Some(c) = go(consumer, a, b)? {
                    return Ok(Some(ConcreteStmt::where_(c, (**producer).clone())));
                }
                if let Some(p) = go(producer, a, b)? {
                    return Ok(Some(ConcreteStmt::where_((**consumer).clone(), p)));
                }
                Ok(None)
            }
            ConcreteStmt::Sequence { first, second } => {
                if let Some(f) = go(first, a, b)? {
                    return Ok(Some(ConcreteStmt::sequence(f, (**second).clone())));
                }
                if let Some(s) = go(second, a, b)? {
                    return Ok(Some(ConcreteStmt::sequence((**first).clone(), s)));
                }
                Ok(None)
            }
            ConcreteStmt::Assign { .. } => Ok(None),
        }
    }
    go(stmt, a, b)?.ok_or_else(|| IrError::NotInSameForallChain {
        a: a.name().to_string(),
        b: b.name().to_string(),
    })
}

// ---------------------------------------------------------------------------
// Workspace transformation (Section V)
// ---------------------------------------------------------------------------

/// The workspace transformation (paper Section V-A), invoked through the
/// `precompute` scheduling method (Section III).
///
/// Rewrites the statement `∀_J A_K ⊕= E ⊗ F` that contains `target` (as the
/// whole right-hand side or a subset of its top-level factors) into
///
/// ```text
/// (∀ A_K ⊕= w_I ⊗ F) where (∀ w_I ⊕= E)
/// ```
///
/// pushing each surrounding forall into the consumer side, the producer
/// side, or both, from innermost to outermost. Distribution stops at the
/// first variable used on both sides that is not a workspace index variable;
/// the remaining foralls stay wrapped around the where statement.
///
/// Each `splits` triple `(old, consumer, producer)` names the variable being
/// precomputed over and the variables that replace it on the consumer and
/// producer sides (paper Section III). The set of `old` variables is the
/// workspace index set *I*; the workspace must have one mode per split with
/// dimensions matching the variable ranges.
///
/// If `workspace` names the *result* tensor of the assignment, the
/// result-reuse optimization (Section V-B) applies instead and the statement
/// becomes a sequence that accumulates into the result. Result reuse also
/// splits an assignment that is already part of a sequence, so applying it
/// once per operand turns a k-operand addition into k accumulations.
///
/// # Errors
///
/// Returns an error if the statement contains sequences (outside result
/// reuse), the target expression is not found, the workspace shape does not
/// match, or the foralls cannot be distributed.
pub fn precompute(
    stmt: &ConcreteStmt,
    target: &IndexExpr,
    splits: &[(IndexVar, IndexVar, IndexVar)],
    workspace: &TensorVar,
) -> Result<ConcreteStmt> {
    // Result reuse: the workspace *is* the result (Section V-B).
    if written_by_match(stmt, workspace) {
        return result_reuse(stmt, target, workspace);
    }
    if stmt.contains_sequence() {
        return Err(IrError::ContainsSequence);
    }

    validate_workspace_shape(stmt, splits, workspace)?;

    let old_vars: Vec<IndexVar> = splits.iter().map(|s| s.0.clone()).collect();
    match walk(stmt, target, &old_vars, workspace)? {
        Walk::NotFound(_) => Err(IrError::ExpressionNotFound(target.to_string())),
        Walk::Pending { consumer, producer } => {
            finish(ConcreteStmt::where_(consumer, producer), splits, workspace)
        }
        Walk::Done(s) => finish(s, splits, workspace),
    }
}

/// True if the workspace tensor is the tensor written by the target
/// assignment (result reuse).
fn written_by_match(stmt: &ConcreteStmt, workspace: &TensorVar) -> bool {
    stmt.written_tensors().iter().any(|t| t == workspace.name())
}

fn validate_workspace_shape(
    stmt: &ConcreteStmt,
    splits: &[(IndexVar, IndexVar, IndexVar)],
    workspace: &TensorVar,
) -> Result<()> {
    if workspace.rank() != splits.len() {
        return Err(IrError::WorkspaceShapeMismatch {
            detail: format!(
                "workspace `{}` has rank {} but {} index variables were given",
                workspace.name(),
                workspace.rank(),
                splits.len()
            ),
        });
    }
    for (n, (old, _, _)) in splits.iter().enumerate() {
        let dim = stmt
            .var_dimension(old)
            .ok_or_else(|| IrError::UnknownIndexVar(old.name().to_string()))?;
        if workspace.shape()[n] < dim {
            return Err(IrError::WorkspaceShapeMismatch {
                detail: format!(
                    "workspace mode {n} has dimension {} but `{old}` ranges over {dim}",
                    workspace.shape()[n]
                ),
            });
        }
    }
    Ok(())
}

enum Walk {
    /// Subtree does not contain the target; unchanged copy.
    NotFound(ConcreteStmt),
    /// The where statement is being assembled; foralls still distribute.
    Pending { consumer: ConcreteStmt, producer: ConcreteStmt },
    /// The where statement is complete (distribution stopped).
    Done(ConcreteStmt),
}

fn walk(
    stmt: &ConcreteStmt,
    target: &IndexExpr,
    old_vars: &[IndexVar],
    workspace: &TensorVar,
) -> Result<Walk> {
    match stmt {
        ConcreteStmt::Assign { lhs, op, rhs } => {
            match split_rhs(rhs, target) {
                None => Ok(Walk::NotFound(stmt.clone())),
                Some(remainder) => {
                    // Consumer: A_K ⊕= w_I ⊗ F
                    let ws_access = workspace.try_access(old_vars.to_vec())?;
                    let consumer_rhs = match remainder {
                        Some(f) => IndexExpr::Access(ws_access) * f,
                        None => IndexExpr::Access(ws_access),
                    };
                    let consumer = ConcreteStmt::assign(lhs.clone(), *op, consumer_rhs);
                    // Producer: w_I ⊕= E
                    let producer = ConcreteStmt::assign(
                        workspace.try_access(old_vars.to_vec())?,
                        *op,
                        target.clone(),
                    );
                    Ok(Walk::Pending { consumer, producer })
                }
            }
        }
        ConcreteStmt::Forall { var, body, .. } => match walk(body, target, old_vars, workspace)? {
            Walk::NotFound(b) => Ok(Walk::NotFound(ConcreteStmt::forall(var.clone(), b))),
            Walk::Done(b) => Ok(Walk::Done(ConcreteStmt::forall(var.clone(), b))),
            Walk::Pending { consumer, producer } => {
                let in_c = consumer.uses_var(var);
                let in_p = producer.uses_var(var);
                if in_c && in_p {
                    if old_vars.contains(var) {
                        Ok(Walk::Pending {
                            consumer: ConcreteStmt::forall(var.clone(), consumer),
                            producer: ConcreteStmt::forall(var.clone(), producer),
                        })
                    } else {
                        // Stop: this variable stays wrapped around the where.
                        Ok(Walk::Done(ConcreteStmt::forall(
                            var.clone(),
                            ConcreteStmt::where_(consumer, producer),
                        )))
                    }
                } else if in_c {
                    Ok(Walk::Pending {
                        consumer: ConcreteStmt::forall(var.clone(), consumer),
                        producer,
                    })
                } else if in_p {
                    Ok(Walk::Pending {
                        consumer,
                        producer: ConcreteStmt::forall(var.clone(), producer),
                    })
                } else {
                    // Neither side uses the variable; keep it outside.
                    Ok(Walk::Done(ConcreteStmt::forall(
                        var.clone(),
                        ConcreteStmt::where_(consumer, producer),
                    )))
                }
            }
        },
        ConcreteStmt::Where { consumer, producer } => {
            match walk(consumer, target, old_vars, workspace)? {
                Walk::Pending { consumer: c, producer: p } => {
                    // The statement being transformed was this where's
                    // consumer. Attach the old producer to whichever new
                    // side reads its tensor (Section IV-B where-nesting
                    // equivalences).
                    let produced = producer.written_tensors();
                    let c_reads = produced.iter().any(|t| c.reads_tensor(t));
                    let p_reads = produced.iter().any(|t| p.reads_tensor(t));
                    match (c_reads, p_reads) {
                        (false, true) => Ok(Walk::Pending {
                            consumer: c,
                            producer: ConcreteStmt::where_(p, (**producer).clone()),
                        }),
                        (true, false) => Ok(Walk::Pending {
                            consumer: ConcreteStmt::where_(c, (**producer).clone()),
                            producer: p,
                        }),
                        (true, true) => Ok(Walk::Done(ConcreteStmt::where_(
                            ConcreteStmt::where_(c, p),
                            (**producer).clone(),
                        ))),
                        (false, false) => Ok(Walk::Pending {
                            consumer: ConcreteStmt::where_(c, (**producer).clone()),
                            producer: p,
                        }),
                    }
                }
                Walk::Done(c) => Ok(Walk::Done(ConcreteStmt::where_(c, (**producer).clone()))),
                Walk::NotFound(c) => match walk(producer, target, old_vars, workspace)? {
                    Walk::Pending { consumer: pc, producer: pp } => {
                        // The target lived in the producer side; the new
                        // where completes there.
                        Ok(Walk::Done(ConcreteStmt::where_(c, ConcreteStmt::where_(pc, pp))))
                    }
                    Walk::Done(p) => Ok(Walk::Done(ConcreteStmt::where_(c, p))),
                    Walk::NotFound(p) => Ok(Walk::NotFound(ConcreteStmt::where_(c, p))),
                },
            }
        }
        ConcreteStmt::Sequence { .. } => Err(IrError::ContainsSequence),
    }
}

/// Matches `target` against `rhs`. Returns `None` if not found;
/// `Some(None)` if the target is the entire rhs; `Some(Some(F))` if the rhs
/// is a product with the target's factors removed leaving `F`.
fn split_rhs(rhs: &IndexExpr, target: &IndexExpr) -> Option<Option<IndexExpr>> {
    if rhs == target {
        return Some(None);
    }
    let rhs_factors = rhs.factors();
    let target_factors = target.factors();
    if target_factors.len() >= rhs_factors.len() {
        return None;
    }
    // Remove the target's factors (as a multiset) from the rhs factors.
    let mut remaining: Vec<&IndexExpr> = rhs_factors;
    for tf in &target_factors {
        let pos = remaining.iter().position(|rf| rf == tf)?;
        remaining.remove(pos);
    }
    Some(Some(IndexExpr::product_of(remaining.into_iter().cloned().collect())))
}

/// Post-processing: rename split variables on each side, then apply the
/// assignment-operator simplifications of Section V-A.
fn finish(
    stmt: ConcreteStmt,
    splits: &[(IndexVar, IndexVar, IndexVar)],
    workspace: &TensorVar,
) -> Result<ConcreteStmt> {
    let renamed = rename_sides(&stmt, splits, workspace);
    let consumer_i: Vec<IndexVar> = splits.iter().map(|s| s.1.clone()).collect();
    let producer_i: Vec<IndexVar> = splits.iter().map(|s| s.2.clone()).collect();
    let mut out = renamed;
    convert_consumer_op(&mut out, workspace, &[]);
    convert_producer_op(&mut out, workspace, &consumer_i, &producer_i, &mut Vec::new(), false);
    Ok(out)
}

/// Renames `old` variables to the consumer variable inside consumer sides of
/// the new where and to the producer variable inside its producer side. The
/// "new where" is recognized as the one whose producer writes the workspace.
fn rename_sides(
    stmt: &ConcreteStmt,
    splits: &[(IndexVar, IndexVar, IndexVar)],
    workspace: &TensorVar,
) -> ConcreteStmt {
    match stmt {
        ConcreteStmt::Where { consumer, producer }
            if producer.written_tensors().iter().any(|t| t == workspace.name()) =>
        {
            let mut c = (**consumer).clone();
            let mut p = (**producer).clone();
            for (old, cv, pv) in splits {
                c = c.rename(old, cv);
                p = p.rename(old, pv);
            }
            ConcreteStmt::where_(c, p)
        }
        ConcreteStmt::Forall { var, body, .. } => {
            ConcreteStmt::forall(var.clone(), rename_sides(body, splits, workspace))
        }
        ConcreteStmt::Where { consumer, producer } => ConcreteStmt::where_(
            rename_sides(consumer, splits, workspace),
            rename_sides(producer, splits, workspace),
        ),
        other => other.clone(),
    }
}

/// Converts the consumer assignment `A_K ⊕= w ...` to a plain assignment
/// when every forall enclosing it binds a variable in K — i.e. each element
/// of A is incremented exactly once (Section V-A: "we can transform
/// `A_K ⊕= w_I` to `A_K = w_I` when K contains I").
fn convert_consumer_op(stmt: &mut ConcreteStmt, workspace: &TensorVar, enclosing: &[IndexVar]) {
    match stmt {
        ConcreteStmt::Assign { lhs, op, rhs } => {
            if *op == AssignOp::Accum
                && lhs.tensor().name() != workspace.name()
                && rhs.uses_tensor(workspace.name())
                && enclosing.iter().all(|v| lhs.uses_var(v))
            {
                *op = AssignOp::Assign;
            }
        }
        ConcreteStmt::Forall { var, body, .. } => {
            let mut inner = enclosing.to_vec();
            inner.push(var.clone());
            convert_consumer_op(body, workspace, &inner);
        }
        ConcreteStmt::Where { consumer, producer } => {
            convert_consumer_op(consumer, workspace, enclosing);
            convert_consumer_op(producer, workspace, enclosing);
        }
        ConcreteStmt::Sequence { first, second } => {
            convert_consumer_op(first, workspace, enclosing);
            convert_consumer_op(second, workspace, enclosing);
        }
    }
}

/// Converts the producer assignment `w_I ⊕= E` to a plain assignment when
/// every forall between the where and the assignment binds a workspace index
/// variable — i.e. each workspace element is written exactly once per where
/// execution.
fn convert_producer_op(
    stmt: &mut ConcreteStmt,
    workspace: &TensorVar,
    consumer_i: &[IndexVar],
    producer_i: &[IndexVar],
    since_where: &mut Vec<IndexVar>,
    in_producer: bool,
) {
    match stmt {
        ConcreteStmt::Assign { lhs, op, .. } => {
            if in_producer
                && *op == AssignOp::Accum
                && lhs.tensor().name() == workspace.name()
                && since_where.iter().all(|v| producer_i.contains(v) || consumer_i.contains(v))
            {
                *op = AssignOp::Assign;
            }
        }
        ConcreteStmt::Forall { var, body, .. } => {
            since_where.push(var.clone());
            convert_producer_op(body, workspace, consumer_i, producer_i, since_where, in_producer);
            since_where.pop();
        }
        ConcreteStmt::Where { consumer, producer } => {
            convert_producer_op(
                consumer,
                workspace,
                consumer_i,
                producer_i,
                since_where,
                in_producer,
            );
            let mut fresh = Vec::new();
            convert_producer_op(producer, workspace, consumer_i, producer_i, &mut fresh, true);
        }
        ConcreteStmt::Sequence { first, second } => {
            convert_producer_op(first, workspace, consumer_i, producer_i, since_where, in_producer);
            convert_producer_op(
                second,
                workspace,
                consumer_i,
                producer_i,
                since_where,
                in_producer,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Parallelize
// ---------------------------------------------------------------------------

/// Marks the forall binding `var` for parallel execution (the `parallelize`
/// scheduling directive).
///
/// Iterations of a parallel forall must be independent. An accumulation
/// whose left-hand side is not indexed by `var` is a cross-iteration
/// reduction — every iteration of `var` updates the same components — and
/// is only legal when the written tensor has been **privatized** by the
/// workspace transformation: produced by a `where` statement nested inside
/// the forall body, so each iteration materializes its own copy (the
/// paper's Section V workspaces are exactly this privatization). Writes
/// whose left-hand side is indexed by `var` land in disjoint slices and are
/// always legal.
///
/// `parallelize` should be applied *after* `reorder`/`precompute`: the
/// other transformations rebuild the forall chain and drop the annotation.
///
/// # Errors
///
/// Returns [`IrError::UnknownIndexVar`] if no forall binds `var`, and
/// [`IrError::ReductionNotPrivatized`] if the loop carries an unprivatized
/// cross-iteration reduction.
pub fn parallelize(stmt: &ConcreteStmt, var: &IndexVar) -> Result<ConcreteStmt> {
    fn go(stmt: &ConcreteStmt, var: &IndexVar) -> Result<Option<ConcreteStmt>> {
        match stmt {
            ConcreteStmt::Forall { var: v, body, parallel } => {
                if v == var {
                    check_independent(body, var, &mut Vec::new())?;
                    Ok(Some(ConcreteStmt::forall_parallel(v.clone(), (**body).clone())))
                } else {
                    Ok(go(body, var)?.map(|b| ConcreteStmt::Forall {
                        var: v.clone(),
                        body: Box::new(b),
                        parallel: *parallel,
                    }))
                }
            }
            ConcreteStmt::Where { consumer, producer } => {
                if let Some(c) = go(consumer, var)? {
                    return Ok(Some(ConcreteStmt::where_(c, (**producer).clone())));
                }
                if let Some(p) = go(producer, var)? {
                    return Ok(Some(ConcreteStmt::where_((**consumer).clone(), p)));
                }
                Ok(None)
            }
            ConcreteStmt::Sequence { first, second } => {
                if let Some(f) = go(first, var)? {
                    return Ok(Some(ConcreteStmt::sequence(f, (**second).clone())));
                }
                if let Some(s) = go(second, var)? {
                    return Ok(Some(ConcreteStmt::sequence((**first).clone(), s)));
                }
                Ok(None)
            }
            ConcreteStmt::Assign { .. } => Ok(None),
        }
    }

    /// Walks the body of the to-be-parallel forall over `var`, carrying the
    /// set of tensors privatized by enclosing `where` producers.
    fn check_independent(
        stmt: &ConcreteStmt,
        var: &IndexVar,
        privatized: &mut Vec<String>,
    ) -> Result<()> {
        match stmt {
            ConcreteStmt::Assign { lhs, op, .. } => {
                if *op == AssignOp::Accum
                    && !lhs.uses_var(var)
                    && !privatized.iter().any(|t| t == lhs.tensor().name())
                {
                    return Err(IrError::ReductionNotPrivatized {
                        var: var.name().to_string(),
                        tensor: lhs.tensor().name().to_string(),
                    });
                }
                Ok(())
            }
            ConcreteStmt::Forall { body, .. } => check_independent(body, var, privatized),
            ConcreteStmt::Where { consumer, producer } => {
                // Everything the producer writes is materialized afresh per
                // iteration of `var`: private to both sides of the where.
                let added = producer.written_tensors();
                let before = privatized.len();
                privatized.extend(added);
                check_independent(producer, var, privatized)?;
                check_independent(consumer, var, privatized)?;
                privatized.truncate(before);
                Ok(())
            }
            ConcreteStmt::Sequence { first, second } => {
                check_independent(first, var, privatized)?;
                check_independent(second, var, privatized)
            }
        }
    }

    go(stmt, var)?.ok_or_else(|| IrError::UnknownIndexVar(var.name().to_string()))
}

// ---------------------------------------------------------------------------
// Format retargeting
// ---------------------------------------------------------------------------

/// Rewrites every access to tensor `name` so its [`TensorVar`] carries
/// `format`, leaving shape and index variables unchanged. The candidate
/// enumerator uses this to race format-conversion schedules: the operand is
/// converted to `format` before the kernel runs, and the kernel is lowered
/// against the new level structure.
///
/// # Errors
///
/// Returns [`IrError::UnknownTensor`] if the statement never accesses
/// `name`, and [`IrError::FormatRankMismatch`] if the format's rank differs
/// from the tensor's.
pub fn with_format(
    stmt: &ConcreteStmt,
    name: &str,
    format: &taco_tensor::Format,
) -> Result<ConcreteStmt> {
    fn map_access(a: &crate::expr::Access, name: &str, nv: &TensorVar) -> crate::expr::Access {
        if a.tensor().name() == name {
            nv.access(a.vars().to_vec())
        } else {
            a.clone()
        }
    }
    fn map_expr(e: &IndexExpr, name: &str, nv: &TensorVar) -> IndexExpr {
        match e {
            IndexExpr::Access(a) => IndexExpr::Access(map_access(a, name, nv)),
            IndexExpr::Literal(v) => IndexExpr::Literal(*v),
            IndexExpr::Neg(x) => IndexExpr::Neg(Box::new(map_expr(x, name, nv))),
            IndexExpr::Add(a, b) => IndexExpr::Add(
                Box::new(map_expr(a, name, nv)),
                Box::new(map_expr(b, name, nv)),
            ),
            IndexExpr::Sub(a, b) => IndexExpr::Sub(
                Box::new(map_expr(a, name, nv)),
                Box::new(map_expr(b, name, nv)),
            ),
            IndexExpr::Mul(a, b) => IndexExpr::Mul(
                Box::new(map_expr(a, name, nv)),
                Box::new(map_expr(b, name, nv)),
            ),
            IndexExpr::Sum(v, x) => IndexExpr::Sum(v.clone(), Box::new(map_expr(x, name, nv))),
        }
    }
    fn map_stmt(s: &ConcreteStmt, name: &str, nv: &TensorVar) -> ConcreteStmt {
        match s {
            ConcreteStmt::Assign { lhs, op, rhs } => ConcreteStmt::assign(
                map_access(lhs, name, nv),
                *op,
                map_expr(rhs, name, nv),
            ),
            ConcreteStmt::Forall { var, body, parallel } => ConcreteStmt::Forall {
                var: var.clone(),
                body: Box::new(map_stmt(body, name, nv)),
                parallel: *parallel,
            },
            ConcreteStmt::Where { consumer, producer } => ConcreteStmt::where_(
                map_stmt(consumer, name, nv),
                map_stmt(producer, name, nv),
            ),
            ConcreteStmt::Sequence { first, second } => ConcreteStmt::sequence(
                map_stmt(first, name, nv),
                map_stmt(second, name, nv),
            ),
        }
    }

    let mut old: Option<TensorVar> = None;
    stmt.visit(&mut |s| {
        if let ConcreteStmt::Assign { lhs, rhs, .. } = s {
            for a in std::iter::once(lhs).chain(rhs.accesses()) {
                if a.tensor().name() == name && old.is_none() {
                    old = Some(a.tensor().clone());
                }
            }
        }
    });
    let old = old.ok_or_else(|| IrError::UnknownTensor(name.to_string()))?;
    if old.rank() != format.rank() {
        return Err(IrError::FormatRankMismatch {
            tensor: name.to_string(),
            rank: old.rank(),
            format_rank: format.rank(),
        });
    }
    let nv = TensorVar::new(name, old.shape().to_vec(), format.clone());
    Ok(map_stmt(stmt, name, &nv))
}

// ---------------------------------------------------------------------------
// Result reuse (Section V-B)
// ---------------------------------------------------------------------------

/// Splits an addition into a sequence that accumulates into the result:
/// `∀ a = E + R  ⇒  (∀ a ⊕= E ; ∀ a += R)`. Inside a sequence the first
/// statement that splits is split in place, so `a = B0 ; a += B1 + B2`
/// becomes `a = B0 ; a += B1 ; a += B2`.
fn result_reuse(
    stmt: &ConcreteStmt,
    target: &IndexExpr,
    workspace: &TensorVar,
) -> Result<ConcreteStmt> {
    fn go(
        stmt: &ConcreteStmt,
        target: &IndexExpr,
        ws: &TensorVar,
    ) -> Result<Option<ConcreteStmt>> {
        match stmt {
            ConcreteStmt::Forall { .. } | ConcreteStmt::Assign { .. } => {
                // Gather the forall chain down to the assignment.
                let mut vars = Vec::new();
                let mut cur = stmt;
                while let ConcreteStmt::Forall { var, body, .. } = cur {
                    vars.push(var.clone());
                    cur = body;
                }
                let ConcreteStmt::Assign { lhs, op, rhs } = cur else {
                    return match cur {
                        ConcreteStmt::Where { consumer, producer } => {
                            match go_where(consumer, producer, target, ws)? {
                                Some(w) => Ok(Some(ConcreteStmt::forall_chain(vars, w))),
                                None => Ok(None),
                            }
                        }
                        _ => Ok(None),
                    };
                };
                if lhs.tensor().name() != ws.name() {
                    return Ok(None);
                }
                let addends = rhs.addends();
                let target_addends = target.addends();
                if target_addends.len() >= addends.len() {
                    return Err(IrError::ResultReuseNotApplicable);
                }
                let mut remaining: Vec<&IndexExpr> = addends;
                for t in &target_addends {
                    let Some(pos) = remaining.iter().position(|r| r == t) else {
                        return Err(IrError::ResultReuseNotApplicable);
                    };
                    remaining.remove(pos);
                }
                let rest = IndexExpr::sum_of(remaining.into_iter().cloned().collect());
                let first = ConcreteStmt::forall_chain(
                    vars.clone(),
                    ConcreteStmt::assign(lhs.clone(), *op, target.clone()),
                );
                let second = ConcreteStmt::forall_chain(
                    vars,
                    ConcreteStmt::assign(lhs.clone(), AssignOp::Accum, rest),
                );
                Ok(Some(ConcreteStmt::sequence(first, second)))
            }
            ConcreteStmt::Where { consumer, producer } => go_where(consumer, producer, target, ws),
            ConcreteStmt::Sequence { first, second } => match go(first, target, ws) {
                Ok(Some(f)) => Ok(Some(ConcreteStmt::sequence(f, (**second).clone()))),
                _ => Ok(go(second, target, ws)?
                    .map(|s| ConcreteStmt::sequence((**first).clone(), s))),
            },
        }
    }

    fn go_where(
        consumer: &ConcreteStmt,
        producer: &ConcreteStmt,
        target: &IndexExpr,
        ws: &TensorVar,
    ) -> Result<Option<ConcreteStmt>> {
        if let Some(p) = go(producer, target, ws)? {
            return Ok(Some(ConcreteStmt::where_(consumer.clone(), p)));
        }
        if let Some(c) = go(consumer, target, ws)? {
            return Ok(Some(ConcreteStmt::where_(c, producer.clone())));
        }
        Ok(None)
    }

    go(stmt, target, workspace)?
        .ok_or_else(|| IrError::ExpressionNotFound(target.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concretize::concretize;
    use crate::expr::sum;
    use crate::notation::IndexAssignment;
    use taco_tensor::Format;

    fn iv(n: &str) -> IndexVar {
        IndexVar::new(n)
    }

    fn matmul_concrete() -> (ConcreteStmt, IndexExpr, TensorVar) {
        let n = 16;
        let a = TensorVar::new("A", vec![n, n], Format::csr());
        let b = TensorVar::new("B", vec![n, n], Format::csr());
        let c = TensorVar::new("C", vec![n, n], Format::csr());
        let (i, j, k) = (iv("i"), iv("j"), iv("k"));
        let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
        let s = IndexAssignment::assign(a.access([i, j]), sum(k, mul.clone()));
        let w = TensorVar::new("w", vec![n], Format::dvec());
        (concretize(&s).unwrap(), mul, w)
    }

    #[test]
    fn reorder_matmul_to_linear_combination_of_rows() {
        let (s, _, _) = matmul_concrete();
        assert_eq!(s.to_string(), "∀i ∀j ∀k A(i,j) += B(i,k) * C(k,j)");
        let r = reorder(&s, &iv("k"), &iv("j")).unwrap();
        assert_eq!(r.to_string(), "∀i ∀k ∀j A(i,j) += B(i,k) * C(k,j)");
    }

    #[test]
    fn reorder_unknown_var_errors() {
        let (s, _, _) = matmul_concrete();
        assert!(matches!(
            reorder(&s, &iv("k"), &iv("z")),
            Err(IrError::NotInSameForallChain { .. })
        ));
    }

    #[test]
    fn reorder_rejects_sequences() {
        // ∀y ∀z (seq) — exchanging y and z would reorder across a sequence.
        let (s, _, _) = matmul_concrete();
        let seq = ConcreteStmt::forall(
            "y",
            ConcreteStmt::forall("z", ConcreteStmt::sequence(s.clone(), s)),
        );
        assert_eq!(reorder(&seq, &iv("y"), &iv("z")), Err(IrError::ContainsSequence));
    }

    /// Section IV-A / Figure 1d: matrix multiplication with a dense row
    /// workspace.
    #[test]
    fn precompute_matmul_matches_paper() {
        let (s, mul, w) = matmul_concrete();
        let r = reorder(&s, &iv("k"), &iv("j")).unwrap();
        let jv = iv("j");
        let out = precompute(&r, &mul, &[(jv.clone(), jv.clone(), jv.clone())], &w).unwrap();
        assert_eq!(
            out.to_string(),
            "∀i ((∀j A(i,j) = w(j)) where (∀k ∀j w(j) += B(i,k) * C(k,j)))"
        );
    }

    /// Figure 2 variant: split j into jc (consumer) and jp (producer).
    #[test]
    fn precompute_with_split_vars_renames() {
        let (s, mul, w) = matmul_concrete();
        let r = reorder(&s, &iv("k"), &iv("j")).unwrap();
        let out = precompute(&r, &mul, &[(iv("j"), iv("jc"), iv("jp"))], &w).unwrap();
        assert_eq!(
            out.to_string(),
            "∀i ((∀jc A(i,jc) = w(jc)) where (∀k ∀jp w(jp) += B(i,k) * C(k,jp)))"
        );
    }

    /// Figure 4: precompute one factor of an intersection.
    #[test]
    fn precompute_factor_keeps_remainder_in_consumer() {
        let n = 16;
        let a = TensorVar::new("a", vec![n], Format::dvec());
        let b = TensorVar::new("B", vec![n, n], Format::csr());
        let c = TensorVar::new("C", vec![n, n], Format::csr());
        let (i, j) = (iv("i"), iv("j"));
        let bij: IndexExpr = b.access([i.clone(), j.clone()]).into();
        let s = IndexAssignment::assign(
            a.access([i.clone()]),
            sum(j.clone(), bij.clone() * c.access([i, j.clone()])),
        );
        let concrete = concretize(&s).unwrap();
        assert_eq!(concrete.to_string(), "∀i ∀j a(i) += B(i,j) * C(i,j)");
        let w = TensorVar::new("w", vec![n], Format::dvec());
        let out = precompute(&concrete, &bij, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
        assert_eq!(
            out.to_string(),
            "∀i ((∀j a(i) += w(j) * C(i,j)) where (∀j w(j) = B(i,j)))"
        );
    }

    /// Section VII, first MTTKRP transformation.
    #[test]
    fn precompute_mttkrp_hoists_loop_invariant_code() {
        let n = 8;
        let a = TensorVar::new("A", vec![n, n], Format::dense(2));
        let b = TensorVar::new("B", vec![n, n, n], Format::csf3());
        let c = TensorVar::new("C", vec![n, n], Format::dense(2));
        let d = TensorVar::new("D", vec![n, n], Format::dense(2));
        let (i, j, k, l) = (iv("i"), iv("j"), iv("k"), iv("l"));
        let bc = b.access([i.clone(), k.clone(), l.clone()]) * c.access([l.clone(), j.clone()]);
        let s = IndexAssignment::assign(
            a.access([i.clone(), j.clone()]),
            sum(k.clone(), sum(l.clone(), bc.clone() * d.access([k.clone(), j.clone()]))),
        );
        let concrete = concretize(&s).unwrap();
        // Reorder ∀ijkl to ∀iklj (the order that traverses B's CSF
        // hierarchy).
        let r = reorder(&concrete, &iv("j"), &iv("k")).unwrap();
        let r = reorder(&r, &iv("j"), &iv("l")).unwrap();
        assert_eq!(r.to_string(), "∀i ∀k ∀l ∀j A(i,j) += B(i,k,l) * C(l,j) * D(k,j)");
        let w = TensorVar::new("w", vec![n], Format::dvec());
        let out = precompute(&r, &bc, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
        assert_eq!(
            out.to_string(),
            "∀i ∀k ((∀j A(i,j) += w(j) * D(k,j)) where (∀l ∀j w(j) += B(i,k,l) * C(l,j)))"
        );

        // Second transformation (sparse output): precompute w(j)*D(k,j)
        // into v.
        let v = TensorVar::new("v", vec![n], Format::dvec());
        let wd = IndexExpr::from(w.access([j.clone()])) * d.access([k.clone(), j.clone()]);
        let out2 = precompute(&out, &wd, &[(j.clone(), j.clone(), j.clone())], &v).unwrap();
        assert_eq!(
            out2.to_string(),
            "∀i ((∀j A(i,j) = v(j)) where (∀k ((∀j v(j) += w(j) * D(k,j)) where (∀l ∀j w(j) += B(i,k,l) * C(l,j)))))"
        );
    }

    /// Figure 5 / Section V-B: sparse matrix addition with result reuse.
    #[test]
    fn matrix_add_with_result_reuse() {
        let n = 16;
        let a = TensorVar::new("A", vec![n, n], Format::csr());
        let b = TensorVar::new("B", vec![n, n], Format::csr());
        let c = TensorVar::new("C", vec![n, n], Format::csr());
        let (i, j) = (iv("i"), iv("j"));
        let bij: IndexExpr = b.access([i.clone(), j.clone()]).into();
        let cij: IndexExpr = c.access([i.clone(), j.clone()]).into();
        let s = IndexAssignment::assign(a.access([i.clone(), j.clone()]), bij.clone() + cij.clone());
        let concrete = concretize(&s).unwrap();

        // First application: precompute B+C into w over j.
        let w = TensorVar::new("w", vec![n], Format::dvec());
        let sum_expr = bij.clone() + cij;
        let out = precompute(&concrete, &sum_expr, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
        assert_eq!(
            out.to_string(),
            "∀i ((∀j A(i,j) = w(j)) where (∀j w(j) = B(i,j) + C(i,j)))"
        );

        // Second application: precompute B into the workspace itself
        // (result reuse) — yields a sequence.
        let out2 = precompute(&out, &bij, &[], &w).unwrap();
        assert_eq!(
            out2.to_string(),
            "∀i ((∀j A(i,j) = w(j)) where (∀j w(j) = B(i,j) ; ∀j w(j) += C(i,j)))"
        );
    }

    /// Figure 13: result reuse applied once per operand splits a k-operand
    /// addition into k accumulations, reaching into the sequence the
    /// previous application made.
    #[test]
    fn kway_add_result_reuse_splits_inside_sequences() {
        let n = 16;
        let a = TensorVar::new("A", vec![n, n], Format::csr());
        let (i, j) = (iv("i"), iv("j"));
        let ops: Vec<IndexExpr> = (0..3)
            .map(|x| {
                TensorVar::new(format!("B{x}"), vec![n, n], Format::csr())
                    .access([i.clone(), j.clone()])
                    .into()
            })
            .collect();
        let total = IndexExpr::sum_of(ops.clone());
        let s = IndexAssignment::assign(a.access([i.clone(), j.clone()]), total.clone());
        let w = TensorVar::new("w", vec![n], Format::dvec());
        let mut out =
            precompute(&concretize(&s).unwrap(), &total, &[(j.clone(), j.clone(), j.clone())], &w)
                .unwrap();
        for op in &ops[..2] {
            out = precompute(&out, op, &[], &w).unwrap();
        }
        assert_eq!(
            out.to_string(),
            "∀i ((∀j A(i,j) = w(j)) where (∀j w(j) = B0(i,j) ; ∀j w(j) += B1(i,j) ; ∀j w(j) += B2(i,j)))"
        );
        // The last operand has nothing left to split off, and every other
        // transform still refuses the sequence.
        assert_eq!(precompute(&out, &ops[2], &[], &w), Err(IrError::ResultReuseNotApplicable));
        let v = TensorVar::new("v", vec![n], Format::dvec());
        assert_eq!(
            precompute(&out, &ops[2], &[(j.clone(), j.clone(), j.clone())], &v),
            Err(IrError::ContainsSequence)
        );
    }

    /// Section V-B: dense vector addition reusing the result directly.
    #[test]
    fn vector_add_result_reuse() {
        let n = 16;
        let a = TensorVar::new("a", vec![n], Format::dvec());
        let b = TensorVar::new("b", vec![n], Format::svec());
        let c = TensorVar::new("c", vec![n], Format::svec());
        let i = iv("i");
        let bi: IndexExpr = b.access([i.clone()]).into();
        let s = IndexAssignment::assign(a.access([i.clone()]), bi.clone() + c.access([i.clone()]));
        let concrete = concretize(&s).unwrap();
        let out = precompute(&concrete, &bi, &[], &a).unwrap();
        assert_eq!(out.to_string(), "∀i a(i) = b(i) ; ∀i a(i) += c(i)");
    }

    #[test]
    fn precompute_missing_expression_errors() {
        let (s, _, w) = matmul_concrete();
        let z = TensorVar::new("Z", vec![16, 16], Format::csr());
        let bogus: IndexExpr = z.access([iv("i"), iv("j")]).into();
        let jv = iv("j");
        assert!(matches!(
            precompute(&s, &bogus, &[(jv.clone(), jv.clone(), jv.clone())], &w),
            Err(IrError::ExpressionNotFound(_))
        ));
    }

    #[test]
    fn parallelize_workspace_spgemm_outer_loop() {
        // Figure 2 schedule: the workspace privatizes w per i, so ∀i is
        // embarrassingly parallel.
        let (s, mul, w) = matmul_concrete();
        let r = reorder(&s, &iv("k"), &iv("j")).unwrap();
        let jv = iv("j");
        let ws = precompute(&r, &mul, &[(jv.clone(), jv.clone(), jv.clone())], &w).unwrap();
        let p = parallelize(&ws, &iv("i")).unwrap();
        assert_eq!(
            p.to_string(),
            "∀∥i ((∀j A(i,j) = w(j)) where (∀k ∀j w(j) += B(i,k) * C(k,j)))"
        );
    }

    #[test]
    fn parallelize_rejects_unprivatized_reduction() {
        // ∀i ∀j ∀k A(i,j) += ...: k carries the reduction into A, which no
        // workspace privatizes.
        let (s, _, _) = matmul_concrete();
        assert_eq!(
            parallelize(&s, &iv("k")),
            Err(IrError::ReductionNotPrivatized { var: "k".into(), tensor: "A".into() })
        );
        // The workspace form privatizes w against i but not against k: the
        // where sits outside ∀k, so all k iterations share one w.
        let (s, mul, w) = matmul_concrete();
        let r = reorder(&s, &iv("k"), &iv("j")).unwrap();
        let jv = iv("j");
        let ws = precompute(&r, &mul, &[(jv.clone(), jv.clone(), jv.clone())], &w).unwrap();
        assert_eq!(
            parallelize(&ws, &iv("k")),
            Err(IrError::ReductionNotPrivatized { var: "k".into(), tensor: "w".into() })
        );
    }

    #[test]
    fn parallelize_allows_disjoint_rows_and_rejects_unknown_vars() {
        // ∀i of the plain merge form writes disjoint rows A(i,_): legal even
        // without a workspace.
        let (s, _, _) = matmul_concrete();
        let p = parallelize(&s, &iv("i")).unwrap();
        assert_eq!(p.to_string(), "∀∥i ∀j ∀k A(i,j) += B(i,k) * C(k,j)");
        assert_eq!(parallelize(&s, &iv("z")), Err(IrError::UnknownIndexVar("z".into())));
    }

    #[test]
    fn precompute_validates_workspace_shape() {
        let (s, mul, _) = matmul_concrete();
        let small = TensorVar::new("w", vec![2], Format::dvec());
        let jv = iv("j");
        assert!(matches!(
            precompute(&s, &mul, &[(jv.clone(), jv.clone(), jv.clone())], &small),
            Err(IrError::WorkspaceShapeMismatch { .. })
        ));
        let wrong_rank = TensorVar::new("w", vec![16, 16], Format::dense(2));
        assert!(matches!(
            precompute(&s, &mul, &[(jv.clone(), jv.clone(), jv.clone())], &wrong_rank),
            Err(IrError::WorkspaceShapeMismatch { .. })
        ));
    }
}
