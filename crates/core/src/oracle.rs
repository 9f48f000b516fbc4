//! Dense reference evaluator: the correctness oracle for compiled kernels.
//!
//! [`eval_dense`] interprets an index notation statement directly, with
//! every tensor converted to dense and every forall realized as a full
//! loop over the dimension — the semantics sparse kernels must reproduce.

use crate::{CoreError, Result};
use std::collections::HashMap;
use taco_ir::expr::{IndexExpr, IndexVar};
use taco_ir::notation::IndexAssignment;
use taco_tensor::{DenseTensor, Tensor};

/// Evaluates an index notation assignment over the named input tensors,
/// returning the dense result.
///
/// # Errors
///
/// Returns an error if an operand is missing or a variable's range cannot
/// be inferred.
///
/// # Example
///
/// ```
/// use taco_core::oracle::eval_dense;
/// use taco_ir::expr::{sum, IndexVar, TensorVar};
/// use taco_ir::notation::IndexAssignment;
/// use taco_tensor::{Format, Tensor};
///
/// let (i, j) = (IndexVar::new("i"), IndexVar::new("j"));
/// let a = TensorVar::new("a", vec![2], Format::dvec());
/// let b = TensorVar::new("B", vec![2, 2], Format::csr());
/// let stmt = IndexAssignment::assign(a.access([i.clone()]), sum(j.clone(), b.access([i, j])));
/// let bt = Tensor::from_entries(vec![2, 2], Format::csr(),
///     vec![(vec![0, 0], 1.0), (vec![0, 1], 2.0)])?;
/// let result = eval_dense(&stmt, &[("B", &bt)])?;
/// assert_eq!(result.data(), &[3.0, 0.0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn eval_dense(stmt: &IndexAssignment, inputs: &[(&str, &Tensor)]) -> Result<DenseTensor> {
    let dense: HashMap<&str, DenseTensor> =
        inputs.iter().map(|(n, t)| (*n, t.to_dense())).collect();

    // Infer every variable's range from the accesses that use it.
    let mut ranges: HashMap<String, usize> = HashMap::new();
    let mut record = |access: &taco_ir::expr::Access| {
        for (l, v) in access.vars().iter().enumerate() {
            ranges.entry(v.name().to_string()).or_insert(access.tensor().shape()[l]);
        }
    };
    record(stmt.lhs());
    stmt.rhs().visit(&mut |e| {
        if let IndexExpr::Access(a) = e {
            record(a);
        }
    });

    let mut out = DenseTensor::zeros(stmt.lhs().tensor().shape().to_vec());
    let free = stmt.free_vars();
    let free_dims: Vec<usize> = free
        .iter()
        .map(|v| {
            ranges
                .get(v.name())
                .copied()
                .ok_or_else(|| CoreError::UnknownOperand(v.name().to_string()))
        })
        .collect::<Result<_>>()?;

    // Resolve every name once: the free variables hold slots `0..free.len()`
    // (the coordinate), each `sum` one slot after them.
    let mut scope: Vec<&str> = free.iter().map(|v| v.name()).collect();
    let mut slots = scope.len();
    let rhs = Node::resolve(stmt.rhs(), &mut scope, &mut slots, &dense, &ranges)?;
    let mut vals = vec![0usize; slots];
    let mut coord = Vec::new();
    loop {
        let val = rhs.eval(&mut vals, &mut coord);
        out.set(&vals[..free.len()], val);

        // Odometer increment.
        let mut k = free.len();
        loop {
            if k == 0 {
                return Ok(out);
            }
            k -= 1;
            vals[k] += 1;
            if vals[k] < free_dims[k] {
                break;
            }
            vals[k] = 0;
        }
    }
}

/// An index expression with every variable resolved to a slot of the
/// evaluator's values and every access to its dense operand.
enum Node<'t> {
    Access(&'t DenseTensor, Vec<usize>),
    Literal(f64),
    Neg(Box<Node<'t>>),
    Bin(fn(f64, f64) -> f64, Box<Node<'t>>, Box<Node<'t>>),
    Sum { slot: usize, dim: usize, body: Box<Node<'t>> },
}

impl<'t> Node<'t> {
    /// Resolves `e` under `scope` (variable names by slot, innermost last;
    /// a `sum` shadows its variable only inside its body), handing out new
    /// slots from `slots`.
    fn resolve<'e>(
        e: &'e IndexExpr,
        scope: &mut Vec<&'e str>,
        slots: &mut usize,
        dense: &'t HashMap<&str, DenseTensor>,
        ranges: &HashMap<String, usize>,
    ) -> Result<Node<'t>> {
        let mut sub = |e: &'e IndexExpr, scope: &mut Vec<&'e str>| -> Result<Box<Node<'t>>> {
            Ok(Box::new(Node::resolve(e, scope, slots, dense, ranges)?))
        };
        let unknown = |name: &str| CoreError::UnknownOperand(name.to_string());
        Ok(match e {
            IndexExpr::Access(a) => {
                let t = dense.get(a.tensor().name()).ok_or_else(|| unknown(a.tensor().name()))?;
                let slot_of = |v: &IndexVar| scope.iter().rposition(|n| *n == v.name());
                let at = a
                    .vars()
                    .iter()
                    .map(|v| slot_of(v).ok_or_else(|| unknown(v.name())))
                    .collect::<Result<_>>()?;
                Node::Access(t, at)
            }
            IndexExpr::Literal(v) => Node::Literal(*v),
            IndexExpr::Neg(a) => Node::Neg(sub(a, scope)?),
            IndexExpr::Add(a, b) => Node::Bin(|x, y| x + y, sub(a, scope)?, sub(b, scope)?),
            IndexExpr::Sub(a, b) => Node::Bin(|x, y| x - y, sub(a, scope)?, sub(b, scope)?),
            IndexExpr::Mul(a, b) => Node::Bin(|x, y| x * y, sub(a, scope)?, sub(b, scope)?),
            IndexExpr::Sum(v, body) => {
                let dim = *ranges.get(v.name()).ok_or_else(|| unknown(v.name()))?;
                scope.push(v.name());
                let slot = scope.len() - 1;
                *slots = (*slots).max(scope.len());
                let body = Node::resolve(body, scope, slots, dense, ranges);
                scope.pop();
                Node::Sum { slot, dim, body: Box::new(body?) }
            }
        })
    }

    /// The value at `vals`; `coord` is scratch for an access's coordinate.
    fn eval(&self, vals: &mut [usize], coord: &mut Vec<usize>) -> f64 {
        match self {
            Node::Access(t, at) => {
                coord.clear();
                coord.extend(at.iter().map(|&s| vals[s]));
                t.get(coord)
            }
            Node::Literal(v) => *v,
            Node::Neg(a) => -a.eval(vals, coord),
            Node::Bin(op, a, b) => op(a.eval(vals, coord), b.eval(vals, coord)),
            Node::Sum { slot, dim, body } => {
                let mut acc = 0.0;
                for x in 0..*dim {
                    vals[*slot] = x;
                    acc += body.eval(vals, coord);
                }
                acc
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taco_ir::expr::{sum, IndexVar, TensorVar};
    use taco_tensor::Format;

    #[test]
    fn matmul_oracle() {
        let n = 3;
        let a = TensorVar::new("A", vec![n, n], Format::dense(2));
        let b = TensorVar::new("B", vec![n, n], Format::csr());
        let c = TensorVar::new("C", vec![n, n], Format::csr());
        let (i, j, k) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"));
        let stmt = IndexAssignment::assign(
            a.access([i.clone(), j.clone()]),
            sum(k.clone(), b.access([i, k.clone()]) * c.access([k, j])),
        );
        let bt = Tensor::from_entries(
            vec![n, n],
            Format::csr(),
            vec![(vec![0, 1], 2.0), (vec![2, 2], 3.0)],
        )
        .unwrap();
        let ct = Tensor::from_entries(
            vec![n, n],
            Format::csr(),
            vec![(vec![1, 0], 5.0), (vec![2, 1], 7.0)],
        )
        .unwrap();
        let out = eval_dense(&stmt, &[("B", &bt), ("C", &ct)]).unwrap();
        assert_eq!(out.get(&[0, 0]), 10.0); // B(0,1)*C(1,0)
        assert_eq!(out.get(&[2, 1]), 21.0); // B(2,2)*C(2,1)
        assert_eq!(out.count_nonzeros(), 2);
    }

    #[test]
    fn literal_and_neg() {
        let n = 2;
        let a = TensorVar::new("a", vec![n], Format::dvec());
        let b = TensorVar::new("b", vec![n], Format::dvec());
        let i = IndexVar::new("i");
        let stmt = IndexAssignment::assign(
            a.access([i.clone()]),
            IndexExpr::Literal(2.0) * (-IndexExpr::from(b.access([i]))),
        );
        let bt = Tensor::from_entries(vec![n], Format::dvec(), vec![(vec![1], 3.0)]).unwrap();
        let out = eval_dense(&stmt, &[("b", &bt)]).unwrap();
        assert_eq!(out.data(), &[0.0, -6.0]);
    }

    #[test]
    fn a_sum_shadows_its_variable_only_inside_its_body() {
        // a(i) = Σ_i b(i) + b(i): the sum's `i` is not the free `i`.
        let a = TensorVar::new("a", vec![2], Format::dvec());
        let b = TensorVar::new("b", vec![2], Format::dvec());
        let i = IndexVar::new("i");
        let stmt = IndexAssignment::assign(
            a.access([i.clone()]),
            sum(i.clone(), b.access([i.clone()])) + b.access([i]),
        );
        let bt = Tensor::from_entries(vec![2], Format::dvec(), vec![(vec![0], 1.0), (vec![1], 2.0)])
            .unwrap();
        let out = eval_dense(&stmt, &[("b", &bt)]).unwrap();
        assert_eq!(out.data(), &[4.0, 5.0]);
    }
}
