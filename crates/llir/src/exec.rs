//! Compilation of kernels to a slot-resolved executable form, and execution.
//!
//! [`Executable::compile`] walks a [`Kernel`], checks types, and resolves
//! every scalar variable and array name to a dense slot index. The resulting
//! typed statement tree is then interpreted by [`Executable::run`] with no
//! name lookups in any inner loop — this plays the role of the paper's
//! "target code" stage (Figure 6) in a pure-Rust setting.
//!
//! The interpreter checks every array access dynamically: it is the oracle
//! the native backend's differential trust run is held against. For a
//! straight-line leaf loop whose accesses are all range-decidable from the
//! loop bounds ([`crate::leaf`] plans them at compile time) it makes that
//! check once, at loop entry, and then runs the loop a strip at a time —
//! between two supervision polls — through the same evaluators under an
//! access policy that cannot fault, over a body whose loop-invariant
//! subexpressions were evaluated once into scalar slots. Every other loop,
//! and a leaf loop whose precondition is false, runs one checked element at
//! a time.

use crate::alloc::{elem_bytes, BudgetMeter};
use crate::leaf::{self, Access, LeafIndex, LoopBody, Slots, Strip};
use crate::{
    ArrayTy, BinOp, BudgetResource, CompileError, Expr, Kernel, ParamKind, Progress,
    ResourceBudget, Rows, RunError, Stmt, UnOp, WorkspaceKind,
};
use std::collections::{HashMap, HashSet};
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The storage behind an [`ArrayVal`]: a vector the binding owns, or a
/// slice it shares with whoever else holds the `Arc` — an operand tensor and
/// every other binding of it. Both read as a slice; only an owned vector is
/// ever written, and a shared slice may be bound only to an input parameter.
///
/// A shared slice is an `Arc<[T]>`, not an `Arc<Vec<T>>`: its length sits in
/// the handle and its elements at a fixed offset behind it, so reading
/// either kind is a select, not a branch and a second load.
#[derive(Debug, Clone)]
pub enum Buf<T> {
    /// Owned by the binding.
    Owned(Vec<T>),
    /// Shared, read-only.
    Shared(Arc<[T]>),
}

impl<T> Buf<T> {
    /// The vector, if the buffer owns it.
    pub(crate) fn owned_mut(&mut self) -> Option<&mut Vec<T>> {
        match self {
            Buf::Owned(v) => Some(v),
            Buf::Shared(_) => None,
        }
    }
}

impl<T> Deref for Buf<T> {
    type Target = [T];

    #[inline]
    fn deref(&self) -> &[T] {
        match self {
            Buf::Owned(v) => v,
            Buf::Shared(v) => v,
        }
    }
}

/// Element by element, whoever owns the storage.
impl<T: PartialEq> PartialEq for Buf<T> {
    fn eq(&self, other: &Buf<T>) -> bool {
        **self == **other
    }
}

/// A buffer bound to (or allocated by) a kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayVal {
    /// 64-bit integer buffer.
    Int(Buf<i64>),
    /// Double-precision buffer.
    F64(Buf<f64>),
    /// Single-precision buffer.
    F32(Buf<f32>),
    /// Boolean buffer.
    Bool(Buf<bool>),
}

/// An element type of an [`ArrayVal`]: which variant holds its buffer.
pub(crate) trait Elem: Sized {
    fn buf_mut(v: &mut ArrayVal) -> Option<&mut Buf<Self>>;
}

macro_rules! elem {
    ($t:ty, $variant:ident) => {
        impl Elem for $t {
            #[inline]
            fn buf_mut(v: &mut ArrayVal) -> Option<&mut Buf<$t>> {
                match v {
                    ArrayVal::$variant(b) => Some(b),
                    _ => None,
                }
            }
        }
    };
}
elem!(i64, Int);
elem!(f64, F64);
elem!(f32, F32);
elem!(bool, Bool);

impl ArrayVal {
    /// The element type.
    pub fn ty(&self) -> ArrayTy {
        match self {
            ArrayVal::Int(_) => ArrayTy::Int,
            ArrayVal::F64(_) => ArrayTy::F64,
            ArrayVal::F32(_) => ArrayTy::F32,
            ArrayVal::Bool(_) => ArrayTy::Bool,
        }
    }

    /// An empty buffer of element type `ty`.
    pub fn empty(ty: ArrayTy) -> ArrayVal {
        ArrayVal::zeroed(ty, 0)
    }

    /// An owned buffer of `len` zero elements of type `ty`: what `Alloc`
    /// makes on either backend.
    pub fn zeroed(ty: ArrayTy, len: usize) -> ArrayVal {
        match ty {
            ArrayTy::Int => ArrayVal::Int(Buf::Owned(vec![0; len])),
            ArrayTy::F64 => ArrayVal::F64(Buf::Owned(vec![0.0; len])),
            ArrayTy::F32 => ArrayVal::F32(Buf::Owned(vec![0.0; len])),
            ArrayTy::Bool => ArrayVal::Bool(Buf::Owned(vec![false; len])),
        }
    }

    /// Grows an owned buffer to `len` elements, zero-filled, as `Realloc`
    /// does on either backend; a shorter `len` leaves it as it is.
    ///
    /// # Errors
    ///
    /// A shared buffer is read-only: [`RunError::ReadOnlyArray`] for `name`.
    pub fn grow_zeroed(&mut self, len: usize, name: &str) -> Result<(), RunError> {
        fn grow<T: Clone>(b: &mut Buf<T>, len: usize, zero: T, name: &str) -> Result<(), RunError> {
            let v = b.owned_mut().ok_or_else(|| RunError::ReadOnlyArray(name.to_string()))?;
            if len > v.len() {
                v.resize(len, zero);
            }
            Ok(())
        }
        match self {
            ArrayVal::Int(b) => grow(b, len, 0, name),
            ArrayVal::F64(b) => grow(b, len, 0.0, name),
            ArrayVal::F32(b) => grow(b, len, 0.0, name),
            ArrayVal::Bool(b) => grow(b, len, false, name),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            ArrayVal::Int(v) => v.len(),
            ArrayVal::F64(v) => v.len(),
            ArrayVal::F32(v) => v.len(),
            ArrayVal::Bool(v) => v.len(),
        }
    }

    /// True if the buffer has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if the buffer is shared (and so read-only).
    pub fn is_shared(&self) -> bool {
        matches!(
            self,
            ArrayVal::Int(Buf::Shared(_))
                | ArrayVal::F64(Buf::Shared(_))
                | ArrayVal::F32(Buf::Shared(_))
                | ArrayVal::Bool(Buf::Shared(_))
        )
    }
}

// ---------------------------------------------------------------------------
// Resolved (typed, slot-addressed) IR
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum IExpr {
    Lit(i64),
    Var(usize),
    Load(usize, Box<IExpr>),
    Len(usize),
    Bin(BinOp, Box<IExpr>, Box<IExpr>),
    Neg(Box<IExpr>),
}

#[derive(Debug, Clone)]
pub(crate) enum FExpr {
    Lit(f64),
    Var(usize),
    LoadF64(usize, Box<IExpr>),
    LoadF32(usize, Box<IExpr>),
    Bin(BinOp, Box<FExpr>, Box<FExpr>),
    Neg(Box<FExpr>),
    FromInt(Box<IExpr>),
}

#[derive(Debug, Clone)]
pub(crate) enum BExpr {
    Lit(bool),
    Var(usize),
    Load(usize, Box<IExpr>),
    CmpI(BinOp, Box<IExpr>, Box<IExpr>),
    CmpF(BinOp, Box<FExpr>, Box<FExpr>),
    Bin(BinOp, Box<BExpr>, Box<BExpr>),
    Not(Box<BExpr>),
}

#[derive(Debug, Clone)]
pub(crate) enum RStmt {
    AssignI(usize, IExpr),
    AssignF(usize, FExpr),
    AssignB(usize, BExpr),
    StoreI(usize, IExpr, IExpr),
    StoreF64(usize, IExpr, FExpr),
    StoreF32(usize, IExpr, FExpr),
    StoreB(usize, IExpr, BExpr),
    StoreAddI(usize, IExpr, IExpr),
    StoreAddF64(usize, IExpr, FExpr),
    StoreAddF32(usize, IExpr, FExpr),
    For(usize, IExpr, IExpr, LoopBody),
    While(BExpr, Vec<RStmt>),
    If(BExpr, Vec<RStmt>, Vec<RStmt>),
    MemsetI(usize, IExpr),
    MemsetF64(usize, FExpr),
    MemsetF32(usize, FExpr),
    MemsetB(usize, BExpr),
    Alloc(usize, ArrayTy, IExpr),
    Realloc(usize, IExpr),
    WsInit(Ws, IExpr),
    WsScatter(Ws, IExpr, FExpr, bool),
    /// Workspace, key and value slots, `sorted`, body.
    WsDrain(Ws, usize, usize, bool, Vec<RStmt>),
}

/// Where a workspace's state lives: a map kind's store slot, or the slots
/// of the dense kind's arrays.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ws {
    Map(usize, WorkspaceKind),
    Dense(DenseWs),
}

/// A dense workspace (Figure 8): value, coordinate-list and guard array
/// slots, none of them reachable by name, and the int slot counting the
/// listed coordinates.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DenseWs {
    pub(crate) vals: usize,
    /// `F64`, or `F32` for a mixed-precision workspace.
    pub(crate) ty: ArrayTy,
    pub(crate) list: usize,
    pub(crate) guard: usize,
    pub(crate) len: usize,
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScalarTy {
    Int,
    Float,
    Bool,
}

enum Typed {
    I(IExpr),
    F(FExpr),
    B(BExpr),
}

struct Compiler {
    scopes: Vec<HashMap<String, (ScalarTy, usize)>>,
    arrays: HashMap<String, (usize, ArrayTy)>,
    array_names: Vec<String>,
    array_tys: Vec<ArrayTy>,
    workspaces: HashMap<String, Ws>,
    map_names: Vec<String>,
    /// Workspaces whose drain body is being compiled, innermost last.
    draining: Vec<String>,
    /// Array slots of input parameters. They are bound shared with the
    /// caller's tensors, so no statement may write them.
    inputs: HashSet<usize>,
    n_int: usize,
    n_float: usize,
    n_bool: usize,
}

impl Compiler {
    fn lookup_var(&self, name: &str) -> Option<(ScalarTy, usize)> {
        self.scopes.iter().rev().find_map(|s| s.get(name).copied())
    }

    fn fresh_int(&mut self) -> usize {
        self.n_int += 1;
        self.n_int - 1
    }

    fn declare(&mut self, name: &str, ty: ScalarTy) -> Result<usize, CompileError> {
        if self.scopes.last().expect("scope stack nonempty").contains_key(name) {
            return Err(CompileError::Duplicate(name.to_string()));
        }
        let slot = match ty {
            ScalarTy::Int => self.fresh_int(),
            ScalarTy::Float => {
                self.n_float += 1;
                self.n_float - 1
            }
            ScalarTy::Bool => {
                self.n_bool += 1;
                self.n_bool - 1
            }
        };
        self.scopes.last_mut().unwrap().insert(name.to_string(), (ty, slot));
        Ok(slot)
    }

    fn array(&mut self, name: &str) -> Result<(usize, ArrayTy), CompileError> {
        self.arrays
            .get(name)
            .copied()
            .ok_or_else(|| CompileError::UnknownArray(name.to_string()))
    }

    /// An array a statement writes: any but an input.
    fn written(&mut self, name: &str) -> Result<(usize, ArrayTy), CompileError> {
        let (slot, ty) = self.array(name)?;
        self.not_input(name, slot)?;
        Ok((slot, ty))
    }

    fn not_input(&self, name: &str, slot: usize) -> Result<(), CompileError> {
        if self.inputs.contains(&slot) {
            return Err(CompileError::WriteToInput(name.to_string()));
        }
        Ok(())
    }

    /// A workspace declared by an earlier `WsInit`, outside its own drain.
    fn ws(&self, name: &str) -> Result<Ws, CompileError> {
        if self.draining.iter().any(|d| d == name) {
            return Err(CompileError::WorkspaceInOwnDrain(name.to_string()));
        }
        let unknown = || CompileError::UnknownArray(name.to_string());
        self.workspaces.get(name).copied().ok_or_else(unknown)
    }

    fn declare_ws(
        &mut self,
        name: &str,
        kind: WorkspaceKind,
        ty: ArrayTy,
    ) -> Result<Ws, CompileError> {
        let mismatch = || CompileError::TypeMismatch {
            context: format!("{kind} workspace `{name}` of {ty:?} values"),
        };
        match self.ws(name) {
            Ok(ws @ Ws::Map(_, k)) if k == kind && ty == ArrayTy::F64 => return Ok(ws),
            Ok(ws @ Ws::Dense(d)) if kind == WorkspaceKind::Dense && d.ty == ty => return Ok(ws),
            Ok(_) => return Err(mismatch()),
            Err(e @ CompileError::WorkspaceInOwnDrain(_)) => return Err(e),
            Err(_) => {}
        }
        if let Some(&(slot, _)) = self.arrays.get(name) {
            self.not_input(name, slot)?;
            return Err(CompileError::Duplicate(name.to_string()));
        }
        let ws = match (kind, ty) {
            (WorkspaceKind::Dense, ArrayTy::F64 | ArrayTy::F32) => Ws::Dense(DenseWs {
                vals: self.local_array(name, ty),
                ty,
                list: self.local_array(&format!("{name}.list"), ArrayTy::Int),
                guard: self.local_array(&format!("{name}.guard"), ArrayTy::Bool),
                len: self.fresh_int(),
            }),
            (WorkspaceKind::Hash | WorkspaceKind::CoordList, ArrayTy::F64) => {
                self.map_names.push(name.to_string());
                Ws::Map(self.map_names.len() - 1, kind)
            }
            _ => return Err(mismatch()),
        };
        self.workspaces.insert(name.to_string(), ws);
        Ok(ws)
    }

    /// A kernel-local array slot no statement can name.
    fn local_array(&mut self, name: &str, ty: ArrayTy) -> usize {
        self.array_names.push(name.to_string());
        self.array_tys.push(ty);
        self.array_names.len() - 1
    }

    fn declare_array(&mut self, name: &str, ty: ArrayTy) -> Result<usize, CompileError> {
        if let Some(&(slot, prev)) = self.arrays.get(name) {
            if prev != ty {
                return Err(CompileError::TypeMismatch {
                    context: format!("array `{name}` reallocated with a different type"),
                });
            }
            return Ok(slot);
        }
        if self.workspaces.contains_key(name) {
            return Err(CompileError::Duplicate(name.to_string()));
        }
        let slot = self.local_array(name, ty);
        self.arrays.insert(name.to_string(), (slot, ty));
        Ok(slot)
    }

    fn expr(&mut self, e: &Expr) -> Result<Typed, CompileError> {
        Ok(match e {
            Expr::Int(v) => Typed::I(IExpr::Lit(*v)),
            Expr::Float(v) => Typed::F(FExpr::Lit(*v)),
            Expr::Bool(v) => Typed::B(BExpr::Lit(*v)),
            Expr::Var(name) => {
                let (ty, slot) =
                    self.lookup_var(name).ok_or_else(|| CompileError::UnknownVar(name.clone()))?;
                match ty {
                    ScalarTy::Int => Typed::I(IExpr::Var(slot)),
                    ScalarTy::Float => Typed::F(FExpr::Var(slot)),
                    ScalarTy::Bool => Typed::B(BExpr::Var(slot)),
                }
            }
            Expr::Load(arr, idx) => {
                let (slot, ty) = self.array(arr)?;
                let idx = self.int_expr(idx)?;
                match ty {
                    ArrayTy::Int => Typed::I(IExpr::Load(slot, Box::new(idx))),
                    ArrayTy::F64 => Typed::F(FExpr::LoadF64(slot, Box::new(idx))),
                    ArrayTy::F32 => Typed::F(FExpr::LoadF32(slot, Box::new(idx))),
                    ArrayTy::Bool => Typed::B(BExpr::Load(slot, Box::new(idx))),
                }
            }
            Expr::Len(arr) => {
                let (slot, _) = self.array(arr)?;
                Typed::I(IExpr::Len(slot))
            }
            Expr::Un(UnOp::Neg, inner) => match self.expr(inner)? {
                Typed::I(i) => Typed::I(IExpr::Neg(Box::new(i))),
                Typed::F(f) => Typed::F(FExpr::Neg(Box::new(f))),
                Typed::B(_) => {
                    return Err(CompileError::TypeMismatch {
                        context: "arithmetic negation of a boolean".into(),
                    })
                }
            },
            Expr::Un(UnOp::Not, inner) => {
                let b = self.bool_expr(inner)?;
                Typed::B(BExpr::Not(Box::new(b)))
            }
            Expr::Bin(op, a, b) => self.bin(*op, a, b)?,
        })
    }

    fn bin(&mut self, op: BinOp, a: &Expr, b: &Expr) -> Result<Typed, CompileError> {
        use BinOp::*;
        let ta = self.expr(a)?;
        let tb = self.expr(b)?;
        let arithmetic = matches!(op, Add | Sub | Mul | Div | Rem | Min | Max);
        let comparison = matches!(op, Eq | Ne | Lt | Le | Gt | Ge);
        let logical = matches!(op, And | Or);
        match (ta, tb) {
            (Typed::I(x), Typed::I(y)) if arithmetic => {
                Ok(Typed::I(IExpr::Bin(op, Box::new(x), Box::new(y))))
            }
            (Typed::I(x), Typed::I(y)) if comparison => {
                Ok(Typed::B(BExpr::CmpI(op, Box::new(x), Box::new(y))))
            }
            (Typed::B(x), Typed::B(y)) if logical => {
                Ok(Typed::B(BExpr::Bin(op, Box::new(x), Box::new(y))))
            }
            (x @ (Typed::I(_) | Typed::F(_)), y @ (Typed::I(_) | Typed::F(_)))
                if arithmetic || comparison =>
            {
                let fx = Self::promote(x);
                let fy = Self::promote(y);
                if arithmetic {
                    Ok(Typed::F(FExpr::Bin(op, Box::new(fx), Box::new(fy))))
                } else {
                    Ok(Typed::B(BExpr::CmpF(op, Box::new(fx), Box::new(fy))))
                }
            }
            _ => Err(CompileError::TypeMismatch { context: format!("operator {op:?}") }),
        }
    }

    fn promote(t: Typed) -> FExpr {
        match t {
            Typed::F(f) => f,
            Typed::I(i) => FExpr::FromInt(Box::new(i)),
            Typed::B(_) => unreachable!("bool operands rejected before promotion"),
        }
    }

    fn int_expr(&mut self, e: &Expr) -> Result<IExpr, CompileError> {
        match self.expr(e)? {
            Typed::I(i) => Ok(i),
            _ => Err(CompileError::TypeMismatch { context: format!("expected integer: {e:?}") }),
        }
    }

    fn float_expr(&mut self, e: &Expr) -> Result<FExpr, CompileError> {
        match self.expr(e)? {
            Typed::F(f) => Ok(f),
            Typed::I(i) => Ok(FExpr::FromInt(Box::new(i))),
            _ => Err(CompileError::TypeMismatch { context: format!("expected float: {e:?}") }),
        }
    }

    fn bool_expr(&mut self, e: &Expr) -> Result<BExpr, CompileError> {
        match self.expr(e)? {
            Typed::B(b) => Ok(b),
            _ => Err(CompileError::TypeMismatch { context: format!("expected boolean: {e:?}") }),
        }
    }

    fn block(&mut self, stmts: &[Stmt]) -> Result<Vec<RStmt>, CompileError> {
        self.scopes.push(HashMap::new());
        let out = self.block_in_current_scope(stmts);
        self.scopes.pop();
        out
    }

    fn block_in_current_scope(&mut self, stmts: &[Stmt]) -> Result<Vec<RStmt>, CompileError> {
        let mut out = Vec::with_capacity(stmts.len());
        for s in stmts {
            if let Some(r) = self.stmt(s)? {
                out.push(r);
            }
        }
        Ok(out)
    }

    fn stmt(&mut self, s: &Stmt) -> Result<Option<RStmt>, CompileError> {
        Ok(Some(match s {
            Stmt::DeclInt(name, init) => {
                let e = self.int_expr(init)?;
                let slot = self.declare(name, ScalarTy::Int)?;
                RStmt::AssignI(slot, e)
            }
            Stmt::DeclFloat(name, init) => {
                let e = self.float_expr(init)?;
                let slot = self.declare(name, ScalarTy::Float)?;
                RStmt::AssignF(slot, e)
            }
            Stmt::DeclBool(name, init) => {
                let e = self.bool_expr(init)?;
                let slot = self.declare(name, ScalarTy::Bool)?;
                RStmt::AssignB(slot, e)
            }
            Stmt::Assign(name, val) => {
                let (ty, slot) =
                    self.lookup_var(name).ok_or_else(|| CompileError::UnknownVar(name.clone()))?;
                match ty {
                    ScalarTy::Int => RStmt::AssignI(slot, self.int_expr(val)?),
                    ScalarTy::Float => RStmt::AssignF(slot, self.float_expr(val)?),
                    ScalarTy::Bool => RStmt::AssignB(slot, self.bool_expr(val)?),
                }
            }
            Stmt::Store { arr, idx, val } => {
                let (slot, ty) = self.written(arr)?;
                let idx = self.int_expr(idx)?;
                match ty {
                    ArrayTy::Int => RStmt::StoreI(slot, idx, self.int_expr(val)?),
                    ArrayTy::F64 => RStmt::StoreF64(slot, idx, self.float_expr(val)?),
                    ArrayTy::F32 => RStmt::StoreF32(slot, idx, self.float_expr(val)?),
                    ArrayTy::Bool => RStmt::StoreB(slot, idx, self.bool_expr(val)?),
                }
            }
            Stmt::StoreAdd { arr, idx, val } => {
                let (slot, ty) = self.written(arr)?;
                let idx = self.int_expr(idx)?;
                match ty {
                    ArrayTy::Int => RStmt::StoreAddI(slot, idx, self.int_expr(val)?),
                    ArrayTy::F64 => RStmt::StoreAddF64(slot, idx, self.float_expr(val)?),
                    ArrayTy::F32 => RStmt::StoreAddF32(slot, idx, self.float_expr(val)?),
                    ArrayTy::Bool => {
                        return Err(CompileError::TypeMismatch {
                            context: format!("accumulating store into boolean array `{arr}`"),
                        })
                    }
                }
            }
            Stmt::For { var, lo, hi, body } => {
                let lo = self.int_expr(lo)?;
                let hi = self.int_expr(hi)?;
                self.scopes.push(HashMap::new());
                let slot = self.declare(var, ScalarTy::Int)?;
                let body = self.block_in_current_scope(body)?;
                self.scopes.pop();
                RStmt::For(slot, lo, hi, LoopBody::new(body))
            }
            Stmt::While { cond, body } => {
                let cond = self.bool_expr(cond)?;
                let body = self.block(body)?;
                RStmt::While(cond, body)
            }
            Stmt::If { cond, then, els } => {
                let cond = self.bool_expr(cond)?;
                let then = self.block(then)?;
                let els = self.block(els)?;
                RStmt::If(cond, then, els)
            }
            Stmt::Memset { arr, val } => {
                let (slot, ty) = self.written(arr)?;
                match ty {
                    ArrayTy::Int => RStmt::MemsetI(slot, self.int_expr(val)?),
                    ArrayTy::F64 => RStmt::MemsetF64(slot, self.float_expr(val)?),
                    ArrayTy::F32 => RStmt::MemsetF32(slot, self.float_expr(val)?),
                    ArrayTy::Bool => RStmt::MemsetB(slot, self.bool_expr(val)?),
                }
            }
            Stmt::Alloc { arr, ty, len } => {
                let len = self.int_expr(len)?;
                let slot = self.declare_array(arr, *ty)?;
                self.not_input(arr, slot)?;
                RStmt::Alloc(slot, *ty, len)
            }
            Stmt::Realloc { arr, len } => {
                let (slot, _) = self.written(arr)?;
                let len = self.int_expr(len)?;
                RStmt::Realloc(slot, len)
            }
            Stmt::WsInit { ws, kind, ty, extent } => {
                let extent = self.int_expr(extent)?;
                RStmt::WsInit(self.declare_ws(ws, *kind, *ty)?, extent)
            }
            Stmt::WsScatter { ws, key, val, add } => {
                let ws = self.ws(ws)?;
                RStmt::WsScatter(ws, self.int_expr(key)?, self.float_expr(val)?, *add)
            }
            Stmt::WsDrain { ws: name, key, val, sorted, body } => {
                let ws = self.ws(name)?;
                self.draining.push(name.clone());
                self.scopes.push(HashMap::new());
                let key_slot = self.declare(key, ScalarTy::Int)?;
                let val_slot = self.declare(val, ScalarTy::Float)?;
                let body = self.block_in_current_scope(body)?;
                self.scopes.pop();
                self.draining.pop();
                RStmt::WsDrain(ws, key_slot, val_slot, *sorted, body)
            }
            Stmt::Comment(_) => return Ok(None),
        }))
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

// Per-run budget accounting lives in [`crate::alloc::BudgetMeter`], shared
// with the native backend so both report byte-identical budget aborts.

/// How often (in loop iterations) the interpreter performs the expensive
/// supervision checks: reading the clock, the cancel flag, and publishing
/// progress counters. Back-edges between checks cost one countdown decrement.
///
/// Public so supervision consumers (the serving daemon, soak tests) can
/// bound how late a deadline or cancellation can be observed: at most one
/// stride of loop iterations after the event.
pub const SUPERVISION_STRIDE: u32 = 1024;

/// Supervision hooks for one run ([`run_body`]). All-`None` (the `Default`)
/// runs unsupervised with zero overhead beyond the stride countdown. Every
/// [`KernelBody`] observes them through [`RunControls::check`], at most one
/// [`SUPERVISION_STRIDE`] of loop back-edges apart.
#[derive(Default, Clone, Copy)]
pub struct RunControls<'a> {
    /// Cooperative cancellation flag.
    pub cancel: Option<&'a AtomicBool>,
    /// Wall-clock deadline as (run start, allowed duration).
    pub deadline: Option<(Instant, Duration)>,
}

impl RunControls<'_> {
    /// The periodic supervision check: observe the cancel flag, compare the
    /// clock against the deadline.
    ///
    /// # Errors
    ///
    /// [`RunError::Cancelled`] or [`RunError::DeadlineExceeded`].
    pub fn check(&self) -> Result<(), RunError> {
        if self.cancel.is_some_and(|flag| flag.load(Ordering::Relaxed)) {
            return Err(RunError::Cancelled);
        }
        if let Some((start, limit)) = self.deadline {
            let elapsed = start.elapsed();
            if elapsed >= limit {
                return Err(RunError::DeadlineExceeded {
                    deadline_ms: limit.as_millis() as u64,
                    elapsed_ms: elapsed.as_millis() as u64,
                });
            }
        }
        Ok(())
    }
}

/// A sparse map workspace: kernel-local machine state keyed by integer
/// coordinates. Never part of a [`Binding`], so supervised snapshot/rollback
/// is unaffected by map contents.
#[derive(Debug, Clone)]
enum MapStore {
    /// Hash-map backing: unordered accumulate, sorted on drain.
    Hash(HashMap<i64, f64>),
    /// Coordinate-list backing: ordered insert with dedup, drained in place.
    Sorted(Vec<(i64, f64)>),
}

#[derive(Debug, Clone)]
struct MapWs {
    store: MapStore,
    /// Entry capacity already charged against the byte budget; grows by
    /// doubling as entries are inserted, like `Realloc`.
    charged_entries: u64,
}

impl Default for MapWs {
    fn default() -> MapWs {
        MapWs { store: MapStore::Hash(HashMap::new()), charged_entries: 0 }
    }
}

impl MapWs {
    fn kind(&self) -> WorkspaceKind {
        match self.store {
            MapStore::Hash(_) => WorkspaceKind::Hash,
            MapStore::Sorted(_) => WorkspaceKind::CoordList,
        }
    }

    fn len(&self) -> usize {
        match &self.store {
            MapStore::Hash(m) => m.len(),
            MapStore::Sorted(v) => v.len(),
        }
    }

    /// Removes all entries in ascending key order.
    fn drain_sorted(&mut self) -> Vec<(i64, f64)> {
        match &mut self.store {
            MapStore::Hash(m) => {
                let mut entries: Vec<(i64, f64)> = m.drain().collect();
                entries.sort_unstable_by_key(|&(k, _)| k);
                entries
            }
            MapStore::Sorted(v) => std::mem::take(v),
        }
    }
}

/// What the evaluators do at the two places a straight-line statement can
/// fault: an array access and an integer division. The evaluators are
/// written once, generic over this policy, and instantiated twice.
trait AccessPolicy {
    /// What a faulting access or division yields.
    type Fault;

    /// The position of element `idx` of array slot `arr`, `len` long.
    fn index(m: &Mach<'_>, arr: usize, idx: i64, len: usize) -> Result<usize, Self::Fault>;

    fn division_by_zero() -> Self::Fault;

    /// What a write to the shared, read-only array `name` yields.
    fn read_only(name: &str) -> Self::Fault;

    /// Executes a statement that is not straight-line: a loop, an
    /// allocation, a workspace node.
    fn control(m: &mut Mach<'_>, s: &RStmt) -> Result<(), Self::Fault>;
}

/// Every access is range-checked where it happens: the interpreter as the
/// dynamically checked oracle of the trust gate.
struct Checked;

impl AccessPolicy for Checked {
    type Fault = RunError;

    #[inline]
    fn index(m: &Mach<'_>, arr: usize, idx: i64, len: usize) -> Result<usize, RunError> {
        if idx < 0 || idx as usize >= len {
            Err(m.oob(arr, idx, len))
        } else {
            Ok(idx as usize)
        }
    }

    fn division_by_zero() -> RunError {
        RunError::DivisionByZero
    }

    fn read_only(name: &str) -> RunError {
        RunError::ReadOnlyArray(name.to_string())
    }

    #[inline]
    fn control(m: &mut Mach<'_>, s: &RStmt) -> Result<(), RunError> {
        m.exec_control(s)
    }
}

/// Inside a strip of a leaf loop ([`crate::leaf`]): the entry precondition
/// decided every access of every iteration, and a straight-line body has
/// no integer division and no control statement, so nothing can fault. A
/// violated precondition is a bug in the recogniser; it surfaces as the
/// debug assertion here or as the slice index panic behind it.
struct Decided;

impl AccessPolicy for Decided {
    type Fault = std::convert::Infallible;

    #[inline]
    fn index(_: &Mach<'_>, _: usize, idx: i64, len: usize) -> Result<usize, Self::Fault> {
        debug_assert!(idx >= 0 && (idx as usize) < len, "leaf precondition violated");
        Ok(idx as usize)
    }

    fn division_by_zero() -> Self::Fault {
        unreachable!("a straight-line body has no integer division")
    }

    fn read_only(_: &str) -> Self::Fault {
        unreachable!("the leaf precondition found every stored array writable")
    }

    fn control(_: &mut Mach<'_>, _: &RStmt) -> Result<(), Self::Fault> {
        unreachable!("a straight-line body has no control statement")
    }
}

struct Mach<'a> {
    ints: Vec<i64>,
    floats: Vec<f64>,
    bools: Vec<bool>,
    arrays: Vec<ArrayVal>,
    array_names: Arc<Vec<String>>,
    maps: Vec<MapWs>,
    map_names: Arc<Vec<String>>,
    budget: BudgetMeter,
    ctl: RunControls<'a>,
    /// Iterations until the next supervision check.
    check_countdown: u32,
}

impl Mach<'_> {
    #[inline]
    fn oob(&self, arr: usize, idx: i64, len: usize) -> RunError {
        RunError::OutOfBounds { name: self.array_names[arr].clone(), idx, len }
    }

    /// The owned vector of array slot `arr`, which a statement is about to
    /// write: every store and fill of a named array reaches it through here
    /// (growth through [`ArrayVal::grow_zeroed`], the same check). A shared
    /// buffer is an operand's own storage, so writing it is a typed fault,
    /// neither a write nor a copy.
    #[inline(always)]
    fn writable<T: Elem, A: AccessPolicy>(&mut self, arr: usize) -> Result<&mut Vec<T>, A::Fault> {
        match T::buf_mut(&mut self.arrays[arr]) {
            Some(Buf::Owned(v)) => Ok(v),
            // Shared: a slot's element type is fixed at compile time.
            _ => Err(A::read_only(&self.array_names[arr])),
        }
    }

    /// Burns one unit of the loop-iteration fuse and, every
    /// [`SUPERVISION_STRIDE`] back-edges, performs the supervision checks
    /// (deadline, cancellation, progress publication).
    #[inline]
    fn consume_iteration(&mut self) -> Result<(), RunError> {
        self.budget.consume_iterations(1)?;
        if self.check_countdown == 0 {
            self.check_countdown = SUPERVISION_STRIDE;
            self.supervision_check()
        } else {
            self.check_countdown -= 1;
            Ok(())
        }
    }

    /// The expensive periodic checks ([`RunControls::check`]), out of line so
    /// the back-edge fast path stays a decrement.
    #[cold]
    #[inline(never)]
    fn supervision_check(&mut self) -> Result<(), RunError> {
        self.ctl.check()
    }

    /// Charges `new_bytes` of growth for `arr` against the single-allocation
    /// and cumulative byte limits.
    fn charge_bytes(&mut self, arr: usize, new_bytes: u64) -> Result<(), RunError> {
        self.budget.charge_array_bytes(&self.array_names[arr], new_bytes)
    }

    /// Charges map-workspace growth: the map's whole footprint must fit the
    /// single-workspace limit (so a hash workspace that outgrows
    /// `max_workspace_bytes` aborts retryably, like an oversized `Alloc`),
    /// and the growth delta counts toward the cumulative total.
    fn charge_map_bytes(
        &mut self,
        map: usize,
        footprint: u64,
        delta: u64,
    ) -> Result<(), RunError> {
        self.budget.charge_map_bytes(&self.map_names[map], footprint, delta)
    }

    /// Grows the charged capacity of a map (by doubling) when an insert
    /// pushes its entry count past what has been paid for.
    fn charge_map_growth(&mut self, map: usize) -> Result<(), RunError> {
        let ws = &self.maps[map];
        let needed = ws.len() as u64 + 1;
        if needed <= ws.charged_entries {
            return Ok(());
        }
        let per = ws.kind().entry_bytes();
        let new_cap = (ws.charged_entries * 2).max(needed).max(8);
        let delta = (new_cap - ws.charged_entries).saturating_mul(per);
        self.charge_map_bytes(map, new_cap.saturating_mul(per), delta)?;
        self.maps[map].charged_entries = new_cap;
        Ok(())
    }

    /// Counts one `Realloc` growth of `arr` against the doubling cap.
    fn charge_realloc(&mut self, arr: usize) -> Result<(), RunError> {
        self.budget.charge_realloc_doubling(arr, &self.array_names[arr])
    }

    /// Allocates `arr` zero-filled, `len` elements of `ty`, after charging
    /// it against the budget.
    fn alloc(&mut self, arr: usize, ty: ArrayTy, len: i64) -> Result<(), RunError> {
        if len < 0 {
            return Err(RunError::NegativeLength { name: self.array_names[arr].clone(), len });
        }
        self.charge_bytes(arr, len as u64 * elem_bytes(ty))?;
        self.arrays[arr] = ArrayVal::zeroed(ty, len as usize);
        Ok(())
    }

    /// A dense scatter: the guarded insert of Figure 8 lines 15–18, which
    /// lists a coordinate the first time it is scattered, then the value
    /// store. A listed key passed both range checks, so a drain indexes
    /// with it directly. A dense workspace's arrays are the machine's own
    /// (`WsInit` allocates them), never shared: the scatter and the drain
    /// write them in place.
    fn dense_scatter(
        &mut self,
        d: &DenseWs,
        key: &IExpr,
        val: &FExpr,
        add: bool,
    ) -> Result<(), RunError> {
        let k = self.eval_i::<Checked>(key)?;
        let g = Checked::index(self, d.guard, k, self.arrays[d.guard].len())?;
        if matches!(&self.arrays[d.guard], ArrayVal::Bool(guard) if !guard[g]) {
            let n = self.ints[d.len];
            let at = Checked::index(self, d.list, n, self.arrays[d.list].len())?;
            if let ArrayVal::Int(Buf::Owned(list)) = &mut self.arrays[d.list] {
                list[at] = k;
            }
            self.ints[d.len] = n + 1;
            if let ArrayVal::Bool(Buf::Owned(guard)) = &mut self.arrays[d.guard] {
                guard[g] = true;
            }
        }
        let v = self.eval_f::<Checked>(val)?;
        match d.ty {
            ArrayTy::F32 => self.store_f32::<Checked>(d.vals, k, v, add),
            _ => self.store_f64::<Checked>(d.vals, k, v, add),
        }
    }

    /// A dense drain: the listed coordinates, sorted first when asked
    /// (Figure 8 line 23), each bound with its value, which is zeroed with
    /// its guard before the body runs; the list is empty afterwards.
    fn dense_drain(
        &mut self,
        d: &DenseWs,
        key: usize,
        val: usize,
        sorted: bool,
        body: &[RStmt],
    ) -> Result<(), RunError> {
        let n = self.ints[d.len] as usize;
        if let (true, ArrayVal::Int(Buf::Owned(list))) = (sorted, &mut self.arrays[d.list]) {
            list[..n].sort_unstable();
        }
        for p in 0..n {
            self.consume_iteration()?;
            let ArrayVal::Int(list) = &self.arrays[d.list] else { unreachable!("an Int array") };
            let k = list[p];
            self.ints[key] = k;
            self.floats[val] = match &mut self.arrays[d.vals] {
                ArrayVal::F64(Buf::Owned(v)) => std::mem::take(&mut v[k as usize]),
                ArrayVal::F32(Buf::Owned(v)) => f64::from(std::mem::take(&mut v[k as usize])),
                _ => unreachable!("an owned float array"),
            };
            if let ArrayVal::Bool(Buf::Owned(guard)) = &mut self.arrays[d.guard] {
                guard[k as usize] = false;
            }
            self.exec_block::<Checked>(body)?;
        }
        self.ints[d.len] = 0;
        Ok(())
    }

    fn eval_i<A: AccessPolicy>(&self, e: &IExpr) -> Result<i64, A::Fault> {
        Ok(match e {
            IExpr::Lit(v) => *v,
            IExpr::Var(s) => self.ints[*s],
            IExpr::Load(arr, idx) => {
                let i = self.eval_i::<A>(idx)?;
                match &self.arrays[*arr] {
                    ArrayVal::Int(v) => v[A::index(self, *arr, i, v.len())?],
                    _ => unreachable!("typed at compile time"),
                }
            }
            IExpr::Len(arr) => self.arrays[*arr].len() as i64,
            IExpr::Bin(op, a, b) => {
                let x = self.eval_i::<A>(a)?;
                let y = self.eval_i::<A>(b)?;
                // Wrapping semantics match C integer arithmetic and keep
                // hostile index expressions from aborting the process in
                // debug builds; division errors out instead of trapping.
                match op {
                    BinOp::Add => x.wrapping_add(y),
                    BinOp::Sub => x.wrapping_sub(y),
                    BinOp::Mul => x.wrapping_mul(y),
                    BinOp::Div => {
                        if y == 0 {
                            return Err(A::division_by_zero());
                        }
                        x.wrapping_div(y)
                    }
                    BinOp::Rem => {
                        if y == 0 {
                            return Err(A::division_by_zero());
                        }
                        x.wrapping_rem(y)
                    }
                    BinOp::Min => x.min(y),
                    BinOp::Max => x.max(y),
                    // Invariant: `Compiler::bin` only builds `IExpr::Bin` for
                    // the arithmetic operators matched above.
                    _ => unreachable!("non-arithmetic op in integer expression"),
                }
            }
            IExpr::Neg(a) => self.eval_i::<A>(a)?.wrapping_neg(),
        })
    }

    fn eval_f<A: AccessPolicy>(&self, e: &FExpr) -> Result<f64, A::Fault> {
        Ok(match e {
            FExpr::Lit(v) => *v,
            FExpr::Var(s) => self.floats[*s],
            FExpr::LoadF64(arr, idx) => {
                let i = self.eval_i::<A>(idx)?;
                match &self.arrays[*arr] {
                    ArrayVal::F64(v) => v[A::index(self, *arr, i, v.len())?],
                    _ => unreachable!("typed at compile time"),
                }
            }
            FExpr::LoadF32(arr, idx) => {
                let i = self.eval_i::<A>(idx)?;
                match &self.arrays[*arr] {
                    ArrayVal::F32(v) => v[A::index(self, *arr, i, v.len())?] as f64,
                    _ => unreachable!("typed at compile time"),
                }
            }
            FExpr::Bin(op, a, b) => {
                let x = self.eval_f::<A>(a)?;
                let y = self.eval_f::<A>(b)?;
                match op {
                    BinOp::Add => x + y,
                    BinOp::Sub => x - y,
                    BinOp::Mul => x * y,
                    BinOp::Div => x / y,
                    BinOp::Rem => x % y,
                    BinOp::Min => x.min(y),
                    BinOp::Max => x.max(y),
                    _ => unreachable!("non-arithmetic op in float expression"),
                }
            }
            FExpr::Neg(a) => -self.eval_f::<A>(a)?,
            FExpr::FromInt(a) => self.eval_i::<A>(a)? as f64,
        })
    }

    fn eval_b<A: AccessPolicy>(&self, e: &BExpr) -> Result<bool, A::Fault> {
        Ok(match e {
            BExpr::Lit(v) => *v,
            BExpr::Var(s) => self.bools[*s],
            BExpr::Load(arr, idx) => {
                let i = self.eval_i::<A>(idx)?;
                match &self.arrays[*arr] {
                    ArrayVal::Bool(v) => v[A::index(self, *arr, i, v.len())?],
                    _ => unreachable!("typed at compile time"),
                }
            }
            BExpr::CmpI(op, a, b) => {
                let x = self.eval_i::<A>(a)?;
                let y = self.eval_i::<A>(b)?;
                cmp(*op, &x, &y)
            }
            BExpr::CmpF(op, a, b) => {
                let x = self.eval_f::<A>(a)?;
                let y = self.eval_f::<A>(b)?;
                cmp(*op, &x, &y)
            }
            BExpr::Bin(BinOp::And, a, b) => self.eval_b::<A>(a)? && self.eval_b::<A>(b)?,
            BExpr::Bin(BinOp::Or, a, b) => self.eval_b::<A>(a)? || self.eval_b::<A>(b)?,
            BExpr::Bin(op, ..) => unreachable!("non-logical op {op:?} in boolean expression"),
            BExpr::Not(a) => !self.eval_b::<A>(a)?,
        })
    }

    fn exec_block<A: AccessPolicy>(&mut self, stmts: &[RStmt]) -> Result<(), A::Fault> {
        for s in stmts {
            self.exec::<A>(s)?;
        }
        Ok(())
    }

    /// Executes one statement. The straight-line statements — scalar
    /// assigns, stores, and `If` over them — are written here, once for both
    /// access policies; everything else is [`AccessPolicy::control`].
    fn exec<A: AccessPolicy>(&mut self, s: &RStmt) -> Result<(), A::Fault> {
        match s {
            RStmt::AssignI(slot, e) => {
                self.ints[*slot] = self.eval_i::<A>(e)?;
            }
            RStmt::AssignF(slot, e) => {
                self.floats[*slot] = self.eval_f::<A>(e)?;
            }
            RStmt::AssignB(slot, e) => {
                self.bools[*slot] = self.eval_b::<A>(e)?;
            }
            RStmt::StoreI(arr, idx, val) => {
                let i = self.eval_i::<A>(idx)?;
                let v = self.eval_i::<A>(val)?;
                let i = A::index(self, *arr, i, self.arrays[*arr].len())?;
                self.writable::<i64, A>(*arr)?[i] = v;
            }
            RStmt::StoreF64(arr, idx, val) => {
                let i = self.eval_i::<A>(idx)?;
                let v = self.eval_f::<A>(val)?;
                self.store_f64::<A>(*arr, i, v, false)?;
            }
            RStmt::StoreF32(arr, idx, val) => {
                let i = self.eval_i::<A>(idx)?;
                let v = self.eval_f::<A>(val)?;
                self.store_f32::<A>(*arr, i, v, false)?;
            }
            RStmt::StoreB(arr, idx, val) => {
                let i = self.eval_i::<A>(idx)?;
                let v = self.eval_b::<A>(val)?;
                let i = A::index(self, *arr, i, self.arrays[*arr].len())?;
                self.writable::<bool, A>(*arr)?[i] = v;
            }
            RStmt::StoreAddI(arr, idx, val) => {
                let i = self.eval_i::<A>(idx)?;
                let v = self.eval_i::<A>(val)?;
                let i = A::index(self, *arr, i, self.arrays[*arr].len())?;
                self.writable::<i64, A>(*arr)?[i] += v;
            }
            RStmt::StoreAddF64(arr, idx, val) => {
                let i = self.eval_i::<A>(idx)?;
                let v = self.eval_f::<A>(val)?;
                self.store_f64::<A>(*arr, i, v, true)?;
            }
            RStmt::StoreAddF32(arr, idx, val) => {
                let i = self.eval_i::<A>(idx)?;
                let v = self.eval_f::<A>(val)?;
                self.store_f32::<A>(*arr, i, v, true)?;
            }
            RStmt::If(cond, then, els) => {
                if self.eval_b::<A>(cond)? {
                    self.exec_block::<A>(then)?;
                } else {
                    self.exec_block::<A>(els)?;
                }
            }
            control => A::control(self, control)?,
        }
        Ok(())
    }

    /// The statements only the checked policy meets: loops, allocation,
    /// workspace nodes.
    #[inline]
    fn exec_control(&mut self, s: &RStmt) -> Result<(), RunError> {
        match s {
            RStmt::For(slot, lo, hi, body) => {
                let lo = self.eval_i::<Checked>(lo)?;
                let hi = self.eval_i::<Checked>(hi)?;
                if let Some(plan) = body.leaf_plan() {
                    if let Some(strip) = &plan.strip {
                        return self.exec_leaf_loop(*slot, lo, hi, body, &plan.stores, strip);
                    }
                }
                let mut iv = lo;
                while iv < hi {
                    self.consume_iteration()?;
                    self.ints[*slot] = iv;
                    self.exec_block::<Checked>(body)?;
                    iv += 1;
                }
            }
            RStmt::While(cond, body) => {
                while self.eval_b::<Checked>(cond)? {
                    self.consume_iteration()?;
                    self.exec_block::<Checked>(body)?;
                }
            }
            RStmt::MemsetI(arr, val) => {
                let v = self.eval_i::<Checked>(val)?;
                self.writable::<i64, Checked>(*arr)?.fill(v);
            }
            RStmt::MemsetF64(arr, val) => {
                let v = self.eval_f::<Checked>(val)?;
                self.writable::<f64, Checked>(*arr)?.fill(v);
            }
            RStmt::MemsetF32(arr, val) => {
                let v = self.eval_f::<Checked>(val)?;
                self.writable::<f32, Checked>(*arr)?.fill(v as f32);
            }
            RStmt::MemsetB(arr, val) => {
                let v = self.eval_b::<Checked>(val)?;
                self.writable::<bool, Checked>(*arr)?.fill(v);
            }
            RStmt::Alloc(arr, ty, len) => {
                let len = self.eval_i::<Checked>(len)?;
                self.alloc(*arr, *ty, len)?;
            }
            RStmt::Realloc(arr, len) => {
                let len = self.eval_i::<Checked>(len)?;
                if len < 0 {
                    return Err(RunError::NegativeLength {
                        name: self.array_names[*arr].clone(),
                        len,
                    });
                }
                let len = len as usize;
                let old_len = self.arrays[*arr].len();
                if len > old_len {
                    let ty = self.arrays[*arr].ty();
                    self.charge_bytes(*arr, (len - old_len) as u64 * elem_bytes(ty))?;
                    self.charge_realloc(*arr)?;
                    self.arrays[*arr].grow_zeroed(len, &self.array_names[*arr])?;
                }
            }
            RStmt::WsInit(Ws::Dense(d), extent) => {
                let len = self.eval_i::<Checked>(extent)?;
                self.alloc(d.vals, d.ty, len)?;
                self.alloc(d.list, ArrayTy::Int, len)?;
                self.alloc(d.guard, ArrayTy::Bool, len)?;
                self.ints[d.len] = 0;
            }
            RStmt::WsInit(Ws::Map(map, kind), extent) => {
                let cap = self.eval_i::<Checked>(extent)?.min(WorkspaceKind::INITIAL_CAPACITY);
                if cap < 0 {
                    return Err(RunError::NegativeLength {
                        name: self.map_names[*map].clone(),
                        len: cap,
                    });
                }
                let per = kind.entry_bytes();
                self.charge_map_bytes(*map, cap as u64 * per, cap as u64 * per)?;
                let store = match kind {
                    WorkspaceKind::Hash => {
                        MapStore::Hash(HashMap::with_capacity(cap as usize))
                    }
                    _ => MapStore::Sorted(Vec::with_capacity(cap as usize)),
                };
                self.maps[*map] = MapWs { store, charged_entries: cap as u64 };
            }
            RStmt::WsScatter(Ws::Dense(d), key, val, add) => self.dense_scatter(d, key, val, *add)?,
            RStmt::WsScatter(Ws::Map(map, _), key, val, add) => {
                let k = self.eval_i::<Checked>(key)?;
                let v = self.eval_f::<Checked>(val)?;
                match &self.maps[*map].store {
                    MapStore::Hash(m) if !m.contains_key(&k) => self.charge_map_growth(*map)?,
                    MapStore::Sorted(s) if s.binary_search_by_key(&k, |e| e.0).is_err() => {
                        self.charge_map_growth(*map)?
                    }
                    _ => {}
                }
                match &mut self.maps[*map].store {
                    MapStore::Hash(m) => {
                        let slot = m.entry(k).or_insert(0.0);
                        if *add {
                            *slot += v;
                        } else {
                            *slot = v;
                        }
                    }
                    MapStore::Sorted(s) => match s.binary_search_by_key(&k, |e| e.0) {
                        Ok(i) => {
                            if *add {
                                s[i].1 += v;
                            } else {
                                s[i].1 = v;
                            }
                        }
                        Err(i) => s.insert(i, (k, v)),
                    },
                }
            }
            RStmt::WsDrain(Ws::Dense(d), key, val, sorted, body) => {
                self.dense_drain(d, *key, *val, *sorted, body)?;
            }
            RStmt::WsDrain(Ws::Map(map, _), key_slot, val_slot, _, body) => {
                let entries = self.maps[*map].drain_sorted();
                for (k, v) in entries {
                    self.consume_iteration()?;
                    self.ints[*key_slot] = k;
                    self.floats[*val_slot] = v;
                    self.exec_block::<Checked>(body)?;
                }
            }
            _ => unreachable!("straight-line statements are executed by `exec`"),
        }
        Ok(())
    }

    /// A `For` whose body carries a [`Strip`]: when the entry precondition
    /// holds the loop is strip-mined by the tick grant — each strip runs the
    /// rewritten body with nothing per element but the body, and what
    /// follows a strip is the end of the loop or exactly the iteration
    /// [`Mach::consume_iteration`] polls or trips on, which runs as the
    /// per-element iteration it always was. When it does not hold this is
    /// the per-element loop, faulting where it always did. Out of line so
    /// the `For` arm of every other loop keeps its code.
    #[inline(never)]
    fn exec_leaf_loop(
        &mut self,
        slot: usize,
        lo: i64,
        hi: i64,
        body: &[RStmt],
        stores: &[Access],
        strip: &Strip,
    ) -> Result<(), RunError> {
        let decided = lo < hi && self.leaf_precondition(stores, strip, lo, hi);
        if decided {
            self.exec_decided(&strip.prologue);
        }
        let mut iv = lo;
        while iv < hi {
            if decided {
                // Every iteration that neither polls nor trips the fuse:
                // their ticks burn in one subtraction. `hi - iv` wraps for
                // hostile bounds and is then still the true distance.
                let n = ((hi as u64).wrapping_sub(iv as u64))
                    .min(u64::from(self.check_countdown))
                    .min(self.budget.iterations_left);
                self.check_countdown -= n as u32;
                self.budget.iterations_left -= n;
                let end = iv.wrapping_add(n as i64);
                while iv < end {
                    self.ints[slot] = iv;
                    self.exec_decided(&strip.body);
                    iv += 1;
                }
                if iv == hi {
                    break;
                }
            }
            self.consume_iteration()?;
            self.ints[slot] = iv;
            self.exec_block::<Checked>(body)?;
            iv += 1;
        }
        Ok(())
    }

    fn exec_decided(&mut self, stmts: &[RStmt]) {
        let Ok(()) = self.exec_block::<Decided>(stmts);
    }

    /// Decides, from the bounds of a leaf loop entered with `lo < hi`, the
    /// range check of every access of every iteration: an invariant index
    /// is in range, an `offset + loopvar` index is in range at `lo` and at
    /// `hi - 1` — it is monotone in between, provided the sum did not wrap
    /// around i64 on the way, which `first <= last` rules out. And every
    /// array it stores to is writable: a shared buffer leaves the loop to the
    /// per-element path, whose first store is the typed fault.
    fn leaf_precondition(&self, stores: &[Access], strip: &Strip, lo: i64, hi: i64) -> bool {
        // Index expressions of a plan have no load and no division.
        let value = |e: &IExpr| {
            let Ok(v) = self.eval_i::<Decided>(e);
            v
        };
        let writable = stores.iter().all(|(arr, _)| !self.arrays[*arr].is_shared());
        writable && strip.accesses.iter().all(|(arr, form)| {
            let len = self.arrays[*arr].len() as u64;
            let in_range = |idx: i64| (idx as u64) < len;
            match form {
                LeafIndex::Invariant(idx) => in_range(value(idx)),
                LeafIndex::Affine(offset) => {
                    let offset = offset.as_ref().map_or(0, value);
                    let (first, last) = (offset.wrapping_add(lo), offset.wrapping_add(hi - 1));
                    in_range(first) && in_range(last) && first <= last
                }
            }
        })
    }

    // Always inlined, like `store_f32` and `writable`: with the shared-buffer
    // check LLVM outlines them, and the calls cost the SpGEMM interpreter
    // about 4 %.
    #[inline(always)]
    fn store_f64<A: AccessPolicy>(
        &mut self,
        arr: usize,
        i: i64,
        v: f64,
        accumulate: bool,
    ) -> Result<(), A::Fault> {
        let i = A::index(self, arr, i, self.arrays[arr].len())?;
        let a = self.writable::<f64, A>(arr)?;
        if accumulate {
            a[i] += v;
        } else {
            a[i] = v;
        }
        Ok(())
    }

    #[inline(always)]
    fn store_f32<A: AccessPolicy>(
        &mut self,
        arr: usize,
        i: i64,
        v: f64,
        accumulate: bool,
    ) -> Result<(), A::Fault> {
        let i = A::index(self, arr, i, self.arrays[arr].len())?;
        let a = self.writable::<f32, A>(arr)?;
        if accumulate {
            a[i] += v as f32;
        } else {
            a[i] = v as f32;
        }
        Ok(())
    }

}

fn cmp<T: PartialOrd>(op: BinOp, x: &T, y: &T) -> bool {
    match op {
        BinOp::Eq => x == y,
        BinOp::Ne => x != y,
        BinOp::Lt => x < y,
        BinOp::Le => x <= y,
        BinOp::Gt => x > y,
        BinOp::Ge => x >= y,
        _ => unreachable!("non-comparison op in cmp"),
    }
}

// ---------------------------------------------------------------------------
// Public interface
// ---------------------------------------------------------------------------

/// Buffers and scalar inputs bound to a kernel before [`Executable::run`],
/// and outputs read back afterwards.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Binding {
    arrays: HashMap<String, ArrayVal>,
    scalars: HashMap<String, i64>,
    scalar_outputs: HashMap<String, i64>,
}

impl Binding {
    /// Creates an empty binding.
    pub fn new() -> Binding {
        Binding::default()
    }

    /// Binds an integer scalar parameter.
    pub fn set_scalar(&mut self, name: impl Into<String>, v: i64) -> &mut Self {
        self.scalars.insert(name.into(), v);
        self
    }

    /// Binds a double-precision array.
    pub fn set_f64(&mut self, name: impl Into<String>, v: Vec<f64>) -> &mut Self {
        self.arrays.insert(name.into(), ArrayVal::F64(Buf::Owned(v)));
        self
    }

    /// Binds a single-precision array.
    pub fn set_f32(&mut self, name: impl Into<String>, v: Vec<f32>) -> &mut Self {
        self.arrays.insert(name.into(), ArrayVal::F32(Buf::Owned(v)));
        self
    }

    /// Binds an integer array.
    pub fn set_int(&mut self, name: impl Into<String>, v: Vec<i64>) -> &mut Self {
        self.arrays.insert(name.into(), ArrayVal::Int(Buf::Owned(v)));
        self
    }

    /// Binds a boolean array.
    pub fn set_bool(&mut self, name: impl Into<String>, v: Vec<bool>) -> &mut Self {
        self.arrays.insert(name.into(), ArrayVal::Bool(Buf::Owned(v)));
        self
    }

    /// Binds a double-precision array shared read-only with whoever else
    /// holds `v` (an operand tensor's values): nothing is copied, and only
    /// an input parameter may take it.
    pub fn set_shared_f64(&mut self, name: impl Into<String>, v: Arc<[f64]>) -> &mut Self {
        self.arrays.insert(name.into(), ArrayVal::F64(Buf::Shared(v)));
        self
    }

    /// Binds an integer array shared read-only (an operand tensor's widened
    /// `pos` or `crd`), as [`Binding::set_shared_f64`].
    pub fn set_shared_int(&mut self, name: impl Into<String>, v: Arc<[i64]>) -> &mut Self {
        self.arrays.insert(name.into(), ArrayVal::Int(Buf::Shared(v)));
        self
    }

    /// Reads back a double-precision array, owned or shared.
    pub fn f64_array(&self, name: &str) -> Option<&[f64]> {
        match self.arrays.get(name) {
            Some(ArrayVal::F64(v)) => Some(v),
            _ => None,
        }
    }

    /// Reads back a single-precision array.
    pub fn f32_array(&self, name: &str) -> Option<&[f32]> {
        match self.arrays.get(name) {
            Some(ArrayVal::F32(v)) => Some(v),
            _ => None,
        }
    }

    /// Reads back an integer array.
    pub fn int_array(&self, name: &str) -> Option<&[i64]> {
        match self.arrays.get(name) {
            Some(ArrayVal::Int(v)) => Some(v),
            _ => None,
        }
    }

    /// Reads the final value of a kernel scalar output.
    pub fn scalar_output(&self, name: &str) -> Option<i64> {
        self.scalar_outputs.get(name).copied()
    }

    /// Removes and returns a bound array.
    pub fn take(&mut self, name: &str) -> Option<ArrayVal> {
        self.arrays.remove(name)
    }

    /// Reads a bound scalar parameter.
    pub fn scalar(&self, name: &str) -> Option<i64> {
        self.scalars.get(name).copied()
    }

    /// Iterates every bound scalar parameter as `(name, value)` pairs.
    /// Cost-model consumers use this to build a concrete evaluation
    /// environment for symbolic bounds at bind time.
    pub fn scalar_entries(&self) -> impl Iterator<Item = (&str, i64)> {
        self.scalars.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates every bound array as `(name, length)` pairs, regardless of
    /// element type. Pairs with [`Binding::scalar_entries`] for bind-time
    /// evaluation of symbolic cost bounds that mention `len(array)` atoms.
    pub fn array_len_entries(&self) -> impl Iterator<Item = (&str, usize)> {
        self.arrays.iter().map(|(k, v)| (k.as_str(), v.len()))
    }

    /// Commits a kernel scalar output, as a successful run does.
    pub fn set_scalar_output(&mut self, name: impl Into<String>, v: i64) -> &mut Self {
        self.scalar_outputs.insert(name.into(), v);
        self
    }

    /// Records the pre-run state of the named arrays (present or absent)
    /// for transactional rollback.
    pub(crate) fn snapshot<'a>(
        &self,
        names: impl Iterator<Item = &'a str>,
    ) -> Vec<(String, Option<ArrayVal>)> {
        names.map(|n| (n.to_string(), self.arrays.get(n).cloned())).collect()
    }

    /// Restores a snapshot taken by [`Binding::snapshot`], byte-identically.
    pub(crate) fn restore(&mut self, snapshot: Vec<(String, Option<ArrayVal>)>) {
        for (name, val) in snapshot {
            match val {
                Some(v) => {
                    self.arrays.insert(name, v);
                }
                None => {
                    self.arrays.remove(&name);
                }
            }
        }
    }
}

/// Checks that a parallel kernel names what the row dispatcher reads: its
/// range and extent parameters and, when it appends, a counter that is a
/// scalar output and stitched arrays that are written parameters.
fn check_rows(kernel: &Kernel, rows: &Rows) -> Result<(), CompileError> {
    for p in [&rows.lo, &rows.hi, &rows.extent] {
        if !kernel.scalar_params.contains(p) {
            return Err(CompileError::UnknownVar(p.clone()));
        }
    }
    let Some(a) = &rows.append else { return Ok(()) };
    if !kernel.scalar_outputs.contains(&a.counter) {
        return Err(CompileError::BadScalarOutput(a.counter.clone()));
    }
    for name in a.data.iter().chain([&a.pos]) {
        match kernel.array_params.iter().find(|p| p.name == *name) {
            None => return Err(CompileError::UnknownArray(name.clone())),
            Some(p) if p.kind == ParamKind::Input => {
                return Err(CompileError::WriteToInput(name.clone()))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

/// A compiled kernel ready to run against a [`Binding`].
///
/// The compiled statement tree and metadata tables are reference-counted
/// (`Arc`), so cloning an `Executable` is cheap and the same compiled kernel
/// can be shared across threads — `Executable` is `Send + Sync`, and a run
/// borrows it immutably.
#[derive(Debug, Clone)]
pub struct Executable {
    pub(crate) name: String,
    pub(crate) scalar_params: Arc<Vec<(String, usize)>>,
    pub(crate) array_params: Arc<Vec<(String, usize, ArrayTy, ParamKind)>>,
    pub(crate) scalar_outputs: Arc<Vec<(String, usize)>>,
    pub(crate) array_names: Arc<Vec<String>>,
    /// The element type each array slot is declared with: a parameter's,
    /// or the type its kernel-local allocation materializes.
    pub(crate) array_tys: Arc<Vec<ArrayTy>>,
    pub(crate) map_names: Arc<Vec<String>>,
    /// Scalar slots the kernel declares, per type; the native backend
    /// declares one C local each.
    pub(crate) n_int: usize,
    pub(crate) n_float: usize,
    pub(crate) n_bool: usize,
    /// Those plus the slots the prologues of leaf-loop plans write: what the
    /// interpreter's machine allocates.
    mach_slots: Slots,
    pub(crate) body: Arc<Vec<RStmt>>,
    /// The row ranges of a parallel kernel.
    pub(crate) rows: Option<Arc<Rows>>,
}

impl Executable {
    /// Type-checks and slot-resolves a kernel.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] for unknown names, duplicate declarations,
    /// or type mismatches.
    pub fn compile(kernel: &Kernel) -> Result<Executable, CompileError> {
        let mut c = Compiler {
            scopes: vec![HashMap::new()],
            arrays: HashMap::new(),
            array_names: Vec::new(),
            array_tys: Vec::new(),
            workspaces: HashMap::new(),
            map_names: Vec::new(),
            draining: Vec::new(),
            inputs: HashSet::new(),
            n_int: 0,
            n_float: 0,
            n_bool: 0,
        };

        let mut scalar_params = Vec::new();
        for p in &kernel.scalar_params {
            let slot = c.declare(p, ScalarTy::Int)?;
            scalar_params.push((p.clone(), slot));
        }
        let mut array_params = Vec::new();
        for p in &kernel.array_params {
            if c.arrays.contains_key(&p.name) {
                return Err(CompileError::Duplicate(p.name.clone()));
            }
            let slot = c.declare_array(&p.name, p.ty)?;
            if p.kind == ParamKind::Input {
                c.inputs.insert(slot);
            }
            array_params.push((p.name.clone(), slot, p.ty, p.kind));
        }

        // The kernel body shares the top-level scope so that scalar outputs
        // declared there remain visible to the caller.
        let mut body = c.block_in_current_scope(&kernel.body)?;
        let mut mach_slots = Slots { int: c.n_int, float: c.n_float, boolean: c.n_bool };
        leaf::attach_plans(&mut body, &mut mach_slots);

        let mut scalar_outputs = Vec::new();
        for name in &kernel.scalar_outputs {
            match c.scopes[0].get(name) {
                Some((ScalarTy::Int, slot)) => scalar_outputs.push((name.clone(), *slot)),
                _ => return Err(CompileError::BadScalarOutput(name.clone())),
            }
        }
        if let Some(rows) = &kernel.rows {
            check_rows(kernel, rows)?;
        }

        Ok(Executable {
            name: kernel.name.clone(),
            scalar_params: Arc::new(scalar_params),
            array_params: Arc::new(array_params),
            scalar_outputs: Arc::new(scalar_outputs),
            array_names: Arc::new(c.array_names),
            array_tys: Arc::new(c.array_tys),
            map_names: Arc::new(c.map_names),
            n_int: c.n_int,
            n_float: c.n_float,
            n_bool: c.n_bool,
            mach_slots,
            body: Arc::new(body),
            rows: kernel.rows.clone().map(Arc::new),
        })
    }

    /// The kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Runs the kernel against bound buffers. Parameter arrays are moved
    /// into the machine and moved back afterwards, so repeated runs against
    /// the same binding do not reallocate. Scalar outputs become readable
    /// via [`Binding::scalar_output`].
    ///
    /// # Errors
    ///
    /// Returns a [`RunError`] for missing/mistyped bindings, out-of-bounds
    /// accesses or negative allocation lengths.
    pub fn run(&self, binding: &mut Binding) -> Result<(), RunError> {
        self.run_with_budget(binding, &ResourceBudget::unlimited())
    }

    /// Runs the kernel like [`Executable::run`], but enforces `budget`:
    /// allocations, realloc growth and loop iterations are metered, and the
    /// first violation aborts the run with [`RunError::BudgetExceeded`].
    pub fn run_with_budget(
        &self,
        binding: &mut Binding,
        budget: &ResourceBudget,
    ) -> Result<(), RunError> {
        run_body(self, binding, budget, RunControls::default()).1
    }
}

// ---------------------------------------------------------------------------
// The run protocol
// ---------------------------------------------------------------------------

/// The slot frame a [`KernelBody`] executes over: what [`run_body`] moves a
/// binding's parameters into before the run and back out of after it.
#[derive(Debug)]
pub struct Frame {
    /// Scalar parameter values, in [`KernelBody::scalar_params`] order.
    pub scalars: Vec<i64>,
    /// One array per slot. Parameter slots hold the binding's arrays for the
    /// length of the run; the rest start empty and belong to the body.
    pub arrays: Vec<ArrayVal>,
    /// Scalar outputs, in [`KernelBody::scalar_outputs`] order; the body
    /// fills them and [`run_body`] commits them when the run succeeds.
    pub scalar_outputs: Vec<i64>,
}

/// Something that executes one kernel over a [`Frame`]. There are two: the
/// interpreter ([`Executable`]) and the `cc`-compiled shared object
/// (`taco_native::NativeKernel`, foreign code behind the `taco_ctx` table
/// ABI). Everything around the execution — marshalling, metering,
/// supervision, rollback — is [`run_body`] and
/// [`Supervisor::run`](crate::Supervisor::run), written once for both.
/// A parallel kernel's row ranges run on scoped threads, so a body is
/// `Sync`.
pub trait KernelBody: Sync {
    /// Scalar parameters as (name, int slot), in frame order.
    fn scalar_params(&self) -> &[(String, usize)];

    /// Scalar outputs as (name, int slot), in frame order.
    fn scalar_outputs(&self) -> &[(String, usize)];

    /// The row ranges of a parallel kernel; `None` for a serial one.
    fn rows(&self) -> Option<&Rows>;

    /// Array parameters as (name, frame slot, element type, kind).
    fn array_params(&self) -> impl Iterator<Item = (&str, usize, ArrayTy, ParamKind)>;

    /// The element type of every frame slot. The body sizes the frame: the
    /// native form has two hidden backing slots per map workspace that the
    /// interpreter has not.
    fn slot_types(&self) -> impl Iterator<Item = ArrayTy>;

    /// Executes the kernel over `frame`, charging every allocation and loop
    /// back-edge to `meter` and calling [`RunControls::check`] at least once
    /// per [`SUPERVISION_STRIDE`] back-edges.
    ///
    /// # Errors
    ///
    /// The first fault, budget trip, cancellation or deadline expiry.
    fn execute(
        &self,
        frame: &mut Frame,
        meter: &mut BudgetMeter,
        controls: &RunControls<'_>,
    ) -> Result<(), RunError>;
}

impl KernelBody for Executable {
    fn scalar_params(&self) -> &[(String, usize)] {
        &self.scalar_params
    }

    fn scalar_outputs(&self) -> &[(String, usize)] {
        &self.scalar_outputs
    }

    fn rows(&self) -> Option<&Rows> {
        self.rows.as_deref()
    }

    fn array_params(&self) -> impl Iterator<Item = (&str, usize, ArrayTy, ParamKind)> {
        self.array_params.iter().map(|(name, slot, ty, kind)| (name.as_str(), *slot, *ty, *kind))
    }

    fn slot_types(&self) -> impl Iterator<Item = ArrayTy> {
        self.array_tys.iter().copied()
    }

    fn execute(
        &self,
        frame: &mut Frame,
        meter: &mut BudgetMeter,
        controls: &RunControls<'_>,
    ) -> Result<(), RunError> {
        let mut mach = Mach {
            ints: vec![0; self.mach_slots.int],
            floats: vec![0.0; self.mach_slots.float],
            bools: vec![false; self.mach_slots.boolean],
            arrays: std::mem::take(&mut frame.arrays),
            array_names: self.array_names.clone(),
            maps: self.map_names.iter().map(|_| MapWs::default()).collect(),
            map_names: self.map_names.clone(),
            // The machine owns its meter; it goes back to the caller when
            // the run ends.
            budget: std::mem::replace(meter, BudgetMeter::new(&ResourceBudget::unlimited(), 0)),
            ctl: *controls,
            check_countdown: 0,
        };
        for ((_, slot), v) in self.scalar_params.iter().zip(&frame.scalars) {
            mach.ints[*slot] = *v;
        }
        let result = mach.exec_block::<Checked>(&self.body);
        for ((_, slot), out) in self.scalar_outputs.iter().zip(&mut frame.scalar_outputs) {
            *out = mach.ints[*slot];
        }
        frame.arrays = mach.arrays;
        *meter = mach.budget;
        result
    }
}

/// Runs `body` against `binding` under `budget` and `controls` — the one
/// `Binding` ⇄ slot-frame protocol, whichever backend executes. Every
/// parameter is validated before any array is moved, so a missing or
/// mistyped binding, or a shared buffer bound to anything but an input,
/// fails with `binding` untouched; parameter arrays move
/// into the frame for the run and back afterwards *even on error*, so an
/// unsupervised caller can inspect the partial state
/// ([`Supervisor::run`](crate::Supervisor::run) rolls it back from a
/// snapshot instead); scalar outputs are committed only on success.
///
/// A parallel kernel ([`KernelBody::rows`]) goes to the row dispatcher
/// instead: whole-kernel runs of this protocol over disjoint row ranges,
/// each on its own copy of `binding`, merged into `binding` only when every
/// range has committed. A failed parallel run leaves `binding` untouched.
///
/// Returns the meter's final counters — whether the run committed or not —
/// beside the run's result.
pub fn run_body<B: KernelBody>(
    body: &B,
    binding: &mut Binding,
    budget: &ResourceBudget,
    controls: RunControls<'_>,
) -> (Progress, Result<(), RunError>) {
    match body.rows() {
        Some(rows) => run_rows(body, rows, binding, budget, controls),
        None => run_range(body, binding, budget, controls, None),
    }
}

/// One run of the whole kernel; `range` binds a parallel kernel's range
/// parameters.
fn run_range<B: KernelBody>(
    body: &B,
    binding: &mut Binding,
    budget: &ResourceBudget,
    controls: RunControls<'_>,
    range: Option<(i64, i64)>,
) -> (Progress, Result<(), RunError>) {
    let mut frame = match checked_frame(body, binding, range) {
        Ok(frame) => frame,
        Err(e) => return (Progress::default(), Err(e)),
    };
    let mut meter = BudgetMeter::new(budget, frame.arrays.len());
    swap_array_params(body, binding, &mut frame);
    let result = body.execute(&mut frame, &mut meter, &controls);
    swap_array_params(body, binding, &mut frame);
    if result.is_ok() {
        for ((name, _), v) in body.scalar_outputs().iter().zip(&frame.scalar_outputs) {
            binding.scalar_outputs.insert(name.clone(), *v);
        }
    }
    (meter.progress(), result)
}

/// Checks every parameter of `body` against `binding` and builds the frame
/// of a run: scalars read, every array slot still empty. A parallel
/// kernel's range parameters take `range` rather than a bound value.
fn checked_frame<B: KernelBody>(
    body: &B,
    binding: &Binding,
    range: Option<(i64, i64)>,
) -> Result<Frame, RunError> {
    let mut scalars = Vec::with_capacity(body.scalar_params().len());
    for (name, _) in body.scalar_params() {
        let ranged = match (body.rows(), range) {
            (Some(rows), Some((lo, _))) if *name == rows.lo => Some(lo),
            (Some(rows), Some((_, hi))) if *name == rows.hi => Some(hi),
            _ => None,
        };
        let bound = || binding.scalars.get(name).copied();
        scalars.push(ranged.or_else(bound).ok_or_else(|| RunError::MissingScalar(name.clone()))?);
    }
    for (name, _, ty, kind) in body.array_params() {
        match binding.arrays.get(name) {
            None => return Err(RunError::MissingArray(name.to_string())),
            Some(v) if v.ty() != ty => {
                return Err(RunError::WrongArrayType { name: name.to_string(), expected: ty })
            }
            // Only an input is never written (`Executable::compile` checks).
            Some(v) if v.is_shared() && kind != ParamKind::Input => {
                return Err(RunError::ReadOnlyArray(name.to_string()))
            }
            Some(_) => {}
        }
    }
    Ok(Frame {
        scalars,
        arrays: body.slot_types().map(ArrayVal::empty).collect(),
        scalar_outputs: vec![0; body.scalar_outputs().len()],
    })
}

/// The row dispatcher: runs a parallel kernel as contiguous ranges of its
/// rows `[0, extent)` (OpenMP `schedule(static)`), one scoped thread and one
/// whole-kernel [`run_range`] per range, each on its own clone of `binding`
/// (operands are shared, an `Arc` bump each) with its own meter.
///
/// Only when every range has committed are the clones merged into
/// `binding`, in row order, so the result is byte-identical to the serial
/// run (the race model of DESIGN.md §12): the arrays an [`AppendMerge`]
/// names are stitched, and every other written array takes each range's
/// writes — the elements whose bits differ from a run over no rows, the
/// state every range's loop started from. The first error in row order
/// wins and `binding` is left untouched.
///
/// The counters are the sums over the runs (the peaks their maxima), held
/// against the budget's iteration fuse and byte ceiling as one run's are;
/// `workers` is the number of ranges. The cancel flag and the deadline are
/// checked at the fork and the join as well as inside every range. At one
/// thread the kernel runs once, over every row.
///
/// [`AppendMerge`]: crate::AppendMerge
fn run_rows<B: KernelBody>(
    body: &B,
    rows: &Rows,
    binding: &mut Binding,
    budget: &ResourceBudget,
    controls: RunControls<'_>,
) -> (Progress, Result<(), RunError>) {
    let Some(extent) = binding.scalars.get(&rows.extent).map(|&n| n.max(0)) else {
        return (Progress::default(), Err(RunError::MissingScalar(rows.extent.clone())));
    };
    let threads = resolved_threads(rows.threads).min(extent as usize);
    if threads <= 1 {
        let (progress, result) = run_range(body, binding, budget, controls, Some((0, extent)));
        return (Progress { workers: 1, ..progress }, result);
    }
    let (per, extra) = (extent / threads as i64, extent % threads as i64);
    let mut ranges: Vec<(i64, i64)> = Vec::with_capacity(threads + 1);
    for w in 0..threads as i64 {
        let start = ranges.last().map_or(0, |r| r.1);
        ranges.push((start, start + per + i64::from(w < extra)));
    }
    let written: Vec<&str> =
        body.array_params().filter(|(.., kind)| *kind != ParamKind::Input).map(|p| p.0).collect();
    let stitched = |name: &str| {
        rows.append.as_ref().is_some_and(|a| a.pos == name || a.data.iter().any(|d| d == name))
    };
    let diffed: Vec<&str> = written.iter().copied().filter(|name| !stitched(name)).collect();
    if !diffed.is_empty() {
        ranges.push((0, 0));
    }

    // The controls are observed at the fork and at the join too, so a run
    // cancelled or out of time before it starts runs nothing, and one no
    // range observed commits nothing.
    let mut progress = Progress { workers: threads as u64, ..Progress::default() };
    if let Err(e) = controls.check() {
        return (progress, Err(e));
    }
    let shared: &Binding = binding;
    let runs: Vec<(Binding, Progress, Result<(), RunError>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|&range| {
                scope.spawn(move || {
                    let mut copy = shared.clone();
                    let (progress, result) = run_range(body, &mut copy, budget, controls, Some(range));
                    (copy, progress, result)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a row range's thread panicked")).collect()
    });

    for (_, p, _) in &runs {
        progress.iterations = progress.iterations.saturating_add(p.iterations);
        progress.allocated_bytes = progress.allocated_bytes.saturating_add(p.allocated_bytes);
        progress.peak_single_bytes = progress.peak_single_bytes.max(p.peak_single_bytes);
        progress.peak_map_bytes = progress.peak_map_bytes.max(p.peak_map_bytes);
    }
    let mut copies = Vec::with_capacity(runs.len());
    for (copy, _, result) in runs {
        if let Err(e) = result {
            return (progress, Err(e));
        }
        copies.push(copy);
    }
    let sums = [
        (BudgetResource::LoopIterations, budget.max_loop_iterations, progress.iterations),
        (BudgetResource::TotalBytes, budget.max_total_bytes, progress.allocated_bytes),
    ];
    for (resource, limit, requested) in sums {
        if let Some(limit) = limit.filter(|&limit| requested > limit) {
            let e = RunError::BudgetExceeded { resource, limit, requested, array: None };
            return (progress, Err(e));
        }
    }
    if let Err(e) = controls.check() {
        return (progress, Err(e));
    }

    // Range 0's copy is the base; later ranges merge into it in row order.
    let before = (!diffed.is_empty()).then(|| copies.pop().expect("the run over no rows"));
    let mut merged = std::mem::take(&mut copies[0]);
    let counter = rows.append.as_ref().map(|a| a.counter.as_str());
    let mut appended = counter.and_then(|c| merged.scalar_output(c)).unwrap_or(0);
    for (copy, &(lo, hi)) in copies.iter().zip(&ranges).skip(1) {
        if let Some(before) = &before {
            for &name in &diffed {
                let target = merged.arrays.get_mut(name).expect("written");
                merge_writes(target, &before.arrays[name], &copy.arrays[name]);
            }
        }
        let Some(a) = &rows.append else { continue };
        let n = copy.scalar_output(&a.counter).unwrap_or(0);
        for name in &a.data {
            append_at(merged.arrays.get_mut(name).expect("written"), &copy.arrays[name], n, appended);
        }
        if let (Some(ArrayVal::Int(Buf::Owned(pos))), Some(ArrayVal::Int(theirs))) =
            (merged.arrays.get_mut(&a.pos), copy.arrays.get(&a.pos))
        {
            // Row `v` closes at `pos[v + 1]`.
            for j in (lo + 1) as usize..=hi as usize {
                if j < pos.len() && j < theirs.len() {
                    pos[j] = theirs[j] + appended;
                }
            }
        }
        appended += n;
    }

    for name in written {
        let array = merged.arrays.remove(name).expect("written");
        binding.arrays.insert(name.to_string(), array);
    }
    // The counter is the ranges' sum; any other output is the last range's,
    // as the last iteration's write survives a serial run.
    let last = copies.last().expect("two ranges or more");
    for (name, _) in body.scalar_outputs() {
        let v = if Some(name.as_str()) == counter { Some(appended) } else { last.scalar_output(name) };
        binding.scalar_outputs.insert(name.clone(), v.expect("a committed run's output"));
    }
    (progress, Ok(()))
}

/// Resolves the worker-thread count of a parallel kernel: an explicit
/// schedule choice wins, then the `TACO_THREADS` environment variable, then
/// the machine's available parallelism.
fn resolved_threads(explicit: usize) -> usize {
    if explicit > 0 {
        return explicit;
    }
    if let Ok(s) = std::env::var("TACO_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Applies one range's writes to `merged`: every element whose bits differ
/// from `before` was written by that range. An array the range grew extends
/// `merged` first.
fn merge_writes(merged: &mut ArrayVal, before: &ArrayVal, theirs: &ArrayVal) {
    fn merge<T: Copy + Default>(m: &mut Buf<T>, b: &[T], t: &[T], same: impl Fn(T, T) -> bool) {
        let Some(m) = m.owned_mut() else { return };
        if t.len() > m.len() {
            m.resize(t.len(), T::default());
        }
        for (i, &tv) in t.iter().enumerate() {
            if !same(b.get(i).copied().unwrap_or_default(), tv) {
                m[i] = tv;
            }
        }
    }
    match (merged, before, theirs) {
        (ArrayVal::Int(m), ArrayVal::Int(b), ArrayVal::Int(t)) => merge(m, b, t, |x, y| x == y),
        (ArrayVal::F64(m), ArrayVal::F64(b), ArrayVal::F64(t)) => {
            merge(m, b, t, |x, y| x.to_bits() == y.to_bits())
        }
        (ArrayVal::F32(m), ArrayVal::F32(b), ArrayVal::F32(t)) => {
            merge(m, b, t, |x, y| x.to_bits() == y.to_bits())
        }
        (ArrayVal::Bool(m), ArrayVal::Bool(b), ArrayVal::Bool(t)) => merge(m, b, t, |x, y| x == y),
        _ => {}
    }
}

/// Copies the first `n` elements of one range's appended array to
/// `merged[at..]`, growing `merged` as needed.
fn append_at(merged: &mut ArrayVal, theirs: &ArrayVal, n: i64, at: i64) {
    fn copy<T: Copy + Default>(m: &mut Buf<T>, t: &[T], at: usize) {
        let Some(m) = m.owned_mut() else { return };
        if m.len() < at + t.len() {
            m.resize(at + t.len(), T::default());
        }
        m[at..at + t.len()].copy_from_slice(t);
    }
    let (n, at) = ((n.max(0) as usize).min(theirs.len()), at.max(0) as usize);
    match (merged, theirs) {
        (ArrayVal::Int(m), ArrayVal::Int(t)) => copy(m, &t[..n], at),
        (ArrayVal::F64(m), ArrayVal::F64(t)) => copy(m, &t[..n], at),
        (ArrayVal::F32(m), ArrayVal::F32(t)) => copy(m, &t[..n], at),
        (ArrayVal::Bool(m), ArrayVal::Bool(t)) => copy(m, &t[..n], at),
        _ => {}
    }
}

/// Exchanges each array parameter's entry in `binding` with its frame slot:
/// into the frame before the run, back out after it. Swapped rather than
/// removed and re-inserted, so the binding's keys stay put.
fn swap_array_params<B: KernelBody>(body: &B, binding: &mut Binding, frame: &mut Frame) {
    for (name, slot, ..) in body.array_params() {
        let bound = binding.arrays.get_mut(name).expect("checked_frame found every parameter");
        std::mem::swap(bound, &mut frame.arrays[slot]);
    }
}

#[cfg(test)]
impl Executable {
    /// The same kernel with no leaf-loop plan: every loop runs per element.
    /// What the planned execution is held against, bit for bit.
    pub(crate) fn without_leaf_plans(&self) -> Executable {
        let mut body = self.body.as_ref().clone();
        leaf::strip_plans(&mut body);
        Executable { body: Arc::new(body), ..self.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Param;

    fn run_kernel(k: &Kernel, b: &mut Binding) {
        let exe = Executable::compile(k).expect("compiles");
        exe.run(b).expect("runs");
    }

    #[test]
    fn dot_product() {
        let k = Kernel::new("dot")
            .scalar_param("n")
            .array_param(Param::input("x", ArrayTy::F64))
            .array_param(Param::input("y", ArrayTy::F64))
            .array_param(Param::output("out", ArrayTy::F64))
            .body(vec![
                Stmt::store("out", Expr::int(0), Expr::float(0.0)),
                Stmt::for_(
                    "i",
                    Expr::int(0),
                    Expr::var("n"),
                    vec![Stmt::store_add(
                        "out",
                        Expr::int(0),
                        Expr::load("x", Expr::var("i")) * Expr::load("y", Expr::var("i")),
                    )],
                ),
            ]);
        let mut b = Binding::new();
        b.set_scalar("n", 3);
        b.set_f64("x", vec![1.0, 2.0, 3.0]);
        b.set_f64("y", vec![4.0, 5.0, 6.0]);
        b.set_f64("out", vec![0.0]);
        run_kernel(&k, &mut b);
        assert_eq!(b.f64_array("out").unwrap(), &[32.0]);
    }

    #[test]
    fn while_and_if_merge_two_sorted_lists() {
        // Count common elements of two sorted int arrays — the shape of a
        // coiteration merge loop.
        let k = Kernel::new("merge")
            .scalar_param("na")
            .scalar_param("nb")
            .array_param(Param::input("a", ArrayTy::Int))
            .array_param(Param::input("b", ArrayTy::Int))
            .array_param(Param::output("count", ArrayTy::Int))
            .body(vec![
                Stmt::DeclInt("pa".into(), Expr::int(0)),
                Stmt::DeclInt("pb".into(), Expr::int(0)),
                Stmt::store("count", Expr::int(0), Expr::int(0)),
                Stmt::while_(
                    Expr::var("pa").lt(Expr::var("na")).and(Expr::var("pb").lt(Expr::var("nb"))),
                    vec![
                        Stmt::DeclInt("va".into(), Expr::load("a", Expr::var("pa"))),
                        Stmt::DeclInt("vb".into(), Expr::load("b", Expr::var("pb"))),
                        Stmt::DeclInt("v".into(), Expr::var("va").min(Expr::var("vb"))),
                        Stmt::if_(
                            Expr::var("va").eq(Expr::var("v")).and(Expr::var("vb").eq(Expr::var("v"))),
                            vec![Stmt::store_add("count", Expr::int(0), Expr::int(1))],
                        ),
                        Stmt::if_(
                            Expr::var("va").eq(Expr::var("v")),
                            vec![Stmt::incr("pa")],
                        ),
                        Stmt::if_(
                            Expr::var("vb").eq(Expr::var("v")),
                            vec![Stmt::incr("pb")],
                        ),
                    ],
                ),
            ]);
        let mut b = Binding::new();
        b.set_scalar("na", 4).set_scalar("nb", 3);
        b.set_int("a", vec![1, 3, 5, 7]);
        b.set_int("b", vec![3, 4, 7]);
        b.set_int("count", vec![0]);
        run_kernel(&k, &mut b);
        assert_eq!(b.int_array("count").unwrap(), &[2]);
    }

    #[test]
    fn alloc_realloc_and_scalar_output() {
        let k = Kernel::new("assemble")
            .array_param(Param::input("src", ArrayTy::Int))
            .array_param(Param::inout("dst", ArrayTy::Int))
            .scalar_param("n")
            .scalar_output("size")
            .body(vec![
                Stmt::DeclInt("size".into(), Expr::int(0)),
                Stmt::Alloc { arr: "tmp".into(), ty: ArrayTy::Int, len: Expr::int(2) },
                Stmt::for_(
                    "i",
                    Expr::int(0),
                    Expr::var("n"),
                    vec![
                        Stmt::if_(
                            Expr::len("tmp").le(Expr::var("size")),
                            vec![Stmt::Realloc {
                                arr: "tmp".into(),
                                len: Expr::var("size") * Expr::int(2),
                            }],
                        ),
                        Stmt::store("tmp", Expr::var("size"), Expr::load("src", Expr::var("i"))),
                        Stmt::incr("size"),
                    ],
                ),
                Stmt::for_(
                    "i",
                    Expr::int(0),
                    Expr::var("size"),
                    vec![Stmt::store("dst", Expr::var("i"), Expr::load("tmp", Expr::var("i")))],
                ),
            ]);
        let mut b = Binding::new();
        b.set_scalar("n", 5);
        b.set_int("src", vec![5, 1, 4, 2, 3]);
        b.set_int("dst", vec![0; 5]);
        run_kernel(&k, &mut b);
        assert_eq!(b.int_array("dst").unwrap(), &[5, 1, 4, 2, 3]);
        assert_eq!(b.scalar_output("size"), Some(5));
    }

    /// Scatters `vals[i]` at `keys[i]` into a dense workspace over `[0, 8)`
    /// and drains it twice into `out_k`/`out_v`: the second drain must find
    /// the workspace empty.
    fn dense_drain_kernel(sorted: bool) -> Kernel {
        let drain = || Stmt::WsDrain {
            ws: "w".into(),
            key: "k".into(),
            val: "v".into(),
            sorted,
            body: vec![
                Stmt::store("out_k", Expr::var("nnz"), Expr::var("k")),
                Stmt::store("out_v", Expr::var("nnz"), Expr::var("v")),
                Stmt::incr("nnz"),
            ],
        };
        Kernel::new("dense_ws")
            .scalar_param("n")
            .array_param(Param::input("keys", ArrayTy::Int))
            .array_param(Param::input("vals", ArrayTy::F64))
            .array_param(Param::output("out_k", ArrayTy::Int))
            .array_param(Param::output("out_v", ArrayTy::F64))
            .scalar_output("nnz")
            .body(vec![
                Stmt::DeclInt("nnz".into(), Expr::int(0)),
                Stmt::WsInit {
                    ws: "w".into(),
                    kind: WorkspaceKind::Dense,
                    ty: ArrayTy::F64,
                    extent: Expr::int(8),
                },
                Stmt::for_(
                    "i",
                    Expr::int(0),
                    Expr::var("n"),
                    vec![Stmt::WsScatter {
                        ws: "w".into(),
                        key: Expr::load("keys", Expr::var("i")),
                        val: Expr::load("vals", Expr::var("i")),
                        add: true,
                    }],
                ),
                drain(),
                drain(),
            ])
    }

    #[test]
    fn dense_workspace_lists_each_key_once_and_drains_it_empty() {
        for (sorted, keys) in [(true, [1, 4, 5]), (false, [5, 1, 4])] {
            let mut b = Binding::new();
            b.set_scalar("n", 5);
            b.set_int("keys", vec![5, 1, 4, 1, 5]);
            b.set_f64("vals", vec![1.0, 2.0, 3.0, 4.0, 5.0]);
            b.set_int("out_k", vec![-1; 4]).set_f64("out_v", vec![-1.0; 4]);
            let exe = Executable::compile(&dense_drain_kernel(sorted)).unwrap();
            let (progress, result) =
                run_body(&exe, &mut b, &ResourceBudget::unlimited(), RunControls::default());
            assert_eq!(result, Ok(()));
            // One scatter loop of five, one drain of three, one of none.
            assert_eq!(progress.iterations, 8);
            assert_eq!(b.scalar_output("nnz"), Some(3));
            assert_eq!(&b.int_array("out_k").unwrap()[..3], &keys, "sorted: {sorted}");
            let sums = keys.map(|k| [0.0, 6.0, 0.0, 0.0, 3.0, 6.0][k as usize]);
            assert_eq!(&b.f64_array("out_v").unwrap()[..3], &sums);
        }
    }

    #[test]
    fn a_workspace_used_inside_its_own_drain_does_not_compile() {
        let mut k = dense_drain_kernel(true);
        let scatter = Stmt::WsScatter {
            ws: "w".into(),
            key: Expr::int(0),
            val: Expr::float(1.0),
            add: false,
        };
        let Some(Stmt::WsDrain { body, .. }) = k.body.last_mut() else { unreachable!() };
        body.push(scatter);
        assert_eq!(
            Executable::compile(&k).unwrap_err(),
            CompileError::WorkspaceInOwnDrain("w".into())
        );
    }

    #[test]
    fn f32_workspace_mixed_precision() {
        let k = Kernel::new("mixed")
            .array_param(Param::input("x", ArrayTy::F64))
            .array_param(Param::inout("w", ArrayTy::F32))
            .array_param(Param::output("y", ArrayTy::F64))
            .scalar_param("n")
            .body(vec![
                Stmt::Memset { arr: "w".into(), val: Expr::float(0.0) },
                Stmt::for_(
                    "i",
                    Expr::int(0),
                    Expr::var("n"),
                    vec![Stmt::store_add("w", Expr::var("i"), Expr::load("x", Expr::var("i")))],
                ),
                Stmt::for_(
                    "i",
                    Expr::int(0),
                    Expr::var("n"),
                    vec![Stmt::store("y", Expr::var("i"), Expr::load("w", Expr::var("i")))],
                ),
            ]);
        let mut b = Binding::new();
        b.set_scalar("n", 2);
        b.set_f64("x", vec![1.5, 2.5]);
        b.set_f32("w", vec![9.0, 9.0]);
        b.set_f64("y", vec![0.0, 0.0]);
        run_kernel(&k, &mut b);
        assert_eq!(b.f64_array("y").unwrap(), &[1.5, 2.5]);
    }

    #[test]
    fn shadowing_in_sibling_scopes() {
        // Two sibling loops both declare `j`.
        let k = Kernel::new("shadow")
            .array_param(Param::output("out", ArrayTy::Int))
            .body(vec![
                Stmt::for_("j", Expr::int(0), Expr::int(3), vec![Stmt::store(
                    "out",
                    Expr::int(0),
                    Expr::var("j"),
                )]),
                Stmt::for_("j", Expr::int(5), Expr::int(7), vec![Stmt::store(
                    "out",
                    Expr::int(1),
                    Expr::var("j"),
                )]),
            ]);
        let mut b = Binding::new();
        b.set_int("out", vec![0, 0]);
        run_kernel(&k, &mut b);
        assert_eq!(b.int_array("out").unwrap(), &[2, 6]);
    }

    #[test]
    fn out_of_bounds_is_reported() {
        let k = Kernel::new("oob")
            .array_param(Param::output("x", ArrayTy::F64))
            .body(vec![Stmt::store("x", Expr::int(7), Expr::float(1.0))]);
        let exe = Executable::compile(&k).unwrap();
        let mut b = Binding::new();
        b.set_f64("x", vec![0.0; 3]);
        let err = exe.run(&mut b).unwrap_err();
        assert_eq!(err, RunError::OutOfBounds { name: "x".into(), idx: 7, len: 3 });
    }

    #[test]
    fn type_errors_are_reported() {
        // float + bool is a type error
        let k = Kernel::new("bad").body(vec![Stmt::DeclFloat(
            "x".into(),
            Expr::float(1.0) + Expr::bool(true),
        )]);
        assert!(matches!(
            Executable::compile(&k),
            Err(CompileError::TypeMismatch { .. })
        ));

        // unknown variable
        let k2 = Kernel::new("bad2").body(vec![Stmt::assign("nope", Expr::int(0))]);
        assert_eq!(Executable::compile(&k2).unwrap_err(), CompileError::UnknownVar("nope".into()));

        // unknown array
        let k3 = Kernel::new("bad3").body(vec![Stmt::store("m", Expr::int(0), Expr::int(0))]);
        assert_eq!(Executable::compile(&k3).unwrap_err(), CompileError::UnknownArray("m".into()));
    }

    #[test]
    fn missing_binding_is_reported() {
        let k = Kernel::new("k")
            .scalar_param("n")
            .array_param(Param::input("x", ArrayTy::F64));
        let exe = Executable::compile(&k).unwrap();
        let mut b = Binding::new();
        assert_eq!(exe.run(&mut b).unwrap_err(), RunError::MissingScalar("n".into()));
        b.set_scalar("n", 0);
        assert_eq!(exe.run(&mut b).unwrap_err(), RunError::MissingArray("x".into()));
        b.set_int("x", vec![]);
        assert_eq!(
            exe.run(&mut b).unwrap_err(),
            RunError::WrongArrayType { name: "x".into(), expected: ArrayTy::F64 }
        );
    }

    #[test]
    fn iteration_fuse_stops_infinite_loop() {
        let k = Kernel::new("spin").body(vec![
            Stmt::DeclInt("i".into(), Expr::int(0)),
            Stmt::while_(Expr::var("i").ge(Expr::int(0)), vec![Stmt::incr("i")]),
        ]);
        let exe = Executable::compile(&k).unwrap();
        let mut b = Binding::new();
        let budget = ResourceBudget::unlimited().with_max_loop_iterations(1000);
        let err = exe.run_with_budget(&mut b, &budget).unwrap_err();
        assert_eq!(
            err,
            RunError::BudgetExceeded {
                resource: BudgetResource::LoopIterations,
                limit: 1000,
                requested: 1001,
                array: None,
            }
        );
    }

    #[test]
    fn fuse_counts_nested_for_iterations() {
        let k = Kernel::new("nest").body(vec![Stmt::for_(
            "i",
            Expr::int(0),
            Expr::int(10),
            vec![Stmt::for_("j", Expr::int(0), Expr::int(10), vec![])],
        )]);
        let exe = Executable::compile(&k).unwrap();
        // 10 outer + 100 inner iterations: a fuse of 110 just fits.
        let mut b = Binding::new();
        exe.run_with_budget(&mut b, &ResourceBudget::unlimited().with_max_loop_iterations(110))
            .expect("exactly at the fuse");
        let err = exe
            .run_with_budget(&mut b, &ResourceBudget::unlimited().with_max_loop_iterations(109))
            .unwrap_err();
        assert!(matches!(
            err,
            RunError::BudgetExceeded { resource: BudgetResource::LoopIterations, .. }
        ));
    }

    // --- leaf strips against the per-element loop --------------------------

    /// `out[off + i] = 2 * x[i]` for `i` in `[0, n)`: a straight-line leaf
    /// loop with an `inv + loopvar` store and a bare-loopvar load.
    fn offset_scale_kernel() -> Executable {
        let kernel = Kernel::new("offset_scale")
            .scalar_param("n")
            .scalar_param("off")
            .array_param(Param::input("x", ArrayTy::F64))
            .array_param(Param::output("out", ArrayTy::F64))
            .body(vec![Stmt::for_(
                "i",
                Expr::int(0),
                Expr::var("n"),
                vec![Stmt::store(
                    "out",
                    Expr::var("off") + Expr::var("i"),
                    Expr::float(2.0) * Expr::load("x", Expr::var("i")),
                )],
            )]);
        Executable::compile(&kernel).unwrap()
    }

    fn offset_scale_binding(n: usize, off: i64, x_len: usize, out_len: usize) -> Binding {
        let mut b = Binding::new();
        b.set_scalar("n", n as i64).set_scalar("off", off);
        b.set_f64("x", (0..x_len).map(|i| i as f64 + 0.5).collect());
        b.set_f64("out", vec![-1.0; out_len]);
        b
    }

    /// `acc[c] += 1.0` for `i` in `[lo, hi)`: no array grows with the trip
    /// count, so the bounds can be anything.
    fn count_kernel() -> Executable {
        let kernel = Kernel::new("count")
            .scalar_param("lo")
            .scalar_param("hi")
            .scalar_param("c")
            .array_param(Param::output("acc", ArrayTy::F64))
            .body(vec![Stmt::for_(
                "i",
                Expr::var("lo"),
                Expr::var("hi"),
                vec![Stmt::store_add("acc", Expr::var("c"), Expr::float(1.0))],
            )]);
        Executable::compile(&kernel).unwrap()
    }

    fn count_binding(lo: i64, hi: i64) -> Binding {
        let mut b = Binding::new();
        b.set_scalar("lo", lo).set_scalar("hi", hi).set_scalar("c", 1);
        b.set_f64("acc", vec![0.0; 2]);
        b
    }

    /// Runs `binding` on `exe`, whose loops must all carry a decided plan,
    /// and on its copy without plans. Result, counters and the state left
    /// behind — committed or partial — must be identical; gives them.
    fn run_planned(
        exe: &Executable,
        binding: &Binding,
        budget: &ResourceBudget,
    ) -> (Progress, Result<(), RunError>, Binding) {
        let plans = leaf::loop_plans(&exe.body);
        assert!(!plans.is_empty() && plans.iter().all(|p| p.is_some_and(|p| p.strip.is_some())));
        let mut planned = binding.clone();
        let (progress, result) = run_body(exe, &mut planned, budget, RunControls::default());
        let mut per_element = binding.clone();
        let (reference_progress, reference) =
            run_body(&exe.without_leaf_plans(), &mut per_element, budget, RunControls::default());
        assert_eq!(result, reference);
        assert_eq!(progress, reference_progress);
        assert_eq!(planned, per_element, "the same state, committed or partial");
        (progress, result, planned)
    }

    #[test]
    fn leaf_strip_iteration_counts_equal_the_trip_count() {
        let exe = offset_scale_kernel();
        let stride = SUPERVISION_STRIDE as usize;
        for trips in [0, 1, stride - 1, stride, stride + 1, 100_000] {
            let b = offset_scale_binding(trips, 2, trips, trips + 2);
            let (progress, result, after) = run_planned(&exe, &b, &ResourceBudget::unlimited());
            assert_eq!(result, Ok(()), "{trips} trips");
            assert_eq!(progress.iterations, trips as u64);
            let out = after.f64_array("out").unwrap();
            assert!(out[..2].iter().all(|v| *v == -1.0));
            assert!(out[2..].iter().enumerate().all(|(i, v)| *v == 2.0 * (i as f64 + 0.5)));
        }
    }

    #[test]
    fn fuse_inside_a_leaf_strip_trips_at_the_per_element_iteration() {
        let exe = offset_scale_kernel();
        let b = offset_scale_binding(5000, 0, 5000, 5000);
        for limit in [1023, 1024, 1025, 1500, 4999] {
            let budget = ResourceBudget::unlimited().with_max_loop_iterations(limit);
            let (progress, result, after) = run_planned(&exe, &b, &budget);
            assert_eq!(
                result,
                Err(RunError::BudgetExceeded {
                    resource: BudgetResource::LoopIterations,
                    limit,
                    requested: limit + 1,
                    array: None,
                })
            );
            assert_eq!(progress.iterations, limit);
            // Exactly the iterations the fuse paid for ran.
            let written = after.f64_array("out").unwrap().iter().filter(|v| **v != -1.0).count();
            assert_eq!(written as u64, limit);
        }
        let exact = ResourceBudget::unlimited().with_max_loop_iterations(5000);
        let (progress, result, _) = run_planned(&exe, &b, &exact);
        assert_eq!((progress.iterations, result), (5000, Ok(())));
    }

    #[test]
    fn cancellation_inside_a_leaf_strip_is_observed_within_one_stride() {
        let exe = count_kernel();
        // Long enough that a strip that never polled would be noticed: the
        // run would commit instead of stopping.
        let mut b = count_binding(0, 5_000_000);
        // The flag is up before the run starts, so the first poll finds it:
        // a strip that polls at most one stride apart stops within its first
        // stride.
        let cancel = AtomicBool::new(true);
        let controls = RunControls { cancel: Some(&cancel), deadline: None };
        let (progress, result) = run_body(&exe, &mut b, &ResourceBudget::unlimited(), controls);
        assert_eq!(result, Err(RunError::Cancelled));
        assert!(
            progress.iterations <= u64::from(SUPERVISION_STRIDE) + 1,
            "run stopped at iteration {}",
            progress.iterations
        );
    }

    #[test]
    fn out_of_range_accesses_of_a_leaf_loop_fault_at_their_iteration() {
        let exe = offset_scale_kernel();
        let unlimited = ResourceBudget::unlimited();
        let oob = |name: &str, idx: i64, len: usize| {
            Err(RunError::OutOfBounds { name: name.into(), idx, len })
        };
        // (binding, the fault, iterations started when it is raised)
        let cases = [
            // Stores: below the array at the first iteration, past a short
            // one in the middle, one element short at the last.
            (offset_scale_binding(100, -3, 100, 200), oob("out", -3, 200), 1),
            (offset_scale_binding(100, 0, 100, 60), oob("out", 60, 60), 61),
            (offset_scale_binding(100, 5, 100, 104), oob("out", 104, 104), 100),
            // Loads, which only the interpreter checks: the same three.
            (offset_scale_binding(100, 0, 0, 100), oob("x", 0, 0), 1),
            (offset_scale_binding(100, 0, 60, 100), oob("x", 60, 60), 61),
            (offset_scale_binding(100, 0, 99, 100), oob("x", 99, 99), 100),
        ];
        for (binding, fault, started) in cases {
            let (progress, result, after) = run_planned(&exe, &binding, &unlimited);
            assert_eq!(result, fault);
            assert_eq!(progress.iterations, started);
            // Every iteration before the faulting one stored its element.
            let written = after.f64_array("out").unwrap().iter().filter(|v| **v != -1.0).count();
            assert_eq!(written as u64, started - 1);
        }
        // A fuse that trips before the faulting element wins.
        let fuse = ResourceBudget::unlimited().with_max_loop_iterations(40);
        let (_, result, _) = run_planned(&exe, &offset_scale_binding(100, 0, 100, 60), &fuse);
        assert!(matches!(result, Err(RunError::BudgetExceeded { .. })), "{result:?}");
        // In range with an offset: committed.
        let (progress, result, _) =
            run_planned(&exe, &offset_scale_binding(100, 5, 100, 105), &unlimited);
        assert_eq!((progress.iterations, result), (100, Ok(())));
    }

    #[test]
    fn hostile_leaf_loop_bounds_do_not_panic() {
        // Every access decided over 2^64 - 1 iterations: the strip length
        // is computed wrapping and the fuse still trips on its iteration.
        let fuse = ResourceBudget::unlimited().with_max_loop_iterations(1);
        let (progress, result, after) =
            run_planned(&count_kernel(), &count_binding(i64::MIN, i64::MAX), &fuse);
        assert_eq!(
            result,
            Err(RunError::BudgetExceeded {
                resource: BudgetResource::LoopIterations,
                limit: 1,
                requested: 2,
                array: None,
            })
        );
        assert_eq!(progress.iterations, 1);
        assert_eq!(after.f64_array("acc").unwrap(), &[0.0, 1.0]);
        // `off + i` wraps around i64 between the first iteration and the
        // last while both ends land in range (3 and 1 of 8): only the wrap
        // guard keeps the strip from running off the end of `out`.
        let kernel = Kernel::new("offset_fill")
            .scalar_param("lo")
            .scalar_param("hi")
            .scalar_param("off")
            .array_param(Param::output("out", ArrayTy::F64))
            .body(vec![Stmt::for_(
                "i",
                Expr::var("lo"),
                Expr::var("hi"),
                vec![Stmt::store("out", Expr::var("off") + Expr::var("i"), Expr::float(1.0))],
            )]);
        let mut b = Binding::new();
        b.set_scalar("lo", i64::MIN).set_scalar("hi", i64::MAX).set_scalar("off", i64::MIN + 3);
        b.set_f64("out", vec![0.0; 8]);
        let (progress, result, _) =
            run_planned(&Executable::compile(&kernel).unwrap(), &b, &ResourceBudget::unlimited());
        assert_eq!(result, Err(RunError::OutOfBounds { name: "out".into(), idx: 8, len: 8 }));
        assert_eq!(progress.iterations, 6);
    }

    #[test]
    fn workspace_byte_limit_blocks_large_alloc() {
        let k = Kernel::new("big").body(vec![Stmt::Alloc {
            arr: "w".into(),
            ty: ArrayTy::F64,
            len: Expr::int(1000),
        }]);
        let exe = Executable::compile(&k).unwrap();
        let mut b = Binding::new();
        exe.run_with_budget(&mut b, &ResourceBudget::unlimited().with_max_workspace_bytes(8000))
            .expect("8000 bytes fit exactly");
        let err = exe
            .run_with_budget(&mut b, &ResourceBudget::unlimited().with_max_workspace_bytes(7999))
            .unwrap_err();
        assert_eq!(
            err,
            RunError::BudgetExceeded {
                resource: BudgetResource::WorkspaceBytes,
                limit: 7999,
                requested: 8000,
                array: Some("w".into()),
            }
        );
    }

    #[test]
    fn total_byte_limit_sums_allocations() {
        let k = Kernel::new("two").body(vec![
            Stmt::Alloc { arr: "a".into(), ty: ArrayTy::Int, len: Expr::int(100) },
            Stmt::Alloc { arr: "b".into(), ty: ArrayTy::Int, len: Expr::int(100) },
        ]);
        let exe = Executable::compile(&k).unwrap();
        let mut b = Binding::new();
        exe.run_with_budget(&mut b, &ResourceBudget::unlimited().with_max_total_bytes(1600))
            .expect("both allocations fit");
        let err = exe
            .run_with_budget(&mut b, &ResourceBudget::unlimited().with_max_total_bytes(1200))
            .unwrap_err();
        assert_eq!(
            err,
            RunError::BudgetExceeded {
                resource: BudgetResource::TotalBytes,
                limit: 1200,
                requested: 1600,
                array: Some("b".into()),
            }
        );
    }

    #[test]
    fn realloc_doubling_cap() {
        // Doubles `w` from 1 element 5 times: reallocs to 2, 4, 8, 16, 32.
        let k = Kernel::new("grow").body(vec![
            Stmt::Alloc { arr: "w".into(), ty: ArrayTy::Int, len: Expr::int(1) },
            Stmt::for_(
                "i",
                Expr::int(0),
                Expr::int(5),
                vec![Stmt::Realloc { arr: "w".into(), len: Expr::len("w") * Expr::int(2) }],
            ),
        ]);
        let exe = Executable::compile(&k).unwrap();
        let mut b = Binding::new();
        exe.run_with_budget(&mut b, &ResourceBudget::unlimited().with_max_realloc_doublings(5))
            .expect("five doublings allowed");
        let err = exe
            .run_with_budget(&mut b, &ResourceBudget::unlimited().with_max_realloc_doublings(4))
            .unwrap_err();
        assert_eq!(
            err,
            RunError::BudgetExceeded {
                resource: BudgetResource::ReallocDoublings,
                limit: 4,
                requested: 5,
                array: Some("w".into()),
            }
        );
    }

    #[test]
    fn unlimited_budget_matches_run() {
        let k = Kernel::new("sum")
            .scalar_param("n")
            .array_param(Param::output("out", ArrayTy::Int))
            .body(vec![
                Stmt::store("out", Expr::int(0), Expr::int(0)),
                Stmt::for_(
                    "i",
                    Expr::int(0),
                    Expr::var("n"),
                    vec![Stmt::store_add("out", Expr::int(0), Expr::var("i"))],
                ),
            ]);
        let exe = Executable::compile(&k).unwrap();
        let mut b1 = Binding::new();
        b1.set_scalar("n", 100).set_int("out", vec![0]);
        exe.run(&mut b1).unwrap();
        let mut b2 = Binding::new();
        b2.set_scalar("n", 100).set_int("out", vec![0]);
        exe.run_with_budget(&mut b2, &ResourceBudget::unlimited()).unwrap();
        assert_eq!(b1.int_array("out"), b2.int_array("out"));
    }

    #[test]
    fn division_by_zero_is_an_error_not_a_panic() {
        let k = Kernel::new("div")
            .scalar_param("d")
            .array_param(Param::output("out", ArrayTy::Int))
            .body(vec![Stmt::store("out", Expr::int(0), Expr::int(1) / Expr::var("d"))]);
        let exe = Executable::compile(&k).unwrap();
        let mut b = Binding::new();
        b.set_scalar("d", 0).set_int("out", vec![0]);
        assert_eq!(exe.run(&mut b).unwrap_err(), RunError::DivisionByZero);
    }

    #[test]
    fn integer_overflow_wraps_instead_of_panicking() {
        let k = Kernel::new("wrap")
            .scalar_param("x")
            .array_param(Param::output("out", ArrayTy::Int))
            .body(vec![Stmt::store("out", Expr::int(0), Expr::var("x") + Expr::var("x"))]);
        let exe = Executable::compile(&k).unwrap();
        let mut b = Binding::new();
        b.set_scalar("x", i64::MAX).set_int("out", vec![0]);
        exe.run(&mut b).unwrap();
        assert_eq!(b.int_array("out").unwrap(), &[i64::MAX.wrapping_add(i64::MAX)]);
    }

    #[test]
    fn int_float_promotion() {
        let k = Kernel::new("promote")
            .array_param(Param::output("y", ArrayTy::F64))
            .body(vec![Stmt::store(
                "y",
                Expr::int(0),
                Expr::int(3) * Expr::float(1.5),
            )]);
        let mut b = Binding::new();
        b.set_f64("y", vec![0.0]);
        run_kernel(&k, &mut b);
        assert_eq!(b.f64_array("y").unwrap(), &[4.5]);
    }

    /// `out[i] = 2 x[i]` after zeroing `out`, over the rows of a range, at
    /// `threads` threads.
    fn parallel_scale(threads: usize) -> Executable {
        let v = Expr::var;
        let kernel = Kernel::new("par_scale")
            .scalar_param("n")
            .scalar_param("row_lo")
            .scalar_param("row_hi")
            .array_param(Param::input("x", ArrayTy::F64))
            .array_param(Param::output("out", ArrayTy::F64))
            .body(vec![
                Stmt::Memset { arr: "out".into(), val: Expr::float(0.0) },
                Stmt::for_(
                    "i",
                    Expr::int(0).max(v("row_lo")),
                    v("n").min(v("row_hi")),
                    vec![Stmt::store("out", v("i"), Expr::float(2.0) * Expr::load("x", v("i")))],
                ),
            ])
            .rows(Rows {
                var: "i".into(),
                lo: "row_lo".into(),
                hi: "row_hi".into(),
                extent: "n".into(),
                threads,
                private: Vec::new(),
                append: None,
            });
        Executable::compile(&kernel).unwrap()
    }

    /// Every range zeroes the whole output before its rows, so a range's
    /// writes are told from the run over no rows, not from the binding: a
    /// rerun on the binding of a finished run is that run again.
    #[test]
    fn a_parallel_rerun_over_its_own_result_is_the_same_run() {
        let run = |exe: &Executable, b: &mut Binding| {
            run_body(exe, b, &ResourceBudget::unlimited(), RunControls::default())
        };
        let mut b = Binding::new();
        b.set_scalar("n", 7);
        b.set_f64("x", (1..=7).map(f64::from).collect()).set_f64("out", vec![0.0; 7]);
        let expected: Vec<f64> = (1..=7).map(|x| 2.0 * f64::from(x)).collect();
        let (progress, result) = run(&parallel_scale(1), &mut b);
        assert_eq!((result, progress.workers, progress.iterations), (Ok(()), 1, 7));
        assert_eq!(b.f64_array("out").unwrap(), &expected[..]);
        for threads in [2, 3, 7, 9] {
            let exe = parallel_scale(threads);
            for _ in 0..2 {
                let (progress, result) = run(&exe, &mut b);
                assert_eq!(result, Ok(()));
                assert_eq!((progress.workers, progress.iterations), (threads.min(7) as u64, 7));
                assert_eq!(b.f64_array("out").unwrap(), &expected[..], "{threads} threads");
            }
        }
    }
}
