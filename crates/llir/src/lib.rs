//! Low-level imperative IR for sparse tensor kernels.
//!
//! This crate is the bottom of the compiler stack in Figure 6 of
//! *Tensor Algebra Compilation with Workspaces* (CGO 2019): concrete index
//! notation is lowered (by `taco-lower`) into this C-like imperative IR,
//! which can then be
//!
//! * pretty-printed as C source ([`Kernel::to_c`]) — the listings in
//!   Figures 1, 4, 5, 7, 8, 9 and 10 of the paper are programs of this IR, and
//! * compiled into an executable form ([`Executable::compile`]) in which
//!   every variable and array reference is resolved to a dense slot, then run
//!   against bound buffers ([`Executable::run`]).
//!
//! # Example
//!
//! ```
//! use taco_llir::{ArrayTy, Binding, Executable, Expr, Kernel, Param, Stmt};
//!
//! // out[i] = 2 * x[i]  for i in 0..n
//! let kernel = Kernel::new("scale")
//!     .scalar_param("n")
//!     .array_param(Param::input("x", ArrayTy::F64))
//!     .array_param(Param::output("out", ArrayTy::F64))
//!     .body(vec![Stmt::for_(
//!         "i",
//!         Expr::int(0),
//!         Expr::var("n"),
//!         vec![Stmt::store("out", Expr::var("i"), Expr::float(2.0) * Expr::load("x", Expr::var("i")))],
//!     )]);
//!
//! let exe = Executable::compile(&kernel)?;
//! let mut b = Binding::new();
//! b.set_scalar("n", 3);
//! b.set_f64("x", vec![1.0, 2.0, 3.0]);
//! b.set_f64("out", vec![0.0; 3]);
//! exe.run(&mut b)?;
//! assert_eq!(b.f64_array("out").unwrap(), &[2.0, 4.0, 6.0]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod alloc;
mod budget;
mod cgen;
mod error;
mod exec;
mod ir;
mod leaf;
mod printer;
mod simplify;
mod supervise;

pub use alloc::{elem_bytes, BudgetMeter};
pub use budget::{BudgetEnvError, BudgetResource, ResourceBudget};
pub use cgen::{
    emit_native, AbiArray, AbiMap, AbiPlan, NativeEmitError, NativeSource, ABI_VERSION,
    ABI_VERSION_SYMBOL, ENTRY_SYMBOL, LEAF_FAST_PATH_MARKER, TACO_KERNEL_H,
};
pub use error::{CompileError, RunError};
pub use exec::{
    run_body, ArrayVal, Binding, Buf, Executable, Frame, KernelBody, RunControls,
    SUPERVISION_STRIDE,
};
pub use ir::visit_stmts;
pub use ir::{
    AppendMerge, ArrayTy, BinOp, Expr, Kernel, Param, ParamKind, Rows, Stmt, UnOp, WorkspaceKind,
};
pub use printer::stmt_to_c;
pub use supervise::{
    Aborted, AbortReason, CancelToken, ExecReport, Progress, Supervisor,
};
