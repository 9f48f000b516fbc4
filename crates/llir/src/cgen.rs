//! Native C emission: lowers the typed, slot-resolved statement tree of an
//! [`Executable`] to a self-contained C translation unit against the
//! `taco_ctx` table ABI of `taco_kernel.h`.
//!
//! This is the code-generation half of the native backend; the compile /
//! dlopen / marshalling half lives in the `taco-native` crate. Emitting
//! from the *resolved* IR (rather than the surface [`Kernel`](crate::Kernel)
//! AST) means every scalar already has a type and a dense slot, so the C
//! mirrors the interpreter exactly: flat `int64_t i<n>` / `double f<n>` /
//! `bool b<n>` locals (slots are never reused across declarations), and
//! the same evaluation order statement by statement.
//!
//! Semantics contract with the interpreter (checked by the differential
//! trust gate in the runtime):
//!
//! * i64 arithmetic wraps (`-fwrapv`); division by zero is a sticky fault
//!   aborting at the statement boundary, `INT64_MIN / -1` wraps.
//! * All floats compute in `f64`; `F32` arrays load-promote and
//!   store-demote exactly like the interpreter.
//! * Loop bounds are evaluated once, before the loop; `while` conditions
//!   every iteration. Every back-edge burns one tick of the host-granted
//!   iteration batch, so fuse aborts and supervision latency match the
//!   interpreter's [`SUPERVISION_STRIDE`](crate::SUPERVISION_STRIDE).
//! * Stores are bounds-checked (a fault, not UB). Loads are *not*: reads
//!   are trusted to the static verifier plus the differential check — the
//!   documented trust contract of the native backend (DESIGN.md §15).
//! * A *straight-line leaf loop* pays both of those once per loop instead
//!   of once per element: its store checks are hoisted into one
//!   precondition at loop entry and its ticks are burnt a chunk at a time,
//!   polling on exactly the iteration `TACO_TICK` would have. When the
//!   precondition fails the per-element loop runs instead and faults where
//!   it always did. Which loops those are, and the terms of the
//!   precondition, are not decided here: the emitter reads the
//!   [`LeafPlan`](crate::leaf::LeafPlan) that [`crate::leaf`] stored on the
//!   `For` node and renders its *store* terms (DESIGN.md §8, "Leaf loops:
//!   decide at entry, run a strip"; §15 for the C).
//! * A parallel kernel emits like any other: its row range is two of its
//!   scalar parameters, and the dispatcher beside
//!   [`run_body`](crate::run_body) runs it as ranges ([`AbiPlan::rows`]).

use crate::exec::{BExpr, DenseWs, FExpr, IExpr, RStmt, Ws};
use crate::leaf::{bfaults, ffaults, ifaults, Access, LeafIndex};
use crate::{ArrayTy, BinOp, Executable, ParamKind, Rows, WorkspaceKind};
use std::fmt::Write;

/// The C prelude shared by every emitted kernel (and by the display
/// dialect of [`Kernel::to_c`](crate::Kernel::to_c)). A native TU is
/// `#define TACO_NATIVE_TU`, this prelude, then the kernel.
pub const TACO_KERNEL_H: &str = include_str!("taco_kernel.h");

/// The exported entry symbol of every native kernel.
pub const ENTRY_SYMBOL: &str = "taco_kernel_entry";

/// The exported ABI-version symbol.
pub const ABI_VERSION_SYMBOL: &str = "taco_abi_version";

/// ABI version the emitted C and the Rust host must agree on. Keep in
/// sync with `TACO_ABI_VERSION` in `taco_kernel.h`.
pub const ABI_VERSION: i32 = 2;

/// One array slot of the table ABI.
#[derive(Debug, Clone)]
pub struct AbiArray {
    /// Array name (parameter name, or the kernel-local name).
    pub name: String,
    /// Element type: a parameter's declared type, or the type of the
    /// allocation that materializes a kernel-local array. The emitted C
    /// declares the slot's pointer with this type, so it must match what
    /// the kernel actually stores there.
    pub ty: ArrayTy,
    /// Parameter kind; `None` for kernel-local arrays.
    pub kind: Option<ParamKind>,
    /// True for the hidden key/val slots backing a map workspace: they
    /// are never charged against the byte budget (maps charge through
    /// the logical entry model instead).
    pub map_backing: bool,
}

/// One map workspace of the table ABI, with its hidden backing slots.
#[derive(Debug, Clone)]
pub struct AbiMap {
    /// Map workspace name (for budget-abort payloads).
    pub name: String,
    /// Hidden array slot holding sorted keys (`int64_t`).
    pub keys_slot: usize,
    /// Hidden array slot holding values (`double`).
    pub vals_slot: usize,
}

/// Everything the host needs to marshal a [`Binding`](crate::Binding)
/// into the `taco_ctx` tables and back.
#[derive(Debug, Clone)]
pub struct AbiPlan {
    /// Kernel name.
    pub name: String,
    /// Scalar parameters in `ctx->scalars` order: (name, int slot).
    pub scalar_params: Vec<(String, usize)>,
    /// Scalar outputs in `ctx->scalar_out` order: (name, int slot).
    pub scalar_outputs: Vec<(String, usize)>,
    /// Every array slot, visible then hidden map backings, by index.
    pub arrays: Vec<AbiArray>,
    /// Map workspaces by map slot.
    pub maps: Vec<AbiMap>,
    /// The row ranges of a parallel kernel.
    pub rows: Option<Rows>,
}

/// An emitted native translation unit plus its marshalling plan.
#[derive(Debug, Clone)]
pub struct NativeSource {
    /// Self-contained C (prelude + kernel), ready for `cc -shared`.
    pub c_source: String,
    /// The marshalling contract for the host.
    pub plan: AbiPlan,
}

/// Why a kernel cannot be emitted natively: it always can, so there is no
/// value of this type. The `Result` [`emit_native`] returns keeps its
/// callers' error paths, which the compiler now knows are unreachable.
#[derive(Debug, Clone, PartialEq)]
pub enum NativeEmitError {}

impl std::fmt::Display for NativeEmitError {
    fn fmt(&self, _: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {}
    }
}

impl std::error::Error for NativeEmitError {}

/// Emits the native C translation unit for a compiled kernel.
///
/// # Errors
///
/// None: every resolved statement has a native form.
pub fn emit_native(exe: &Executable) -> Result<NativeSource, NativeEmitError> {
    let n_visible = exe.array_names.len();
    let mut arrays: Vec<AbiArray> = Vec::with_capacity(n_visible + 2 * exe.map_names.len());
    for (slot, name) in exe.array_names.iter().enumerate() {
        let param = exe.array_params.iter().find(|(_, s, _, _)| *s == slot);
        arrays.push(AbiArray {
            name: name.clone(),
            ty: exe.array_tys[slot],
            kind: param.map(|(_, _, _, k)| *k),
            map_backing: false,
        });
    }
    let mut maps = Vec::with_capacity(exe.map_names.len());
    for name in exe.map_names.iter() {
        let keys_slot = arrays.len();
        arrays.push(AbiArray {
            name: format!("{name}.keys"),
            ty: ArrayTy::Int,
            kind: None,
            map_backing: true,
        });
        let vals_slot = arrays.len();
        arrays.push(AbiArray {
            name: format!("{name}.vals"),
            ty: ArrayTy::F64,
            kind: None,
            map_backing: true,
        });
        maps.push(AbiMap { name: name.clone(), keys_slot, vals_slot });
    }

    let plan = AbiPlan {
        name: exe.name.clone(),
        scalar_params: exe.scalar_params.as_ref().clone(),
        scalar_outputs: exe.scalar_outputs.as_ref().clone(),
        arrays,
        maps,
        rows: exe.rows.as_deref().cloned(),
    };

    let mut e = Emitter { plan: &plan, out: String::new(), depth: 1, stores_prechecked: false };
    // TACO_NATIVE_TU: the prelude leaves out the display dialect and the
    // libc headers a native TU does not need (fixed cost of every cc run).
    let mut src = String::from("#define TACO_NATIVE_TU\n");
    src.push_str(TACO_KERNEL_H);
    let _ = writeln!(src, "\n/* kernel: {} */", exe.name);
    let _ = writeln!(src, "int32_t {ABI_VERSION_SYMBOL}(void) {{ return TACO_ABI_VERSION; }}\n");
    let _ = writeln!(src, "int32_t {ENTRY_SYMBOL}(taco_ctx* ctx) {{");

    // Flat scalar locals: slots are never reused across declarations, so
    // one function-scope local per slot reproduces interpreter scoping.
    for (pos, (_, slot)) in exe.scalar_params.iter().enumerate() {
        let _ = writeln!(src, "  int64_t i{slot} = ctx->scalars[{pos}];");
    }
    let param_slots: Vec<usize> = exe.scalar_params.iter().map(|(_, s)| *s).collect();
    for slot in 0..exe.n_int {
        if !param_slots.contains(&slot) {
            let _ = writeln!(src, "  int64_t i{slot} = 0;");
        }
        let _ = writeln!(src, "  (void)i{slot};");
    }
    for slot in 0..exe.n_float {
        let _ = writeln!(src, "  double f{slot} = 0.0; (void)f{slot};");
    }
    for slot in 0..exe.n_bool {
        let _ = writeln!(src, "  bool b{slot} = false; (void)b{slot};");
    }

    // Array locals for the visible slots (hidden map backings are only
    // touched through the prelude helpers, via the ctx tables).
    let mutated = mutated_slots(&exe.body);
    for slot in 0..n_visible {
        let ty = c_ty(plan.arrays[slot].ty);
        let konst = if mutated.contains(&slot) { "" } else { "const " };
        let _ = writeln!(
            src,
            "  {konst}{ty}* restrict a{slot} = ({konst}{ty}*)ctx->arr[{slot}];"
        );
        let _ = writeln!(src, "  int64_t a{slot}_n = ctx->arr_size[{slot}];");
        // Some slots are only touched through host callbacks (or not at
        // all on a given path); keep -Wall builds of the TU clean.
        let _ = writeln!(src, "  (void)a{slot}; (void)a{slot}_n;");
    }
    src.push('\n');

    e.block(&exe.body);
    src.push_str(&e.out);

    src.push('\n');
    for (pos, (_, slot)) in exe.scalar_outputs.iter().enumerate() {
        let _ = writeln!(src, "  ctx->scalar_out[{pos}] = i{slot};");
    }
    let _ = writeln!(src, "  return TACO_OK;");
    let _ = writeln!(src, "taco_abort:");
    let _ = writeln!(src, "  return ctx->status ? ctx->status : TACO_ERR_HOST;");
    let _ = writeln!(src, "}}");

    Ok(NativeSource { c_source: src, plan })
}

/// Array slots written (stored to, filled, allocated or grown) anywhere in
/// the body; the rest get `const` locals.
fn mutated_slots(body: &[RStmt]) -> Vec<usize> {
    let mut out = Vec::new();
    fn walk(body: &[RStmt], out: &mut Vec<usize>) {
        for s in body {
            match s {
                RStmt::StoreI(a, ..)
                | RStmt::StoreF64(a, ..)
                | RStmt::StoreF32(a, ..)
                | RStmt::StoreB(a, ..)
                | RStmt::StoreAddI(a, ..)
                | RStmt::StoreAddF64(a, ..)
                | RStmt::StoreAddF32(a, ..)
                | RStmt::MemsetI(a, ..)
                | RStmt::MemsetF64(a, ..)
                | RStmt::MemsetF32(a, ..)
                | RStmt::MemsetB(a, ..)
                | RStmt::Alloc(a, ..)
                | RStmt::Realloc(a, ..) if !out.contains(a) => out.push(*a),
                RStmt::WsInit(Ws::Dense(d), _) => out.extend([d.vals, d.list, d.guard]),
                RStmt::For(_, _, _, b) => walk(b, out),
                RStmt::While(_, b) | RStmt::WsDrain(_, _, _, _, b) => walk(b, out),
                RStmt::If(_, t, e) => {
                    walk(t, out);
                    walk(e, out);
                }
                _ => {}
            }
        }
    }
    walk(body, &mut out);
    out
}

fn c_ty(ty: ArrayTy) -> &'static str {
    match ty {
        ArrayTy::Int => "int64_t",
        ArrayTy::F64 => "double",
        ArrayTy::F32 => "float",
        ArrayTy::Bool => "bool",
    }
}

fn ty_code(ty: ArrayTy) -> &'static str {
    match ty {
        ArrayTy::Int => "TACO_TY_INT",
        ArrayTy::F64 => "TACO_TY_F64",
        ArrayTy::F32 => "TACO_TY_F32",
        ArrayTy::Bool => "TACO_TY_BOOL",
    }
}

fn i64_lit(v: i64) -> String {
    if v == i64::MIN {
        "(-9223372036854775807LL - 1)".to_string()
    } else {
        format!("{v}LL")
    }
}

fn f64_lit(v: f64) -> String {
    if v.is_nan() {
        "(0.0 / 0.0)".to_string()
    } else if v == f64::INFINITY {
        "(1.0 / 0.0)".to_string()
    } else if v == f64::NEG_INFINITY {
        "(-1.0 / 0.0)".to_string()
    } else {
        // `{:?}` is Rust's shortest round-trip form: always carries a
        // decimal point or exponent, so it parses as a C double.
        format!("{v:?}")
    }
}

// --- versioned leaf loops ----------------------------------------------

/// The comment on the fast copy of every versioned leaf loop. Tests count
/// it to pin which kernels change shape and which emit the C they always
/// did.
pub const LEAF_FAST_PATH_MARKER: &str = "/* taco: leaf fast path */";

// --- the emitter -------------------------------------------------------

struct Emitter<'a> {
    plan: &'a AbiPlan,
    out: String,
    depth: usize,
    /// Inside the fast copy of a versioned leaf loop, whose hoisted
    /// precondition has already range-checked every store.
    stores_prechecked: bool,
}

impl Emitter<'_> {
    fn line(&mut self, s: &str) {
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    /// Emits `if (ctx->status) goto taco_abort;` — placed after any
    /// computation that may have raised a sticky div/rem fault, before
    /// its result can reach memory.
    fn fault_check(&mut self) {
        self.line("if (ctx->status) goto taco_abort;");
    }

    /// Refreshes the cached pointer/length locals of a visible slot after
    /// the host may have moved its buffer.
    fn refresh(&mut self, slot: usize) {
        let arr = &self.plan.arrays[slot];
        let ty = c_ty(arr.ty);
        // A mutated slot is never const (it was just allocated into).
        self.line(&format!("a{slot} = ({ty}*)ctx->arr[{slot}];"));
        self.line(&format!("a{slot}_n = ctx->arr_size[{slot}];"));
    }

    fn block(&mut self, body: &[RStmt]) {
        for s in body {
            self.stmt(s);
        }
    }

    fn iexpr(&self, e: &IExpr) -> String {
        match e {
            IExpr::Lit(v) => i64_lit(*v),
            IExpr::Var(s) => format!("i{s}"),
            IExpr::Load(arr, idx) => format!("a{arr}[{}]", self.iexpr(idx)),
            IExpr::Len(arr) => format!("a{arr}_n"),
            IExpr::Bin(op, a, b) => {
                let (x, y) = (self.iexpr(a), self.iexpr(b));
                match op {
                    BinOp::Add => format!("({x} + {y})"),
                    BinOp::Sub => format!("({x} - {y})"),
                    BinOp::Mul => format!("({x} * {y})"),
                    BinOp::Div => format!("taco_div_i64(ctx, {x}, {y})"),
                    BinOp::Rem => format!("taco_rem_i64(ctx, {x}, {y})"),
                    BinOp::Min => format!("taco_min_i64({x}, {y})"),
                    BinOp::Max => format!("taco_max_i64({x}, {y})"),
                    other => unreachable!("non-arithmetic op {other:?} in int expression"),
                }
            }
            IExpr::Neg(a) => format!("(-{})", self.iexpr(a)),
        }
    }

    fn fexpr(&self, e: &FExpr) -> String {
        match e {
            FExpr::Lit(v) => f64_lit(*v),
            FExpr::Var(s) => format!("f{s}"),
            FExpr::LoadF64(arr, idx) => format!("a{arr}[{}]", self.iexpr(idx)),
            FExpr::LoadF32(arr, idx) => {
                format!("(double)a{arr}[{}]", self.iexpr(idx))
            }
            FExpr::Bin(op, a, b) => {
                let (x, y) = (self.fexpr(a), self.fexpr(b));
                match op {
                    BinOp::Add => format!("({x} + {y})"),
                    BinOp::Sub => format!("({x} - {y})"),
                    BinOp::Mul => format!("({x} * {y})"),
                    BinOp::Div => format!("({x} / {y})"),
                    BinOp::Rem => format!("fmod({x}, {y})"),
                    BinOp::Min => format!("fmin({x}, {y})"),
                    BinOp::Max => format!("fmax({x}, {y})"),
                    other => unreachable!("non-arithmetic op {other:?} in float expression"),
                }
            }
            FExpr::Neg(a) => format!("(-{})", self.fexpr(a)),
            FExpr::FromInt(i) => format!("(double)({})", self.iexpr(i)),
        }
    }

    fn bexpr(&self, e: &BExpr) -> String {
        match e {
            BExpr::Lit(v) => if *v { "true" } else { "false" }.to_string(),
            BExpr::Var(s) => format!("b{s}"),
            BExpr::Load(arr, idx) => format!("a{arr}[{}]", self.iexpr(idx)),
            BExpr::CmpI(op, a, b) => {
                format!("({} {} {})", self.iexpr(a), cmp_str(*op), self.iexpr(b))
            }
            BExpr::CmpF(op, a, b) => {
                format!("({} {} {})", self.fexpr(a), cmp_str(*op), self.fexpr(b))
            }
            BExpr::Bin(BinOp::And, a, b) => {
                format!("({} && {})", self.bexpr(a), self.bexpr(b))
            }
            BExpr::Bin(BinOp::Or, a, b) => {
                format!("({} || {})", self.bexpr(a), self.bexpr(b))
            }
            BExpr::Bin(op, ..) => unreachable!("non-logical op {op:?} in bool expression"),
            BExpr::Not(a) => format!("(!{})", self.bexpr(a)),
        }
    }

    /// A bounds-checked store: stores fault like the interpreter instead
    /// of invoking UB (loads stay unchecked under the verifier +
    /// differential trust contract).
    fn store(
        &mut self,
        arr: usize,
        idx: &IExpr,
        val_decl: &str,
        val: String,
        val_faults: bool,
        op: &str,
    ) {
        if self.stores_prechecked {
            self.line(&format!("a{arr}[{}] {op} {val};", self.iexpr(idx)));
            return;
        }
        let faults = ifaults(idx) || val_faults;
        self.line("{");
        self.depth += 1;
        self.line(&format!("int64_t _x = {};", self.iexpr(idx)));
        self.line(&format!("{val_decl} _v = {val};"));
        if faults {
            self.fault_check();
        }
        self.line(&format!(
            "if ((uint64_t)_x >= (uint64_t)a{arr}_n) {{ ctx->fault(ctx, TACO_ERR_OOB, {arr}, _x, a{arr}_n); goto taco_abort; }}"
        ));
        self.line(&format!("a{arr}[_x] {op} _v;"));
        self.depth -= 1;
        self.line("}");
    }

    fn stmt(&mut self, s: &RStmt) {
        match s {
            RStmt::AssignI(slot, e) => {
                let v = self.iexpr(e);
                self.line(&format!("i{slot} = {v};"));
                if ifaults(e) {
                    self.fault_check();
                }
            }
            RStmt::AssignF(slot, e) => {
                let v = self.fexpr(e);
                self.line(&format!("f{slot} = {v};"));
                if ffaults(e) {
                    self.fault_check();
                }
            }
            RStmt::AssignB(slot, e) => {
                let v = self.bexpr(e);
                self.line(&format!("b{slot} = {v};"));
                if bfaults(e) {
                    self.fault_check();
                }
            }
            RStmt::StoreI(arr, idx, val) => {
                let v = self.iexpr(val);
                self.store(*arr, idx, "int64_t", v, ifaults(val), "=");
            }
            RStmt::StoreF64(arr, idx, val) => {
                let v = self.fexpr(val);
                self.store(*arr, idx, "double", v, ffaults(val), "=");
            }
            RStmt::StoreF32(arr, idx, val) => {
                let v = format!("(float)({})", self.fexpr(val));
                self.store(*arr, idx, "float", v, ffaults(val), "=");
            }
            RStmt::StoreB(arr, idx, val) => {
                let v = self.bexpr(val);
                self.store(*arr, idx, "bool", v, bfaults(val), "=");
            }
            RStmt::StoreAddI(arr, idx, val) => {
                let v = self.iexpr(val);
                self.store(*arr, idx, "int64_t", v, ifaults(val), "+=");
            }
            RStmt::StoreAddF64(arr, idx, val) => {
                let v = self.fexpr(val);
                self.store(*arr, idx, "double", v, ffaults(val), "+=");
            }
            RStmt::StoreAddF32(arr, idx, val) => {
                let v = format!("(float)({})", self.fexpr(val));
                self.store(*arr, idx, "float", v, ffaults(val), "+=");
            }
            RStmt::For(slot, lo, hi, body) => {
                // Bounds evaluate once, before the loop; the shadow
                // counter keeps body writes to the loop-var slot from
                // perturbing the trip count, exactly like the interpreter.
                self.line("{");
                self.depth += 1;
                self.line(&format!("int64_t _lo = {};", self.iexpr(lo)));
                self.line(&format!("int64_t _hi = {};", self.iexpr(hi)));
                if ifaults(lo) || ifaults(hi) {
                    self.fault_check();
                }
                let leaf = body.leaf_plan();
                if let Some(plan) = leaf {
                    self.leaf_precondition(&plan.stores);
                }
                self.line("for (int64_t _it = _lo; _it < _hi; _it++) {");
                self.depth += 1;
                if leaf.is_some() {
                    self.leaf_fast_forward(*slot, body);
                }
                self.line("TACO_TICK(ctx);");
                self.line(&format!("i{slot} = _it;"));
                self.block(body);
                self.depth -= 1;
                self.line("}");
                self.depth -= 1;
                self.line("}");
            }
            RStmt::While(cond, body) => {
                if bfaults(cond) {
                    self.line("for (;;) {");
                    self.depth += 1;
                    let c = self.bexpr(cond);
                    self.line(&format!("bool _c = {c};"));
                    self.fault_check();
                    self.line("if (!_c) break;");
                } else {
                    let c = self.bexpr(cond);
                    self.line(&format!("while ({c}) {{"));
                    self.depth += 1;
                }
                self.line("TACO_TICK(ctx);");
                self.block(body);
                self.depth -= 1;
                self.line("}");
            }
            RStmt::If(cond, then, els) => {
                let faults = bfaults(cond);
                if faults {
                    self.line("{");
                    self.depth += 1;
                    let c = self.bexpr(cond);
                    self.line(&format!("bool _c = {c};"));
                    self.fault_check();
                    self.line("if (_c) {");
                } else {
                    let c = self.bexpr(cond);
                    self.line(&format!("if ({c}) {{"));
                }
                self.block_nested(then);
                if els.is_empty() {
                    self.line("}");
                } else {
                    self.line("} else {");
                    self.block_nested(els);
                    self.line("}");
                }
                if faults {
                    self.depth -= 1;
                    self.line("}");
                }
            }
            RStmt::MemsetI(arr, val) => self.memset(*arr, "int64_t", self.iexpr(val), ifaults(val)),
            RStmt::MemsetF64(arr, val) => {
                self.memset(*arr, "double", self.fexpr(val), ffaults(val))
            }
            RStmt::MemsetF32(arr, val) => {
                let v = format!("(float)({})", self.fexpr(val));
                self.memset(*arr, "float", v, ffaults(val));
            }
            RStmt::MemsetB(arr, val) => self.memset(*arr, "bool", self.bexpr(val), bfaults(val)),
            RStmt::Alloc(arr, ty, len) => self.alloc(*arr, *ty, len),
            RStmt::Realloc(arr, len) => {
                let l = self.iexpr(len);
                if ifaults(len) {
                    self.line("{");
                    self.depth += 1;
                    self.line(&format!("int64_t _l = {l};"));
                    self.fault_check();
                    self.line(&format!("if (!ctx->grow(ctx, {arr}, _l)) goto taco_abort;"));
                    self.depth -= 1;
                    self.line("}");
                } else {
                    self.line(&format!("if (!ctx->grow(ctx, {arr}, {l})) goto taco_abort;"));
                }
                self.refresh(*arr);
            }
            RStmt::WsInit(Ws::Dense(d), extent) => {
                for arr in [d.vals, d.list, d.guard] {
                    self.alloc(arr, self.plan.arrays[arr].ty, extent);
                }
                self.line(&format!("i{} = 0LL;", d.len));
            }
            RStmt::WsInit(Ws::Map(map, kind), extent) => {
                let m = &self.plan.maps[*map];
                let (ks, vs) = (m.keys_slot, m.vals_slot);
                let tag = kind.c_tag();
                let c = format!(
                    "taco_min_i64({}, {})",
                    i64_lit(WorkspaceKind::INITIAL_CAPACITY),
                    self.iexpr(extent)
                );
                if ifaults(extent) {
                    self.line("{");
                    self.depth += 1;
                    self.line(&format!("int64_t _c = {c};"));
                    self.fault_check();
                    self.line(&format!(
                        "if (!taco_map_init(ctx, {map}, {ks}, {vs}, {tag}, _c)) goto taco_abort;"
                    ));
                    self.depth -= 1;
                    self.line("}");
                } else {
                    self.line(&format!(
                        "if (!taco_map_init(ctx, {map}, {ks}, {vs}, {tag}, {c})) goto taco_abort;"
                    ));
                }
            }
            RStmt::WsScatter(Ws::Dense(d), key, val, add) => self.dense_scatter(d, key, val, *add),
            RStmt::WsScatter(Ws::Map(map, _), key, val, add) => {
                let m = &self.plan.maps[*map];
                let (ks, vs) = (m.keys_slot, m.vals_slot);
                let add = i32::from(*add);
                let k = self.iexpr(key);
                let v = self.fexpr(val);
                if ifaults(key) || ffaults(val) {
                    self.line("{");
                    self.depth += 1;
                    self.line(&format!("int64_t _k = {k};"));
                    self.line(&format!("double _w = {v};"));
                    self.fault_check();
                    self.line(&format!(
                        "if (!taco_map_scatter(ctx, {map}, {ks}, {vs}, _k, _w, {add})) goto taco_abort;"
                    ));
                    self.depth -= 1;
                    self.line("}");
                } else {
                    self.line(&format!(
                        "if (!taco_map_scatter(ctx, {map}, {ks}, {vs}, {k}, {v}, {add})) goto taco_abort;"
                    ));
                }
            }
            RStmt::WsDrain(Ws::Dense(d), key, val, sorted, body) => {
                self.dense_drain(d, *key, *val, *sorted, body);
            }
            RStmt::WsDrain(Ws::Map(map, _), key_slot, val_slot, _, body) => {
                let m = &self.plan.maps[*map];
                let (ks, vs) = (m.keys_slot, m.vals_slot);
                self.line("{");
                self.depth += 1;
                self.line(&format!("int64_t _n = ctx->maps[{map}].len;"));
                self.line(&format!("ctx->maps[{map}].len = 0;"));
                self.line(&format!("const int64_t* _ks = (const int64_t*)ctx->arr[{ks}];"));
                self.line(&format!("const double* _vs = (const double*)ctx->arr[{vs}];"));
                self.line("for (int64_t _di = 0; _di < _n; _di++) {");
                self.depth += 1;
                self.line("TACO_TICK(ctx);");
                self.line(&format!("i{key_slot} = _ks[_di];"));
                self.line(&format!("f{val_slot} = _vs[_di];"));
                self.block(body);
                self.depth -= 1;
                self.line("}");
                self.depth -= 1;
                self.line("}");
            }
        }
    }

    /// `ctx->alloc` of `arr`, `len` elements of `ty`, and the refreshed
    /// pointer/length locals.
    fn alloc(&mut self, arr: usize, ty: ArrayTy, len: &IExpr) {
        let l = self.iexpr(len);
        let ty = ty_code(ty);
        if ifaults(len) {
            self.line("{");
            self.depth += 1;
            self.line(&format!("int64_t _l = {l};"));
            self.fault_check();
            self.line(&format!("if (!ctx->alloc(ctx, {arr}, {ty}, _l)) goto taco_abort;"));
            self.depth -= 1;
            self.line("}");
        } else {
            self.line(&format!("if (!ctx->alloc(ctx, {arr}, {ty}, {l})) goto taco_abort;"));
        }
        self.refresh(arr);
    }

    /// A dense scatter in the shape of Figure 8 lines 15–18: the guarded
    /// insert, then the checked value store.
    fn dense_scatter(&mut self, d: &DenseWs, key: &IExpr, val: &FExpr, add: bool) {
        let len = || IExpr::Var(d.len);
        let insert = RStmt::If(
            BExpr::Not(Box::new(BExpr::Load(d.guard, Box::new(key.clone())))),
            vec![
                RStmt::StoreI(d.list, len(), key.clone()),
                RStmt::AssignI(
                    d.len,
                    IExpr::Bin(BinOp::Add, Box::new(len()), Box::new(IExpr::Lit(1))),
                ),
                RStmt::StoreB(d.guard, key.clone(), BExpr::Lit(true)),
            ],
            Vec::new(),
        );
        let (k, v) = (key.clone(), val.clone());
        let store = match (d.ty, add) {
            (ArrayTy::F32, true) => RStmt::StoreAddF32(d.vals, k, v),
            (ArrayTy::F32, false) => RStmt::StoreF32(d.vals, k, v),
            (_, true) => RStmt::StoreAddF64(d.vals, k, v),
            (_, false) => RStmt::StoreF64(d.vals, k, v),
        };
        self.stmt(&insert);
        self.stmt(&store);
    }

    /// A dense drain: `taco_sort_range` over the listed coordinates when
    /// asked, then a ticked loop over them that binds key and value and
    /// zeroes value and guard (checked stores) before the body; the list is
    /// empty afterwards.
    fn dense_drain(&mut self, d: &DenseWs, key: usize, val: usize, sorted: bool, body: &[RStmt]) {
        let (list, len) = (d.list, d.len);
        if sorted {
            self.line(&format!("if (!taco_sort_range(ctx, {list}, 0LL, i{len})) goto taco_abort;"));
        }
        self.line("{");
        self.depth += 1;
        self.line("int64_t _lo = 0LL;");
        self.line(&format!("int64_t _hi = i{len};"));
        self.line("for (int64_t _it = _lo; _it < _hi; _it++) {");
        self.depth += 1;
        self.line("TACO_TICK(ctx);");
        self.line(&format!("i{key} = a{list}[_it];"));
        let at = || IExpr::Var(key);
        let (bind, zero) = match d.ty {
            ArrayTy::F32 => (
                FExpr::LoadF32(d.vals, Box::new(at())),
                RStmt::StoreF32(d.vals, at(), FExpr::Lit(0.0)),
            ),
            _ => (
                FExpr::LoadF64(d.vals, Box::new(at())),
                RStmt::StoreF64(d.vals, at(), FExpr::Lit(0.0)),
            ),
        };
        self.stmt(&RStmt::AssignF(val, bind));
        self.stmt(&zero);
        self.stmt(&RStmt::StoreB(d.guard, at(), BExpr::Lit(false)));
        self.block(body);
        self.depth -= 1;
        self.line("}");
        self.depth -= 1;
        self.line("}");
        self.line(&format!("i{len} = 0LL;"));
    }

    /// Declares `_pre`, decided once at the entry of a straight-line leaf
    /// loop: the loop runs at least once and the range check of each of
    /// its stores holds at the first and at the last iteration. `inv + i`
    /// is monotone in `i`, so the check then holds at every iteration in
    /// between — provided the sum did not wrap around i64 on the way,
    /// which the `<=` term rules out (a bare loop variable cannot wrap:
    /// `_lo < _hi`). When `_pre` is false the loop is the per-element loop
    /// it always was and faults where it always did.
    fn leaf_precondition(&mut self, stores: &[Access]) {
        let mut terms = vec!["_lo < _hi".to_string()];
        for (arr, form) in stores {
            let in_range = |x: &str| format!("(uint64_t){x} < (uint64_t)a{arr}_n");
            terms.push(match form {
                LeafIndex::Invariant(idx) => in_range(&format!("({})", self.iexpr(idx))),
                LeafIndex::Affine(None) => {
                    format!("{} && {}", in_range("_lo"), in_range("(_hi - 1LL)"))
                }
                LeafIndex::Affine(Some(inv)) => {
                    let inv = self.iexpr(inv);
                    let (first, last) = (format!("({inv} + _lo)"), format!("({inv} + (_hi - 1LL))"));
                    format!("{} && {} && {first} <= {last}", in_range(&first), in_range(&last))
                }
            });
        }
        let last = terms.len() - 1;
        for (n, term) in terms.iter().enumerate() {
            let open = if n == 0 { "bool _pre = " } else { "    && " };
            let close = if n == last { ";" } else { "" };
            self.line(&format!("{open}{term}{close}"));
        }
    }

    /// The fast path of a straight-line leaf loop, at the top of each
    /// per-element iteration: while `_pre` holds, run ahead over every
    /// iteration that would not poll. `ctx->ticks_left` is the number of
    /// iterations that may still start before `TACO_TICK` polls, so a
    /// chunk of that many burns its ticks in one subtraction and runs
    /// with no tick and no store check. What follows the chunk is either
    /// the end of the loop or exactly the iteration `TACO_TICK` polls on,
    /// which runs as the per-element iteration it is — tick, poll, checked
    /// stores that `_pre` says pass. The loop is thereby strip-mined by
    /// the tick grant; iteration accounting, fuse trips and supervision
    /// latency are those of the per-element loop, and while `_pre` holds
    /// the poll is the only abort edge.
    fn leaf_fast_forward(&mut self, slot: usize, body: &[RStmt]) {
        self.line("if (_pre) {");
        self.depth += 1;
        self.line(LEAF_FAST_PATH_MARKER);
        self.line("int64_t _n = ctx->ticks_left;");
        self.line("if ((uint64_t)_hi - (uint64_t)_it < (uint64_t)_n) _n = _hi - _it;");
        self.line("ctx->ticks_left -= _n;");
        self.line("int64_t _end = _it + _n;");
        // The loop variable is a block-local shadow of its slot, so the
        // chunk is a plain counted loop over a local.
        self.line(&format!("for (int64_t i{slot} = _it; i{slot} < _end; i{slot}++) {{"));
        self.depth += 1;
        self.stores_prechecked = true;
        self.block(body);
        self.stores_prechecked = false;
        self.depth -= 1;
        self.line("}");
        self.line(&format!("if (_end == _hi) {{ i{slot} = _hi - 1LL; break; }}"));
        self.line("_it = _end;");
        self.depth -= 1;
        self.line("}");
    }

    fn memset(&mut self, arr: usize, ty: &str, val: String, faults: bool) {
        self.line("{");
        self.depth += 1;
        self.line(&format!("{ty} _v = {val};"));
        if faults {
            self.fault_check();
        }
        self.line(&format!("for (int64_t _mi = 0; _mi < a{arr}_n; _mi++) a{arr}[_mi] = _v;"));
        self.depth -= 1;
        self.line("}");
    }

    fn block_nested(&mut self, body: &[RStmt]) {
        self.depth += 1;
        self.block(body);
        self.depth -= 1;
    }
}

fn cmp_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        other => unreachable!("non-comparison op {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Expr, Kernel, Param, Stmt};

    fn scale_kernel() -> Executable {
        let kernel = Kernel::new("scale")
            .scalar_param("n")
            .array_param(Param::input("x", ArrayTy::F64))
            .array_param(Param::output("out", ArrayTy::F64))
            .body(vec![Stmt::for_(
                "i",
                Expr::int(0),
                Expr::var("n"),
                vec![Stmt::store(
                    "out",
                    Expr::var("i"),
                    Expr::float(2.0) * Expr::load("x", Expr::var("i")),
                )],
            )]);
        Executable::compile(&kernel).unwrap()
    }

    #[test]
    fn emits_entry_and_abi_symbols() {
        let src = emit_native(&scale_kernel()).unwrap();
        assert!(src.c_source.contains("int32_t taco_kernel_entry(taco_ctx* ctx"));
        assert!(src.c_source.contains("int32_t taco_abi_version(void)"));
        assert!(src.c_source.contains("TACO_TICK(ctx);"));
        // Input arrays are const, outputs are not.
        assert!(src.c_source.contains("const double* restrict a0"));
        assert!(src.c_source.contains("double* restrict a1"));
        assert_eq!(src.plan.scalar_params.len(), 1);
        assert_eq!(src.plan.arrays.len(), 2);
        assert!(src.plan.maps.is_empty());
    }

    #[test]
    fn kernel_local_arrays_take_their_alloc_type() {
        // A double workspace materialized by Alloc (no parameter carries
        // its type): the slot must be declared double*, not the Int
        // default — an int64_t* declaration would type-pun every access.
        let kernel = Kernel::new("ws")
            .scalar_param("n")
            .array_param(Param::output("out", ArrayTy::F64))
            .body(vec![
                Stmt::Alloc { arr: "w".into(), ty: ArrayTy::F64, len: Expr::var("n") },
                Stmt::Alloc { arr: "seen".into(), ty: ArrayTy::Bool, len: Expr::var("n") },
                Stmt::store("w", Expr::int(0), Expr::float(1.5)),
                Stmt::store("out", Expr::int(0), Expr::load("w", Expr::int(0))),
            ]);
        let exe = Executable::compile(&kernel).unwrap();
        let src = emit_native(&exe).unwrap();
        let w = src.plan.arrays.iter().find(|a| a.name == "w").unwrap();
        assert_eq!(w.ty, ArrayTy::F64);
        let seen = src.plan.arrays.iter().find(|a| a.name == "seen").unwrap();
        assert_eq!(seen.ty, ArrayTy::Bool);
        assert!(src.c_source.contains("double* restrict a1"), "{}", src.c_source);
        assert!(src.c_source.contains("bool* restrict a2"), "{}", src.c_source);
    }

    #[test]
    fn map_workspace_gets_hidden_backing_slots() {
        let kernel = Kernel::new("ws")
            .scalar_param("n")
            .array_param(Param::output("out", ArrayTy::F64))
            .body(vec![
                Stmt::WsInit {
                    ws: "w".into(),
                    kind: WorkspaceKind::Hash,
                    ty: ArrayTy::F64,
                    extent: Expr::int(0),
                },
                Stmt::WsScatter {
                    ws: "w".into(),
                    key: Expr::int(3),
                    val: Expr::float(1.5),
                    add: true,
                },
                Stmt::WsDrain {
                    ws: "w".into(),
                    key: "k".into(),
                    val: "v".into(),
                    sorted: true,
                    body: vec![Stmt::store("out", Expr::var("k"), Expr::var("v"))],
                },
            ]);
        let exe = Executable::compile(&kernel).unwrap();
        let src = emit_native(&exe).unwrap();
        assert_eq!(src.plan.maps.len(), 1);
        let m = &src.plan.maps[0];
        assert_eq!(m.keys_slot, 1);
        assert_eq!(m.vals_slot, 2);
        assert!(src.plan.arrays[m.keys_slot].map_backing);
        assert!(src.c_source.contains("taco_map_scatter(ctx, 0, 1, 2, 3LL, 1.5, 1)"));
    }
}

/// Which loops are versioned. The three kernels below are transcribed
/// from what the lowering emits for the benchmark's three paper workloads
/// (`tests/native_backend.rs` pins the same counts on the real lowered
/// statements): a kernel with no straight-line leaf loop must emit the C
/// it always did.
#[cfg(test)]
mod leaf_tests {
    use super::*;
    use crate::{Expr, Kernel, Param, Stmt};

    fn v(name: &str) -> Expr {
        Expr::var(name)
    }

    fn ld(arr: &str, idx: Expr) -> Expr {
        Expr::load(arr, idx)
    }

    fn csr_inputs(kernel: Kernel, names: &[&str]) -> Kernel {
        names.iter().fold(kernel, |k, n| {
            k.array_param(Param::input(format!("{n}_pos"), ArrayTy::Int))
                .array_param(Param::input(format!("{n}_crd"), ArrayTy::Int))
                .array_param(Param::input(format!("{n}_vals"), ArrayTy::F64))
        })
    }

    fn csr_output(kernel: Kernel) -> Kernel {
        kernel
            .array_param(Param::output("A_pos", ArrayTy::Int))
            .array_param(Param::output("A_crd", ArrayTy::Int))
            .array_param(Param::output("A_vals", ArrayTy::F64))
            .scalar_output("nnz")
    }

    /// `A_crd[nnz] = j; A_vals[nnz] = val` with realloc-by-doubling.
    fn append(j: Expr, val: Expr) -> Vec<Stmt> {
        let grow = |arr: &str| {
            Stmt::if_(
                Expr::len(arr).le(v("nnz")),
                vec![Stmt::Realloc { arr: arr.into(), len: (v("nnz") + Expr::int(1)) * Expr::int(2) }],
            )
        };
        vec![
            grow("A_crd"),
            Stmt::store("A_crd", v("nnz"), j),
            grow("A_vals"),
            Stmt::store("A_vals", v("nnz"), val),
        ]
    }

    /// Fig. 2: CSR SpGEMM with a dense row workspace, fused assembly.
    fn fig2_spgemm() -> Kernel {
        let scatter = vec![
            Stmt::DeclInt("j".into(), ld("C_crd", v("pC"))),
            Stmt::WsScatter {
                ws: "w".into(),
                key: v("j"),
                val: ld("B_vals", v("pB")) * ld("C_vals", v("pC")),
                add: true,
            },
        ];
        let mut gather = append(v("jw"), v("wv"));
        gather.push(Stmt::incr("nnz"));
        let row = vec![
            Stmt::for_(
                "pB",
                ld("B_pos", v("i")),
                ld("B_pos", v("i") + Expr::int(1)),
                vec![
                    Stmt::DeclInt("k".into(), ld("B_crd", v("pB"))),
                    Stmt::for_(
                        "pC",
                        ld("C_pos", v("k")),
                        ld("C_pos", v("k") + Expr::int(1)),
                        scatter,
                    ),
                ],
            ),
            Stmt::WsDrain {
                ws: "w".into(),
                key: "jw".into(),
                val: "wv".into(),
                sorted: true,
                body: gather,
            },
            Stmt::store("A_pos", v("i") + Expr::int(1), v("nnz")),
        ];
        let kernel = csr_inputs(Kernel::new("spgemm").scalar_param("m").scalar_param("n"), &["B", "C"]);
        csr_output(kernel).body(vec![
            Stmt::DeclInt("nnz".into(), Expr::int(0)),
            Stmt::WsInit {
                ws: "w".into(),
                kind: WorkspaceKind::Dense,
                ty: ArrayTy::F64,
                extent: v("n"),
            },
            Stmt::for_("i", Expr::int(0), v("m"), row),
        ])
    }

    /// Fig. 13's shape (two operands of the three): a row loop over merge
    /// `while`s, no workspace, fused assembly.
    fn merge_add() -> Kernel {
        let end = |t: &str| ld(&format!("{t}_pos"), v("i") + Expr::int(1));
        let mut both = vec![
            Stmt::DeclInt("jB".into(), ld("B_crd", v("pB"))),
            Stmt::DeclInt("jC".into(), ld("C_crd", v("pC"))),
            Stmt::DeclInt("j".into(), v("jB").min(v("jC"))),
        ];
        let mut hit = append(v("j"), ld("B_vals", v("pB")) + ld("C_vals", v("pC")));
        hit.push(Stmt::incr("nnz"));
        both.push(Stmt::if_(v("jB").eq(v("j")).and(v("jC").eq(v("j"))), hit));
        both.push(Stmt::if_(v("jB").eq(v("j")), vec![Stmt::incr("pB")]));
        both.push(Stmt::if_(v("jC").eq(v("j")), vec![Stmt::incr("pC")]));
        let tail = |t: &str| {
            let p = format!("p{t}");
            let mut body = append(ld(&format!("{t}_crd"), v(&p)), ld(&format!("{t}_vals"), v(&p)));
            body.extend([Stmt::incr("nnz"), Stmt::incr(&p)]);
            Stmt::while_(v(&p).lt(end(t)), body)
        };
        let row = vec![
            Stmt::DeclInt("pB".into(), ld("B_pos", v("i"))),
            Stmt::DeclInt("pC".into(), ld("C_pos", v("i"))),
            Stmt::while_(v("pB").lt(end("B")).and(v("pC").lt(end("C"))), both),
            tail("B"),
            tail("C"),
            Stmt::store("A_pos", v("i") + Expr::int(1), v("nnz")),
        ];
        let kernel = csr_inputs(Kernel::new("add").scalar_param("m"), &["B", "C"]);
        csr_output(kernel).body(vec![
            Stmt::DeclInt("nnz".into(), Expr::int(0)),
            Stmt::for_("i", Expr::int(0), v("m"), row),
        ])
    }

    /// Sec. VII: CSF x dense -> dense MTTKRP, `B*C` precomputed into a
    /// rank-length workspace: the two dense `j` loops are the leaves.
    pub(super) fn workspace_mttkrp() -> Kernel {
        let accumulate = Stmt::for_(
            "j",
            Expr::int(0),
            v("r"),
            vec![Stmt::store_add(
                "w",
                v("j"),
                ld("B_vals", v("pl")) * ld("C", v("l") * v("r") + v("j")),
            )],
        );
        let drain = Stmt::for_(
            "j2",
            Expr::int(0),
            v("r"),
            vec![
                Stmt::store_add(
                    "A",
                    v("i") * v("r") + v("j2"),
                    ld("w", v("j2")) * ld("D", v("k") * v("r") + v("j2")),
                ),
                Stmt::store("w", v("j2"), Expr::float(0.0)),
            ],
        );
        let fiber = |p: &str, pos: &str, parent: Expr, body: Vec<Stmt>| {
            Stmt::for_(p, ld(pos, parent.clone()), ld(pos, parent + Expr::int(1)), body)
        };
        let l_loop = fiber(
            "pl",
            "B3_pos",
            v("pk"),
            vec![Stmt::DeclInt("l".into(), ld("B3_crd", v("pl"))), accumulate],
        );
        let k_loop = fiber(
            "pk",
            "B2_pos",
            v("pi"),
            vec![Stmt::DeclInt("k".into(), ld("B2_crd", v("pk"))), l_loop, drain],
        );
        let i_loop = fiber(
            "pi",
            "B1_pos",
            Expr::int(0),
            vec![Stmt::DeclInt("i".into(), ld("B1_crd", v("pi"))), k_loop],
        );
        let mut kernel = Kernel::new("mttkrp").scalar_param("r");
        for level in ["B1", "B2", "B3"] {
            kernel = kernel
                .array_param(Param::input(format!("{level}_pos"), ArrayTy::Int))
                .array_param(Param::input(format!("{level}_crd"), ArrayTy::Int));
        }
        kernel
            .array_param(Param::input("B_vals", ArrayTy::F64))
            .array_param(Param::input("C", ArrayTy::F64))
            .array_param(Param::input("D", ArrayTy::F64))
            .array_param(Param::output("A", ArrayTy::F64))
            .body(vec![
                Stmt::Memset { arr: "A".into(), val: Expr::float(0.0) },
                Stmt::Alloc { arr: "w".into(), ty: ArrayTy::F64, len: v("r") },
                i_loop,
            ])
    }

    /// The emitted kernel, without the shared prelude.
    fn tu(kernel: &Kernel) -> String {
        let src = emit_native(&Executable::compile(kernel).unwrap()).unwrap().c_source;
        src.split_once(TACO_KERNEL_H).expect("the TU starts with the prelude").1.to_string()
    }

    #[test]
    fn spgemm_and_merge_addition_have_no_leaf_loop() {
        for kernel in [fig2_spgemm(), merge_add()] {
            let c = tu(&kernel);
            assert_eq!(c.matches(LEAF_FAST_PATH_MARKER).count(), 0, "{c}");
            assert!(!c.contains("_pre"), "{c}");
            // Every loop is the per-element loop: a tick per back-edge,
            // a range check per store.
            let loops = c.matches("for (int64_t _it = _lo;").count() + c.matches("while (").count();
            assert_eq!(c.matches("TACO_TICK(ctx);").count(), loops, "{c}");
        }
    }

    #[test]
    fn workspace_mttkrp_versions_exactly_its_two_dense_loops() {
        let c = tu(&workspace_mttkrp());
        assert_eq!(c.matches(LEAF_FAST_PATH_MARKER).count(), 2, "{c}");
        // The checked copy of each store is still there for when `_pre`
        // fails.
        assert_eq!(c.matches("ctx->fault(ctx, TACO_ERR_OOB").count(), 3, "{c}");
        assert!(c.contains("a10[i7] += (a6[i5] * a7[((i6 * i0) + i7)]);"), "{c}");
        assert!(c.contains("a10[i8] = 0.0;"), "{c}");
    }
}

#[cfg(test)]
mod cc_tests {
    use super::*;
    use crate::{Expr, Kernel, Param, Stmt};

    /// Compiles an emitted TU with the system C compiler when one is
    /// present; prints a visible skip marker otherwise.
    fn syntax_check(name: &str, src: &NativeSource) {
        let cc = std::env::var("CC").unwrap_or_else(|_| "cc".to_string());
        let dir = std::env::temp_dir().join(format!("taco-cgen-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let c_path = dir.join(format!("{name}.c"));
        std::fs::write(&c_path, &src.c_source).unwrap();
        let out = std::process::Command::new(&cc)
            .args(["-std=c11", "-fsyntax-only", "-Wall", "-Werror"])
            .arg(&c_path)
            .output();
        match out {
            Ok(o) if o.status.success() => {}
            Ok(o) => panic!(
                "emitted C for `{name}` failed to parse:\n{}\n--- source ---\n{}",
                String::from_utf8_lossy(&o.stderr),
                src.c_source
            ),
            Err(_) => eprintln!("SKIPPED: no C compiler (`{cc}`) on PATH; syntax check not run"),
        }
    }

    #[test]
    fn a_parallel_kernel_emits_and_parses_with_system_compiler() {
        let v = Expr::var;
        let kernel = Kernel::new("par")
            .scalar_param("n")
            .scalar_param("row_lo")
            .scalar_param("row_hi")
            .array_param(Param::output("out", ArrayTy::F64))
            .body(vec![Stmt::for_(
                "i",
                Expr::int(0).max(v("row_lo")),
                v("n").min(v("row_hi")),
                vec![Stmt::store("out", v("i"), Expr::float(1.0))],
            )])
            .rows(crate::Rows {
                var: "i".into(),
                lo: "row_lo".into(),
                hi: "row_hi".into(),
                extent: "n".into(),
                threads: 0,
                private: Vec::new(),
                append: None,
            });
        let exe = Executable::compile(&kernel).unwrap();
        let Ok(src) = emit_native(&exe);
        assert_eq!(src.plan.rows, kernel.rows);
        assert_eq!(src.plan.scalar_params.len(), 3);
        syntax_check("par", &src);
    }

    #[test]
    fn versioned_leaf_loops_parse_with_system_compiler() {
        let exe = Executable::compile(&super::leaf_tests::workspace_mttkrp()).unwrap();
        syntax_check("leaf", &emit_native(&exe).unwrap());
    }

    #[test]
    fn emitted_c_parses_with_system_compiler() {
        // A kernel exercising every statement family the emitter handles:
        // loops, while, if, stores, memset, alloc/realloc, and a map and a
        // single-precision dense workspace with scatter + drain.
        let kernel = Kernel::new("allstmt")
            .scalar_param("n")
            .array_param(Param::input("x", ArrayTy::F64))
            .array_param(Param::input("xi", ArrayTy::Int))
            .array_param(Param::input("g", ArrayTy::Bool))
            .array_param(Param::input("h", ArrayTy::F32))
            .array_param(Param::output("out", ArrayTy::F64))
            .scalar_output("nnz")
            .body(vec![
                Stmt::DeclInt("nnz".into(), Expr::int(0)),
                Stmt::Alloc {
                    arr: "w".into(),
                    ty: ArrayTy::F64,
                    len: Expr::var("n"),
                },
                Stmt::Memset { arr: "w".into(), val: Expr::float(0.0) },
                Stmt::WsInit {
                    ws: "m".into(),
                    kind: WorkspaceKind::CoordList,
                    ty: ArrayTy::F64,
                    extent: Expr::var("n") + Expr::int(1),
                },
                Stmt::WsInit {
                    ws: "d".into(),
                    kind: WorkspaceKind::Dense,
                    ty: ArrayTy::F32,
                    extent: Expr::var("n"),
                },
                Stmt::for_(
                    "i",
                    Expr::int(0),
                    Expr::var("n"),
                    vec![
                        Stmt::if_(
                            Expr::load("g", Expr::var("i")),
                            vec![
                                Stmt::store(
                                    "w",
                                    Expr::var("i"),
                                    Expr::load("x", Expr::var("i"))
                                        + Expr::load("h", Expr::var("i")),
                                ),
                                Stmt::WsScatter {
                                    ws: "m".into(),
                                    key: Expr::var("i")
                                        % (Expr::var("n") + Expr::int(1)),
                                    val: Expr::load("x", Expr::var("i")),
                                    add: true,
                                },
                                Stmt::WsScatter {
                                    ws: "d".into(),
                                    key: Expr::var("n") - Expr::var("i") - Expr::int(1),
                                    val: Expr::load("h", Expr::var("i")),
                                    add: false,
                                },
                            ],
                        ),
                        Stmt::store_add(
                            "out",
                            Expr::var("i"),
                            Expr::load("w", Expr::var("i")),
                        ),
                    ],
                ),
                Stmt::Realloc { arr: "w".into(), len: Expr::var("n") * Expr::int(2) },
                Stmt::Alloc { arr: "order".into(), ty: ArrayTy::Int, len: Expr::var("n") },
                Stmt::WsDrain {
                    ws: "d".into(),
                    key: "k".into(),
                    val: "v".into(),
                    sorted: true,
                    body: vec![Stmt::store("order", Expr::var("k"), Expr::var("k"))],
                },
                Stmt::WsDrain {
                    ws: "m".into(),
                    key: "k".into(),
                    val: "v".into(),
                    sorted: true,
                    body: vec![
                        Stmt::store_add("out", Expr::var("k"), Expr::var("v")),
                        Stmt::Assign("nnz".into(), Expr::var("nnz") + Expr::int(1)),
                    ],
                },
                Stmt::while_(
                    Expr::var("nnz").gt(Expr::int(100)),
                    vec![Stmt::Assign(
                        "nnz".into(),
                        Expr::var("nnz") - Expr::int(1),
                    )],
                ),
            ]);
        let exe = Executable::compile(&kernel).unwrap();
        let src = emit_native(&exe).unwrap();
        syntax_check("allstmt", &src);
    }
}
