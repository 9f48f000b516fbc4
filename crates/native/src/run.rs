//! The native [`KernelBody`]: one call across the `taco_ctx` table ABI.
//!
//! [`taco_llir::run_body`] hands [`NativeKernel::execute`] a [`Frame`] that
//! already holds the binding's parameter arrays, and the run's
//! [`BudgetMeter`]; this module points the context tables at the frame and
//! calls the entry symbol. The host owns every buffer: the kernel reads and
//! writes frame arrays in place and obtains fresh or grown storage only
//! through the `extern "C"` callbacks below, each of which charges the meter
//! before touching memory. Faults (division by zero, bounds violations,
//! negative lengths) are recorded host-side as the interpreter's typed
//! [`RunError`]s, so the two bodies are observationally identical on both
//! success and failure. Validation, marshalling, snapshot and rollback are
//! not here: they are the protocol's and the [`Supervisor`]'s.
//!
//! [`Supervisor`]: taco_llir::Supervisor

use crate::dl::DynLib;
use std::ffi::c_void;
use std::path::{Path, PathBuf};
use taco_llir::{
    elem_bytes, run_body, AbiPlan, ArrayTy, ArrayVal, Binding, Buf, BudgetMeter, Frame, KernelBody,
    ParamKind, ResourceBudget, Rows, RunControls, RunError, SUPERVISION_STRIDE,
};

// Status and element-type codes; must match taco_kernel.h.
const TACO_OK: i32 = 0;
const TACO_ERR_HOST: i32 = 1;
const TACO_ERR_DIV0: i32 = 2;
const TACO_ERR_OOB: i32 = 3;
const TACO_ERR_MAP_NEG_LEN: i32 = 4;

/// Mirror of `taco_map_state` in taco_kernel.h.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct TacoMapState {
    len: i64,
    charged: i64,
    kind: i32,
    pad_: i32,
}

/// Mirror of `struct taco_ctx` in taco_kernel.h; field order is the ABI.
#[repr(C)]
struct TacoCtx {
    host: *mut c_void,
    arr: *mut *mut c_void,
    arr_size: *mut i64,
    scalars: *const i64,
    scalar_out: *mut i64,
    maps: *mut TacoMapState,
    ticks_left: i64,
    status: i32,
    pad_: i32,
    alloc: unsafe extern "C" fn(*mut TacoCtx, i64, i32, i64) -> i32,
    grow: unsafe extern "C" fn(*mut TacoCtx, i64, i64) -> i32,
    poll: unsafe extern "C" fn(*mut TacoCtx) -> i32,
    map_charge: unsafe extern "C" fn(*mut TacoCtx, i64, i64, i64) -> i32,
    fault: unsafe extern "C" fn(*mut TacoCtx, i32, i64, i64, i64),
}

type EntryFn = unsafe extern "C" fn(*mut TacoCtx) -> i32;

/// The controls of a native run are the protocol's [`RunControls`]; the name
/// the native backend's callers know them by.
pub type NativeRunOptions<'a> = RunControls<'a>;

/// A loaded, callable native kernel: the dlopen'd shared object, its
/// resolved entry point, and the [`AbiPlan`] describing how bindings map
/// onto the context tables.
#[derive(Debug)]
pub struct NativeKernel {
    // Field order matters: `entry` points into `lib`'s mapped pages, and
    // the library must stay open for as long as the pointer can be called.
    entry: EntryFn,
    #[allow(dead_code)] // keep-alive: dropping it would unmap `entry`
    lib: DynLib,
    plan: AbiPlan,
    so_path: PathBuf,
    /// Nanoseconds the C compiler took to build the shared object; `0`
    /// when the content-addressed cache already held the artifact.
    pub compile_nanos: u64,
}

// `entry` is a pure function of the context it is passed and `DynLib` is
// Send + Sync, so a kernel can be shared across engine threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<NativeKernel>();
};

impl NativeKernel {
    pub(crate) fn new(
        lib: DynLib,
        entry: *mut c_void,
        plan: AbiPlan,
        so_path: PathBuf,
        compile_nanos: u64,
    ) -> NativeKernel {
        // SAFETY: `entry` was resolved from ENTRY_SYMBOL in a shared object
        // whose exported ABI version matched ours, so it has the EntryFn
        // signature by the ABI contract.
        let entry: EntryFn = unsafe { std::mem::transmute(entry) };
        NativeKernel { entry, lib, plan, so_path, compile_nanos }
    }

    /// The kernel name from the originating [`taco_llir::Executable`].
    pub fn name(&self) -> &str {
        &self.plan.name
    }

    /// Where the shared object lives in the on-disk cache.
    pub fn so_path(&self) -> &Path {
        &self.so_path
    }

    /// Runs the kernel against `binding`: [`run_body`] with this kernel as
    /// the body, exactly as
    /// [`Executable::run_with_budget`](taco_llir::Executable::run_with_budget)
    /// is with the interpreter, plus the supervision hooks in `opts`. Like
    /// it, a failed run leaves the partial state in `binding`; run under a
    /// [`Supervisor`](taco_llir::Supervisor) for rollback and counters.
    ///
    /// # Errors
    ///
    /// The same typed [`RunError`]s the interpreter produces, with
    /// identical payloads: binding errors before anything runs, then
    /// faults, budget trips, cancellation, or deadline expiry during the
    /// run.
    pub fn run(
        &self,
        binding: &mut Binding,
        budget: &ResourceBudget,
        opts: NativeRunOptions<'_>,
    ) -> Result<(), RunError> {
        run_body(self, binding, budget, opts).1
    }
}

impl KernelBody for NativeKernel {
    fn scalar_params(&self) -> &[(String, usize)] {
        &self.plan.scalar_params
    }

    fn scalar_outputs(&self) -> &[(String, usize)] {
        &self.plan.scalar_outputs
    }

    fn rows(&self) -> Option<&Rows> {
        self.plan.rows.as_ref()
    }

    fn array_params(&self) -> impl Iterator<Item = (&str, usize, ArrayTy, ParamKind)> {
        let slots = self.plan.arrays.iter().enumerate();
        slots.filter_map(|(slot, a)| a.kind.map(|kind| (a.name.as_str(), slot, a.ty, kind)))
    }

    fn slot_types(&self) -> impl Iterator<Item = ArrayTy> {
        self.plan.arrays.iter().map(|a| a.ty)
    }

    fn execute(
        &self,
        frame: &mut Frame,
        meter: &mut BudgetMeter,
        controls: &RunControls<'_>,
    ) -> Result<(), RunError> {
        let plan = &self.plan;
        // The kernel trusts the tables it is handed, so a frame of any other
        // shape than this kernel's plan must not reach it, and a shared
        // (read-only) buffer may sit only in an input's slot, which the
        // kernel never writes. `run_body` builds the frame from `slot_types`
        // and validates the parameters; this is the check the `unsafe` call
        // below rests on.
        let fits = frame.scalars.len() == plan.scalar_params.len()
            && frame.scalar_outputs.len() == plan.scalar_outputs.len()
            && frame.arrays.len() == plan.arrays.len()
            && frame.arrays.iter().zip(&plan.arrays).all(|(v, a)| {
                v.ty() == a.ty && (!v.is_shared() || a.kind == Some(ParamKind::Input))
            });
        if !fits {
            return Err(RunError::Backend(format!(
                "frame does not have the shape of native kernel `{}`",
                plan.name
            )));
        }
        let grant = meter.grant_iterations(u64::from(SUPERVISION_STRIDE));
        let arrays = &mut frame.arrays;
        let mut host = Host { plan, arrays, meter, error: None, grant, controls };

        let mut ptrs: Vec<*mut c_void> = Vec::with_capacity(plan.arrays.len());
        let mut sizes: Vec<i64> = Vec::with_capacity(plan.arrays.len());
        for v in host.arrays.iter_mut() {
            let (p, n) = raw_parts(v);
            ptrs.push(p);
            sizes.push(n);
        }
        let mut maps = vec![TacoMapState::default(); plan.maps.len()];

        let mut ctx = TacoCtx {
            host: (&mut host as *mut Host<'_>).cast(),
            arr: ptrs.as_mut_ptr(),
            arr_size: sizes.as_mut_ptr(),
            scalars: frame.scalars.as_ptr(),
            scalar_out: frame.scalar_outputs.as_mut_ptr(),
            maps: maps.as_mut_ptr(),
            ticks_left: grant as i64 - 1,
            status: TACO_OK,
            pad_: 0,
            alloc: alloc_cb,
            grow: grow_cb,
            poll: poll_cb,
            map_charge: map_charge_cb,
            fault: fault_cb,
        };

        // SAFETY: the context tables point at live host buffers for the
        // whole call, with the lengths and element types the plan promises
        // (`fits`, above); the entry function honours the ABI (checked at
        // load) and only touches memory through those tables and the
        // callbacks. It reads shared buffers and never writes them: they
        // are inputs (`fits`), and the `Executable` the C was emitted from
        // has no statement that writes an input.
        let rc = unsafe { (self.entry)(&mut ctx) };

        // Charge the back-edges of the final, partially-used grant. The
        // residual never exceeds what the fuse has left (the grant was
        // clamped to it), so this cannot fail on a healthy run.
        if ctx.ticks_left >= 0 {
            let residual = (host.grant - 1).saturating_sub(ctx.ticks_left as u64);
            if let Err(e) = host.meter.consume_iterations(residual) {
                host.record(e);
            }
        }

        match (host.error, rc) {
            (Some(e), _) => Err(e),
            (None, TACO_OK) => Ok(()),
            (None, TACO_ERR_DIV0) => Err(RunError::DivisionByZero),
            (None, rc) => Err(RunError::Backend(format!("native kernel exited with status {rc}"))),
        }
    }
}

/// Host-side state the callbacks operate on, reached through `ctx->host`.
struct Host<'a> {
    plan: &'a AbiPlan,
    arrays: &'a mut Vec<ArrayVal>,
    meter: &'a mut BudgetMeter,
    /// First error recorded; sticky, later faults are ignored.
    error: Option<RunError>,
    /// Iterations granted in the current supervision batch.
    grant: u64,
    controls: &'a RunControls<'a>,
}

impl Host<'_> {
    fn record(&mut self, e: RunError) {
        self.error.get_or_insert(e);
    }
}

/// Where a buffer's elements start and how many there are, for the context
/// tables. A shared buffer is read in place: its pointer is `*mut` only
/// because the table's type is.
fn raw_parts(v: &mut ArrayVal) -> (*mut c_void, i64) {
    fn parts<T>(b: &mut Buf<T>) -> (*mut c_void, i64) {
        let len = b.len() as i64;
        let ptr = match b {
            Buf::Owned(a) => a.as_mut_ptr(),
            Buf::Shared(a) => a.as_ptr().cast_mut(),
        };
        (ptr.cast(), len)
    }
    match v {
        ArrayVal::Int(a) => parts(a),
        ArrayVal::F64(a) => parts(a),
        ArrayVal::F32(a) => parts(a),
        ArrayVal::Bool(a) => parts(a),
    }
}

unsafe fn host_of<'a>(ctx: *mut TacoCtx) -> &'a mut Host<'a> {
    &mut *(*ctx).host.cast::<Host<'a>>()
}

/// Records a host-side error and tells the kernel to abort.
unsafe fn fail(ctx: *mut TacoCtx, e: RunError) -> i32 {
    host_of(ctx).record(e);
    if (*ctx).status == TACO_OK {
        (*ctx).status = TACO_ERR_HOST;
    }
    0
}

unsafe fn refresh_tables(ctx: *mut TacoCtx, slot: usize) {
    let host = host_of(ctx);
    let (p, n) = raw_parts(&mut host.arrays[slot]);
    *(*ctx).arr.add(slot) = p;
    *(*ctx).arr_size.add(slot) = n;
}

/// `ctx->alloc`: fresh zeroed storage for an array slot (`Alloc`).
unsafe extern "C" fn alloc_cb(ctx: *mut TacoCtx, slot: i64, ty: i32, len: i64) -> i32 {
    let host = host_of(ctx);
    let slot = slot as usize;
    let name = &host.plan.arrays[slot].name;
    if len < 0 {
        return fail(ctx, RunError::NegativeLength { name: name.clone(), len });
    }
    let ty = match ty {
        0 => ArrayTy::Int,
        1 => ArrayTy::F64,
        2 => ArrayTy::F32,
        _ => ArrayTy::Bool,
    };
    if !host.plan.arrays[slot].map_backing {
        let name = name.clone();
        if let Err(e) = host.meter.charge_array_bytes(&name, len as u64 * elem_bytes(ty)) {
            return fail(ctx, e);
        }
    }
    host.arrays[slot] = ArrayVal::zeroed(ty, len as usize);
    refresh_tables(ctx, slot);
    1
}

/// `ctx->grow`: zero-filled growth of an array slot (`Realloc` and the
/// physical backing of map workspaces). Shrinking is a no-op, and map
/// backing charges nothing here — its budget model is `map_charge`.
unsafe extern "C" fn grow_cb(ctx: *mut TacoCtx, slot: i64, len: i64) -> i32 {
    let host = host_of(ctx);
    let slot = slot as usize;
    let name = host.plan.arrays[slot].name.clone();
    if len < 0 {
        return fail(ctx, RunError::NegativeLength { name, len });
    }
    let len = len as usize;
    let old = host.arrays[slot].len();
    if len <= old {
        return 1;
    }
    if !host.plan.arrays[slot].map_backing {
        let ty = host.arrays[slot].ty();
        if let Err(e) = host.meter.charge_array_bytes(&name, (len - old) as u64 * elem_bytes(ty)) {
            return fail(ctx, e);
        }
        if let Err(e) = host.meter.charge_realloc_doubling(slot, &name) {
            return fail(ctx, e);
        }
    }
    if let Err(e) = host.arrays[slot].grow_zeroed(len, &name) {
        return fail(ctx, e);
    }
    refresh_tables(ctx, slot);
    1
}

/// `ctx->poll`: the batched supervision check. Charges the grant that
/// just elapsed against the iteration fuse (tripping on exactly the same
/// iteration count as the interpreter's one-at-a-time accounting), then
/// runs the protocol's [`RunControls::check`], then issues the next grant.
unsafe extern "C" fn poll_cb(ctx: *mut TacoCtx) -> i32 {
    let host = host_of(ctx);
    let checked = host.meter.consume_iterations(host.grant);
    if let Err(e) = checked.and_then(|()| host.controls.check(host.meter)) {
        host.record(e);
        return 1;
    }
    host.grant = host.meter.grant_iterations(u64::from(SUPERVISION_STRIDE));
    (*ctx).ticks_left = host.grant as i64 - 1;
    0
}

/// `ctx->map_charge`: budget accounting for map-workspace capacity.
unsafe extern "C" fn map_charge_cb(
    ctx: *mut TacoCtx,
    map_slot: i64,
    footprint: i64,
    delta: i64,
) -> i32 {
    let host = host_of(ctx);
    let name = host.plan.maps[map_slot as usize].name.clone();
    match host.meter.charge_map_bytes(&name, footprint as u64, delta as u64) {
        Ok(()) => 1,
        Err(e) => fail(ctx, e),
    }
}

/// `ctx->fault`: a typed kernel-side fault (the kernel aborts right
/// after). Payloads match the interpreter's errors field-for-field.
unsafe extern "C" fn fault_cb(ctx: *mut TacoCtx, code: i32, slot: i64, a: i64, b: i64) {
    let host = host_of(ctx);
    let e = match code {
        TACO_ERR_DIV0 => RunError::DivisionByZero,
        TACO_ERR_OOB => RunError::OutOfBounds {
            name: host.plan.arrays[slot as usize].name.clone(),
            idx: a,
            len: b as usize,
        },
        TACO_ERR_MAP_NEG_LEN => RunError::NegativeLength {
            name: host.plan.maps[slot as usize].name.clone(),
            len: a,
        },
        other => RunError::Backend(format!("unknown native fault code {other}")),
    };
    host.record(e);
    if (*ctx).status == TACO_OK {
        (*ctx).status = code;
    }
}
