//! Allocation regression, without a clock: extracting a sparse result and
//! converting between formats must make the same number of allocator calls
//! at ~1k and at ~32k nonzeros, and binding operands a second time must make
//! the same calls for the same bytes. A coordinate tuple, sort key, operand
//! copy or any other heap object per nonzero makes the two counts differ on
//! any machine, loaded or not — which a timing assertion could never
//! promise.
//!
//! This binary installs a counting `#[global_allocator]`, so it holds only
//! these tests. Counts are per thread: the harness runs tests on parallel
//! threads, and another test's allocations must not leak into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use taco_workspaces::prelude::*;
use taco_workspaces::tensor::gen;

struct CountingAlloc;

thread_local! {
    /// Allocator calls made by this thread, and the bytes they asked for.
    /// Const-initialised and without a destructor, so touching them from
    /// inside the allocator allocates nothing.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_call(bytes: usize) {
    // `try_with`: the slots may already be gone while a thread tears down.
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
    let _ = BYTES.try_with(|total| total.set(total.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is thread-local plain data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the number of allocator calls
/// (`alloc`, `alloc_zeroed`, `realloc`) this thread made meanwhile.
fn allocator_calls<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

/// The allocator calls `f` made on this thread, and the bytes they asked for.
fn allocations(f: impl FnOnce()) -> (u64, u64) {
    let before = (CALLS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (CALLS.with(Cell::get) - before.0, BYTES.with(Cell::get) - before.1)
}

/// Runs the paper's Figure 2 SpGEMM (`reorder(k,j)` + dense row workspace,
/// fused assembly) on `n x n` CSR operands with `per_row` nonzeros per row
/// and returns the extracted result with `extract`'s allocator calls.
fn spgemm_extract(n: usize, per_row: usize) -> (Tensor, u64) {
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j, k) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"));
    let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
    let mut stmt = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(k.clone(), mul.clone()),
    ))
    .unwrap();
    stmt.reorder(&k, &j).unwrap();
    let w = TensorVar::new("w", vec![n], Format::dvec());
    stmt.precompute(&mul, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
    let kernel = stmt.compile(LowerOptions::fused("spgemm")).unwrap();

    let density = per_row as f64 / n as f64;
    let bt = gen::random_csr(n, n, density, 3).to_tensor();
    let ct = gen::random_csr(n, n, density, 4).to_tensor();
    let mut binding = kernel.bind(&[("B", &bt), ("C", &ct)], None).unwrap();
    kernel.run_bound(&mut binding).unwrap();
    let (result, calls) = allocator_calls(|| kernel.extract(&binding, None));
    (result.unwrap(), calls)
}

#[test]
fn extract_and_convert_allocate_independently_of_nnz() {
    let (small, small_extract) = spgemm_extract(64, 4);
    let (large, large_extract) = spgemm_extract(512, 8);
    assert!(
        (600..2_000).contains(&small.nnz()) && large.nnz() > 20_000,
        "sizes drifted: {} and {} result nonzeros",
        small.nnz(),
        large.nnz()
    );

    assert_eq!(
        small_extract,
        large_extract,
        "CompiledKernel::extract made {small_extract} allocator calls for {} nonzeros \
         but {large_extract} for {}: something allocates per nonzero",
        small.nnz(),
        large.nnz()
    );
    assert!(small_extract <= 16, "extract made {small_extract} allocator calls, budget is 16");

    let round_trip = |t: &Tensor| {
        let (back, calls) = allocator_calls(|| {
            t.convert(Format::dcsr()).unwrap().convert(Format::csr()).unwrap()
        });
        assert_eq!(&back, t, "csr -> dcsr -> csr must be the identity");
        calls
    };
    let (small_convert, large_convert) = (round_trip(&small), round_trip(&large));
    assert_eq!(
        small_convert,
        large_convert,
        "Tensor::convert csr -> dcsr -> csr made {small_convert} allocator calls for {} \
         nonzeros but {large_convert} for {}: something allocates per nonzero",
        small.nnz(),
        large.nnz()
    );
}

/// What `kernel.bind(operands)` asks of the allocator the second time the
/// same operands are bound (the first bind validates them and makes their
/// bindable arrays, once per tensor).
fn second_bind(kernel: &CompiledKernel, operands: &[(&str, &Tensor)]) -> (u64, u64) {
    kernel.bind(operands, None).unwrap();
    allocations(|| drop(kernel.bind(operands, None).unwrap()))
}

/// Operands are bound by reference: a second bind of the same tensors
/// shares their arrays, so it asks the allocator for the same calls and the
/// same bytes at ~1k and at ~32k nonzeros — CSR SpGEMM operands and CSF
/// MTTKRP operands, each at one shape.
#[test]
fn a_second_bind_allocates_independently_of_nnz() {
    let n = 256;
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let b = TensorVar::new("B", vec![n, n], Format::csr());
    let c = TensorVar::new("C", vec![n, n], Format::csr());
    let (i, j, k) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"));
    let mul = b.access([i.clone(), k.clone()]) * c.access([k.clone(), j.clone()]);
    let mut spgemm = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(k.clone(), mul.clone()),
    ))
    .unwrap();
    spgemm.reorder(&k, &j).unwrap();
    let w = TensorVar::new("w", vec![n], Format::dvec());
    spgemm.precompute(&mul, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
    let spgemm = spgemm.compile(LowerOptions::fused("spgemm")).unwrap();
    let csr_bind = |per_row: usize| {
        let density = per_row as f64 / n as f64;
        let bt = gen::random_csr(n, n, density, 3).to_tensor();
        let ct = gen::random_csr(n, n, density, 4).to_tensor();
        (bt.nnz(), second_bind(&spgemm, &[("B", &bt), ("C", &ct)]))
    };
    let ((small_nnz, small), (large_nnz, large)) = (csr_bind(4), csr_bind(128));
    assert!(
        (600..2_000).contains(&small_nnz) && large_nnz > 20_000,
        "sizes drifted: {small_nnz} and {large_nnz} nonzeros"
    );
    assert_eq!(small, large, "second CSR bind: (calls, bytes) at {small_nnz} vs {large_nnz} nonzeros");

    let (dim, rank) = (64, 8);
    let mttkrp = workspace_mttkrp(dim, rank);
    let factor = |seed| Tensor::from_dense(&gen::random_dense(dim, rank, seed), Format::dense(2)).unwrap();
    let (ct, dt) = (factor(5), factor(6));
    let csf_bind = |nnz: usize, seed| {
        let bt = gen::random_csf3([dim; 3], nnz, seed).to_tensor();
        second_bind(&mttkrp, &[("B", &bt), ("C", &ct), ("D", &dt)])
    };
    let (small, large) = (csf_bind(1_000, 7), csf_bind(32_000, 8));
    assert_eq!(small, large, "second CSF bind: (calls, bytes) at 1000 vs 32000 nonzeros");
}

/// The paper's Section VII MTTKRP, `A(i,j) = B(i,k,l) C(l,j) D(k,j)` with
/// `B` CSF and `B*C` precomputed into a rank-long dense workspace, compute
/// only, over `dim`-cubed `B` and `rank` columns.
fn workspace_mttkrp(dim: usize, rank: usize) -> CompiledKernel {
    let (i, j, k, l) = (IndexVar::new("i"), IndexVar::new("j"), IndexVar::new("k"), IndexVar::new("l"));
    let a = TensorVar::new("A", vec![dim, rank], Format::dense(2));
    let b = TensorVar::new("B", vec![dim, dim, dim], Format::csf3());
    let c = TensorVar::new("C", vec![dim, rank], Format::dense(2));
    let d = TensorVar::new("D", vec![dim, rank], Format::dense(2));
    let bc = b.access([i.clone(), k.clone(), l.clone()]) * c.access([l.clone(), j.clone()]);
    let mut mttkrp = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        sum(k.clone(), sum(l.clone(), bc.clone() * d.access([k.clone(), j.clone()]))),
    ))
    .unwrap();
    mttkrp.reorder(&j, &k).unwrap();
    mttkrp.reorder(&j, &l).unwrap();
    let w = TensorVar::new("w", vec![rank], Format::dvec());
    mttkrp.precompute(&bc, &[(j.clone(), j.clone(), j.clone())], &w).unwrap();
    mttkrp.compile(LowerOptions::compute("mttkrp")).unwrap()
}

/// A warm interpreted MTTKRP run asks the allocator for what it asked
/// before its two strips ran as lane programs — 5 calls, 720 bytes: the
/// interpreter's slot vectors and the workspace — and for no register
/// file. Both strips run 16 lanes here, so a register file on the heap
/// would show in the bytes.
#[test]
fn a_warm_interpreted_mttkrp_run_allocates_no_register_file() {
    let (dim, rank) = (64, 16);
    let kernel = workspace_mttkrp(dim, rank);
    let factor = |seed| Tensor::from_dense(&gen::random_dense(dim, rank, seed), Format::dense(2)).unwrap();
    let (bt, ct, dt) = (gen::random_csf3([dim; 3], 4_000, 9).to_tensor(), factor(10), factor(11));
    let mut binding = kernel.bind(&[("B", &bt), ("C", &ct), ("D", &dt)], None).unwrap();
    kernel.run_bound(&mut binding).unwrap();
    let warm = allocations(|| kernel.run_bound(&mut binding).unwrap());
    assert_eq!(warm, (5, 720), "a warm run_bound: (allocator calls, bytes)");
}

/// The paper's Figure 13 three-way addition `A = B + C + D` of `n x n` CSR
/// matrices: merge co-iteration, no workspace, fused assembly.
fn three_way_addition(n: usize) -> CompiledKernel {
    let (i, j) = (IndexVar::new("i"), IndexVar::new("j"));
    let term = |name: &str| -> IndexExpr {
        TensorVar::new(name, vec![n, n], Format::csr()).access([i.clone(), j.clone()]).into()
    };
    let a = TensorVar::new("A", vec![n, n], Format::csr());
    let stmt = IndexStmt::new(IndexAssignment::assign(
        a.access([i.clone(), j.clone()]),
        term("B") + term("C") + term("D"),
    ))
    .unwrap();
    stmt.compile(LowerOptions::fused("add3")).unwrap()
}

/// A warm interpreted run of the three-way addition asks the allocator for
/// what it asked before the merge loops' compares, loads and sums became
/// one-node operand forms — 5 calls, 715 bytes: the run's frame and the
/// interpreter's slot vectors. The forms are made once, at compile time,
/// and evaluating one allocates nothing.
#[test]
fn a_warm_interpreted_three_way_addition_allocates_what_it_did() {
    let n = 256;
    let kernel = three_way_addition(n);
    let operand = |seed| gen::random_csr(n, n, 6.0 / n as f64, seed).to_tensor();
    let (bt, ct, dt) = (operand(21), operand(22), operand(23));
    let mut binding = kernel.bind(&[("B", &bt), ("C", &ct), ("D", &dt)], None).unwrap();
    kernel.run_bound(&mut binding).unwrap();
    let warm = allocations(|| kernel.run_bound(&mut binding).unwrap());
    assert_eq!(warm, (5, 715), "a warm run_bound: (allocator calls, bytes)");
}

/// Verifying and costing the paper's Figure 13 three-way CSR addition
/// (`A = B + C + D`, merge co-iteration, no workspace) is arithmetic on
/// small polynomials. The symbolic engine keeps a polynomial in one flat
/// buffer, so a sum or product allocates that buffer and nothing per term or
/// atom name. An engine that kept each polynomial in a
/// `BTreeMap<Vec<Atom>, i64>` over `String` names made 16 921 allocator
/// calls here (10 567 verifying, 6 354 costing); this one must make at most
/// a quarter of that. An [`Analysis`](taco_workspaces::verify::Analysis)
/// derives the assumptions both walks share once, so costing and then
/// verifying through it makes at least 100 calls fewer than the two entry
/// points that derive them each, and costing alone runs no verifier.
#[test]
fn verifying_and_costing_the_three_way_addition_allocates_a_quarter_of_a_map_engine() {
    let kernel = three_way_addition(128);
    let lowered = kernel.lowered();
    let (report, verify) = allocator_calls(|| taco_workspaces::verify::verify_lowered(lowered));
    let (_, cost) = allocator_calls(|| taco_workspaces::verify::analyze_cost(lowered));
    assert!(report.accepted(), "{report}");
    assert!(
        verify + cost <= 16_921 / 4,
        "verify_lowered made {verify} allocator calls and analyze_cost {cost}: more than a \
         quarter of the 16 921 a map-per-polynomial engine made"
    );

    let owned = lowered.clone();
    let (analysis, costing) = allocator_calls(|| taco_workspaces::verify::Analysis::new(owned));
    let (again, verifying) = allocator_calls(|| analysis.verify());
    assert_eq!(again, report);
    assert!(
        costing <= cost,
        "Analysis::new made {costing} allocator calls, analyze_cost {cost}: costing verified"
    );
    assert!(
        costing + verifying + 100 <= verify + cost,
        "one analysis made {costing} + {verifying} allocator calls, the two entry points \
         {cost} + {verify}: fewer than 100 saved"
    );
}
