//! The thread-safe compiled-kernel cache.
//!
//! Keys are canonical kernel fingerprints
//! ([`CompiledKernel::fingerprint`]); values are [`CachedKernel`] records,
//! the engine's one record per kernel: the compiled kernel and its native
//! form's trust state. One lock guards the entries and the counters; the
//! entries are evicted in exact least-recently-used order against a byte and
//! an entry budget. The lock is held for map operations only, never across
//! a compile, a C compiler run or a kernel run.
//!
//! **Single-flight:** when N threads request the same uncached kernel, one
//! of them (the *leader*) runs the compile pipeline while the others wait on
//! a per-key flight slot; exactly one compile happens and every thread gets
//! the same record. A failed or panicking compile is broadcast to the
//! waiters too, and the flight slot is removed so a later request retries.

use crate::native::NativeState;
use crate::{EngineError, Result};
use std::collections::HashMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;
use taco_core::CompiledKernel;
use taco_llir::visit_stmts;

/// Fixed per-entry overhead charged on top of the generated-code size:
/// binding metadata, fingerprint, budget, and map bookkeeping.
const ENTRY_OVERHEAD_BYTES: u64 = 512;

/// What one LLIR statement is charged: its average in the display-dialect C
/// listing whose length the weight used to be, so a budget keeps its meaning.
const BYTES_PER_LLIR_STMT: u64 = 72;

/// The byte weight the cache charges for one compiled kernel: its LLIR
/// statements, nested bodies included, at a fixed rate (a walk that renders
/// and allocates nothing) plus a fixed metadata overhead.
pub fn entry_weight(kernel: &CompiledKernel) -> u64 {
    let mut stmts = 0;
    visit_stmts(&kernel.lowered().kernel.body, &mut |_| stmts += 1);
    stmts * BYTES_PER_LLIR_STMT + ENTRY_OVERHEAD_BYTES
}

/// A point-in-time snapshot of cache activity counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found no entry (leaders *and* single-flight waiters:
    /// the key was absent when they asked).
    pub misses: u64,
    /// Compile pipelines actually executed. With single-flight this can be
    /// far below `misses` under contention.
    pub compiles: u64,
    /// Misses that coalesced onto another thread's in-flight compile.
    pub coalesced: u64,
    /// Entries evicted to stay within the byte/entry budgets.
    pub evictions: u64,
    /// Total nanoseconds of compilation skipped by cache hits — each hit
    /// credits the measured compile time of the entry it reused.
    pub compile_nanos_saved: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Charged bytes currently resident (see [`entry_weight`]).
    pub bytes: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero when there were no lookups.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.0}% hit rate), {} compiles, {} evictions, \
             {:.3} ms compile time saved, {} entries / {} bytes resident",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.compiles,
            self.evictions,
            self.compile_nanos_saved as f64 / 1e6,
            self.entries,
            self.bytes
        )
    }
}

/// One resident kernel, the engine's whole record of it: the compiled
/// kernel and its native form's trust state. The cache entry owns it, so
/// an eviction drops the native form with the kernel; a request that
/// already holds the record keeps both alive until it is done.
#[derive(Debug)]
pub struct CachedKernel {
    kernel: Arc<CompiledKernel>,
    /// Per-record lock: held across the native build, never across a run.
    pub(crate) native: Mutex<NativeState>,
}

impl CachedKernel {
    fn new(kernel: Arc<CompiledKernel>) -> CachedKernel {
        CachedKernel { kernel, native: Mutex::new(NativeState::Untried) }
    }

    /// The compiled kernel.
    pub fn kernel(&self) -> &Arc<CompiledKernel> {
        &self.kernel
    }
}

struct Entry {
    record: Arc<CachedKernel>,
    bytes: u64,
    compile_nanos: u64,
    last_used: u64,
}

/// What a flight broadcasts. Compile errors travel as strings because
/// `CoreError` is not `Clone`able across waiters in general (and the
/// waiters did not run the pipeline).
type Shared = std::result::Result<Arc<CachedKernel>, String>;

/// One thread compiles; the rest block here until the result is broadcast.
#[derive(Default)]
struct Flight {
    slot: Mutex<Option<Shared>>,
    ready: Condvar,
}

impl Flight {
    fn wait(&self) -> Shared {
        let slot = self.ready.wait_while(lock(&self.slot), |slot| slot.is_none());
        slot.expect("flight condvar").clone().expect("published")
    }

    fn publish(&self, result: Shared) {
        *lock(&self.slot) = Some(result);
        self.ready.notify_all();
    }
}

#[derive(Default)]
struct Store {
    entries: HashMap<u64, Entry>,
    inflight: HashMap<u64, Arc<Flight>>,
    /// The LRU clock, advanced by every lookup and insert.
    clock: u64,
    /// The counters and the charged bytes resident; `entries` stays zero
    /// here, as [`KernelCache::stats`] reads it off the map.
    counts: CacheStats,
}

impl Store {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// Sizing of the cache an [`Engine`](crate::Engine) owns: total charged
/// bytes ([`entry_weight`]) and resident kernels.
pub(crate) const ENGINE_CACHE_MAX_BYTES: u64 = 64 << 20;
pub(crate) const ENGINE_CACHE_MAX_ENTRIES: usize = 1024;

/// LRU cache of compiled kernels with single-flight compilation.
pub struct KernelCache {
    store: Mutex<Store>,
    max_bytes: u64,
    max_entries: usize,
}

/// A mutex poisoned by a panic elsewhere would otherwise take the engine
/// down; every update under the cache's, a record's and the native
/// counters' locks leaves their data valid at each step, so recover the
/// guard.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl KernelCache {
    /// Creates a cache with the given budgets (clamped to at least one
    /// entry and one byte).
    pub fn new(max_bytes: u64, max_entries: usize) -> KernelCache {
        KernelCache {
            store: Mutex::new(Store::default()),
            max_bytes: max_bytes.max(1),
            max_entries: max_entries.max(1),
        }
    }

    /// Looks up `key`, or compiles it with `compile` under single-flight.
    /// A compile that panics is broadcast to the waiters as a failure, its
    /// flight slot removed, and the panic resumed in the leader.
    ///
    /// # Errors
    ///
    /// Propagates the compile error ([`EngineError::Core`] from the leader,
    /// [`EngineError::SharedCompileFailed`] for waiters that coalesced onto
    /// the failed flight).
    pub fn get_or_compile(
        &self,
        key: u64,
        compile: impl FnOnce() -> taco_core::Result<CompiledKernel>,
    ) -> Result<Arc<CachedKernel>> {
        // Fast path / flight discovery under the lock.
        let flight = {
            let mut store = lock(&self.store);
            let now = store.tick();
            if let Some(entry) = store.entries.get_mut(&key) {
                entry.last_used = now;
                let (record, saved) = (Arc::clone(&entry.record), entry.compile_nanos);
                store.counts.hits += 1;
                store.counts.compile_nanos_saved += saved;
                return Ok(record);
            }
            store.counts.misses += 1;
            match store.inflight.get(&key) {
                Some(flight) => {
                    let flight = Arc::clone(flight);
                    store.counts.coalesced += 1;
                    Some(flight)
                }
                None => {
                    store.inflight.insert(key, Arc::default());
                    None
                }
            }
        };

        if let Some(flight) = flight {
            // Another thread is compiling this key: wait for its broadcast.
            return flight.wait().map_err(|message| EngineError::SharedCompileFailed { message });
        }

        // This thread is the leader: compile outside any lock.
        let started = Instant::now();
        let compiled = panic::catch_unwind(AssertUnwindSafe(compile));
        let compile_nanos = started.elapsed().as_nanos() as u64;

        let mut store = lock(&self.store);
        store.counts.compiles += 1;
        let flight = store.inflight.remove(&key).expect("leader owns the flight slot");
        let (result, shared) = match compiled {
            Ok(Ok(kernel)) => {
                let record = Arc::new(CachedKernel::new(Arc::new(kernel)));
                self.insert_locked(&mut store, key, Arc::clone(&record), compile_nanos);
                (Ok(Arc::clone(&record)), Ok(record))
            }
            Ok(Err(e)) => {
                let message = e.to_string();
                (Err(EngineError::Core(e)), Err(message))
            }
            Err(payload) => {
                drop(store);
                flight.publish(Err("the compile panicked".to_string()));
                panic::resume_unwind(payload)
            }
        };
        drop(store);
        flight.publish(shared);
        result
    }

    /// Inserts an already-compiled kernel (used by tests and warm-up paths).
    pub fn insert(&self, key: u64, kernel: Arc<CompiledKernel>, compile_nanos: u64) {
        let record = Arc::new(CachedKernel::new(kernel));
        self.insert_locked(&mut lock(&self.store), key, record, compile_nanos);
    }

    fn insert_locked(
        &self,
        store: &mut Store,
        key: u64,
        record: Arc<CachedKernel>,
        compile_nanos: u64,
    ) {
        let bytes = entry_weight(&record.kernel);
        let last_used = store.tick();
        if let Some(old) = store
            .entries
            .insert(key, Entry { record, bytes, compile_nanos, last_used })
        {
            store.counts.bytes -= old.bytes;
        }
        store.counts.bytes += bytes;

        // Evict least-recently-used entries until back under budget. The
        // just-inserted key goes last: if it alone exceeds the budget
        // it is dropped too (the caller still holds its Arc), leaving the
        // cache empty rather than wedged over budget.
        while store.counts.bytes > self.max_bytes || store.entries.len() > self.max_entries {
            let victim = store
                .entries
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .or_else(|| store.entries.keys().next().copied());
            let Some(evicted) = victim.and_then(|v| store.entries.remove(&v)) else { break };
            store.counts.bytes -= evicted.bytes;
            store.counts.evictions += 1;
        }
    }

    /// True if `key` is resident (does not touch LRU order or counters).
    pub fn contains(&self, key: u64) -> bool {
        lock(&self.store).entries.contains_key(&key)
    }

    /// Snapshots the activity counters.
    pub fn stats(&self) -> CacheStats {
        let store = lock(&self.store);
        CacheStats { entries: store.entries.len() as u64, ..store.counts }
    }
}

impl std::fmt::Debug for KernelCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelCache")
            .field("max_bytes", &self.max_bytes)
            .field("max_entries", &self.max_entries)
            .field("stats", &self.stats())
            .finish()
    }
}
