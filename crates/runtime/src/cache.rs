//! The sharded, thread-safe compiled-kernel cache.
//!
//! Keys are canonical kernel fingerprints
//! ([`CompiledKernel::fingerprint`]); values are `Arc`-shared compiled
//! kernels. The cache is split into shards selected by key, so concurrent
//! lookups of different kernels never contend on one lock, and each shard
//! evicts least-recently-used entries against per-shard byte and entry
//! budgets.
//!
//! **Single-flight:** when N threads request the same uncached kernel, one
//! of them (the *leader*) runs the compile pipeline while the others wait on
//! a per-key flight slot; exactly one compile happens and every thread gets
//! the same `Arc`. A failed compile is broadcast to the waiters too, and the
//! flight slot is removed so a later request retries.

use crate::{EngineError, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use taco_core::CompiledKernel;
use taco_llir::visit_stmts;
use std::time::Instant;

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

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    compiles: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
    compile_nanos_saved: AtomicU64,
    entries: AtomicU64,
    bytes: AtomicU64,
}

struct Entry {
    kernel: Arc<CompiledKernel>,
    bytes: u64,
    compile_nanos: u64,
    last_used: u64,
}

/// One thread compiles; the rest block here until the result is broadcast.
/// Compile errors travel as strings because `CoreError` is not `Clone`able
/// across waiters in general (and the waiters did not run the pipeline).
struct Flight {
    slot: Mutex<Option<std::result::Result<Arc<CompiledKernel>, String>>>,
    ready: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight { slot: Mutex::new(None), ready: Condvar::new() }
    }

    fn wait(&self) -> std::result::Result<Arc<CompiledKernel>, String> {
        let mut slot = lock(&self.slot);
        while slot.is_none() {
            slot = self.ready.wait(slot).expect("flight condvar");
        }
        slot.as_ref().expect("checked above").clone()
    }

    fn publish(&self, result: std::result::Result<Arc<CompiledKernel>, String>) {
        *lock(&self.slot) = Some(result);
        self.ready.notify_all();
    }
}

#[derive(Default)]
struct Shard {
    entries: HashMap<u64, Entry>,
    inflight: HashMap<u64, Arc<Flight>>,
    bytes: u64,
}

/// Sizing of the cache an [`Engine`](crate::Engine) owns: total charged
/// bytes ([`entry_weight`]), resident kernels, and shard count (one shard
/// gives exact global LRU order, more give less lock contention).
pub(crate) const ENGINE_CACHE_MAX_BYTES: u64 = 64 << 20;
pub(crate) const ENGINE_CACHE_MAX_ENTRIES: usize = 1024;
pub(crate) const ENGINE_CACHE_SHARDS: usize = 8;

/// Sharded LRU cache of compiled kernels with single-flight compilation.
///
/// Byte and entry budgets are enforced *per shard* (each shard gets an equal
/// split of the configured totals), so eviction decisions never take a
/// global lock. Configure one shard when exact global LRU order matters
/// (tests do).
pub struct KernelCache {
    shards: Vec<Mutex<Shard>>,
    shard_max_bytes: u64,
    shard_max_entries: usize,
    counters: Counters,
    clock: AtomicU64,
}

/// A mutex poisoned by a panicking kernel compile would otherwise take the
/// whole cache down; the data under it is a plain map that is still
/// structurally valid, so recover the guard.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl KernelCache {
    /// Creates a cache with the given total budgets split over `shards`
    /// shards (clamped to at least one shard, one entry and one
    /// `entry_weight` of bytes per shard).
    pub fn new(max_bytes: u64, max_entries: usize, shards: usize) -> KernelCache {
        let shards = shards.max(1);
        KernelCache {
            shard_max_bytes: (max_bytes / shards as u64).max(1),
            shard_max_entries: (max_entries / shards).max(1),
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            counters: Counters::default(),
            clock: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        // The low fingerprint bits already mix the whole structure (FNV-1a),
        // so a simple modulus spreads keys evenly.
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Looks up `key`, or compiles it with `compile` under single-flight.
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
    ) -> Result<Arc<CompiledKernel>> {
        // Fast path / flight discovery under the shard lock.
        let flight = {
            let mut shard = lock(self.shard(key));
            if let Some(entry) = shard.entries.get_mut(&key) {
                entry.last_used = self.tick();
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .compile_nanos_saved
                    .fetch_add(entry.compile_nanos, Ordering::Relaxed);
                return Ok(Arc::clone(&entry.kernel));
            }
            self.counters.misses.fetch_add(1, Ordering::Relaxed);
            match shard.inflight.get(&key) {
                Some(flight) => {
                    self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                    Some(Arc::clone(flight))
                }
                None => {
                    let flight = Arc::new(Flight::new());
                    shard.inflight.insert(key, Arc::clone(&flight));
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
        let compiled = compile();
        let compile_nanos = started.elapsed().as_nanos() as u64;
        self.counters.compiles.fetch_add(1, Ordering::Relaxed);

        let mut shard = lock(self.shard(key));
        let flight = shard.inflight.remove(&key).expect("leader owns the flight slot");
        match compiled {
            Ok(kernel) => {
                let kernel = Arc::new(kernel);
                self.insert_locked(&mut shard, key, Arc::clone(&kernel), compile_nanos);
                drop(shard);
                flight.publish(Ok(Arc::clone(&kernel)));
                Ok(kernel)
            }
            Err(e) => {
                drop(shard);
                flight.publish(Err(e.to_string()));
                Err(EngineError::Core(e))
            }
        }
    }

    /// Inserts an already-compiled kernel (used by tests and warm-up paths).
    pub fn insert(&self, key: u64, kernel: Arc<CompiledKernel>, compile_nanos: u64) {
        let mut shard = lock(self.shard(key));
        self.insert_locked(&mut shard, key, kernel, compile_nanos);
    }

    fn insert_locked(
        &self,
        shard: &mut Shard,
        key: u64,
        kernel: Arc<CompiledKernel>,
        compile_nanos: u64,
    ) {
        let bytes = entry_weight(&kernel);
        let last_used = self.tick();
        if let Some(old) = shard
            .entries
            .insert(key, Entry { kernel, bytes, compile_nanos, last_used })
        {
            shard.bytes -= old.bytes;
            self.counters.entries.fetch_sub(1, Ordering::Relaxed);
            self.counters.bytes.fetch_sub(old.bytes, Ordering::Relaxed);
        }
        shard.bytes += bytes;
        self.counters.entries.fetch_add(1, Ordering::Relaxed);
        self.counters.bytes.fetch_add(bytes, Ordering::Relaxed);

        // Evict least-recently-used entries until back under budget. The
        // just-inserted key goes last: if it alone exceeds the shard budget
        // it is dropped too (the caller still holds its Arc), leaving the
        // cache empty rather than wedged over budget.
        while shard.bytes > self.shard_max_bytes || shard.entries.len() > self.shard_max_entries {
            let victim = shard
                .entries
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
                .or_else(|| shard.entries.keys().next().copied());
            match victim {
                Some(v) => self.evict_locked(shard, v),
                None => break,
            }
        }
    }

    fn evict_locked(&self, shard: &mut Shard, key: u64) {
        if let Some(e) = shard.entries.remove(&key) {
            shard.bytes -= e.bytes;
            self.counters.evictions.fetch_add(1, Ordering::Relaxed);
            self.counters.entries.fetch_sub(1, Ordering::Relaxed);
            self.counters.bytes.fetch_sub(e.bytes, Ordering::Relaxed);
        }
    }

    /// True if `key` is resident (does not touch LRU order or counters).
    pub fn contains(&self, key: u64) -> bool {
        lock(self.shard(key)).entries.contains_key(&key)
    }

    /// Snapshots the activity counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            compiles: self.counters.compiles.load(Ordering::Relaxed),
            coalesced: self.counters.coalesced.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            compile_nanos_saved: self.counters.compile_nanos_saved.load(Ordering::Relaxed),
            entries: self.counters.entries.load(Ordering::Relaxed),
            bytes: self.counters.bytes.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for KernelCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelCache")
            .field("shards", &self.shards.len())
            .field("shard_max_bytes", &self.shard_max_bytes)
            .field("shard_max_entries", &self.shard_max_entries)
            .field("stats", &self.stats())
            .finish()
    }
}
