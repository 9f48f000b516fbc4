//! System C compiler driver and content-addressed shared-object cache.
//!
//! No compiler run without a cache miss. Construction *resolves* `$CC` to
//! an executable file (a bare name through `$PATH`) and spawns nothing.
//! [`NativeCompiler::compile`] *looks up* the artifact first, so a restart
//! over a warm cache never reaches the compiler; a miss runs the one real
//! build, and *that build is the probe*. Only when it fails before this
//! compiler has built anything is a trivial TU compiled, once, to
//! *classify* the failure: a broken toolchain ([`NativeError::Unavailable`],
//! remembered by the compiler and its clones, so later kernels spawn
//! nothing) or a rejected kernel (`CompileFailed`, that kernel only). A
//! cached artifact that fails to load *self-heals* once: it is unlinked and
//! rebuilt, and only the fresh object failing is `LoadFailed`. No verdict
//! is persisted — identity comes from a `stat`, health from a build that
//! had to happen anyway — so there is no record to invalidate.
//!
//! Artifacts are keyed by kernel fingerprint, an FNV hash of the full
//! translation unit, a toolchain digest (the resolved compiler path, its
//! length and mtime, the flag set) and the ABI version — any change to the
//! kernel, the emitter, the toolchain, or the ABI produces a different
//! file name, so stale objects are never picked up. Writes are atomic
//! (temp file + rename) so concurrent processes race benignly.

use crate::dl::DynLib;
use crate::run::NativeKernel;
use crate::NativeError;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Instant, UNIX_EPOCH};
use taco_llir::{NativeSource, ABI_VERSION, ENTRY_SYMBOL};

/// The on-disk cache directory: `$TACO_NATIVE_CACHE` when set, otherwise
/// a versioned directory under the system temp dir.
pub fn cache_dir() -> PathBuf {
    match std::env::var_os("TACO_NATIVE_CACHE") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => std::env::temp_dir().join(format!("taco-native-cache-abi{ABI_VERSION}")),
    }
}

/// -fwrapv / -fno-strict-aliasing pin down the C semantics the emitter
/// assumes (wrapping i64, type-punned host buffers).
const FLAGS: [&str; 6] =
    ["-std=c11", "-O2", "-fPIC", "-shared", "-fwrapv", "-fno-strict-aliasing"];

/// Distinguishes the temporaries of concurrent compiler runs in one process:
/// two threads may build the same artifact at once on a cold cache.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Resolves a compiler name the way `execvp` would: a name with a `/` is a
/// path, a bare name is the first executable file of that name on `$PATH`.
fn resolve(cc: &str) -> Option<(PathBuf, std::fs::Metadata)> {
    let executable = |path: PathBuf| {
        let meta = std::fs::metadata(&path).ok()?;
        #[cfg(unix)]
        let runnable = std::os::unix::fs::PermissionsExt::mode(&meta.permissions()) & 0o111 != 0;
        #[cfg(not(unix))]
        let runnable = true;
        (meta.is_file() && runnable).then_some((path, meta))
    };
    if cc.contains('/') {
        return executable(PathBuf::from(cc));
    }
    std::env::split_paths(&std::env::var_os("PATH")?).find_map(|dir| executable(dir.join(cc)))
}

/// A resolved C compiler; whether it works is learnt from its first build.
#[derive(Debug, Clone)]
pub struct NativeCompiler {
    cc: PathBuf,
    /// FNV of the resolved path, its length and mtime, and the flags: two
    /// compilers, or one upgraded behind the same name, are different
    /// builds of the same TU and must not share cached artifacts.
    toolchain: u64,
    cache: PathBuf,
    /// Unset until a build succeeds (`Ok`) or the first failed one is
    /// classified (`Err`: why the toolchain is unusable). Clones share it,
    /// so a broken `$CC` costs an engine two spawns, not two per kernel.
    health: Arc<OnceLock<Result<(), String>>>,
}

impl NativeCompiler {
    /// Resolves `$CC` (falling back to `cc`); see [`NativeCompiler::with_cc`].
    pub fn from_env() -> Result<NativeCompiler, NativeError> {
        let cc = match std::env::var("CC") {
            Ok(v) if !v.is_empty() => v,
            _ => "cc".to_string(),
        };
        NativeCompiler::with_cc(&cc)
    }

    /// Resolves a specific compiler binary without running it: one that is
    /// present but broken is found out by [`NativeCompiler::compile`].
    ///
    /// # Errors
    ///
    /// [`NativeError::Unavailable`] when `cc` names no executable file or
    /// the cache directory cannot be created.
    pub fn with_cc(cc: &str) -> Result<NativeCompiler, NativeError> {
        if !cfg!(unix) {
            return Err(NativeError::Unavailable("dlopen is unix-only".into()));
        }
        let (path, meta) = resolve(cc).ok_or_else(|| {
            NativeError::Unavailable(format!("C compiler `{cc}` is not an executable file"))
        })?;
        let cache = cache_dir();
        std::fs::create_dir_all(&cache).map_err(|e| {
            NativeError::Unavailable(format!("cannot create cache dir {}: {e}", cache.display()))
        })?;
        let mtime = meta.modified().ok().and_then(|t| t.duration_since(UNIX_EPOCH).ok());
        let mtime = mtime.map_or(0, |d| d.as_nanos());
        let identity = format!("{}\0{}\0{mtime}\0{}", path.display(), meta.len(), FLAGS.join("\0"));
        let toolchain = fnv1a(identity.as_bytes());
        Ok(NativeCompiler { cc: path, toolchain, cache, health: Arc::default() })
    }

    /// The resolved compiler binary.
    pub fn cc(&self) -> &Path {
        &self.cc
    }

    /// Fetches from the cache, or compiles, the shared object for an
    /// emitted kernel and loads it. `fingerprint` is the kernel's cache
    /// identity from the engine; combined with the source hash and the
    /// toolchain digest it content-addresses the artifact.
    ///
    /// # Errors
    ///
    /// [`NativeError::Unavailable`] when the toolchain cannot build even a
    /// trivial TU (found by this call or an earlier one),
    /// [`NativeError::CompileFailed`] when a working compiler rejects the
    /// TU, [`NativeError::LoadFailed`] when the freshly built artifact
    /// cannot be dlopen'd or has a mismatched ABI version.
    pub fn compile(
        &self,
        source: &NativeSource,
        fingerprint: u64,
    ) -> Result<NativeKernel, NativeError> {
        let src_hash = fnv1a(source.c_source.as_bytes());
        let so_path = self.cache.join(format!(
            "k{fingerprint:016x}-s{src_hash:016x}-c{:016x}-abi{ABI_VERSION}.so",
            self.toolchain
        ));
        let load = |compile_nanos: u64| -> Result<NativeKernel, NativeError> {
            let lib = DynLib::open_checked(&so_path)?;
            let entry = lib.sym(ENTRY_SYMBOL)?;
            Ok(NativeKernel::new(lib, entry, source.plan.clone(), so_path.clone(), compile_nanos))
        };
        if so_path.exists() {
            if let Ok(kernel) = load(0) {
                return Ok(kernel);
            }
            // A poisoned entry would reject this kernel in every engine
            // over this cache: drop it and rebuild, once.
            let _ = std::fs::remove_file(&so_path);
        }
        if let Some(Err(why)) = self.health.get() {
            return Err(NativeError::Unavailable(why.clone()));
        }
        let started = Instant::now();
        self.build(&source.c_source, &so_path).map_err(|why| self.classify(why))?;
        let _ = self.health.set(Ok(()));
        load(started.elapsed().as_nanos() as u64)
    }

    /// Runs the compiler on `c_source`, atomically installing the result
    /// at `so_path`; the error is the rendered reason.
    fn build(&self, c_source: &str, so_path: &Path) -> Result<(), String> {
        let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let c_path = self.cache.join(format!("build-{}-{seq}.c", std::process::id()));
        let tmp_so = c_path.with_extension("so.tmp");
        std::fs::write(&c_path, c_source).map_err(|e| format!("writing TU: {e}"))?;
        // -lm gives the .so its own libm dependency for fmod/fmin.
        let out = Command::new(&self.cc)
            .args(FLAGS)
            .arg("-o")
            .arg(&tmp_so)
            .arg(&c_path)
            .arg("-lm")
            .output();
        let _ = std::fs::remove_file(&c_path);
        let cc = self.cc.display();
        let out = out.map_err(|e| format!("spawning `{cc}`: {e}"))?;
        if !out.status.success() {
            let _ = std::fs::remove_file(&tmp_so);
            let stderr = String::from_utf8_lossy(&out.stderr);
            return Err(format!("`{cc}` failed with {}: {}", out.status, stderr.trim()));
        }
        std::fs::rename(&tmp_so, so_path).map_err(|e| format!("installing artifact: {e}"))
    }

    /// The failed build is the probe's cue: a trivial TU, compiled at most
    /// once per compiler, tells a broken toolchain from a rejected kernel.
    fn classify(&self, why: String) -> NativeError {
        let health = self.health.get_or_init(|| {
            let probe_so = self.cache.join(format!("probe-{}.so", std::process::id()));
            let built = self.build("int taco_probe(void) { return 42; }\n", &probe_so);
            let _ = std::fs::remove_file(&probe_so);
            built.map_err(|probe| format!("no working C compiler: {probe}"))
        });
        match health {
            Ok(()) => NativeError::CompileFailed(why),
            Err(broken) => NativeError::Unavailable(broken.clone()),
        }
    }
}
