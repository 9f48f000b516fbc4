//! System C compiler driver and content-addressed shared-object cache.
//!
//! The compiler is probed once at construction by building a trivial
//! shared object; a probe failure (including `CC=/nonexistent`) makes the
//! whole backend [`NativeError::Unavailable`] so the engine degrades to
//! the interpreter without ever invoking a broken toolchain per kernel.
//!
//! Artifacts are cached on disk keyed by kernel fingerprint, an FNV hash
//! of the full translation unit, an FNV hash of the compiler and the flag
//! set it accepted, and the ABI version — any change to the kernel, the
//! emitter, the toolchain, or the ABI produces a different file name, so
//! stale objects are never picked up. Writes are atomic (temp file +
//! rename) so concurrent processes race benignly.

use crate::dl::DynLib;
use crate::run::NativeKernel;
use crate::NativeError;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use taco_llir::{NativeSource, ABI_VERSION, ENTRY_SYMBOL};

/// The on-disk cache directory: `$TACO_NATIVE_CACHE` when set, otherwise
/// a versioned directory under the system temp dir.
pub fn cache_dir() -> PathBuf {
    match std::env::var_os("TACO_NATIVE_CACHE") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => std::env::temp_dir().join(format!("taco-native-cache-abi{ABI_VERSION}")),
    }
}

/// Distinguishes the temporaries of concurrent compiler runs in one
/// process: engines probe concurrently (parallel tests, one engine per
/// tenant pool), and two threads may build the same artifact at once on a
/// cold cache.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A probed, ready-to-use C compiler plus the flag set it accepted.
#[derive(Debug, Clone)]
pub struct NativeCompiler {
    cc: String,
    flags: Vec<String>,
    /// FNV of `cc` and `flags`: two compilers, or one whose `-fopenmp`
    /// probe flips after an upgrade, are different builds of the same TU
    /// and must not share artifacts in the cross-process cache.
    toolchain: u64,
    cache: PathBuf,
}

impl NativeCompiler {
    /// Probes `$CC` (falling back to `cc`) by compiling a trivial shared
    /// object, and `-fopenmp` separately (kept only if supported).
    ///
    /// # Errors
    ///
    /// [`NativeError::Unavailable`] when no working compiler is found.
    pub fn from_env() -> Result<NativeCompiler, NativeError> {
        let cc = match std::env::var("CC") {
            Ok(v) if !v.is_empty() => v,
            _ => "cc".to_string(),
        };
        NativeCompiler::with_cc(&cc)
    }

    /// Probes a specific compiler binary. See [`NativeCompiler::from_env`].
    pub fn with_cc(cc: &str) -> Result<NativeCompiler, NativeError> {
        if !cfg!(unix) {
            return Err(NativeError::Unavailable("dlopen is unix-only".into()));
        }
        let cache = cache_dir();
        std::fs::create_dir_all(&cache).map_err(|e| {
            NativeError::Unavailable(format!("cannot create cache dir {}: {e}", cache.display()))
        })?;

        // -fwrapv / -fno-strict-aliasing pin down the C semantics the
        // emitter assumes (wrapping i64, type-punned host buffers); -lm
        // gives the .so its own libm dependency for fmod/fmin.
        let base: Vec<String> = ["-std=c11", "-O2", "-fPIC", "-shared", "-fwrapv",
            "-fno-strict-aliasing"]
        .iter()
        .map(|s| s.to_string())
        .collect();

        let probe_src = "int taco_probe(void) { return 42; }\n";
        if !try_compile(cc, &base, probe_src, &cache) {
            return Err(NativeError::Unavailable(format!(
                "C compiler `{cc}` failed to build a probe shared object"
            )));
        }
        let mut flags = base.clone();
        let mut with_omp = base;
        with_omp.push("-fopenmp".to_string());
        if try_compile(cc, &with_omp, probe_src, &cache) {
            flags.push("-fopenmp".to_string());
        }
        let toolchain = fnv1a(format!("{cc}\0{}", flags.join("\0")).as_bytes());
        Ok(NativeCompiler { cc: cc.to_string(), flags, toolchain, cache })
    }

    /// The probed compiler binary.
    pub fn cc(&self) -> &str {
        &self.cc
    }

    /// Compiles (or fetches from cache) the shared object for an emitted
    /// kernel and loads it. `fingerprint` is the kernel's cache identity
    /// from the engine; combined with the source hash and the toolchain
    /// digest it content-addresses the artifact.
    ///
    /// # Errors
    ///
    /// [`NativeError::CompileFailed`] when the compiler rejects the TU,
    /// [`NativeError::LoadFailed`] when the artifact cannot be dlopen'd
    /// or has a mismatched ABI version.
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

        let mut compile_nanos = 0u64;
        if !so_path.exists() {
            let started = Instant::now();
            self.build(&source.c_source, &so_path)?;
            compile_nanos = started.elapsed().as_nanos() as u64;
        }

        let lib = DynLib::open_checked(&so_path)?;
        let entry = lib.sym(ENTRY_SYMBOL)?;
        Ok(NativeKernel::new(lib, entry, source.plan.clone(), so_path, compile_nanos))
    }

    /// Runs the compiler on `c_source`, atomically installing the result
    /// at `so_path`.
    fn build(&self, c_source: &str, so_path: &Path) -> Result<(), NativeError> {
        let unique = format!(
            "{}-{}-{:x}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed),
            fnv1a(so_path.as_os_str().as_encoded_bytes())
        );
        let c_path = self.cache.join(format!("build-{unique}.c"));
        let tmp_so = self.cache.join(format!("build-{unique}.so.tmp"));
        std::fs::write(&c_path, c_source)
            .map_err(|e| NativeError::CompileFailed(format!("writing TU: {e}")))?;

        let out = Command::new(&self.cc)
            .args(&self.flags)
            .arg("-o")
            .arg(&tmp_so)
            .arg(&c_path)
            .arg("-lm")
            .output();
        let _ = std::fs::remove_file(&c_path);
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                return Err(NativeError::CompileFailed(format!(
                    "spawning `{}`: {e}",
                    self.cc
                )))
            }
        };
        if !out.status.success() {
            let _ = std::fs::remove_file(&tmp_so);
            return Err(NativeError::CompileFailed(format!(
                "`{}` exited with {}: {}",
                self.cc,
                out.status,
                String::from_utf8_lossy(&out.stderr)
            )));
        }
        std::fs::rename(&tmp_so, so_path)
            .map_err(|e| NativeError::CompileFailed(format!("installing artifact: {e}")))?;
        Ok(())
    }
}

/// Compiles a throwaway TU to a throwaway .so; true on success.
fn try_compile(cc: &str, flags: &[String], src: &str, cache: &Path) -> bool {
    let unique = format!(
        "probe-{}-{}-{:x}",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed),
        fnv1a(flags.join(" ").as_bytes())
    );
    let c_path = cache.join(format!("{unique}.c"));
    let so_path = cache.join(format!("{unique}.so"));
    if std::fs::write(&c_path, src).is_err() {
        return false;
    }
    let ok = Command::new(cc)
        .args(flags)
        .arg("-o")
        .arg(&so_path)
        .arg(&c_path)
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false);
    let _ = std::fs::remove_file(&c_path);
    let _ = std::fs::remove_file(&so_path);
    ok
}
