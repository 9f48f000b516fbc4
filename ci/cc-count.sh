#!/bin/sh
# A C compiler that counts itself: appends one line per invocation to
# $CC_COUNT_LOG — the kernel the translation unit names in its
# `/* kernel: NAME */` line, or `-` for a TU that names none (the probe) —
# then becomes the real compiler, $CC_COUNT_CC (default `cc`). The native
# backend's promise is a count, not a time: no compiler run without a cache
# miss, one run per miss. CI's "compiler-run budget" step and
# tests/native_backend.rs point $CC here and read the log; the per-kernel
# name is what lets tests that share a process tell their runs apart.
name=
for arg in "$@"; do
    case "$arg" in
        *.c) name=$(sed -n 's|^/\* kernel: \(.*\) \*/$|\1|p' "$arg") ;;
    esac
done
echo "${name:--}" >> "${CC_COUNT_LOG:?}"
exec ${CC_COUNT_CC:-cc} "$@"
