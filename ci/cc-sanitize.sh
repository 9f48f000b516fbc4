#!/bin/sh
# The system C compiler with AddressSanitizer and UndefinedBehaviorSanitizer
# on, and any report fatal. CI points $CC at this script for the native
# backend's suites (.github/workflows/ci.yml, "Native kernels under
# sanitizers"): the backend trusts loads to the verifier and hoists the
# range checks of leaf-loop stores out of the loop, and this is the net under
# both — an access the emitted C should not make aborts the test process
# instead of corrupting it. Every native kernel is then an instrumented
# shared object, so the process that dlopens it must start with the ASan
# runtime: LD_PRELOAD=$(cc -print-file-name=libasan.so) ASAN_OPTIONS=detect_leaks=0.
exec cc -fsanitize=address,undefined -fno-sanitize-recover=all "$@"
