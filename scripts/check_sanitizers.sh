#!/usr/bin/env bash
# Sanitizer CI: build and run the test suite under ASan+UBSan — the
# full ctest run includes the memsim/lru/sim suites plus the hot-path
# differential-model (test_diff_model) and property (test_property)
# harnesses. ARTMEM_SANITIZE=undefined also turns on
# -fsanitize=float-cast-overflow, which GCC leaves out of
# -fsanitize=undefined: an out-of-range double cast to an integer (a
# huge or NaN fault factor scaled into simulated nanoseconds) is
# reported and halts the run. Then come the suites that exercise
# threads (sweep job counter, telemetry merge, transactional
# migration) plus a real parallel --jobs 4 sweep under TSan. That
# sweep runs under script(1), so its stderr is a pseudo-terminal and
# the progress meter, the one cross-thread writer besides the job
# counter, prints. Any sanitizer report fails the run
# (halt_on_error / abort_on_error below). TSan is the repository's one
# runtime concurrency check (DESIGN.md §11): the only mutable state
# workers share is atomics and per-index result slots, and detlint
# DL005 keeps locks out of the tree. The ci.yml `sanitizers` job runs this script; the
# `tsan` CMake preset builds the same TSan tree for local use.
#
#   scripts/check_sanitizers.sh [build-dir-prefix]
#
# Build trees land in <prefix>-asan-ubsan/ and <prefix>-tsan/
# (default prefix: build-san).
set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${1:-build-san}"
jobs="$(nproc 2>/dev/null || echo 2)"

echo "==> ASan+UBSan build (${prefix}-asan-ubsan)"
cmake -B "${prefix}-asan-ubsan" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DARTMEM_SANITIZE=address,undefined > /dev/null
cmake --build "${prefix}-asan-ubsan" -j "${jobs}"

echo "==> ASan+UBSan test run"
ASAN_OPTIONS=detect_leaks=1:abort_on_error=0 \
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --test-dir "${prefix}-asan-ubsan" --output-on-failure -j "${jobs}"

echo "==> TSan build (${prefix}-tsan)"
cmake -B "${prefix}-tsan" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DARTMEM_SANITIZE=thread > /dev/null
cmake --build "${prefix}-tsan" -j "${jobs}" \
    --target test_sweep test_telemetry test_tx_migration \
             test_diff_model test_property bench_fig7_main

echo "==> TSan test run (threaded suites)"
TSAN_OPTIONS=halt_on_error=1 "${prefix}-tsan/tests/test_sweep"
TSAN_OPTIONS=halt_on_error=1 "${prefix}-tsan/tests/test_telemetry"
TSAN_OPTIONS=halt_on_error=1 "${prefix}-tsan/tests/test_tx_migration"
TSAN_OPTIONS=halt_on_error=1 "${prefix}-tsan/tests/test_diff_model"
TSAN_OPTIONS=halt_on_error=1 "${prefix}-tsan/tests/test_property"

echo "==> TSan parallel sweep (--jobs 4 on a pseudo-terminal: job counter and progress meter)"
# script -e returns the sweep's exit status, so a TSan report still
# fails the step. The shell that script starts expands FIG7 and OUT.
# shellcheck disable=SC2016
TSAN_OPTIONS=halt_on_error=1 FIG7="${prefix}-tsan/bench/bench_fig7_main" \
    OUT="${prefix}-tsan/fig7_tsan.csv" \
    script -qec '"${FIG7}" --csv --accesses=50000 --jobs=4 > "${OUT}"' \
    /dev/null

echo "==> sanitizers clean"
