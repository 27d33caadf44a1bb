#!/usr/bin/env bash
# Sanitizer CI: build and run the test suite under ASan+UBSan — the
# full ctest run includes the memsim/lru/sim suites plus the hot-path
# differential-model (test_diff_model) and property (test_property)
# harnesses — then every suite that spawns threads (ring buffer /
# async sampler, sweep thread pool, telemetry merge, transactional
# migration) plus a real parallel --jobs 4 sweep under TSan. Any
# sanitizer report fails the run (halt_on_error / abort_on_error
# below). The TSan half is the runtime complement of the compile-time
# Clang -Wthread-safety annotations (DESIGN.md §11): the annotations
# prove lock discipline, TSan catches what they cannot see (lock-free
# SPSC handoffs, join lifecycles).
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
    --target test_async test_memsim test_sweep test_telemetry \
             test_tx_migration test_diff_model \
             test_property bench_fig7_main

echo "==> TSan test run (threaded suites)"
TSAN_OPTIONS=halt_on_error=1 "${prefix}-tsan/tests/test_async"
TSAN_OPTIONS=halt_on_error=1 "${prefix}-tsan/tests/test_memsim" \
    --gtest_filter='RingBuffer.*'
TSAN_OPTIONS=halt_on_error=1 "${prefix}-tsan/tests/test_sweep"
TSAN_OPTIONS=halt_on_error=1 "${prefix}-tsan/tests/test_telemetry"
TSAN_OPTIONS=halt_on_error=1 "${prefix}-tsan/tests/test_tx_migration"
TSAN_OPTIONS=halt_on_error=1 "${prefix}-tsan/tests/test_diff_model"
TSAN_OPTIONS=halt_on_error=1 "${prefix}-tsan/tests/test_property"

echo "==> TSan parallel sweep (--jobs 4, real thread-pool contention)"
TSAN_OPTIONS=halt_on_error=1 \
    "${prefix}-tsan/bench/bench_fig7_main" --csv --accesses=50000 --jobs=4 \
    > "${prefix}-tsan/fig7_tsan.csv"

echo "==> sanitizers clean"
