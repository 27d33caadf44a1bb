#!/usr/bin/env bash
# The full local CI gauntlet, in the order .github/workflows/ci.yml runs
# it remotely:
#
#   1. default build + ctest (tier-1 gate; its golden.* cases compare
#      every harness and smoke run with the committed outputs),
#   2. strict build: ARTMEM_STRICT=ON (-Wpedantic -Wconversion -Wshadow
#      -Wold-style-cast -Werror) must compile every target warning-free,
#   3. lint: scripts/check_lint.sh (clang-tidy when available + custom
#      nondeterminism lint),
#   4. perf-regression smoke: scripts/check_perf.sh runs the end-to-end
#      hot-path throughput benchmarks (bench_overheads --quick) and
#      compares accesses/sec against BENCH_hotpath.json with a 30%
#      tolerance,
#   5. (optional, slow) sanitizers: pass --sanitizers to append
#      scripts/check_sanitizers.sh,
#   6. (optional, slow) coverage: pass --coverage to append
#      scripts/check_coverage.sh (instrumented build + line-coverage
#      floor on src/memsim and src/lru).
#
#   scripts/ci.sh [--sanitizers] [--coverage]
set -euo pipefail

cd "$(dirname "$0")/.."
jobs="$(nproc 2>/dev/null || echo 2)"
run_sanitizers=0
run_coverage=0
for arg in "$@"; do
    case "${arg}" in
    --sanitizers) run_sanitizers=1 ;;
    --coverage) run_coverage=1 ;;
    *)
        echo "usage: scripts/ci.sh [--sanitizers] [--coverage]" >&2
        exit 2
        ;;
    esac
done

echo "==> [1/4] default build + tests"
cmake -B build -S . > /dev/null
cmake --build build -j "${jobs}"
ctest --test-dir build --output-on-failure -j "${jobs}"

echo "==> [2/4] strict build (ARTMEM_STRICT=ON)"
cmake -B build-strict -S . -DARTMEM_STRICT=ON > /dev/null
cmake --build build-strict -j "${jobs}"

echo "==> [3/4] lint"
# In CI (GitHub Actions sets CI=true) a missing clang-tidy is a
# failure, not a silent skip; locally the detlint half alone passes.
if [[ -n "${CI:-}" ]]; then
    scripts/check_lint.sh --require-clang-tidy build
else
    scripts/check_lint.sh build
fi

echo "==> [4/4] perf-regression smoke (hot-path throughput)"
scripts/check_perf.sh build

if [[ "${run_sanitizers}" -eq 1 ]]; then
    echo "==> [extra] sanitizers"
    scripts/check_sanitizers.sh
fi

if [[ "${run_coverage}" -eq 1 ]]; then
    echo "==> [extra] coverage floor"
    scripts/check_coverage.sh
fi

echo "==> CI OK"
