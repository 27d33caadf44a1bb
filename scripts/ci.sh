#!/usr/bin/env bash
# The full local CI gauntlet, in the order .github/workflows/ci.yml runs
# it remotely:
#
#   1. default build + ctest (tier-1 gate),
#   2. strict build: ARTMEM_STRICT=ON (-Wpedantic -Wconversion -Wshadow
#      -Wold-style-cast -Werror) must compile every target warning-free,
#   3. lint: scripts/check_lint.sh (clang-tidy when available + custom
#      nondeterminism lint),
#   4. invariant-checked fault sweep: every built-in --fault-scenario
#      under --check-invariants must finish with zero violations,
#   5. sweep determinism: bench_fig7_main --csv run twice, --jobs 1 vs
#      --jobs 4, and the outputs diffed byte-for-byte (the parallel
#      sweep runner must not change a single emitted number),
#   6. telemetry smoke: a traced masim_runner run on
#      configs/telemetry_smoke.cfg; the Chrome trace and metrics files
#      must be valid JSON (python3 -m json.tool) and a second identical
#      seeded run must reproduce the metrics and trace byte-for-byte,
#   7. transactional-migration smoke: a traced --tx-migration run under
#      --fault-scenario=abort_storm with --check-invariants executed
#      twice and diffed byte-for-byte (stdout + both trace files), plus
#      a plain run diffed against an explicit --tx-migration=false run
#      (the disabled engine must be a strict no-op through the whole
#      CLI path),
#   8. multi-tenant smoke: an explicit --tenants=1 run diffed
#      byte-for-byte against a plain run (the disabled tenancy layer
#      must be a strict no-op through the whole CLI path), plus a
#      traced --tenant-config=configs/tenancy_smoke.cfg run (8
#      heterogeneous tenants, contending quotas, feedback admission,
#      --check-invariants) executed twice with stdout, metrics and both
#      trace files compared (DESIGN.md §13),
#   9. perf-regression smoke: scripts/check_perf.sh runs the end-to-end
#      hot-path throughput benchmarks (bench_overheads --quick) and
#      compares accesses/sec against BENCH_hotpath.json with a 30%
#      tolerance,
#  10. (optional, slow) sanitizers: pass --sanitizers to append
#      scripts/check_sanitizers.sh,
#  11. (optional, slow) coverage: pass --coverage to append
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

echo "==> [1/9] default build + tests"
cmake -B build -S . > /dev/null
cmake --build build -j "${jobs}"
ctest --test-dir build --output-on-failure -j "${jobs}"

echo "==> [2/9] strict build (ARTMEM_STRICT=ON)"
cmake -B build-strict -S . -DARTMEM_STRICT=ON > /dev/null
cmake --build build-strict -j "${jobs}"

echo "==> [3/9] lint"
# In CI (GitHub Actions sets CI=true) a missing clang-tidy is a
# failure, not a silent skip; locally the detlint half alone passes.
if [[ -n "${CI:-}" ]]; then
    scripts/check_lint.sh --require-clang-tidy build
else
    scripts/check_lint.sh build
fi

echo "==> [4/9] invariant-checked fault sweep"
for scenario in none migration degrade blackout pressure; do
    echo "--- scenario ${scenario}"
    ./build/tools/artmem run --workload=s2 --policy=artmem --ratio=1:4 \
        --accesses=1000000 --fault-scenario="${scenario}" \
        --check-invariants
done

echo "==> [5/9] sweep determinism (--jobs 1 vs --jobs 4, byte-for-byte)"
./build/bench/bench_fig7_main --csv --accesses=200000 --jobs=1 \
    > build/fig7_jobs1.csv
./build/bench/bench_fig7_main --csv --accesses=200000 --jobs=4 \
    > build/fig7_jobs4.csv
cmp build/fig7_jobs1.csv build/fig7_jobs4.csv
echo "sweep output identical across --jobs 1 and --jobs 4"

echo "==> [6/9] telemetry smoke (traced run, JSON validity, byte-identity)"
./build/examples/masim_runner configs/telemetry_smoke.cfg \
    --policy=artmem --ratio=1:4 \
    --metrics-out=build/telemetry_a.metrics.json \
    --trace-out=build/telemetry_a --profile
python3 -m json.tool build/telemetry_a.metrics.json > /dev/null
python3 -m json.tool build/telemetry_a.json > /dev/null
./build/examples/masim_runner configs/telemetry_smoke.cfg \
    --policy=artmem --ratio=1:4 \
    --metrics-out=build/telemetry_b.metrics.json \
    --trace-out=build/telemetry_b
cmp build/telemetry_a.metrics.json build/telemetry_b.metrics.json
cmp build/telemetry_a.jsonl build/telemetry_b.jsonl
cmp build/telemetry_a.json build/telemetry_b.json
echo "telemetry outputs valid JSON and byte-identical across reruns"

echo "==> [7/9] transactional-migration smoke (abort storm, byte-identity)"
tx_run=(./build/tools/artmem run --workload=ycsb --policy=artmem
    --ratio=1:4 --accesses=800000 --check-invariants)
"${tx_run[@]}" --tx-migration --tx-write-ratio=0.05 \
    --fault-scenario=abort_storm --trace-out=build/tx_a > build/tx_a.out
"${tx_run[@]}" --tx-migration --tx-write-ratio=0.05 \
    --fault-scenario=abort_storm --trace-out=build/tx_b > build/tx_b.out
cmp build/tx_a.out build/tx_b.out
cmp build/tx_a.jsonl build/tx_b.jsonl
cmp build/tx_a.json build/tx_b.json
"${tx_run[@]}" > build/tx_off_a.out
"${tx_run[@]}" --tx-migration=false > build/tx_off_b.out
cmp build/tx_off_a.out build/tx_off_b.out
echo "abort-storm reruns byte-identical; disabled engine is a no-op"

echo "==> [8/9] multi-tenant smoke (no-op diff, traced run, byte-identity)"
# --tenants=1 must be a strict no-op through the whole CLI path: the
# single-tenant run takes the plain engine loop and every tenancy hook
# is a never-taken null branch (DESIGN.md §13).
mt_base=(./build/tools/artmem run --workload=s2 --policy=artmem
    --ratio=1:4 --accesses=800000 --check-invariants)
"${mt_base[@]}" > build/mt_off_a.out
"${mt_base[@]}" --tenants=1 > build/mt_off_b.out
cmp build/mt_off_a.out build/mt_off_b.out
# Traced smoke on configs/tenancy_smoke.cfg (8 heterogeneous tenants,
# contending quotas, feedback admission): metrics must be valid JSON
# and a second identical seeded run must reproduce stdout, metrics and
# both trace files byte-for-byte.
mt_run=(./build/tools/artmem run --workload=s2 --policy=artmem
    --ratio=1:4 --accesses=800000 --check-invariants
    --tenant-config=configs/tenancy_smoke.cfg)
"${mt_run[@]}" --metrics-out=build/mt_a.metrics.json \
    --trace-out=build/mt_a > build/mt_a.out
"${mt_run[@]}" --metrics-out=build/mt_b.metrics.json \
    --trace-out=build/mt_b > build/mt_b.out
python3 -m json.tool build/mt_a.metrics.json > /dev/null
cmp build/mt_a.out build/mt_b.out
cmp build/mt_a.metrics.json build/mt_b.metrics.json
cmp build/mt_a.jsonl build/mt_b.jsonl
cmp build/mt_a.json build/mt_b.json
echo "--tenants=1 is a no-op; tenancy smoke byte-identical across reruns"

echo "==> [9/9] perf-regression smoke (hot-path throughput)"
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
