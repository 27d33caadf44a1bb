#!/usr/bin/env bash
# Perf-regression smoke for the batched hot path (DESIGN.md §9).
#
# Runs the gated benchmarks (bench_overheads --quick: BM_SimThroughput,
# BM_AccessBatchFaulted and BM_MigrationPlanningSparse at one short
# google-benchmark repetition) and compares items/sec per entry —
# simulated accesses for the throughput runs and the faulted batch
# loop, decision intervals for the sparse ArtMem case — against the
# committed baseline in BENCH_hotpath.json. The tolerance is
# deliberately generous (a 30% drop fails): CI machines are noisy, and
# this gate exists to catch real regressions — an accidental O(n) slip
# or a de-inlined hot function — without flaking on scheduler jitter.
#
# bench_overheads --quick filters on the "BM_SimThroughput" prefix, on
# BM_AccessBatchFaulted and on BM_MigrationPlanningSparse, so every
# BM_SimThroughput* entry in the baseline (the tx-off and tenancy
# variants included) is gated here with no extra plumbing.
#
#   scripts/check_perf.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
build="${1:-build}"
baseline="BENCH_hotpath.json"
bench="${build}/bench/bench_overheads"

if [[ ! -x "${bench}" ]]; then
    echo "check_perf: ${bench} not built" >&2
    exit 2
fi
if [[ ! -f "${baseline}" ]]; then
    echo "check_perf: ${baseline} missing" >&2
    exit 2
fi

out="${build}/bench_hotpath_current.json"
"${bench}" --quick --benchmark_format=json 2> /dev/null > "${out}"

python3 - "${baseline}" "${out}" << 'EOF'
import json
import sys

TOLERANCE = 0.30

with open(sys.argv[1]) as f:
    baseline = {b["name"]: b["items_per_second"]
                for b in json.load(f)["benchmarks"]}
with open(sys.argv[2]) as f:
    current = {b["name"]: b["items_per_second"]
               for b in json.load(f)["benchmarks"]}

failed = False
for name, base in sorted(baseline.items()):
    now = current.get(name)
    if now is None:
        print(f"check_perf: FAIL {name}: benchmark missing from run")
        failed = True
        continue
    floor = base * (1.0 - TOLERANCE)
    verdict = "ok" if now >= floor else "FAIL"
    print(f"check_perf: {verdict} {name}: {now / 1e6:.3g}M items/s "
          f"(baseline {base / 1e6:.3g}M, floor {floor / 1e6:.3g}M)")
    if now < floor:
        failed = True

sys.exit(1 if failed else 0)
EOF

echo "check_perf: hot-path throughput within tolerance of ${baseline}"
