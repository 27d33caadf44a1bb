#!/usr/bin/env bash
# End-to-end smoke checks on a built tree, run by scripts/ci.sh (step 4)
# and by .github/workflows/ci.yml:
#
#   1. invariant-checked fault sweep: every built-in --fault-scenario
#      under --check-invariants must finish with zero violations,
#   2. sweep determinism: bench_fig7_main --csv run twice, --jobs 1 vs
#      --jobs 4, and the outputs diffed byte-for-byte (the parallel
#      sweep runner must not change a single emitted number),
#   3. telemetry smoke: a traced artmem run of the MASIM config
#      configs/telemetry_smoke.cfg; the Chrome trace and metrics files
#      must be valid JSON (python3 -m json.tool) and a second identical
#      seeded run must reproduce the metrics and trace byte-for-byte,
#   4. transactional-migration smoke: a traced --tx-migration run under
#      --fault-scenario=abort_storm with --check-invariants executed
#      twice and diffed byte-for-byte (stdout + both trace files), plus
#      a plain run diffed against an explicit --tx-migration=false run
#      (the disabled engine must be a strict no-op through the whole
#      CLI path),
#   5. multi-tenant smoke: an explicit --tenants=1 run diffed
#      byte-for-byte against a plain run (the disabled tenancy layer
#      must be a strict no-op through the whole CLI path), plus a
#      traced --tenant-config=configs/tenancy_smoke.cfg run (8
#      heterogeneous tenants, contending quotas, feedback admission,
#      --check-invariants) executed twice with stdout, metrics and both
#      trace files compared (DESIGN.md §13).
#
# Outputs land in the build tree.
#
#   scripts/check_smoke.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
build="${1:-build}"

echo "==> [smoke 1/5] invariant-checked fault sweep"
for scenario in none migration degrade blackout pressure; do
    echo "--- scenario ${scenario}"
    "${build}/tools/artmem" run --workload=s2 --policy=artmem --ratio=1:4 \
        --accesses=1000000 --fault-scenario="${scenario}" \
        --check-invariants
done

echo "==> [smoke 2/5] sweep determinism (--jobs 1 vs --jobs 4, byte-for-byte)"
"${build}/bench/bench_fig7_main" --csv --accesses=200000 --jobs=1 \
    > "${build}/fig7_jobs1.csv"
"${build}/bench/bench_fig7_main" --csv --accesses=200000 --jobs=4 \
    > "${build}/fig7_jobs4.csv"
cmp "${build}/fig7_jobs1.csv" "${build}/fig7_jobs4.csv"
echo "sweep output identical across --jobs 1 and --jobs 4"

echo "==> [smoke 3/5] telemetry smoke (traced run, JSON validity, byte-identity)"
telemetry_run=("${build}/tools/artmem" run
    --workload=configs/telemetry_smoke.cfg --policy=artmem --ratio=1:4)
"${telemetry_run[@]}" --metrics-out="${build}/telemetry_a.metrics.json" \
    --trace-out="${build}/telemetry_a" --profile
python3 -m json.tool "${build}/telemetry_a.metrics.json" > /dev/null
python3 -m json.tool "${build}/telemetry_a.json" > /dev/null
"${telemetry_run[@]}" --metrics-out="${build}/telemetry_b.metrics.json" \
    --trace-out="${build}/telemetry_b"
cmp "${build}/telemetry_a.metrics.json" "${build}/telemetry_b.metrics.json"
cmp "${build}/telemetry_a.jsonl" "${build}/telemetry_b.jsonl"
cmp "${build}/telemetry_a.json" "${build}/telemetry_b.json"
echo "telemetry outputs valid JSON and byte-identical across reruns"

echo "==> [smoke 4/5] transactional-migration smoke (abort storm, byte-identity)"
tx_run=("${build}/tools/artmem" run --workload=ycsb --policy=artmem
    --ratio=1:4 --accesses=800000 --check-invariants)
"${tx_run[@]}" --tx-migration --tx-write-ratio=0.05 \
    --fault-scenario=abort_storm --trace-out="${build}/tx_a" \
    > "${build}/tx_a.out"
"${tx_run[@]}" --tx-migration --tx-write-ratio=0.05 \
    --fault-scenario=abort_storm --trace-out="${build}/tx_b" \
    > "${build}/tx_b.out"
cmp "${build}/tx_a.out" "${build}/tx_b.out"
cmp "${build}/tx_a.jsonl" "${build}/tx_b.jsonl"
cmp "${build}/tx_a.json" "${build}/tx_b.json"
"${tx_run[@]}" > "${build}/tx_off_a.out"
"${tx_run[@]}" --tx-migration=false > "${build}/tx_off_b.out"
cmp "${build}/tx_off_a.out" "${build}/tx_off_b.out"
echo "abort-storm reruns byte-identical; disabled engine is a no-op"

echo "==> [smoke 5/5] multi-tenant smoke (no-op diff, traced run, byte-identity)"
# --tenants=1 must be a strict no-op through the whole CLI path: the
# single-tenant run takes the plain engine loop and every tenancy hook
# is a never-taken null branch (DESIGN.md §13).
mt_base=("${build}/tools/artmem" run --workload=s2 --policy=artmem
    --ratio=1:4 --accesses=800000 --check-invariants)
"${mt_base[@]}" > "${build}/mt_off_a.out"
"${mt_base[@]}" --tenants=1 > "${build}/mt_off_b.out"
cmp "${build}/mt_off_a.out" "${build}/mt_off_b.out"
# Traced smoke on configs/tenancy_smoke.cfg: metrics must be valid JSON
# and a second identical seeded run must reproduce stdout, metrics and
# both trace files byte-for-byte.
mt_run=("${build}/tools/artmem" run --workload=s2 --policy=artmem
    --ratio=1:4 --accesses=800000 --check-invariants
    --tenant-config=configs/tenancy_smoke.cfg)
"${mt_run[@]}" --metrics-out="${build}/mt_a.metrics.json" \
    --trace-out="${build}/mt_a" > "${build}/mt_a.out"
"${mt_run[@]}" --metrics-out="${build}/mt_b.metrics.json" \
    --trace-out="${build}/mt_b" > "${build}/mt_b.out"
python3 -m json.tool "${build}/mt_a.metrics.json" > /dev/null
cmp "${build}/mt_a.out" "${build}/mt_b.out"
cmp "${build}/mt_a.metrics.json" "${build}/mt_b.metrics.json"
cmp "${build}/mt_a.jsonl" "${build}/mt_b.jsonl"
cmp "${build}/mt_a.json" "${build}/mt_b.json"
echo "--tenants=1 is a no-op; tenancy smoke byte-identical across reruns"
