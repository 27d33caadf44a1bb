#!/bin/sh
# Replays a recorded trace under a fault scenario and checks that
# `artmem trace-run` prints the same result as `artmem run` on the
# workload that produced the trace: the engine flags (faults, tx,
# audit) must take effect on a replay too, not be dropped.
#
#   sh tests/cli_trace_run_matches_run.sh <artmem> <work-dir>
set -u
artmem="$1"
dir="$2"
mkdir -p "${dir}"
trace="${dir}/s2_300k.trace"
flags="--policy=artmem --ratio=1:4 --fault-scenario=degrade --check-invariants"

"${artmem}" trace-record --workload=s2 --accesses=300000 --out="${trace}" \
    > /dev/null || exit 1
# shellcheck disable=SC2086 # flags is a word list
"${artmem}" run --workload=s2 --accesses=300000 ${flags} \
    > "${dir}/run.out" || exit 1
# shellcheck disable=SC2086
"${artmem}" trace-run --trace="${trace}" ${flags} \
    > "${dir}/trace_run.out" || exit 1
# Line 1 names the workload (s2 vs trace:FILE); the result lines follow.
tail -n +2 "${dir}/run.out" > "${dir}/run.result"
tail -n +2 "${dir}/trace_run.out" > "${dir}/trace_run.result"
if ! cmp "${dir}/run.result" "${dir}/trace_run.result"; then
    echo "FAIL: trace-run result differs from run"
    diff "${dir}/run.result" "${dir}/trace_run.result"
    exit 1
fi
cat "${dir}/trace_run.result"
