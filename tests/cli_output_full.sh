#!/bin/sh
# Runs one front end with an output on /dev/full. Passes only when the
# command exits 1 (detlint: 2, its I/O error status) and prints the
# message naming the lost output: a result that was never written must
# not pass as a completed run.
#
#   sh tests/cli_output_full.sh <binary> <work-dir> <case> [flags...]
#
# Cases:
#   stdout            <binary> [flags...] with stdout on /dev/full
#   detlint_stdout    detlint [flags...] with stdout on /dev/full
#   trace_run_stdout  artmem trace-run with stdout on /dev/full
#   run_metrics_out   artmem run --metrics-out=/dev/full
#   train_out         artmem train --out=/dev/full
#   trace_record_out  artmem trace-record --out=/dev/full
#   run_trace_out     artmem run --trace-out=BASE, BASE.jsonl a symlink
#                     to /dev/full
set -u
bin="$1"
dir="$2"
case_name="$3"
shift 3
mkdir -p "${dir}"

# expect_exit <status> <stdout> <message> <command...>: runs the
# command with its stdout on <stdout>.
expect_exit() {
    status="$1"
    target="$2"
    want="$3"
    shift 3
    err=$("$@" 2>&1 > "${target}")
    rc=$?
    if [ "${rc}" -ne "${status}" ]; then
        echo "FAIL: exit ${rc}, expected ${status}: $* > ${target}"
        echo "${err}"
        exit 1
    fi
    case "${err}" in
    *"${want}"*) echo "ok: ${err}" ;;
    *)
        echo "FAIL: stderr lacks '${want}': $* > ${target}"
        echo "${err}"
        exit 1
        ;;
    esac
}

case "${case_name}" in
stdout)
    expect_exit 1 /dev/full "cannot write standard output" "${bin}" "$@"
    ;;
detlint_stdout)
    expect_exit 2 /dev/full "cannot write standard output" "${bin}" "$@"
    ;;
trace_run_stdout)
    trace="${dir}/s2_2000.trace"
    "${bin}" trace-record --workload=s2 --accesses=2000 --out="${trace}" \
        > /dev/null || exit 1
    expect_exit 1 /dev/full "cannot write standard output" \
        "${bin}" trace-run --trace="${trace}"
    ;;
run_metrics_out)
    expect_exit 1 /dev/null "cannot write /dev/full" \
        "${bin}" run --accesses=2000 --metrics-out=/dev/full
    ;;
train_out)
    expect_exit 1 /dev/null "cannot write /dev/full" \
        "${bin}" train --accesses=2000 --out=/dev/full
    ;;
trace_record_out)
    expect_exit 1 /dev/null "cannot write /dev/full" \
        "${bin}" trace-record --accesses=2000 --out=/dev/full
    ;;
run_trace_out)
    ln -sf /dev/full "${dir}/full.jsonl"
    expect_exit 1 /dev/null "cannot write ${dir}/full.jsonl" \
        "${bin}" run --accesses=2000 --trace-out="${dir}/full"
    ;;
*)
    echo "unknown case '${case_name}'"
    exit 2
    ;;
esac
