#!/bin/sh
# Feeds one malformed input to the artmem CLI. Passes only when the
# command exits 1 and prints the message naming the file and the bad
# entry (or the flag): malformed input must neither crash the CLI nor be
# silently misread.
#
#   sh tests/cli_rejects_input.sh <artmem> <work-dir> <case>
#
# Cases: trace_page_past_footprint, trace_huge_footprint,
# qtables_truncated, accesses_hex, accesses_signed.
set -u
artmem="$1"
dir="$2"
case_name="$3"
mkdir -p "${dir}"

# expect_exit1 <message> <command...>
expect_exit1() {
    want="$1"
    shift
    out=$("$@" 2>&1)
    rc=$?
    if [ "${rc}" -ne 1 ]; then
        echo "FAIL: exit ${rc}, expected 1: $*"
        echo "${out}"
        exit 1
    fi
    case "${out}" in
    *"${want}"*) echo "ok: ${out}" ;;
    *)
        echo "FAIL: output lacks '${want}': $*"
        echo "${out}"
        exit 1
        ;;
    esac
}

# overwrite <file> <offset> <printf-format>: patch bytes in place.
overwrite() {
    # shellcheck disable=SC2059 # the format carries the octal bytes
    printf "$3" | dd of="$1" bs=1 seek="$2" conv=notrunc 2> /dev/null
}

# record <file>: a 10,000-access s2 trace. The header is 32 bytes: magic,
# u32 version, u32 page_size_log2, u64 footprint at 16, u64 count at 24.
record() {
    "${artmem}" trace-record --workload=s2 --accesses=10000 --out="$1" \
        > /dev/null || exit 1
}

case "${case_name}" in
trace_page_past_footprint)
    trace="${dir}/past_footprint.trace"
    record "${trace}"
    # Access 7 becomes page 0xffff0000.
    overwrite "${trace}" $((32 + 7 * 4)) '\000\000\377\377'
    expect_exit1 "past_footprint.trace: access 7 names page 4294901760" \
        "${artmem}" trace-run --trace="${trace}"
    ;;
trace_huge_footprint)
    trace="${dir}/huge_footprint.trace"
    record "${trace}"
    # Footprint 2^62 bytes, little-endian.
    overwrite "${trace}" 16 '\000\000\000\000\000\000\000\100'
    expect_exit1 "huge_footprint.trace: header footprint 4611686018427387904 spans" \
        "${artmem}" trace-run --trace="${trace}"
    ;;
qtables_truncated)
    tables="${dir}/truncated.qtables"
    printf 'qtable 12 10\n0.25 truncated\n' > "${tables}"
    expect_exit1 "--qtables ${tables}: migration table: truncated or non-numeric body at entry (0,1)" \
        "${artmem}" run --accesses=1000 --qtables="${tables}"
    ;;
accesses_hex)
    expect_exit1 "flag --accesses must be a decimal integer, got '0x1000'" \
        "${artmem}" run --accesses=0x1000
    ;;
accesses_signed)
    expect_exit1 "flag --accesses must be written without a sign, got '+5000'" \
        "${artmem}" run --accesses=+5000
    ;;
*)
    echo "unknown case '${case_name}'"
    exit 2
    ;;
esac
