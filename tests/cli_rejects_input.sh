#!/bin/sh
# Feeds one malformed input to the artmem CLI (or, for
# example_unknown_flag, to an example). Passes only when the command
# exits 1 and prints the message naming the file and the bad entry (or
# the flag): malformed input must neither crash the CLI nor be silently
# misread.
#
#   sh tests/cli_rejects_input.sh <artmem|example> <work-dir> <case>
#
# Cases: trace_page_past_footprint, trace_huge_footprint,
# qtables_truncated, accesses_hex, accesses_signed, fault_config_nan,
# fault_config_inf, fault_config_huge_factor, fault_config_no_period,
# fault_config_bad_fraction, tx_write_ratio_nan, fault_seed_alone,
# accesses_with_masim_config, masim_config_missing_equals,
# tenant_config_unknown_key, tenant_config_zero_quantum,
# tenant_mix_past_tenants, tenant_weights_past_tenants,
# tenant_config_mix_past_tenants, one flag each
# that sweep, run, train, trace-record and trace-run do not read
# (<command>_<flag>), and example_unknown_flag.
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
fault_config_nan | fault_config_inf)
    # nan and inf both pass the factor's >= 1 check; a NaN factor cast
    # to simulated nanoseconds is undefined behaviour.
    value="${case_name#fault_config_}"
    config="${dir}/degrade_${value}.cfg"
    printf 'fault.degrade_latency_factor = %s\nfault.degrade_period_ms = 1\nfault.degrade_duration_ms = 1\n' \
        "${value}" > "${config}"
    expect_exit1 "${config}: key 'fault.degrade_latency_factor' must be finite, got '${value}'" \
        "${artmem}" run --accesses=100000 --fault-config="${config}"
    ;;
fault_config_huge_factor)
    # 323 ns x 1e30 does not fit simulated nanoseconds: the cast is
    # undefined behaviour, and the "degraded" run used to come out
    # faster than the fault-free one.
    config="${dir}/degrade_huge.cfg"
    printf 'fault.degrade_latency_factor = 1e30\nfault.degrade_period_ms = 40\nfault.degrade_duration_ms = 10\n' \
        > "${config}"
    expect_exit1 "degrade_latency_factor must be at most 1e6, got 1e+30" \
        "${artmem}" run --workload=s2 --policy=artmem --ratio=1:4 \
        --accesses=200000 --fault-config="${config}"
    ;;
fault_config_no_period)
    # Without a degrade period the window never opens: the factor and
    # duration used to be ignored and the run came out fault-free.
    config="${dir}/degrade_no_period.cfg"
    printf 'fault.degrade_latency_factor = 4\nfault.degrade_duration_ms = 10\n' \
        > "${config}"
    expect_exit1 "fault.degrade_latency_factor is set but fault.degrade_period_ms is 0" \
        "${artmem}" run --workload=s2 --policy=artmem --ratio=1:4 \
        --accesses=200000 --fault-config="${config}"
    ;;
# An out-of-range value names the file it came from, not only the field.
fault_config_bad_fraction)
    config="${dir}/pinned_two.cfg"
    printf 'fault.pinned_fraction = 2\n' > "${config}"
    expect_exit1 "${config}: FaultConfig: pinned_fraction must be in [0,1], got 2" \
        "${artmem}" run --accesses=1000 --fault-config="${config}"
    ;;
tx_write_ratio_nan)
    expect_exit1 "flag --tx-write-ratio must be finite, got 'nan'" \
        "${artmem}" run --accesses=100000 --tx-migration --tx-write-ratio=nan
    ;;
# A fault seed without a fault model used to be ignored: the run printed
# the same bytes as one without it.
fault_seed_alone)
    expect_exit1 "--fault-seed requires --fault-scenario or --fault-config" \
        "${artmem}" run --accesses=1000 --fault-seed=7
    ;;
# A MASIM config's phases set its accesses, so a budget would be ignored.
accesses_with_masim_config)
    config="${dir}/one_phase.cfg"
    printf 'footprint_mib = 64\nphases = 1\nphase0.accesses = 1000\nphase0.regions = 1\nphase0.region0 = 0 64 1\n' \
        > "${config}"
    expect_exit1 "--accesses does not apply to --workload=${config}" \
        "${artmem}" run --workload="${config}" --accesses=5000
    ;;
# A config file's syntax and key errors name the file.
masim_config_missing_equals)
    config="${dir}/missing_equals.cfg"
    printf 'footprint_mib = 64\nphases = 1\nphase0.accesses 1000\n' \
        > "${config}"
    expect_exit1 "${config}: missing '=' on line 3: phase0.accesses 1000" \
        "${artmem}" run --workload="${config}"
    ;;
tenant_config_unknown_key)
    config="${dir}/tenant_typo.cfg"
    printf 'tenancy.tenants = 4\ntenancy.quotta = 0.25\n' > "${config}"
    expect_exit1 "${config}: unknown key 'tenancy.quotta'" \
        "${artmem}" run --accesses=1000 --tenant-config="${config}"
    ;;
tenant_config_zero_quantum)
    config="${dir}/tenant_zero_quantum.cfg"
    printf 'tenancy.tenants = 4\ntenancy.quantum = 0\n' > "${config}"
    expect_exit1 "${config}: tenancy: quantum must be positive" \
        "${artmem}" run --accesses=1000 --tenant-config="${config}"
    ;;
# A list entry past the tenant count used to be dropped silently: with
# two tenants, btree never ran.
tenant_mix_past_tenants)
    expect_exit1 "tenancy: --tenant-mix lists 3 workloads for 2 tenants" \
        "${artmem}" run --accesses=1000 --tenants=2 \
        --tenant-mix=s2,ycsb,btree
    ;;
tenant_weights_past_tenants)
    expect_exit1 "tenancy: --tenant-weights lists 3 weights for 2 tenants" \
        "${artmem}" run --accesses=1000 --tenants=2 --tenant-weights=1,2,3
    ;;
tenant_config_mix_past_tenants)
    config="${dir}/tenant_long_mix.cfg"
    printf 'tenancy.tenants = 2\ntenancy.mix = s2,ycsb,btree\n' > "${config}"
    expect_exit1 \
        "${config}: tenancy: tenancy.mix lists 3 workloads for 2 tenants" \
        "${artmem}" run --accesses=1000 --tenant-config="${config}"
    ;;
# A flag the subcommand does not read used to be dropped silently: the
# sweep still ran every policy at every ratio, and trace-run printed
# the fault-free result.
sweep_policy)
    expect_exit1 "unknown flag --policy (artmem sweep does not read it" \
        "${artmem}" sweep --accesses=1000 --policy=tpp --ratio=1:8
    ;;
sweep_json)
    expect_exit1 "unknown flag --json (artmem sweep does not read it" \
        "${artmem}" sweep --accesses=1000 --json
    ;;
run_csv)
    expect_exit1 "unknown flag --csv (artmem run does not read it" \
        "${artmem}" run --accesses=1000 --csv --jobs=3
    ;;
run_tx_writes)
    expect_exit1 "unknown flag --tx-writes (artmem run does not read it" \
        "${artmem}" run --accesses=1000 --tx-migration --tx-writes=0.5
    ;;
train_metrics_out)
    expect_exit1 "unknown flag --metrics-out (artmem train does not read it" \
        "${artmem}" train --accesses=1000 --metrics-out="${dir}/train.json" \
        --trace-out="${dir}/train" --out="${dir}/train.qtables"
    ;;
trace_record_fault_scenario)
    expect_exit1 "unknown flag --fault-scenario (artmem trace-record does" \
        "${artmem}" trace-record --accesses=1000 --fault-scenario=degrade \
        --tenants=4 --out="${dir}/unused.trace"
    ;;
trace_run_tenants)
    expect_exit1 "unknown flag --tenants (artmem trace-run does not read it" \
        "${artmem}" trace-run --trace="${dir}/unused.trace" \
        --fault-scenario=degrade --check-invariants --tenants=4
    ;;
# The examples used to run their default on a misspelled flag.
example_unknown_flag)
    expect_exit1 "unknown flag --baselin" \
        "${artmem}" --accesses=1000 --baselin=tpp
    ;;
*)
    echo "unknown case '${case_name}'"
    exit 2
    ;;
esac
