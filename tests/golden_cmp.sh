#!/bin/sh
# Runs a command and compares its stdout byte-for-byte with a committed
# golden file. A change to the output on purpose refreshes the file in
# the same commit and says why in CHANGES.md.
#
#   sh tests/golden_cmp.sh <golden> <out> <command...>
set -u
golden="$1"
out="$2"
shift 2
if ! "$@" > "${out}"; then
    echo "FAIL: command failed: $*"
    exit 1
fi
if ! cmp "${golden}" "${out}"; then
    diff "${golden}" "${out}" | head -20
    exit 1
fi
echo "ok: $* matches ${golden}"
