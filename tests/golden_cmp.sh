#!/bin/sh
# The one output check. Runs a command and compares what it writes,
# byte for byte, with the committed corpus: results/*.txt (each
# harness at its defaults) and tests/golden/. tests/CMakeLists.txt
# registers every case as a golden.* ctest.
#
#   sh tests/golden_cmp.sh <golden> <out-dir> <command...>
#
# <out-dir> is emptied and the command's stdout goes to <out-dir>/stdout.
# A golden file holds that stdout. A golden directory holds a case with
# several outputs; the command writes its other files into <out-dir>.
#   - <golden>/<name> is compared in full with <out-dir>/<name>;
#   - <golden>/<name>.sha256 holds the sha256sum line of
#     <out-dir>/<name> (trace files, too large to commit);
#   - every file in <out-dir> must have one of the two, and every
#     *.json there must pass python3 -m json.tool.
#
# There is no update mode. A change that alters an output on purpose
# copies the new outputs over the goldens in the same commit and says
# why in CHANGES.md.
set -u
golden="$1"
out="$2"
shift 2

fail() {
    echo "FAIL: $*"
    exit 1
}

# same <golden-file> <output-file>
same() {
    if ! cmp "$1" "$2"; then
        diff "$1" "$2" | head -20
        fail "$2 does not match $1"
    fi
}

rm -rf "${out}"
mkdir -p "${out}"
"$@" > "${out}/stdout" || fail "command failed: $*"
if [ -f "${golden}" ]; then
    same "${golden}" "${out}/stdout"
    echo "ok: $* matches ${golden}"
    exit 0
fi

[ -d "${golden}" ] || fail "no golden ${golden}"
golden=$(cd "${golden}" && pwd)
for want in "${golden}"/*; do
    name=$(basename "${want}")
    case "${name}" in
    *.sha256)
        (cd "${out}" && sha256sum --quiet -c "${want}") ||
            fail "${out}/${name%.sha256} does not match ${want}"
        ;;
    *) same "${want}" "${out}/${name}" ;;
    esac
done
for got in "${out}"/*; do
    name=$(basename "${got}")
    [ -f "${golden}/${name}" ] || [ -f "${golden}/${name}.sha256" ] ||
        fail "${got} has no golden in ${golden}"
    case "${name}" in
    *.json)
        python3 -m json.tool "${got}" > /dev/null ||
            fail "${got} is not valid JSON"
        ;;
    esac
done
echo "ok: $* matches ${golden}"
