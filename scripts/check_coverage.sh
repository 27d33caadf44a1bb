#!/usr/bin/env bash
# Line-coverage floor on the hot-path libraries (DESIGN.md §9).
#
# Builds an instrumented tree (ARTMEM_COVERAGE=ON), runs the test
# binaries that exercise the overhauled hot path (memsim, lru, sim,
# plus the §9 differential-model and property suites) and the suites
# that alone reach the tenant ledger and the transactional engine
# (tenancy, tx_migration, faults), and enforces a line-coverage floor
# on src/memsim and src/lru. Uses gcovr when
# installed; otherwise falls back to parsing raw `gcov` output, so the
# gate runs even on minimal containers.
#
#   scripts/check_coverage.sh [build-dir]   (default: build-cov)
set -euo pipefail

cd "$(dirname "$0")/.."
build="${1:-build-cov}"
jobs="$(nproc 2>/dev/null || echo 2)"
floor=75  # percent, over src/memsim + src/lru combined

targets=(test_memsim test_lru test_sim test_diff_model test_property
    test_tenancy test_tx_migration test_faults)

echo "==> coverage build (${build})"
cmake -B "${build}" -S . -DCMAKE_BUILD_TYPE=Debug \
    -DARTMEM_COVERAGE=ON > /dev/null
cmake --build "${build}" -j "${jobs}" --target "${targets[@]}"

echo "==> coverage test run"
find "${build}" -name '*.gcda' -delete
for t in "${targets[@]}"; do
    "./${build}/tests/${t}" > /dev/null
done

if command -v gcovr > /dev/null 2>&1; then
    echo "==> gcovr (floor: ${floor}% lines on src/memsim + src/lru)"
    gcovr --root . --object-directory "${build}" \
        --filter 'src/memsim/.*' --filter 'src/lru/.*' \
        --fail-under-line "${floor}" --print-summary
else
    echo "==> gcovr not installed; falling back to raw gcov"
    covdir="${build}/gcov-report"
    rm -rf "${covdir}"
    mkdir -p "${covdir}"
    find "$(pwd)/${build}" -name '*.gcda' \
        \( -path '*memsim*' -o -path '*lru*' \) -print0 |
        (cd "${covdir}" && xargs -0 gcov --preserve-paths > /dev/null)
    python3 - "${covdir}" "${floor}" << 'EOF'
import glob
import os
import sys

covdir, floor = sys.argv[1], float(sys.argv[2])
per_file = {}
for path in glob.glob(os.path.join(covdir, "*.gcov")):
    source = None
    covered = total = 0
    with open(path) as f:
        for line in f:
            fields = line.split(":", 2)
            if len(fields) < 3:
                continue
            count = fields[0].strip()
            if fields[1].strip() == "0" and fields[2].startswith("Source:"):
                source = fields[2][len("Source:"):].strip()
                continue
            if count == "-":
                continue
            total += 1
            if count != "#####" and count != "=====":
                covered += 1
    if source is None or total == 0:
        continue
    norm = os.path.normpath(source)
    if "src/memsim" not in norm and "src/lru" not in norm:
        continue
    # The same source can be instrumented by several test binaries;
    # keep the best-covered instance (gcov reports per object file).
    prev = per_file.get(norm)
    if prev is None or covered / total > prev[0] / prev[1]:
        per_file[norm] = (covered, total)

if not per_file:
    print("check_coverage: no gcov data for src/memsim or src/lru")
    sys.exit(1)

grand_covered = grand_total = 0
for norm in sorted(per_file):
    covered, total = per_file[norm]
    grand_covered += covered
    grand_total += total
    print(f"  {norm}: {100.0 * covered / total:.1f}% ({covered}/{total})")
pct = 100.0 * grand_covered / grand_total
print(f"check_coverage: {pct:.1f}% lines covered "
      f"(floor {floor:.0f}%) over {len(per_file)} files")
sys.exit(0 if pct >= floor else 1)
EOF
fi

echo "==> coverage floor met"
