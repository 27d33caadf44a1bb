#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload ycsb --seed 42 --seconds 25 --trace 0

--workload is one of the names in perfbench/rationale.json, or "all" to
run every workload in turn, each in its own process. --trace 0 prints
the end-to-end metrics, --trace 1 the per-layer metrics of a traced
pass; the spans of one traced repetition are written under the build
directory's spans/ folder. The last line of standard output is a JSON
object with correct, attempted, failed and metrics. The exit status is
non-zero when a result is wrong or the program cannot be built.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path, "perfbench")


def build():
    """Configure once, then build incrementally; return the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "engine.hpp")):
        fail(f"no simulator sources under {os.path.join(ROOT, 'src')}")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        # Build output goes to stderr so stdout ends with the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def commit():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unavailable"
    lines = top.stdout.split()
    if len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unavailable"
    return lines[1]


def run_one(binary, args, workload):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    if args.trace == 1:
        spans = os.path.join(os.path.dirname(binary), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans, workload + ".jsonl")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
            lines.pop()
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def main():
    with open(os.path.join(HERE, "rationale.json")) as f:
        rationale = json.load(f)
    names = list(rationale["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=names + ["all"])
    parser.add_argument("--seed", type=int,
                        default=rationale["default_seed"])
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--quick", action="store_true",
                        help="shrink every job (self-test only)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    # The binary stamps nproc, compiler, build type, invariant hooks and
    # seed; the source revision and the seed policy are known here.
    print(f"env commit={commit()} default_seed={rationale['default_seed']}"
          f" heldout_seed={rationale['heldout_seed']}")
    workloads = names if args.workload == "all" else [args.workload]
    status = 0
    results = {}
    for workload in workloads:
        code, lines, result = run_one(binary, args, workload)
        for line in lines:
            print(line if len(workloads) == 1 else f"[{workload}] {line}")
        if result is None:
            fail(f"{workload} exited {code} without a result")
        status = status or code
        results[workload] = result

    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    sys.exit(status)


if __name__ == "__main__":
    main()
