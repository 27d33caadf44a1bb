#!/usr/bin/env python3
"""Self-test of the benchmark: every workload, briefly, in both passes.

    python3 perfbench/selftest.py

Runs run.py --quick --seconds 1 on every workload with --trace 0 and
--trace 1 and checks that each run exits 0, passes its identity checks
(correct, no failed runs), reports exactly the metrics BENCHMARK.json
lists with their units, and reports no invariant violation.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    names = [w["name"] for w in bench["workloads"]]
    problems = []
    for workload in names:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                   workload, "--seconds", "1", "--trace", str(trace),
                   "--quick"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ROOT)
            label = f"{workload} --trace {trace}"
            before = len(problems)
            try:
                result = json.loads(proc.stdout.splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: no result line\n{proc.stderr}")
                continue
            if proc.returncode != 0:
                problems.append(f"{label}: exit status {proc.returncode}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result.get("correct") or result.get("failed") != 0:
                problems.append(f"{label}: incorrect result\n{proc.stdout}")
            if result.get("attempted", 0) < 1:
                problems.append(f"{label}: nothing attempted")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(
                    f"{label}: metrics differ from BENCHMARK.json: "
                    f"missing {sorted(set(expected[trace]) - set(got))}, "
                    f"extra {sorted(set(got) - set(expected[trace]))}, "
                    f"units {[k for k in got if k in expected[trace] and got[k] != expected[trace][k]]}")
            violations = result["metrics"].get("verify.violations", {})
            if trace == 1 and violations.get("value") != 0:
                problems.append(f"{label}: invariant violations")
            status = "ok" if len(problems) == before else "FAILED"
            print(f"{label}: {status} ({result['attempted']} runs)")
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
