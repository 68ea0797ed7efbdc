#!/usr/bin/env python3
"""Smoke test of the bagcd end-to-end benchmark: runs every workload end
to end with small inputs (--smoke), untraced and traced, and checks that
each run answers correctly and prints exactly the metrics BENCHMARK.json
declares.

Usage, from the repository root:

    python3 perfbench/smoke_test.py

Exits 0 when every run passes; prints the failing run and exits 1
otherwise. Takes well under a minute once the binaries are built.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--smoke"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            try:
                result = run(workload, trace)
                assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
                assert result["correct"] is True, "wrong answers"
                assert result["failed"] == 0, f"{result['failed']} failed requests"
                assert result["attempted"] >= 1, "nothing attempted"
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                assert units == expected[trace], f"metrics differ: {sorted(units)}"
                if trace == 0:
                    for name, metric in result["metrics"].items():
                        assert metric["value"] > 0, f"{name} is {metric['value']}"
                print(f"ok   {label}")
            except (AssertionError, ValueError, subprocess.TimeoutExpired) as e:
                failures += 1
                print(f"FAIL {label}: {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
