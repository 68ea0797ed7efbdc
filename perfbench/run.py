#!/usr/bin/env python3
"""End-to-end benchmark of bagcd: builds the daemon and bagc_e2e, then
runs one closed-loop workload against a real bagcd child process.

Usage, from the repository root:

    python3 perfbench/run.py --workload hot_reads|write_global|tenant_churn \
        --seed N [--seconds S] [--trace 0|1] [--smoke]

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; build output goes to stderr. bagc_e2e's output is
passed through unchanged: its last stdout line is the result JSON
({"correct", "attempted", "failed", "metrics"}). With --trace 1 the
run's spans are kept in <build dir>/perfbench-traces/. Exits non-zero,
without a result line, when the build or the run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hot_reads", "write_global", "tenant_churn")
RUN_TIMEOUT_S = 175


def build(build_root):
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1)),
         "--target", "bagc_e2e", "bagcd"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return (os.path.join(build_dir, "bagc_e2e"),
            os.path.join(build_dir, "bagc", "bagcd"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs: every workload in seconds")
    args = parser.parse_args()

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        bench, bagcd = build(build_root)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    work_dir = os.path.join(build_root, "perfbench-work", f"{args.workload}-{args.seed}")
    traces = os.path.join(build_root, "perfbench-traces")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    os.makedirs(traces, exist_ok=True)
    command = [bench, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--bagcd", bagcd, "--work-dir", work_dir,
               "--spans", os.path.join(traces, f"{args.workload}-seed{args.seed}.spans.tsv")]
    if args.smoke:
        command.append("--smoke")
    # Own process group: on a timeout bagc_e2e and every bagcd it
    # spawned are killed together.
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        code = 3
    shutil.rmtree(work_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
