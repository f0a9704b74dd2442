#!/usr/bin/env python3
"""Benchmark entry point: builds the benchmark from source, writes the
workload's seeded input graph in one process, and measures it in another.

    python3 perfbench/run.py --workload summarize-ba --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) and scratch files to .bench_work; both stay inside
the checkout. The last line of standard output is the measuring
process's JSON result. Exits non-zero, printing no result, when the build,
the generator or the measurement fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
WORKLOADS = ("summarize-ba", "serve-tenants", "query-cluster")
# Every run must end within this many seconds of starting; the first
# build in a checkout has its own, longer allowance.
RUN_LIMIT_S = 175
BUILD_LIMIT_S = 850


def run_child(cmd, limit_s, capture=False):
    """Runs cmd with stderr passed through; kills and reaps it on timeout."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else sys.stderr,
        stderr=sys.stderr,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(limit_s, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: {cmd[0]} exceeded {limit_s:.0f} s")
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    code, _ = run_child(build + ["--target-dir", target], BUILD_LIMIT_S)
    if code != 0:
        raise SystemExit(f"perfbench: build failed with exit code {code}")
    binary = os.path.join(target, "release", "pgs-perfbench")

    started = time.monotonic()
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        graph = os.path.join(work, "graph.txt")
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        code, _ = run_child([binary, "gen"] + common + ["--out", graph], RUN_LIMIT_S)
        if code != 0:
            raise SystemExit(f"perfbench: input generation failed with exit code {code}")
        measure = [binary, "run"] + common + [
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--graph", graph,
            "--work", work,
        ]
        left = RUN_LIMIT_S - (time.monotonic() - started)
        code, out = run_child(measure, left, capture=True)
        # A run whose checks failed still prints its result line, with
        # "correct": false, and exits non-zero.
        sys.stdout.write(out)
        sys.stdout.flush()
        if code != 0:
            raise SystemExit(f"perfbench: measurement failed with exit code {code}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
