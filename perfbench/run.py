#!/usr/bin/env python3
"""Builds the benchmark and runs one workload of it.

    python3 perfbench/run.py --workload replay_bsld --seed 1 --seconds 15 --trace 0

Run from anywhere; paths resolve against the checkout this file sits in.
The release build goes to $CARGO_TARGET_DIR (default: .bench_build in the
checkout). Build output goes to stderr; the workload's result is the last
line of stdout. See BENCHMARK.json for the workloads and metrics.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; the workloads stop on their own long before.
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="one of the workloads in BENCHMARK.json")
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    exe = os.path.join(ROOT, target, "release", "perfbench")
    # glibc moves its mmap threshold up as large blocks are freed, after
    # which such blocks come from the heap and the high-water mark depends
    # on how the heap happened to fragment: replay's peak read 48, 52 or
    # 56 MiB by seed. Fixed at its starting value (128 KiB), large blocks
    # always come from mmap and go back on free, so peak_rss_mib follows
    # the live data (45.8-46.2 MiB).
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    if args.workload == "serve_mix":
        # The client and the daemon it starts stay on one CPU, so each
        # query is handed over by a context switch, never by a wake-up
        # across CPUs, whose cost moves with the host.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # A process group of its own, so a timeout also stops the daemon the
    # serve workload starts.
    proc = subprocess.Popen(
        [exe, args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
