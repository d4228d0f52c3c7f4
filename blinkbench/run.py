#!/usr/bin/env python3
"""Builds the library and the benchmark program from source, then runs one
workload of the repository benchmark (see blinkbench/README.md).

    python3 blinkbench/run.py --workload alloc_churn --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The build goes to .bench_build/blinkbench
(configured once, rebuilt incrementally on every run); build output goes to
standard error, so the last line of standard output is the benchmark's JSON
result. Exits non-zero, without a result, when the checkout holds no library
sources or the build fails.
"""

import argparse
import ctypes
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "blinkbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "blinkbench-work")
WORKLOADS = ("alloc_churn", "cluster_step", "serve_repair")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # reserved for confirming gain claims; never tune on it


def build():
    if not (os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isdir(os.path.join(ROOT, "include", "blink"))):
        print("blinkbench: no library sources (src/, include/blink/) next to "
              "the benchmark; run from a full checkout", file=sys.stderr)
        return False
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("blinkbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def no_address_randomization():
    """Runs in the benchmark child before exec: a fixed address-space layout
    keeps cache-conflict luck from varying between runs of one binary."""
    addr_no_randomize = 0x0040000
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xffffffff)
        if current != -1:
            libc.personality(current | addr_no_randomize)
    except (OSError, AttributeError):
        pass  # not Linux: run with the default layout


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="input seed (default %d; %d is held out)"
                        % (DEFAULT_SEED, HELD_OUT_SEED))
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not build():
        return 1
    cmd = [os.path.join(BUILD_DIR, "blinkbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT,
                          preexec_fn=no_address_randomization).returncode


if __name__ == "__main__":
    sys.exit(main())
