#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The script configures and builds
the perfbench binary (perfbench/CMakeLists.txt, which compiles the
library from src/) into .bench_build/perfbench, then runs it with the
given arguments. Its last line of output is the JSON result;
build output goes to standard error. Scratch files land in .bench_out.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result.
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src; run from a source checkout")
    build()
    env = dict(os.environ, INTERF_TELEMETRY="0", INTERF_VERIFY="0")
    cmd = [os.path.join(BUILD_DIR, "perfbench"), *sys.argv[1:]]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}")


if __name__ == "__main__":
    main()
