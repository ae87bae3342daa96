#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, at --scale tiny:
  * an untraced run prints every end-to-end metric with its unit, and a
    traced run every per-layer metric, with correct results;
  * the same seed repeats the printed digests and another seed changes
    them;
  * --corrupt-sample (one flipped bit in a kept sample) is caught by the
    output check and counted as a failed operation.
It also checks that the benchmark refuses to run, without printing a
result, from a directory holding only BENCHMARK.json and perfbench/.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, seed, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--scale", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS, result.keys()
    digests = [l for l in lines if "digest" in l and not l.startswith("iteration")]
    return result, digests


def check_metrics(result, expected, label):
    got = result["metrics"]
    assert set(got) == {m["name"] for m in expected}, (
        label, sorted(set(got) ^ {m["name"] for m in expected}))
    for m in expected:
        v = got[m["name"]]
        assert v["unit"] == m["unit"], (label, m["name"], v["unit"])
        assert isinstance(v["value"], (int, float)) and math.isfinite(
            v["value"]), (label, m["name"], v["value"])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in (w["name"] for w in bench["workloads"]):
        plain, digests = result_of(run(w, 3, 0))
        assert plain["correct"] and plain["failed"] == 0, (w, plain)
        assert plain["attempted"] >= 1, (w, plain)
        check_metrics(plain, bench["end_to_end"], w + " untraced")

        traced, traced_digests = result_of(run(w, 3, 1))
        assert traced["correct"] and traced["failed"] == 0, (w, traced)
        check_metrics(traced, bench["per_layer"], w + " traced")
        assert digests and digests == traced_digests, (w, digests, traced_digests)

        corrupt, other_digests = result_of(run(w, 4, 0, "--corrupt-sample"))
        assert not corrupt["correct"] and corrupt["failed"] >= 1, (w, corrupt)
        assert other_digests != digests, (w, "seed change kept the digests")
        print(f"selftest {w}: ok ({', '.join(digests)})", flush=True)

    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(bench["workloads"][0]["name"], 1, 0, cwd=bare)
    assert proc.returncode != 0, "ran without the sources"
    assert "correct" not in proc.stdout, proc.stdout
    shutil.rmtree(bare)
    print("selftest: refuses to run without the sources: ok")
    print("selftest: ok")


if __name__ == "__main__":
    main()
