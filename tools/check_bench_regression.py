#!/usr/bin/env python3
"""Compare a bench --json report against a committed baseline.

Usage: check_bench_regression.py BASELINE.json CURRENT.json [--threshold 0.10]
           [--verdict-json VERDICT.json]

For every row present in both reports (matched by benchmark name), the
current layouts_per_sec is compared against the baseline. Rows more than
the threshold slower are reported. CI hosts are shared and noisy, so a
regression is a soft warning — the script prints GitHub Actions
::warning:: annotations and always exits 0 — but the annotations land on
the PR, so a real regression is visible where the change is reviewed.

--verdict-json writes the same comparison machine-readably (one object
with per-row baseline/current/delta/verdict), so later steps can act on
the outcome without scraping the log.

A missing or unparsable report is a hard error (exit 2): a soft-warn
there would let a renamed baseline silently disable the check forever.

Stdlib only; the baseline lives at the repo root as BENCH_replay.json.
"""

import argparse
import json
import sys


def load_report(path, role):
    """Parse one report file, or exit 2 with a typed message.

    `role` is "baseline" or "current" so the error says which side of
    the comparison is broken.
    """
    try:
        with open(path) as f:
            report = json.load(f)
    except OSError as e:
        print(f"error: {role} report {path} missing or unreadable: "
              f"{e}", file=sys.stderr)
        sys.exit(2)
    except json.JSONDecodeError as e:
        print(f"error: {role} report {path} is not valid JSON: {e}",
              file=sys.stderr)
        sys.exit(2)
    if not isinstance(report, dict):
        print(f"error: {role} report {path} must be a JSON object, "
              f"got {type(report).__name__}", file=sys.stderr)
        sys.exit(2)
    return report


def rows_by_name(report):
    # First row wins on duplicate names (setdefault): multi-thread-axis
    # reports emit one row per thread count under the same benchmark
    # name (only the config field differs), and the single-thread row is
    # emitted first, so baselines and currents both compare the
    # single-thread row — like-for-like regardless of the CI host's
    # core count.
    out = {}
    for row in report.get("rows", []):
        out.setdefault(row["benchmark"], row)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="fractional slowdown that triggers a warning")
    ap.add_argument("--verdict-json", metavar="PATH",
                    help="write the comparison as one machine-readable "
                         "JSON document")
    args = ap.parse_args()

    base = rows_by_name(load_report(args.baseline, "baseline"))
    cur = rows_by_name(load_report(args.current, "current"))

    shared = sorted(set(base) & set(cur))
    verdict_rows = []
    regressed = 0
    if not shared:
        print("::warning::no common benchmark rows between "
              f"{args.baseline} and {args.current}")
    for name in shared:
        b = base[name].get("layouts_per_sec", 0.0)
        c = cur[name].get("layouts_per_sec", 0.0)
        if b <= 0:
            continue
        delta = (c - b) / b
        status = "ok"
        if delta < -args.threshold:
            regressed += 1
            status = "REGRESSED"
            print(f"::warning file=BENCH_replay.json::{name}: "
                  f"{c:.1f} layouts/sec vs baseline {b:.1f} "
                  f"({delta:+.1%})")
        print(f"{name:40s} {b:10.1f} -> {c:10.1f}  {delta:+7.1%}  {status}")
        verdict_rows.append({
            "benchmark": name,
            "baseline": b,
            "current": c,
            "delta": delta,
            "verdict": status,
        })

    if args.verdict_json:
        verdict = {
            "schema": "interf-bench-verdict-1",
            "threshold": args.threshold,
            "shared_rows": len(verdict_rows),
            "regressed_rows": regressed,
            "rows": verdict_rows,
        }
        with open(args.verdict_json, "w") as f:
            json.dump(verdict, f, indent=1)
            f.write("\n")

    if not shared:
        return 0
    if regressed:
        print(f"{regressed}/{len(shared)} rows slower than baseline by "
              f"more than {args.threshold:.0%} (soft warning only: CI "
              "perf is noisy; refresh the baseline if this persists)")
    else:
        print(f"all {len(shared)} shared rows within {args.threshold:.0%} "
              "of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
