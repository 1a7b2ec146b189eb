#!/usr/bin/env python3
"""Gate bench_ablation_zerocopy runs: zero-copy must not lose to staging.

Usage:
    check_zerocopy.py RUN [RUN ...] [--min-speedup 1.0]

Each RUN holds one JSON object per line (the `sed -n 's/^json://p'`
extraction of one bench pass; a leading schema line is tolerated).
The gate is within-run, so machine speed cancels out:

  * every dense-workload zerocopy=auto row (one per backend) must reach
    at least --min-speedup x its own staged (zerocopy=off) baseline, in
    the median over the passes given — one pass slowed by a concurrent
    job cannot fail the gate on its own, and
  * dense auto rows must actually have taken the descriptor path
    (zerocopy_windows > 0, staging_bytes_saved > 0) in every pass — a
    silently disengaged fast path would otherwise pass at 1.0x forever.

Holey rows are reported but not gated: staging may legitimately win
there, which is exactly why llio_zerocopy=auto falls back per window.

Exit status: 0 when the gate holds, 1 otherwise.
"""

import argparse
import json
import statistics
import sys


def load_rows(path):
    rows = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or not line.startswith("{"):
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                print(f"error: {path}:{lineno}: invalid JSON record: {e.msg}",
                      file=sys.stderr)
                raise SystemExit(1)
            if not isinstance(row, dict) or row.get("bench") != "ablation_zerocopy":
                continue
            for field in ("backend", "workload", "zerocopy",
                          "speedup_vs_staged", "zerocopy_windows",
                          "staging_bytes_saved"):
                if field not in row:
                    print(f"error: {path}:{lineno}: row missing required "
                          f"field {field!r}", file=sys.stderr)
                    raise SystemExit(1)
            rows.append(row)
    return rows


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("runs", nargs="+", metavar="RUN")
    ap.add_argument("--min-speedup", type=float, default=1.0,
                    help="floor for the median dense auto vs staged "
                         "speedup (default 1.0)")
    args = ap.parse_args()

    # (backend, workload) -> the auto row of each pass, in pass order.
    by_row = {}
    for path in args.runs:
        auto_rows = [r for r in load_rows(path) if r["zerocopy"] == "auto"]
        if not auto_rows:
            print(f"error: no zerocopy=auto rows in {path}")
            return 1
        for r in auto_rows:
            by_row.setdefault((r["backend"], r["workload"]), []).append(r)

    failed = False
    for (backend, workload), rows in by_row.items():
        dense = workload == "dense"
        speedups = [r["speedup_vs_staged"] for r in rows]
        speedup = statistics.median(speedups)
        problems = []
        if dense and speedup < args.min_speedup:
            problems.append(f"median speedup {speedup:.2f} < floor "
                            f"{args.min_speedup:.2f}")
        if dense and any(r["zerocopy_windows"] <= 0 for r in rows):
            problems.append("descriptor path never engaged")
        if dense and any(r["staging_bytes_saved"] <= 0 for r in rows):
            problems.append("no staging bytes saved")
        verdict = "FAILED: " + "; ".join(problems) if problems else (
            "ok" if dense else "ok (not gated)")
        passes = " ".join(f"{x:.2f}" for x in speedups)
        print(f"{backend:>10} {workload:<6} "
              f"speedup {speedup:5.2f}x (passes {passes})  "
              f"zc_windows {min(r['zerocopy_windows'] for r in rows):>4}  "
              f"{verdict}")
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
