#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs two sets of the same build, interleaved: for run i, every workload
once per set, the workload order reversed on odd i and the set that goes
first alternating.  Each run uses its own seed (set A: 1+i, set B:
1001+i).  Then, for every workload and end-to-end metric in
BENCHMARK.json, prints each set's median and quartiles
(statistics.quantiles, n=4), the spread (Q3-Q1)/median, and the
median-to-median gap in the metric's "worse" direction, against the
metric's bound.

A metric passes when both spreads and the size of the gap, in either
direction, are within its bound; "steady" additionally asks for spreads
below a third of the bound.  Exit status 0 when everything passes.

Usage, from the root of the checkout:

    python3 perfbench/steady.py [--runs 10]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED_A = 1
SEED_B = 1001


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr[-4000:])
        raise SystemExit("run %s seed %d exited %d" % (workload, seed,
                                                        p.returncode))
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit("run %s seed %d was not correct" % (workload, seed))
    out = {k: v["value"] for k, v in res["metrics"].items()}
    steal = [float(l.split()[1]) for l in lines if l.startswith("steal: ")]
    if steal:
        out["steal"] = statistics.fmean(steal)
    return out


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description="interleaved steadiness check")
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    runs = {s: {w: [] for w in names} for s in "AB"}
    for i in range(args.runs):
        order = names if i % 2 == 0 else names[::-1]
        sets = "AB" if i % 2 == 0 else "BA"
        for w in order:
            for s in sets:
                seed = (SEED_A if s == "A" else SEED_B) + i
                r = run_once(spec, w, seed)
                runs[s][w].append(r)
                sys.stderr.write("run %d set %s %s: %s\n" % (
                    i, s, w, " ".join("%s=%.4g" % kv for kv in r.items())))

    ok = True
    print("%-16s %-14s %11s %11s %11s %7s %7s %7s %6s  %s" % (
        "workload", "metric", "median A", "Q1 A", "Q3 A", "sprA",
        "sprB", "gap", "bound", "verdict"))
    for w in names:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = summary([r[name] for r in runs["A"][w]])
            b = summary([r[name] for r in runs["B"][w]])
            sign = 1 if m["better"] == "lower" else -1
            gap = sign * (b[0] - a[0]) / a[0]
            spread = max(a[3], b[3])
            passed = spread <= bound and abs(gap) <= bound
            steady = passed and spread < bound / 3
            ok &= passed
            verdict = "steady" if steady else ("pass" if passed else "FAIL")
            print("%-16s %-14s %11.4g %11.4g %11.4g %7.3f %7.3f %+7.3f "
                  "%6.2f  %s" % (w, name, a[0], a[1], a[2], a[3], b[3], gap,
                                 bound, verdict))
    for w in names:
        steal = {s: [r.get("steal", 0) for r in runs[s][w]] for s in "AB"}
        print("%-16s host steal, median of runs: A %.3f  B %.3f" % (
            w, statistics.median(steal["A"]), statistics.median(steal["B"])))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
