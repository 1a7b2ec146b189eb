#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the perfbench binary from the checkout's sources (first run only;
later runs find the build up to date) and runs one workload.  A timed
run (--trace 0) measures its ten worlds in five processes of two worlds
each, one after another, and pools them: a process can draw a memory
layout that holds for all its worlds (coll_list reads ran at about 75 or
about 100 MiB/s by process), and five draws average that out.  A traced
or --tiny run is one process.  The last stdout line is the result:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload coll_listless --seed 1 \
        --seconds 10 --trace 0

Extra flags (--tiny, --corrupt-read K) are passed to
the binary unchanged; see perfbench/README.md.  Build products and traces
go to .bench_build/ under the checkout root.  Exits non-zero, without a
result line, when the sources are missing, the build fails or the run
times out.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# A first run (build plus run) must end within 900 s, a later one within
# 180 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
PROCESSES = 5
WORLDS_PER_PROCESS = 2


def fail(msg, code=2):
    sys.stderr.write("perfbench/run.py: %s\n" % msg)
    sys.exit(code)


def source_id():
    """The git commit when the checkout is a git work tree of its own,
    else a digest of src/."""
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        out = git.stdout.split()
        if (git.returncode == 0 and len(out) == 2 and
                os.path.realpath(out[0]) == os.path.realpath(ROOT)):
            return "git:" + out[1][:16]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for d, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for f in sorted(files):
            p = os.path.join(d, f)
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "mpiio", "file.hpp")):
        fail("llio sources not found under %s/src" % ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                               timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-8000:] + p.stderr[-8000:])
            fail("build step %s exited %d" % (cmd[:2], p.returncode))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = ap.parse_known_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--source-id", source_id()] + extra
    pooled = args.trace == "0" and "--tiny" not in extra
    if pooled:
        cmd += ["--worlds", str(WORLDS_PER_PROCESS)]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    outs = []
    for _ in range(PROCESSES if pooled else 1):
        try:
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("workload %s timed out after %d s" % (args.workload,
                                                       RUN_TIMEOUT_S), 3)
        out = p.stdout.decode()
        lines = out.strip().splitlines()
        if not pooled or p.returncode != 0 or not lines:
            # One process, or a failed one: its output is the run's.
            sys.stdout.write(out)
            sys.stdout.flush()
            sys.exit(p.returncode)
        outs.append(lines)
    print(pool(outs))


def pool(outs):
    """One result from several processes' outputs: each rate is the mean
    of all worlds' rates, setup_s the median of all set-ups and
    peak_rss_mb the median of the processes' peaks.  The other lines
    (data, steal, host, worlds) are relayed."""
    worlds = {}
    rss = []
    attempted = failed = 0
    for lines in outs:
        res = json.loads(lines[-1])
        attempted += res["attempted"]
        failed += res["failed"]
        rss.append(res["metrics"]["peak_rss_mb"]["value"])
        for line in lines[:-1]:
            print(line)
            if line.startswith("worlds: "):
                for k, v in json.loads(line[len("worlds: "):]).items():
                    worlds.setdefault(k, []).extend(v)
    metrics = {
        "write_mbps_pp": (statistics.fmean(worlds["write_mbps_pp"]), "MiB/s"),
        "read_mbps_pp": (statistics.fmean(worlds["read_mbps_pp"]), "MiB/s"),
        "setup_s": (statistics.median(worlds["setup_s"]), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}})


if __name__ == "__main__":
    main()
