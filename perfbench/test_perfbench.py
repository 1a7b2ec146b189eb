#!/usr/bin/env python3
"""Tests of the repository benchmark itself, in its tiny-count mode.

Run from the root of the checkout (builds the benchmark on first use):

    python3 perfbench/test_perfbench.py
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Counts that must repeat exactly for a given op geometry, whatever the
# seed and however long the run.
EXACT = ["listio.list_bytes_per_byte", "simmpi.msgs_per_op",
         "simmpi.data_bytes_per_byte", "simmpi.meta_bytes_per_byte",
         "pfs.calls_per_op", "psrv.wire_bytes_per_byte",
         "psrv.wire_msgs_per_op", "psrv.segments_per_op",
         "dtype.olist_entries_per_op"]


def tiny(workload, seed=1, trace=0, *extra):
    p = subprocess.run(RUN + ["--workload", workload, "--seed", str(seed),
                              "--seconds", "1", "--trace", str(trace),
                              "--tiny"] + list(extra),
                       cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    data = [l for l in lines if l.startswith("data: ")]
    return p.returncode, json.loads(lines[-1]), data[0] if data else None


class Cache:
    runs = {}

    @classmethod
    def get(cls, workload, seed=1, trace=0):
        key = (workload, seed, trace)
        if key not in cls.runs:
            cls.runs[key] = tiny(workload, seed, trace)
        return cls.runs[key]


class MetricsTest(unittest.TestCase):
    def check_named(self, trace, declared):
        for w in WORKLOADS:
            code, res, _ = Cache.get(w, trace=trace)
            self.assertEqual(code, 0, w)
            self.assertTrue(res["correct"], w)
            self.assertEqual(res["failed"], 0, w)
            self.assertGreaterEqual(res["attempted"], 1, w)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            self.assertEqual(got, want, w)
            for k, v in res["metrics"].items():
                self.assertIsInstance(v["value"], (int, float), (w, k))

    def test_end_to_end_metrics_named_with_units(self):
        self.check_named(0, SPEC["end_to_end"])
        for w in WORKLOADS:
            m = Cache.get(w)[1]["metrics"]
            for k in ("write_mbps_pp", "read_mbps_pp", "setup_s",
                      "peak_rss_mb"):
                self.assertGreater(m[k]["value"], 0, (w, k))

    def test_per_layer_metrics_named_with_units(self):
        self.check_named(1, SPEC["per_layer"])

    def test_layers_idle_where_predicted(self):
        listless = Cache.get("coll_listless", trace=1)[1]["metrics"]
        for k in ("listio.build_ms_per_op", "listio.list_bytes_per_byte",
                  "listio.list_mem_mb"):
            self.assertEqual(listless[k]["value"], 0, k)
        listed = Cache.get("coll_list", trace=1)[1]["metrics"]
        self.assertGreater(listed["listio.list_bytes_per_byte"]["value"], 0)
        for w in WORKLOADS:
            m = Cache.get(w, trace=1)[1]["metrics"]
            psrv = [k for k in m if k.startswith("psrv.")]
            self.assertTrue(psrv)
            for k in psrv:
                if w == "psrv_view":
                    continue
                self.assertEqual(m[k]["value"], 0, (w, k))
            # Rank threads, I/O workers and servers; run.threads already
            # leaves out the main thread, which only waits.
            self.assertLessEqual(m["run.threads"]["value"], 4, w)
            self.assertEqual(m["run.fail_frac"]["value"], 0, w)


class PoolTest(unittest.TestCase):
    def test_pool_averages_worlds_over_processes(self):
        def out(write, read, setup, rss, attempted, failed=0):
            worlds = {"write_mbps_pp": write, "read_mbps_pp": read,
                      "setup_s": setup}
            res = {"correct": failed == 0, "attempted": attempted,
                   "failed": failed,
                   "metrics": {"peak_rss_mb": {"value": rss, "unit": "MB"}}}
            return ["data: 0", "worlds: " + json.dumps(worlds),
                    json.dumps(res)]
        relayed = io.StringIO()
        with contextlib.redirect_stdout(relayed):
            res = json.loads(run.pool([
                out([1, 2], [10, 20], [0.1, 0.5], 100, 7),
                out([3, 6], [30, 40], [0.2, 0.3], 300, 5),
                out([8, 0], [0, 0], [0.9, 0.4], 200, 1)]))
        self.assertEqual(relayed.getvalue().count("worlds: "), 3)
        m = {k: v["value"] for k, v in res["metrics"].items()}
        self.assertEqual(m, {"write_mbps_pp": 20 / 6, "read_mbps_pp": 100 / 6,
                             "setup_s": 0.35, "peak_rss_mb": 200})
        self.assertEqual((res["correct"], res["attempted"], res["failed"]),
                         (True, 13, 0))


class CorrectnessTest(unittest.TestCase):
    def test_corrupted_read_fails_the_run(self):
        code, res, _ = tiny("coll_listless", 1, 0, "--corrupt-read", "0")
        self.assertNotEqual(code, 0)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        code, res, _ = tiny("psrv_view", 1, 1, "--corrupt-read", "1")
        self.assertNotEqual(code, 0)
        self.assertGreater(res["metrics"]["run.fail_frac"]["value"], 0)

    def test_missing_sources_fail_without_result(self):
        tmp = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_build"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(
                SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                                   "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)
        finally:
            shutil.rmtree(tmp)


class SeedTest(unittest.TestCase):
    def test_seed_changes_data_not_counts(self):
        for w in ("coll_list", "psrv_view"):
            a_code, a, a_data = Cache.get(w, 1, 1)
            _, a2, a2_data = tiny(w, 1, 1)
            _, b, b_data = Cache.get(w, 2, 1)
            self.assertEqual(a_code, 0)
            self.assertEqual(a_data, a2_data, w)
            self.assertNotEqual(a_data, b_data, w)
            self.assertEqual(a["attempted"], b["attempted"], w)
            for k in EXACT + ["mpiio.samples"]:
                va = a["metrics"][k]["value"]
                self.assertEqual(va, a2["metrics"][k]["value"], (w, k))
                self.assertEqual(va, b["metrics"][k]["value"], (w, k))


if __name__ == "__main__":
    unittest.main()
