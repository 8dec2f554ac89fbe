#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Runs every workload at `--size tiny` (seconds, not minutes) through run.py
and checks that:
  - each run prints the result JSON with exactly the keys correct,
    attempted, failed and metrics: every end-to-end metric of
    BENCHMARK.json with its unit at --trace 0, every per-layer metric with
    its unit at --trace 1;
  - two invocations with the same seed repeat every modeled metric and
    every count bit for bit;
  - a deliberately corrupted reference (--corrupt-reference) makes the
    answer check fail: exit status non-zero, "correct": false;
  - a directory holding only BENCHMARK.json and perfbench/ (no engine
    sources) makes run.py fail without printing a result.
"""
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra, seed=7, cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"] + list(extra)
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600,
                          env=env)


def result(proc):
    lines = proc.stdout.strip().splitlines()
    assert lines, "no output; stderr:\n" + proc.stderr[-2000:]
    return json.loads(lines[-1])


def is_exact(name):
    """Metrics that come from the modeled clock or are counts."""
    if "modeled" in name or name == "serve_max_rps":
        return True
    if name in ("partition.hot_owner_x", "stream.rebuild_frac",
                "failed_frac"):
        return True
    return name.startswith(("core.", "serve.")) and not name.endswith("_s")


class Benchmark(unittest.TestCase):
    def check_shape(self, res, specs):
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertIs(res["correct"], True)
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(set(res["metrics"]), {m["name"] for m in specs})
        for m in specs:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_end_to_end_metrics_repeat(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, b = run(w, 0), run(w, 0)
                self.assertEqual(a.returncode, 0, a.stderr[-2000:])
                self.assertEqual(b.returncode, 0, b.stderr[-2000:])
                ra, rb = result(a), result(b)
                self.check_shape(ra, SPEC["end_to_end"])
                self.check_shape(rb, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(ra["metrics"][m["name"]]["value"], 0,
                                       m["name"])
                    if is_exact(m["name"]):
                        self.assertEqual(ra["metrics"][m["name"]],
                                         rb["metrics"][m["name"]], m["name"])

    def test_per_layer_metrics_repeat(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, b = run(w, 1), run(w, 1)
                self.assertEqual(a.returncode, 0, a.stderr[-2000:])
                ra, rb = result(a), result(b)
                self.check_shape(ra, SPEC["per_layer"])
                for m in SPEC["per_layer"]:
                    if is_exact(m["name"]):
                        self.assertEqual(ra["metrics"][m["name"]],
                                         rb["metrics"][m["name"]], m["name"])

    def test_corrupted_reference_fails(self):
        p = run(WORKLOADS[0], 0, "--corrupt-reference")
        self.assertNotEqual(p.returncode, 0)
        res = result(p)
        self.assertIs(res["correct"], False)
        self.assertGreater(res["failed"], 0)

    def test_fails_without_engine_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        try:
            p = run(WORKLOADS[0], 0, cwd=bare, env=env)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
