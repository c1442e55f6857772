#!/usr/bin/env python3
"""The benchmark's own tests, on its smoke mode (small inputs, short runs).

  python3 coralbench/test_bench.py

Checks that every workload reports exactly the metrics BENCHMARK.json
lists, with their units, that answers verify, that a traced run writes its
spans, and that a deliberately wrong expected count is reported as a
failed op.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace=0, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "0.6", "--trace",
           str(trace), "--smoke"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):

    def check_metrics(self, result, listed):
        self.assertEqual(set(result.keys()),
                         set(["correct", "attempted", "failed", "metrics"]))
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, {m["name"]: m["unit"] for m in listed})

    def test_end_to_end_metrics(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result = run(w)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0)
                self.check_metrics(result, SPEC["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_per_layer_metrics_and_spans(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                spans_path = os.path.join(ROOT, ".bench_build",
                                          "spans-%s.json" % w)
                if os.path.exists(spans_path):
                    os.remove(spans_path)
                code, result = run(w, 1)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.check_metrics(result, SPEC["per_layer"])
                # On serve_hierarchy this holds by construction: the wire
                # and handle parts are residuals of the round trip.
                # check_serve_split below tests what can fail there.
                self.assertGreaterEqual(
                    result["metrics"]["trace.coverage_pct"]["value"], 90)
                with open(spans_path) as f:
                    spans = json.load(f)["spans"]
                self.assertTrue(spans)
                for s in spans:
                    self.assertEqual(set(s.keys()), set(
                        ["name", "start_us", "end_us", "parent", "op"]))
                    self.assertLessEqual(s["start_us"], s["end_us"])
                    if s["parent"] >= 0:
                        self.assertEqual(spans[s["parent"]]["op"], s["op"])
                if w == "serve_hierarchy":
                    self.check_serve_split(spans)

    def check_serve_split(self, spans):
        """Per op of the split pass, the round trip holds a Handle call,
        which holds an EvalQuery call: round trip >= Handle >= EvalQuery.
        The three are separate calls, so noise breaks the order on some
        ops, but it must hold on most."""
        parts = {}
        for s in spans:
            if s["parent"] >= 0:
                parts.setdefault(s["op"], {})[s["name"]] = (
                    s["end_us"] - s["start_us"])
        split = [p for p in parts.values() if "server.handle" in p]
        self.assertTrue(split)
        ordered = sum(1 for p in split if p["server.round_trip"] >=
                      p["server.handle"] >= p["core.session_eval"])
        self.assertGreaterEqual(ordered / len(split), 2 / 3)

    def test_wrong_expected_count_fails(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, result = run(w, 0, "--skew-expected", "1")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
