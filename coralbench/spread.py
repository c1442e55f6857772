#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

  python3 coralbench/spread.py --runs 10 [--workload NAME] [--first-seed N]

Runs each workload --runs times, one seed per run (first-seed,
first-seed+1, ...), and prints for every metric the median and the
distance between the first and third quartile as a share of the median,
next to a third of the metric's bound in BENCHMARK.json (the spread the
benchmark aims to stay under), then each run's value in seed order, which
is also run order, so a drift of the machine's speed shows. Runs are
sequential, never concurrent.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workload", action="append")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    ok = True
    for w in workloads:
        values = {}
        for i in range(args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w, "--seed", str(args.first_seed + i),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 text=True).stdout.strip().splitlines()
            result = json.loads(out[-1]) if out else {}
            if not result.get("correct"):
                print("%s seed %d: not correct" % (w, args.first_seed + i))
                ok = False
            for name, m in result.get("metrics", {}).items():
                values.setdefault(name, []).append(m["value"])
        print("== %s (%d runs)" % (w, args.runs))
        for name, v in values.items():
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  > bound/3"
            print("  %-28s median %-14.6g spread %6.3f%s%s" % (
                name, med, spread,
                "" if bound is None else "  bound/3 %.3f" % (bound / 3),
                flag))
            print("    " + " ".join("%.6g" % x for x in v))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
