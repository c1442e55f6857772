#!/usr/bin/env python3
"""Builds and runs the CORAL repo benchmark (see README.md here).

Run from the repository root:

  python3 coralbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 coralbench/run.py --workload all     # every workload, one table

The first run configures and builds the engine and the benchmark binary
under .bench_build/coralbench; later runs only rebuild what changed. Build
output goes to stderr; stdout carries the metric lines and, last, the JSON
result. Traced runs also write their spans to
.bench_build/spans-<workload>.json. The exit code is the benchmark's: 0
only when every op's answer was correct.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(OUT, "coralbench")
BINARY = os.path.join(BUILD, "coralbench")
WORKLOADS = ["serve_hierarchy", "update_fresh", "batch_closure"]
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "coralbench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_one(args, workload, trace):
    """Runs one workload; returns (exit code, stdout text)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans-out", os.path.join(OUT, "spans-%s.json" % workload)]
    if args.smoke:
        cmd.append("--smoke")
    if args.skew_expected:
        cmd += ["--skew-expected", str(args.skew_expected)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("coralbench: %s timed out" % workload, file=sys.stderr)
        return 1, ""
    return proc.returncode, out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small inputs, for the benchmark's own tests")
    p.add_argument("--skew-expected", type=int, default=0,
                   help="test hook: offsets every expected answer count")
    args = p.parse_args()

    if not build():
        print("coralbench: build failed", file=sys.stderr)
        return 2

    if args.workload != "all":
        code, out = run_one(args, args.workload, args.trace)
        sys.stdout.write(out)
        return code

    # Every workload: each one's metric lines under its name, then one
    # JSON line with all the results.
    results, worst = {}, 0
    for w in WORKLOADS:
        code, out = run_one(args, w, args.trace)
        worst = max(worst, code)
        lines = out.strip().splitlines()
        print("== %s" % w)
        for line in lines[:-1]:
            print("  " + line)
        try:
            results[w] = json.loads(lines[-1])
        except (IndexError, ValueError):
            results[w] = None
            worst = max(worst, 1)
    print(json.dumps(results))
    return worst


if __name__ == "__main__":
    sys.exit(main())
