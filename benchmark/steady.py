"""Steadiness of the benchmark: run each workload repeatedly on the same
code and print the median and quartiles of every end-to-end metric.

    python3 benchmark/steady.py [--workloads a,b] [--runs 10] [--seed0 1]
                                [--overhead]

Run i uses seed seed0 + i.  The spread of a metric is (Q3 - Q1) / median
with the quartiles of statistics.quantiles(values, n=4); a metric is
steady when its spread is below a third of its bound in BENCHMARK.json
(setup_s has no spread requirement, only its median is compared between
two sets of runs).  With --overhead one traced run per workload is made
and its throughput compared with the untraced median.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--overhead", action="store_true")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    all_steady = True
    for workload in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            res, _ = run_once(workload, args.seed0 + i, args.seconds, 0)
            results.append(res)
            print(f"{workload} seed {args.seed0 + i}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{workload}: correct={all(r['correct'] for r in results)} "
              f"failed share={sorted(shares)} "
              f"attempted={[r['attempted'] for r in results]}")
        print(f"  {'metric':14s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} "
              f"{'spread':>8s} {'bound/3':>8s}")
        medians = {}
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2
            medians[name] = q2
            steady = name == "setup_s" or spread < bound / 3
            all_steady &= steady
            print(f"  {name:14s} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound / 3:8.4f}{'' if steady else '  WIDE'}")
        if args.overhead:
            _, err = run_once(workload, args.seed0, args.seconds, 1)
            traced = float(re.search(r"([\d.]+) op/s", err).group(1))
            print(f"  traced throughput {traced:.6g} op/s against untraced "
                  f"median {medians['ops_per_s']:.6g}: overhead "
                  f"{medians['ops_per_s'] / traced - 1:+.1%}")
        print(flush=True)
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
