#!/usr/bin/env python3
"""Noise report: how far the benchmark's figures move on unchanged code.

    python3 perfbench/noise.py --reps 5 --sets 2

Runs perfbench/run.py `reps` times per workload and set, on every
workload of BENCHMARK.json and for its run_seconds, each run on its
own seed (FIRST_SEED, FIRST_SEED + 1, ...). It interleaves workloads
and sets (rep 1: set A solo-mem, set A sweep-grid, ..., set B
serve-reuse; rep 2: ...) rather than batching them: host speed drifts
over minutes, and batching would turn that drift into a difference
between sets. Prints, per
workload and end-to-end metric, the median and quartiles with the
sample count, the spread (quartile distance over median) against a
third of the metric's bound, and the shift of the second set's median
against the first. README.md, "Noise", records what these reports
have shown.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST_SEED = 1000


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit("run.py failed (%s seed %d):\n%s"
                         % (workload, seed, out.stderr))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(out.stdout, file=sys.stderr)
    return result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args()

    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}  # (set, workload, metric) -> [value]
    seed = FIRST_SEED
    for rep in range(args.reps):
        for s in range(args.sets):
            for wl in workloads:
                result = run_once(wl, seed, spec["run_seconds"])
                print("rep %d set %d %s seed %d: correct=%s failed=%d/%d"
                      % (rep, s, wl, seed, result["correct"],
                         result["failed"], result["attempted"]),
                      file=sys.stderr, flush=True)
                seed += 1
                for name, m in result["metrics"].items():
                    values.setdefault((s, wl, name), []).append(m["value"])

    print("%-12s %-18s %3s %12s %12s %12s %8s %8s %8s"
          % ("workload", "metric", "n", "q1", "median", "q3", "spread",
             "bound/3", "shift"))
    for wl in workloads:
        for name in bounds:
            sets = [values.get((s, wl, name), []) for s in range(args.sets)]
            pooled = [v for vs in sets for v in vs]
            if len(pooled) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(pooled, n=4)
            shift = ""
            if args.sets > 1 and all(len(vs) for vs in sets):
                first = statistics.median(sets[0])
                shift = "%+.3f" % (statistics.median(sets[-1]) / first - 1)
            print("%-12s %-18s %3d %12.6g %12.6g %12.6g %8.3f %8.3f %8s"
                  % (wl, name, len(pooled), q1, q2, q3,
                     metrics.spread(pooled), bounds[name] / 3, shift))


if __name__ == "__main__":
    main()
