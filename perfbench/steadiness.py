#!/usr/bin/env python3
"""Run each workload back to back with distinct seeds and report,
per end-to-end metric, the median, the quartiles and the spread
(interquartile distance over the median) against the metric's bound.

    python3 perfbench/steadiness.py [--runs 10] [--workload W ...]
                                    [--first-seed 1] [--json FILE]
                                    [--compare EARLIER.json]

With --compare, each median is also set against the median of the
same metric in an earlier --json record of the same code; a median
worse than the earlier one by more than the bound fails.

Run from the repository root; it calls perfbench/run.py, so the
first run also builds the driver. Exits 1 if any run fails its
output gate or any spread or median shift exceeds its bound.
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
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--json", help="also write every run's values here")
    parser.add_argument("--compare", help="an earlier --json record")
    args = parser.parse_args()

    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    record = {}
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.runs):
            seed = args.first_seed + i
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                cwd=ROOT)
            result = json.loads(proc.stdout.splitlines()[-1])
            if proc.returncode or not result["correct"]:
                print("%s seed %d: failed" % (workload, seed))
                ok = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        record[workload] = values
        print("%s (%d runs)" % (workload, args.runs))
        print("  %-14s %12s %12s %12s %8s %6s %9s" %
              ("metric", "q1", "median", "q3", "spread", "bound", "vs-before"))
        for m in spec["end_to_end"]:
            q1, med, q3 = statistics.quantiles(values[m["name"]], n=4)
            spread = (q3 - q1) / med
            ok = ok and spread <= m["bound"]
            shift = ""
            before = earlier.get(workload, {}).get(m["name"])
            if before:
                change = med / statistics.median(before) - 1
                worse = change if m["better"] == "lower" else -change
                ok = ok and worse <= m["bound"]
                shift = "%+8.2f%%" % (100 * change)
            print("  %-14s %12.6g %12.6g %12.6g %7.2f%% %5.0f%% %9s" %
                  (m["name"], q1, med, q3, 100 * spread, 100 * m["bound"],
                   shift))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
