#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule sees it.

    python3 perfbench/spread.py --workloads sync_burst tpcc --seeds 1 2 3 4 5

For every workload it runs perfbench/run.py once per seed (untraced, with
BENCHMARK.json's run_seconds), then prints per metric the median, the
interquartile range as a share of the median (statistics.quantiles, n=4),
the metric's bound and whether the spread is below a third of it.
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
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    ok = True
    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed:\n{done.stderr}")
            result = json.loads(done.stdout.strip().split("\n")[-1])
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"=== {workload} ({len(args.seeds)} seeds, {seconds} s each)")
        for entry in spec["end_to_end"]:
            v = values[entry["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / med
            steady = spread < entry["bound"] / 3
            ok = ok and (steady or entry["name"] == "setup_s")
            print(f"  {entry['name']:<16} median {med:14.6f}  spread {spread:7.4f}  "
                  f"bound {entry['bound']:.2f}  {'ok' if steady else 'WIDE'}  "
                  f"min {min(v):.6g} max {max(v):.6g}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
