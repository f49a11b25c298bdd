#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload blocks-10k --seeds 1-10

Runs run.py once per seed and prints, per metric, the median of the
values and the distance between their first and third quartiles
(statistics.quantiles, n=4) as a share of the median, next to the
metric's bound from BENCHMARK.json. A spread above a third of its bound
is flagged; setup_s is exempt from the bound.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode != 0 or not result["correct"]:
            print("seed %d: run failed" % seed, file=sys.stderr)
            sys.exit(1)
        row = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            row.append("%s=%.4g" % (name, metric["value"]))
        print("seed %d: %s" % (seed, " ".join(row)), flush=True)

    worst = 0.0
    for name, vals in values.items():
        s = stats.spread(vals)
        bound = bounds.get(name, 0.0)
        flag = ""
        if name != "setup_s" and bound and s > bound / 3:
            flag = "  > bound/3"
        if name != "setup_s" and bound:
            worst = max(worst, s / bound)
        print("%-20s median %-12.5g spread %6.3f  bound %.2f%s" % (
            name, stats.median(vals), s, bound, flag))
    print("worst spread/bound (setup_s excluded): %.3f" % worst)


if __name__ == "__main__":
    main()
