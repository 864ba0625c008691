"""Repeat the benchmark over several seeds and print medians and quartiles.

    python3 bench/spread.py [--workloads tower,l2_grid,zeta,oracles] [--seeds 1-10] [--seconds 28]

For each workload and end-to-end metric it prints the median, the first and
third quartiles (`statistics.quantiles(values, n=4)`) and their distance as
a share of the median, which the bounds in BENCHMARK.json must exceed.
Runs are made one after another, with `--trace 0`, from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="tower,l2_grid,zeta,oracles")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="28")
    args = parser.parse_args()
    print("| workload | metric | median | q1 | q3 | (q3-q1)/median |")
    print("|---|---|---|---|---|---|")
    for workload in args.workloads.split(","):
        values, shares, correct = {}, set(), True
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            correct &= result["correct"]
            shares.add(str(Fraction(result["failed"], result["attempted"])))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"| {workload} | {name} | {med:.4g} | {q1:.4g} | {q3:.4g} | {(q3 - q1) / med:.3f} |")
        print(f"| {workload} | correct={correct} | failed share: {', '.join(sorted(shares))} | | | |")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
