#!/usr/bin/env python3
"""Seed-to-seed spread of the end-to-end metrics: the evidence behind
the bounds in BENCHMARK.json.

    python3 perfbench/spread.py --workload W --seeds 101-110 [--seconds S]

Run from the repository root. Runs run.py untraced once per seed, one
after another, and prints each run's metrics, then for every metric the
median over the runs and its spread: the distance between the first
and third quartile as a share of the median (stats.spread). Exits 1
when a run fails or reports a failed check.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import stats  # noqa: E402


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    ap.add_argument("--seeds", required=True, type=seed_range, help="FIRST-LAST")
    ap.add_argument("--seconds", default=30, type=int)
    a = ap.parse_args()

    values = {name: [] for name in run.END_TO_END}
    ok = True
    for seed in a.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", a.workload,
             "--seed", str(seed), "--seconds", str(a.seconds), "--trace", "0"],
            cwd=run.ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            print(f"seed {seed}: run failed (exit {proc.returncode})")
            ok = False
            continue
        metrics = {k: m["value"] for k, m in result["metrics"].items()}
        for name, value in metrics.items():
            values[name].append(value)
        print(f"seed {seed}: " + " ".join(f"{k} {v:.4g}" for k, v in metrics.items()),
              flush=True)

    if all(len(xs) >= 2 for xs in values.values()):
        for name, xs in values.items():
            print(f"{a.workload} {name}: median {stats.quartiles(xs)[1]:.4g} "
                  f"{run.END_TO_END[name]}, spread {stats.spread(xs):.3f} over {len(xs)} runs")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
