#!/usr/bin/env python3
"""Steadiness check: run each workload with several seeds and report, for
every end-to-end metric, the median and the spread between the first and
third quartiles as a share of the median, next to the metric's bound.

    python3 perfbench/steady.py --runs 10 [--workload sweep-lorenz ...]

Run from the root of the checkout. A metric is steady when its spread stays
below a third of its bound. Results are also written to
``perfbench/out/steady.json``; compare the medians of two sets of seeds
with ``--first-seed``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    report = {}
    for workload in args.workload or names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True,
            )
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{workload}: correct {all(r['correct'] for r in runs)}, "
              f"failed share {shares}")
        report[workload] = {"runs": runs, "metrics": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            report[workload]["metrics"][metric["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "values": values}
            print(f"  {metric['name']:14s} median {median:10.4f} {metric['unit']:5s} "
                  f"spread {spread:6.2%} (bound {metric['bound']:.0%}, "
                  f"steady below {metric['bound'] / 3:.1%})")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
