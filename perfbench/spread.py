"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--seconds S]

Runs ``perfbench/run.py --trace 0`` once per seed (1, 2, ...) and prints, for each
metric, the median of the runs and the distance between the first and
third quartile as a share of the median (``statistics.quantiles(n=4)``),
next to the metric's bound in ``BENCHMARK.json``.  A benchmark is steady
when every spread stays well below its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import ROOT


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    args = parser.parse_args()
    bounds = {entry["name"]: entry["bound"] for entry in declared["end_to_end"]}

    values: dict = {}
    for seed in range(1, args.runs + 1):
        completed = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
              flush=True)

    for name, series in values.items():
        middle = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / abs(middle) if middle else float("nan")
        print(f"{name:48s} median {middle:<14.6g} spread {spread:7.3f}  bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
