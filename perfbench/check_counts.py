"""Determinism self-check: two traced runs with one seed count the same work.

    python3 perfbench/check_counts.py --workload NAME [--seed 1] [--seconds S]

Runs ``perfbench/run.py --trace 1`` twice with the same arguments and
compares the count metrics (``tracing.COUNT_METRICS``).  Exits 1 and names
the metrics when any differ, so a claim resting on a count can trust it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from common import ROOT
from tracing import COUNT_METRICS


def traced_counts(workload: str, seed: int, seconds: float) -> dict:
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    metrics = json.loads(completed.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNT_METRICS}


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    args = parser.parse_args()
    first = traced_counts(args.workload, args.seed, args.seconds)
    second = traced_counts(args.workload, args.seed, args.seconds)
    differ = [name for name in COUNT_METRICS if first[name] != second[name]]
    for name in COUNT_METRICS:
        mark = "DIFFERS" if name in differ else "same"
        print(f"{name:44s} {first[name]!r:>16} {second[name]!r:>16}  {mark}")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
