"""The repository benchmark: one workload, one measured run, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no tracing, and reports
each time and rate normalised to a nominal host speed (:mod:`hostspeed`).
``--trace 1`` runs a fixed amount of the workload twice, untraced and then
with spans recorded around each layer's functions, and reports the
per-layer metrics, the tracing overhead among them.  Human-readable lines
(provenance, every metric with its unit, sample counts, ``failed_frac``)
come first; the last line of standard output is the JSON result.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
import time
from typing import Any, Dict, Optional

from statistics import median

from common import ROOT, WORK, add_src_to_path, provenance
from hostspeed import HostSpeed

#: Set-ups timed per run, half before the measured loop and half after it;
#: ``setup_s`` is their median.
SETUP_SAMPLES = 6
PROBE_TIMEOUT_S = 120


def probe_setup(workload: str, seed: int) -> float:
    """Time one set-up of ``fault_sweep`` in a fresh interpreter:
    start-up, imports and the warm-up sweep, up to the probe's ready line.

    The line is read with a blocking read; ``subprocess.run`` with a timeout
    would poll for the exit and round the time up to its 50 ms poll steps.
    """
    started = time.perf_counter()
    probe = subprocess.Popen(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    ready = probe.stdout.readline()
    elapsed = time.perf_counter() - started
    probe.communicate(timeout=PROBE_TIMEOUT_S)
    if probe.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(f"set-up probe failed (exit {probe.returncode}, said {ready!r})")
    return elapsed


def measure(workload: str, seed: int, seconds: float, speed: Optional[HostSpeed]) -> Dict[str, Any]:
    """Run one workload; ``speed`` is None for the traced run."""
    if workload == "service_mixed":
        import service

        if speed is None:
            return service.run_traced(seed, seconds)
        return service.run_untraced(seed, seconds, SETUP_SAMPLES, speed)

    import inprocess

    if speed is None:
        outcome = inprocess.run_traced(seed, seconds)
    else:
        def timed_setup() -> float:
            elapsed = probe_setup(workload, seed)
            speed.after(elapsed)
            return elapsed

        setup_s = [timed_setup() for _ in range(SETUP_SAMPLES // 2)]
        outcome = inprocess.run_untraced(seed, seconds, speed)
        setup_s += [timed_setup() for _ in range(SETUP_SAMPLES - len(setup_s))]
        outcome["metrics"]["setup_s"] = median(setup_s)
    tally = outcome.pop("tally")
    return {**outcome, "attempted": tally.attempted, "failed": tally.failed, "errors": tally.errors}


def normalised(value: float, unit: str, factor: float) -> float:
    """A time or a rate as it would read on the nominal host
    (:mod:`hostspeed`); other values as they are."""
    if unit in ("s", "ms"):
        return value * factor
    if unit.endswith("/s"):
        return value / factor
    return value


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {entry["name"]: entry["why"] for entry in declared["workloads"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    add_src_to_path()
    if args.setup_probe:
        import inprocess

        inprocess.set_up()
        print("ready", flush=True)
        return 0

    speed = None if args.trace else HostSpeed()
    try:
        outcome = measure(args.workload, args.seed, args.seconds, speed)
    finally:
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    table = {entry["name"]: entry["unit"]
             for entry in declared["per_layer" if args.trace else "end_to_end"]}
    metrics = outcome["metrics"]
    errors = list(outcome["errors"])
    values: Dict[str, Any] = {}
    for name, unit in table.items():
        value = metrics.get(name, 0 if args.trace else math.nan)
        if not math.isfinite(value):
            errors.append(f"metric {name} was not measured")
            value = 0.0
        values[name] = value if speed is None else normalised(value, unit, speed.factor)

    attempted, failed = outcome["attempted"], outcome["failed"]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "why": workloads[args.workload],
                      **provenance()}))
    if speed is not None:
        mean_unit_s = sum(speed.unit_s) / len(speed.unit_s)
        print(f"host speed: {len(speed.unit_s)} reference units, mean {mean_unit_s!r} s, "
              f"factor {speed.factor!r}; each metric is followed by its measured value")
    for name, unit in table.items():
        measured = "" if speed is None else f" (measured {metrics.get(name, math.nan)!r})"
        print(f"{name} = {values[name]!r} {unit}{measured}")
    print(f"failed_frac = {failed / max(1, attempted)!r} ratio ({failed} of {attempted})")
    print("samples: " + ", ".join(f"{key}={value}" for key, value in outcome["notes"].items()))
    for error in errors[:20]:
        print(f"perfbench: {error}", file=sys.stderr)
    result = {
        "correct": not errors and failed == 0,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": table[name]} for name in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
