"""Speedup of the trial-execution subsystem on an E1-style broadcast sweep.

Runs the same Monte-Carlo sweep (noisy broadcast over a grid of population
sizes) three ways — in-process reference, process-parallel (the sweep on a
:class:`~repro.exec.backends.LocalPoolBackend` installed with
:func:`~repro.exec.backends.use_backend`, one task per sweep point), and
vectorised batch
(:mod:`repro.exec.batching`) — and records wall-clock times and speedups in
``benchmarks/results/exec_speedup.json``.

The batch path amortises Python-level per-round overhead across all
replicates of a sweep point and delivers its speedup even on a single core;
the parallel path additionally scales with the number of CPUs (on a 1-CPU
host it degenerates gracefully to roughly serial speed).  The test asserts
the subsystem's headline claim: at least a 2x end-to-end speedup over the
serial reference on this host.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import functools

from repro.analysis.sweeps import run_sweep
from repro.exec import LocalPoolBackend, run_broadcast_sweep_batched, use_backend
from repro.experiments.e1_rounds_vs_n import _broadcast_trial

SIZES = (500, 1000, 2000)
EPSILON = 0.25
TRIALS = 6
BASE_SEED = 101
RESULTS_PATH = Path(__file__).parent / "results" / "exec_speedup.json"


def _run_once() -> "object":
    """One E1-style sweep through ``run_sweep`` on the installed backend."""
    return run_sweep(
        name="exec-speedup",
        points=[{"n": n} for n in SIZES],
        trial_fn=functools.partial(_broadcast_trial, epsilon=EPSILON),
        trials_per_point=TRIALS,
        base_seed=BASE_SEED,
    )


def test_exec_speedup(print_report):
    """Measure serial vs parallel vs batched wall-clock and record the JSON."""
    start = time.perf_counter()
    serial_sweep = _run_once()
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    with LocalPoolBackend() as pool, use_backend(pool):  # one worker per CPU
        parallel_sweep = _run_once()
    parallel_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched_sweep = run_broadcast_sweep_batched(
        name="exec-speedup",
        points=[{"n": n} for n in SIZES],
        trials_per_point=TRIALS,
        base_seed=BASE_SEED,
        defaults={"epsilon": EPSILON},
    )
    batch_seconds = time.perf_counter() - start

    # Identical-results contract: the parallel sweep is bit-identical to the
    # serial one; the batched sweep reproduces every schedule-determined
    # observable exactly (the round count is fixed by (n, epsilon)).
    assert [r.to_dict() for r in parallel_sweep.results] == [
        r.to_dict() for r in serial_sweep.results
    ]
    for serial_result, batched_result in zip(serial_sweep.results, batched_sweep.results):
        assert serial_result.mean("rounds") == batched_result.mean("rounds")
        assert batched_result.rate("success") >= 0.8

    payload = {
        "workload": {
            "experiment": "E1-style broadcast sweep",
            "sizes": list(SIZES),
            "epsilon": EPSILON,
            "trials_per_point": TRIALS,
            "base_seed": BASE_SEED,
        },
        "host": {"cpu_count": os.cpu_count(), "parallel_jobs": pool.effective_jobs},
        "seconds": {
            "serial": round(serial_seconds, 3),
            "parallel": round(parallel_seconds, 3),
            "batch": round(batch_seconds, 3),
        },
        "speedup_vs_serial": {
            "parallel": round(serial_seconds / parallel_seconds, 2),
            "batch": round(serial_seconds / batch_seconds, 2),
        },
        "parallel_tasks": pool.tasks_submitted,
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print()
    print(json.dumps(payload, indent=2))

    best_speedup = max(payload["speedup_vs_serial"].values())
    assert best_speedup >= 2.0, (
        f"expected the exec subsystem to be at least 2x faster than serial, "
        f"got {payload['speedup_vs_serial']} (recorded in {RESULTS_PATH})"
    )
