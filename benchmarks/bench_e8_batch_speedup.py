"""Speedup of the batched majority-consensus path on an E8-style sweep.

Runs the same Monte-Carlo sweep (majority consensus over a grid of
``(|A|, bias)`` points) three ways — serial reference, vectorised batch
(:func:`repro.exec.batching.run_majority_batch` via
:func:`~repro.exec.batching.run_sweep_batched`), and batch combined with
point-level parallelism (the sweep on a local process pool installed with
:func:`~repro.exec.backends.use_backend`) — and records wall-clock times and
speedups in ``benchmarks/results/e8_batch_speedup.json``.

The batch path amortises Python-level per-round overhead across all
replicates of a sweep point and delivers its speedup even on a single core;
the pool additionally scales with the number of CPUs by running
independent grid points concurrently (on a 1-CPU host it degenerates
gracefully to roughly batch speed).  The test asserts the PR's headline
claim: at least a 2x single-core batch speedup over the serial reference on
this workload.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

from repro.analysis.sweeps import parameter_grid, run_sweep
from repro.exec.backends import LocalPoolBackend, use_backend
from repro.exec.batching import run_sweep_batched
from repro.experiments.e8_majority import _majority_trial

N = 1000
EPSILON = 0.25
SET_SIZES = (100, 300)
BIASES = (0.15, 0.3)
TRIALS = 6
BASE_SEED = 808
RESULTS_PATH = Path(__file__).parent / "results" / "e8_batch_speedup.json"


def _points() -> list:
    return parameter_grid(set_size=list(SET_SIZES), bias=list(BIASES))


def _run_serial():
    """The E8-style sweep through ``run_sweep`` with the serial reference."""
    return run_sweep(
        name="e8-batch-speedup",
        points=_points(),
        trial_fn=functools.partial(_majority_trial, n=N, epsilon=EPSILON),
        trials_per_point=TRIALS,
        base_seed=BASE_SEED,
    )


def _run_batched():
    """The same sweep through the batched majority simulator."""
    return run_sweep_batched(
        name="e8-batch-speedup",
        points=_points(),
        trials_per_point=TRIALS,
        base_seed=BASE_SEED,
        defaults={"n": N, "epsilon": EPSILON},
        shape="majority",
    )


def test_e8_batch_speedup(print_report):
    """Measure serial vs batched vs batched+point-parallel and record the JSON."""
    start = time.perf_counter()
    serial_sweep = _run_serial()
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched_sweep = _run_batched()
    batch_seconds = time.perf_counter() - start

    start = time.perf_counter()
    with LocalPoolBackend() as backend, use_backend(backend):  # one worker per CPU
        pooled_sweep = _run_batched()
    pooled_seconds = time.perf_counter() - start

    # Statistical-equivalence contract: the majority schedule is fixed by
    # (parameters, start_phase), so per-point round counts match the serial
    # path exactly; the point-parallel batch is bit-identical to the
    # in-process batch; and well-initialised points succeed on both paths.
    assert [r.to_dict() for r in pooled_sweep.results] == [
        r.to_dict() for r in batched_sweep.results
    ]
    for serial_result, batched_result in zip(serial_sweep.results, batched_sweep.results):
        assert serial_result.mean("rounds") == batched_result.mean("rounds")
        if batched_result.config["bias"] >= 0.3:
            assert batched_result.rate("success") >= 0.5
            assert serial_result.rate("success") >= 0.5

    payload = {
        "workload": {
            "experiment": "E8-style majority-consensus sweep",
            "n": N,
            "epsilon": EPSILON,
            "set_sizes": list(SET_SIZES),
            "biases": list(BIASES),
            "trials_per_point": TRIALS,
            "base_seed": BASE_SEED,
        },
        "host": {"cpu_count": os.cpu_count()},
        "seconds": {
            "serial": round(serial_seconds, 3),
            "batch": round(batch_seconds, 3),
            "batch_point_parallel": round(pooled_seconds, 3),
        },
        "speedup_vs_serial": {
            "batch": round(serial_seconds / batch_seconds, 2),
            "batch_point_parallel": round(serial_seconds / pooled_seconds, 2),
        },
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    print()
    print(json.dumps(payload, indent=2))

    assert payload["speedup_vs_serial"]["batch"] >= 2.0, (
        f"expected the batched majority path to be at least 2x faster than serial, "
        f"got {payload['speedup_vs_serial']} (recorded in {RESULTS_PATH})"
    )
