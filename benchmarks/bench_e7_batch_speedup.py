"""Speedup of the batched baseline-protocol path on an E7-style workload.

Runs the same Monte-Carlo comparison (the Section 1.6 comparator family E7
argues against: immediate forwarding, the noisy voter dynamics and the
direct-from-source reference) three ways — serial reference (one
:class:`~repro.substrate.engine.SimulationEngine` per trial), vectorised
batch (:func:`repro.exec.batching.run_baseline_batch` via the ``baseline``
shape of :func:`~repro.exec.batching.run_sweep_batched`), and batch combined
with point-level parallelism (the sweep on a local process pool installed
with :func:`~repro.exec.backends.use_backend`) — and records wall-clock times
and speedups in ``benchmarks/results/e7_batch_speedup.json``.

The baselines were the slowest remaining serial workload: hundreds of
pure-Python engine rounds per trial (the voter's budget alone is hundreds of
rounds).  The batch path pays one ``deliver_batch`` / ``transmit_batch``
call per round for *all* replicates, so it delivers its speedup even on a
single core.  The test asserts the PR's headline claim: at least a 2x
single-core batch speedup over the serial E7 trial loop on this workload.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path

from repro.analysis.experiments import run_trials
from repro.exec.backends import LocalPoolBackend, use_backend
from repro.exec.batching import run_sweep_batched
from repro.experiments.e7_baselines import _direct_trial, _forwarding_trial, _voter_trial

N = 1000
EPSILON = 0.2
TRIALS = 8
VOTER_ROUNDS = 300
BASE_SEED = 707
RESULTS_PATH = Path(__file__).parent / "results" / "e7_batch_speedup.json"


def _serial_trial_fns() -> dict:
    return {
        "immediate-forwarding": functools.partial(_forwarding_trial, n=N, epsilon=EPSILON),
        "noisy-voter": functools.partial(
            _voter_trial, n=N, epsilon=EPSILON, voter_rounds=VOTER_ROUNDS
        ),
        "direct-source-reference": functools.partial(_direct_trial, n=N, epsilon=EPSILON),
    }


def _baseline_points() -> list:
    return [
        {"protocol": "immediate-forwarding"},
        {"protocol": "noisy-voter", "max_rounds": VOTER_ROUNDS},
        {"protocol": "direct-source-reference"},
    ]


def _run_serial() -> dict:
    """The E7 comparator family through run_trials with the serial reference."""
    return {
        name: run_trials(
            name=f"e7-batch-speedup-{name}",
            trial_fn=trial_fn,
            num_trials=TRIALS,
            base_seed=BASE_SEED,
        )
        for name, trial_fn in _serial_trial_fns().items()
    }


def _run_batched():
    """The same comparator family through the batched baseline simulator."""
    return run_sweep_batched(
        name="e7-batch-speedup",
        points=_baseline_points(),
        trials_per_point=TRIALS,
        base_seed=BASE_SEED,
        defaults={"n": N, "epsilon": EPSILON},
        shape="baseline",
    )


def test_e7_batch_speedup(print_report):
    """Measure serial vs batched vs batched+point-parallel and record the JSON."""
    start = time.perf_counter()
    serial_results = _run_serial()
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched_sweep = _run_batched()
    batch_seconds = time.perf_counter() - start

    start = time.perf_counter()
    with LocalPoolBackend() as backend, use_backend(backend):  # one worker per CPU
        pooled_sweep = _run_batched()
    pooled_seconds = time.perf_counter() - start

    # Statistical-equivalence contract: deterministic round budgets match the
    # serial path exactly (the forwarding budget and the direct-source
    # sampling budget are fixed by (n, epsilon); the noisy voter exhausts its
    # budget under noise on both paths), the point-parallel batch is
    # bit-identical to the in-process batch, and the baselines stay near the
    # coin flip while the direct reference converges.
    assert [r.to_dict() for r in pooled_sweep.results] == [
        r.to_dict() for r in batched_sweep.results
    ]
    batched = {
        point.as_dict()["protocol"]: result for point, result in batched_sweep
    }
    for name in ("immediate-forwarding", "noisy-voter", "direct-source-reference"):
        assert batched[name].mean("rounds") == serial_results[name].mean("rounds")
    assert batched["immediate-forwarding"].mean("fraction") < 0.8
    assert batched["noisy-voter"].rate("converged") == 0.0
    assert batched["direct-source-reference"].rate("all_correct") == 1.0

    payload = {
        "workload": {
            "experiment": "E7-style baseline-protocol comparison",
            "n": N,
            "epsilon": EPSILON,
            "protocols": [point["protocol"] for point in _baseline_points()],
            "voter_rounds": VOTER_ROUNDS,
            "trials_per_protocol": TRIALS,
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
        f"expected the batched baseline path to be at least 2x faster than the serial "
        f"E7 trial loop, got {payload['speedup_vs_serial']} (recorded in {RESULTS_PATH})"
    )
