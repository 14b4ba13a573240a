"""Micro-benchmarks of the simulation substrate itself.

These do not correspond to a paper claim; they document the simulator's raw
throughput (gossip rounds per second at different population sizes), which is
what determines how far the experiment sweeps can be pushed on a laptop.

The batch-kernel benchmark times one ``PushGossipNetwork.deliver_batch``
round in ns per agent-round, on the fault-free path and on the resilient
path under crash and Byzantine faults, at (R, n) in {(1, 10^3), (4, 600),
(8, 10^4), (64, 10^3)}.  Each is timed in two call patterns: ``one-shot``
(every call builds its own plan, as the baseline and E9 kernels call it)
and ``per-phase`` (one ``batch_phase`` plan serves ``PHASE_LENGTH`` rounds,
as the Stage-I and Stage-II kernels call it; building the plan is timed
too).  Run it on its own with::

    PYTHONPATH=src python benchmarks/bench_substrate.py

or through pytest (``test_deliver_batch_kernel``), which also records
``benchmarks/results/deliver_batch_kernel.json``.  ``measure_kernel(toy=True)``
runs a toy size for the smoke gate in ``tests/unit/test_smoke_gates.py``.
"""

import json
import os
import time
from pathlib import Path
from typing import Any, Dict

import numpy as np
import pytest

from repro.substrate import (
    BinarySymmetricChannel,
    ByzantineSenders,
    CrashStop,
    PushGossipNetwork,
    SimulationEngine,
    build_injector,
)

KERNEL_RESULTS_PATH = Path(__file__).parent / "results" / "deliver_batch_kernel.json"

#: (R, n) grids of the batch-kernel benchmark.
KERNEL_SHAPES = ((1, 1_000), (4, 600), (8, 10_000), (64, 1_000))

#: Call patterns timed per path and shape (see the module docstring).
KERNEL_PATTERNS = ("one-shot", "per-phase")

#: Rounds one plan serves in the ``per-phase`` pattern, a typical phase length.
PHASE_LENGTH = 16

#: Delivery paths timed per shape; ``None`` is the fault-free path.
KERNEL_FAULTS = {
    "fault-free": None,
    "crash": CrashStop(fraction=0.2, crash_probability=0.05),
    "byzantine": ByzantineSenders(fraction=0.2),
}

#: Share of agents sending per round (Stage II has nearly everyone speak).
SEND_DENSITY = 0.9


def _seconds_per_round(
    num_replicates: int, size: int, model, pattern: str, rounds: int, repeats: int
) -> float:
    """Best-of-``repeats`` mean wall time of one ``deliver_batch`` round."""
    network = PushGossipNetwork(size=size)
    channel = BinarySymmetricChannel(epsilon=0.25)
    rng = np.random.default_rng(12345)
    injector = build_injector(
        model, size, np.random.default_rng(54321), num_replicates=num_replicates
    )
    inputs = np.random.default_rng(7)
    send_mask = inputs.random((num_replicates, size)) < SEND_DENSITY
    bits = np.where(send_mask, inputs.integers(0, 2, size=send_mask.shape), 0).astype(np.int8)

    def run(count: int) -> None:
        if pattern == "one-shot":
            for _ in range(count):
                network.deliver_batch(send_mask, bits, channel, rng, faults=injector)
            return
        for first in range(0, count, PHASE_LENGTH):
            plan = network.batch_phase(send_mask, bits)
            for _ in range(min(PHASE_LENGTH, count - first)):
                network.deliver_batch(
                    plan.send_mask, plan.bits, channel, rng, faults=injector, phase=plan
                )

    run(1)  # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run(rounds)
        best = min(best, (time.perf_counter() - start) / rounds)
    return best


def measure_kernel(toy: bool = False) -> Dict[str, Any]:
    """Time ``deliver_batch`` on every path, pattern and shape; return the JSON payload.

    Each measurement runs about two million agent-rounds per repeat (at
    least three rounds) and keeps the best of five repeats, which filters
    out scheduler noise.  ``toy=True`` times one tiny shape once per path
    and pattern.  Keys read ``"<path> <pattern> R=<R> n=<n>"``.
    """
    shapes = ((2, 50),) if toy else KERNEL_SHAPES
    repeats = 1 if toy else 5
    seconds: Dict[str, float] = {}
    ns_per_agent_round: Dict[str, float] = {}
    for path, model in KERNEL_FAULTS.items():
        for pattern in KERNEL_PATTERNS:
            for num_replicates, size in shapes:
                agent_rounds = num_replicates * size
                rounds = 3 if toy else max(3, 2_000_000 // agent_rounds)
                per_round = _seconds_per_round(
                    num_replicates, size, model, pattern, rounds, repeats
                )
                key = f"{path} {pattern} R={num_replicates} n={size}"
                seconds[key] = per_round
                ns_per_agent_round[key] = round(per_round / agent_rounds * 1e9, 2)
    return {
        "workload": {
            "experiment": "deliver_batch kernel: one round per call",
            "send_density": SEND_DENSITY,
            "patterns": list(KERNEL_PATTERNS),
            "phase_length": PHASE_LENGTH,
            "shapes": [list(shape) for shape in shapes],
        },
        "host": {"cpu_count": os.cpu_count(), "numpy": np.__version__},
        "seconds": seconds,
        "ns_per_agent_round": ns_per_agent_round,
    }


def test_deliver_batch_kernel():
    """Measure the batch kernel on every path and record the JSON payload."""
    payload = measure_kernel()
    KERNEL_RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    KERNEL_RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(json.dumps(payload["ns_per_agent_round"], indent=2))
    assert all(value > 0 for value in payload["ns_per_agent_round"].values())


@pytest.mark.parametrize("n", [1_000, 10_000, 100_000])
def test_gossip_round_throughput(benchmark, n):
    """One full push-gossip round with every agent speaking."""
    network = PushGossipNetwork(size=n)
    channel = BinarySymmetricChannel(epsilon=0.2)
    rng = np.random.default_rng(12345)
    senders = np.arange(n, dtype=np.int64)
    bits = rng.integers(0, 2, size=n).astype(np.int8)

    benchmark(network.deliver, senders, bits, channel, rng)


def test_full_broadcast_run(benchmark):
    """End-to-end broadcast at n = 2000, eps = 0.25 (the default experiment scale)."""
    from repro.core import NoisyBroadcastProtocol, ProtocolParameters

    parameters = ProtocolParameters.calibrated(2000, 0.25)

    def run_once():
        engine = SimulationEngine.create(n=2000, epsilon=0.25, seed=99)
        return NoisyBroadcastProtocol(parameters).run(engine, correct_opinion=1)

    result = benchmark.pedantic(run_once, rounds=3, iterations=1)
    assert result.success


if __name__ == "__main__":
    for name, value in measure_kernel()["ns_per_agent_round"].items():
        print(f"{name:42s} {value:10.1f} ns/agent-round")
