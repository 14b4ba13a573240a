"""Determinism regression for the resilient (faults/topology) delivery path.

The no-fault pins of ``test_fault_none_regression.py`` never reach
``PushGossipNetwork._deliver_batch_resilient``: with no fault model and no
topology the batch kernels stay on the plain ``deliver_batch`` path.  This
module pins the other side.  Every digest below was captured before the
sort-free collision resolver replaced the combined-key argsort, so any change
to the order or number of main-stream, fault-stream or channel draws on
either delivery path shifts a digest and fails the pin.

Three levels are covered:

* E12 batch sweeps (crash and Byzantine) through ``run_experiment``;
* one ``run_faulty_broadcast_batch`` run with churn plus burst noise, which
  exercises the offline-sender and offline-recipient branches;
* raw ``deliver_batch`` rounds over a matrix of channels, self-message
  settings, fault models and topologies, digesting every report field and
  every counter.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from _golden_grid import grid_digest
from repro.exec.fault_batching import run_faulty_broadcast_batch
from repro.substrate.faults import BurstNoise, ByzantineSenders, CrashStop, build_injector
from repro.substrate.network import PushGossipNetwork
from repro.substrate.noise import (
    AdversarialFlipBudgetChannel,
    BinarySymmetricChannel,
    HeterogeneousChannel,
    PerfectChannel,
)
from repro.substrate.topology import ChurnTopology, DegreeLimitedTopology, TwoClusterTopology

#: E12 batch sweeps: one per fault kind, both fractions, batched kernels.
E12_GRID = [
    ("crash", {"n": 250, "fault_fractions": (0.0, 0.2), "trials": 2, "fault_kind": "crash"}),
    (
        "byzantine",
        {"n": 250, "fault_fractions": (0.0, 0.2), "trials": 2, "fault_kind": "byzantine"},
    ),
]

E12_DIGESTS = {
    "crash": "f1dce4262eae0d73a5153f86818559e21654b62aa81a48e5e7fd43a6a5456f62",
    "byzantine": "c84bd4faf3694f8a71797712b27ef660ecb667561941d13583611e9d5de448f2",
}

CHURN_BURST_DIGEST = "7cddc5551d6ef71e5c3b4ab252012521b663e0c78ae159b1cecd127ffbebb47a"


def _digest_arrays(*values) -> str:
    """sha256 over the dtype, shape and bytes of each value, in order."""
    digest = hashlib.sha256()
    for value in values:
        array = np.ascontiguousarray(np.asarray(value))
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("kind, overrides", E12_GRID, ids=[kind for kind, _ in E12_GRID])
def test_e12_batch_matches_resilient_golden(kind, overrides):
    """E12's batched crash/Byzantine sweeps are bit-identical to the pin."""
    assert grid_digest("E12", True, overrides) == E12_DIGESTS[kind]


def test_churn_with_burst_noise_matches_resilient_golden():
    """Churn (offline senders and recipients) plus burst noise, end to end."""
    result = run_faulty_broadcast_batch(
        200,
        0.3,
        3,
        model=BurstNoise(start_probability=0.2, stop_probability=0.3, flip_probability=0.4),
        base_seed=77,
        topology=ChurnTopology(offline_probability=0.15),
    )
    digest = _digest_arrays(
        result.rounds,
        result.success,
        result.surviving_correct_fraction,
        result.final_correct_fraction,
        result.crashed,
        result.messages_sent,
        result.stage1_bias,
    )
    assert digest == CHURN_BURST_DIGEST


def _channel(name: str):
    return {
        "bsc": lambda: BinarySymmetricChannel(epsilon=0.3),
        "perfect": lambda: PerfectChannel(),
        "heterogeneous": lambda: HeterogeneousChannel(epsilon=0.2, low_fraction=0.3),
        "adversarial": lambda: AdversarialFlipBudgetChannel(epsilon=0.2, budget=40),
    }[name]()


def _fault_model(name: str):
    return {
        "none": None,
        "crash": CrashStop(fraction=0.3, crash_probability=0.2),
        "byzantine": ByzantineSenders(fraction=0.25),
        "adversarial": ByzantineSenders(fraction=0.25, mode="adversarial", adversarial_bit=1),
        "burst": BurstNoise(start_probability=0.4, stop_probability=0.2, flip_probability=0.5),
    }[name]


def _topology(name: str):
    return {
        "none": None,
        "churn": ChurnTopology(offline_probability=0.2),
        "degree": DegreeLimitedTopology(degree=3),
        "cluster": TwoClusterTopology(cross_probability=0.1),
    }[name]


#: (channel, allow_self_messages, fault model, topology, replicates, agents)
#: -> digest of a dozen rounds.
KERNEL_DIGESTS = {
    ("bsc", False, "none", "none", 4, 37):
        "2725d763024fbdc32126a53ce1467067c955f54db98e67a8a817a69abf5155dc",
    ("bsc", True, "none", "none", 3, 5):
        "4ee963a86817d615bee5119e3fc2c96f862e758a1ef194b9b04a6b16545295d8",
    ("heterogeneous", False, "none", "none", 5, 23):
        "0d4818f988e6da441e6b2a76991d420552e456d94ddbab34311d1cc164406cee",
    ("adversarial", False, "none", "none", 2, 30):
        "bdd1247f9a32742afe6aeaf1b86af44b4f01f2e50521806ab374d57146c96ad8",
    ("perfect", True, "none", "none", 2, 2):
        "2c5a5a37c3d7dadaa6c520e82865c726197b8bd0fc168db1a7e2ed9605c904a3",
    ("bsc", False, "crash", "none", 4, 37):
        "aa049a646aaec6703c451f44a55405bbf3fffef1a2a8bf40d25c96422a900d65",
    ("bsc", True, "byzantine", "none", 3, 5):
        "aba7dacfdbeac236ca7ec9e206562848502f42c1c5f08694b8203c1cdfb079b0",
    ("heterogeneous", False, "adversarial", "none", 3, 29):
        "12f89d0a4a8d0aa33eed8875bc1eb3e40c13d5abd3ff2113a5e18aa57912cf5b",
    ("adversarial", False, "burst", "none", 2, 30):
        "16e9ae5fbaa4df0b0931b29484e0d9c2086df084b1086d6c4bd93a240947608f",
    ("bsc", False, "none", "churn", 4, 40):
        "ce4241d5f4bc5bc25a477034f348e56b732b163204113836ce633435c1fd21d3",
    ("bsc", False, "burst", "churn", 3, 41):
        "b64dc13f223a019878661c9982f3f8aaa011fe7f5e894311b27f680755db7525",
    ("bsc", False, "crash", "degree", 2, 16):
        "e524f8b27293b99dc0aaf6721534659ba84beb5b047513fbf21eee0f96cc4c38",
    ("heterogeneous", False, "byzantine", "cluster", 3, 24):
        "2ec7f6f214a05409af6d1d878b3817886344ae01b785d39fab08f6e908c9dd8c",
}


def _kernel_digest(channel_name, allow_self, fault_name, topology_name, replicates, size):
    """Digest a dozen ``deliver_batch`` rounds of one configuration."""
    inputs = np.random.default_rng([replicates, size, 7])
    rng = np.random.default_rng([size, replicates, 11])
    network = PushGossipNetwork(size=size, allow_self_messages=allow_self)
    channel = _channel(channel_name)
    injector = build_injector(
        _fault_model(fault_name), size, np.random.default_rng(5), num_replicates=replicates
    )
    topology = _topology(topology_name)
    digest = hashlib.sha256()
    for round_index in range(12):
        density = (0.05, 0.4, 0.9, 1.0)[round_index % 4]
        send_mask = inputs.random((replicates, size)) < density
        bits = inputs.integers(0, 2, size=(replicates, size)).astype(np.int8)
        report = network.deliver_batch(
            send_mask, bits, channel, rng, faults=injector, topology=topology
        )
        digest.update(
            _digest_arrays(
                report.accepted,
                report.bits,
                report.senders,
                report.messages_sent,
                report.messages_delivered,
            ).encode()
        )
    counters = [
        network.messages_sent_total,
        network.messages_delivered_total,
        network.messages_dropped_total,
        network.rounds_executed,
        channel.flips_applied(),
    ]
    if injector is not None:
        counters += [injector.counters[key] for key in sorted(injector.counters)]
    digest.update(_digest_arrays(np.asarray(counters, dtype=np.int64), rng.random(4)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "case", list(KERNEL_DIGESTS), ids=["-".join(map(str, case)) for case in KERNEL_DIGESTS]
)
def test_deliver_batch_rounds_match_golden(case):
    """Raw batch rounds, fault-free and resilient, are bit-identical to the pin."""
    assert _kernel_digest(*case) == KERNEL_DIGESTS[case]
