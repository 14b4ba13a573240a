"""Unit tests for repro.substrate.network."""

import numpy as np
import pytest

from repro.errors import ParameterError, ProtocolError
from repro.substrate.network import (
    DeliveryReport,
    PushGossipNetwork,
    _ResolverScratch,
    _resolve_collisions,
)
from repro.substrate.noise import PerfectChannel


@pytest.fixture
def perfect():
    return PerfectChannel()


class TestDeliveryBasics:
    def test_empty_round(self, perfect, rng):
        network = PushGossipNetwork(size=10)
        report = network.deliver(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8), perfect, rng)
        assert report.messages_sent == 0
        assert report.recipients.size == 0

    def test_single_sender_reaches_someone_else(self, perfect, rng):
        network = PushGossipNetwork(size=10)
        report = network.deliver(np.asarray([4]), np.asarray([1], dtype=np.int8), perfect, rng)
        assert report.messages_sent == 1
        assert report.messages_delivered == 1
        assert report.recipients[0] != 4
        assert report.bits[0] == 1
        assert report.senders[0] == 4

    def test_no_self_messages_by_default(self, perfect, rng):
        network = PushGossipNetwork(size=5)
        senders = np.arange(5)
        for _ in range(200):
            report = network.deliver(senders, np.zeros(5, dtype=np.int8), perfect, rng)
            assert not np.any(report.recipients == report.senders)

    def test_self_messages_allowed_when_enabled(self, perfect, rng):
        network = PushGossipNetwork(size=3, allow_self_messages=True)
        hit_self = False
        for _ in range(200):
            report = network.deliver(np.arange(3), np.zeros(3, dtype=np.int8), perfect, rng)
            hit_self = hit_self or bool(np.any(report.recipients == report.senders))
        assert hit_self

    def test_recipients_are_unique(self, perfect, rng):
        network = PushGossipNetwork(size=20)
        senders = np.arange(20)
        report = network.deliver(senders, np.ones(20, dtype=np.int8), perfect, rng)
        assert np.unique(report.recipients).size == report.recipients.size
        assert report.messages_delivered + report.messages_dropped == report.messages_sent

    def test_counters_accumulate(self, perfect, rng):
        network = PushGossipNetwork(size=20)
        for _ in range(3):
            network.deliver(np.arange(10), np.zeros(10, dtype=np.int8), perfect, rng)
        assert network.messages_sent_total == 30
        assert network.rounds_executed == 3
        network.reset_counters()
        assert network.messages_sent_total == 0


class TestValidation:
    def test_duplicate_senders_rejected(self, perfect, rng):
        network = PushGossipNetwork(size=10)
        with pytest.raises(ProtocolError):
            network.deliver(np.asarray([1, 1]), np.asarray([0, 1], dtype=np.int8), perfect, rng)

    def test_sender_out_of_range_rejected(self, perfect, rng):
        network = PushGossipNetwork(size=10)
        with pytest.raises(ProtocolError):
            network.deliver(np.asarray([10]), np.asarray([1], dtype=np.int8), perfect, rng)

    def test_invalid_bits_rejected(self, perfect, rng):
        network = PushGossipNetwork(size=10)
        with pytest.raises(ProtocolError):
            network.deliver(np.asarray([1]), np.asarray([3], dtype=np.int8), perfect, rng)

    def test_shape_mismatch_rejected(self, perfect, rng):
        network = PushGossipNetwork(size=10)
        with pytest.raises(ProtocolError):
            network.deliver(np.asarray([1, 2]), np.asarray([1], dtype=np.int8), perfect, rng)

    def test_tiny_network_rejected(self):
        with pytest.raises(ParameterError):
            PushGossipNetwork(size=1)


class TestCollisionStatistics:
    def test_collision_rate_matches_balls_in_bins(self, perfect, rng):
        """With n senders and n receivers the delivered fraction is ~1 - 1/e."""
        n = 2000
        network = PushGossipNetwork(size=n, allow_self_messages=True)
        report = network.deliver(np.arange(n), np.zeros(n, dtype=np.int8), perfect, rng)
        delivered_fraction = report.messages_delivered / n
        assert delivered_fraction == pytest.approx(1 - np.exp(-1), abs=0.03)

    def test_accepted_message_is_uniform_among_collisions(self, perfect):
        """When two senders always target the same receiver, each wins about half the time."""
        rng = np.random.default_rng(7)
        network = PushGossipNetwork(size=2, allow_self_messages=False)
        # With n=2 and no self messages, both agents always send to each other...
        # so use 3 agents where agents 0 and 1 both have only agent 2 as a
        # possible target in a size-3 network when targets collide.
        wins_for_zero = 0
        collisions = 0
        network = PushGossipNetwork(size=3)
        for _ in range(3000):
            report = network.deliver(
                np.asarray([0, 1]), np.asarray([0, 1], dtype=np.int8), perfect, rng
            )
            if report.recipients.size == 1 and report.recipients[0] == 2:
                collisions += 1
                wins_for_zero += int(report.senders[0] == 0)
        assert collisions > 500
        assert wins_for_zero / collisions == pytest.approx(0.5, abs=0.06)


class TestDeliverAll:
    def test_multi_accept_keeps_every_message(self, perfect, rng):
        network = PushGossipNetwork(size=10)
        senders = np.arange(10)
        report = network.deliver_all(senders, np.ones(10, dtype=np.int8), perfect, rng)
        assert report.messages_delivered == 10
        assert report.messages_dropped == 0
        assert report.recipients.size == 10


class TestReferenceImplementation:
    def test_reference_agrees_statistically_with_vectorised(self, perfect):
        """The pure-Python reference and the vectorised path have the same delivery distribution."""
        n = 300
        senders = np.arange(n)
        bits = np.zeros(n, dtype=np.int8)

        def delivered_fraction(method_name, seed):
            network = PushGossipNetwork(size=n)
            rng = np.random.default_rng(seed)
            total = 0
            for _ in range(20):
                report = getattr(network, method_name)(senders, bits, perfect, rng)
                total += report.messages_delivered
            return total / (20 * n)

        fast = delivered_fraction("deliver", 1)
        slow = delivered_fraction("deliver_reference", 2)
        assert fast == pytest.approx(slow, abs=0.03)

    def test_empty_report_helper(self):
        report = DeliveryReport.empty()
        assert report.messages_sent == 0
        assert report.recipients.size == 0


class TestDeliverBatchNoiseStreamOrder:
    """Differential test for the in-code claim at the end of deliver_batch:
    noising the winner bits directly (one ``transmit`` call on the
    bucket-ascending winners) consumes the channel RNG in exactly the same
    replicate-major, recipient-ascending order as
    ``NoiseChannel.transmit_batch`` over the accepted grid would."""

    def test_single_transmit_matches_transmit_batch_bit_for_bit(self):
        from repro.substrate.noise import BinarySymmetricChannel

        n, R, seed = 40, 8, 2024
        mask = np.ones((R, n), dtype=bool)
        bits = (np.arange(R * n).reshape(R, n) % 2).astype(np.int8)

        # Pass 1 — PerfectChannel consumes no channel randomness, so after
        # this call rng_clean sits exactly where the noise draw would begin,
        # and the report carries the accepted mask and the pre-noise bits.
        rng_clean = np.random.default_rng(seed)
        clean = PushGossipNetwork(size=n).deliver_batch(mask, bits, PerfectChannel(), rng_clean)
        assert clean.accepted.any()

        # Pass 2 — the same round with a noisy channel: targets/priorities
        # consume identically, then deliver_batch noises the winners with a
        # single transmit call.
        rng_noisy = np.random.default_rng(seed)
        noisy = PushGossipNetwork(size=n).deliver_batch(
            mask, bits, BinarySymmetricChannel(epsilon=0.2), rng_noisy
        )
        assert np.array_equal(clean.accepted, noisy.accepted)

        # Applying transmit_batch to the clean grid from the positioned
        # generator must reproduce the noisy grid bit for bit.
        reference = BinarySymmetricChannel(epsilon=0.2).transmit_batch(
            clean.bits, clean.accepted, rng_clean
        )
        assert np.array_equal(reference, noisy.bits)
        # And the generators end in the same state (no hidden extra draws).
        assert np.array_equal(rng_clean.integers(0, 1 << 30, 8), rng_noisy.integers(0, 1 << 30, 8))


class TestDeliverAllBatch:
    """The batch-aware multi-accept companion: invariants, marginals and the
    transmit_batch noise-stream reuse it documents."""

    def test_every_message_delivered_per_replicate(self, perfect):
        network = PushGossipNetwork(size=12)
        rng = np.random.default_rng(3)
        mask = np.zeros((4, 12), dtype=bool)
        mask[:, :5] = True
        mask[2, :] = False  # a silent replicate stays silent
        bits = np.ones((4, 12), dtype=np.int8)
        report = network.deliver_all_batch(mask, bits, perfect, rng)
        assert np.array_equal(report.messages_sent, mask.sum(axis=1))
        assert np.array_equal(report.messages_delivered, report.messages_sent)
        # Message-aligned arrays cover exactly the senders, replicate-major.
        rows, cols = np.nonzero(mask)
        assert np.array_equal(report.replicates, rows)
        assert np.array_equal(report.senders, cols)
        assert not np.any(report.recipients == report.senders), "no self-delivery"
        counts = report.delivery_counts(12)
        assert np.array_equal(counts.sum(axis=1), report.messages_sent)

    def test_noiseless_bits_pass_through(self, perfect):
        network = PushGossipNetwork(size=10)
        rng = np.random.default_rng(5)
        mask = np.ones((3, 10), dtype=bool)
        bits = (np.arange(30).reshape(3, 10) % 2).astype(np.int8)
        report = network.deliver_all_batch(mask, bits, perfect, rng)
        assert np.array_equal(report.bits, bits[mask])

    def test_noise_stream_reuses_transmit_batch_bit_for_bit(self):
        """Targets are drawn first, then the noise is literally one
        transmit_batch call over the sender grid — replayable exactly."""
        from repro.substrate.noise import BinarySymmetricChannel

        n, R, seed = 30, 5, 99
        mask = np.random.default_rng(0).random((R, n)) < 0.6
        bits = np.ones((R, n), dtype=np.int8)

        rng = np.random.default_rng(seed)
        report = PushGossipNetwork(size=n).deliver_all_batch(
            mask, bits, BinarySymmetricChannel(epsilon=0.2), rng
        )

        replay = np.random.default_rng(seed)
        rows, cols = np.nonzero(mask)
        draws = replay.integers(0, n - 1, size=rows.size)
        expected_targets = draws + (draws >= cols)
        expected_noisy = BinarySymmetricChannel(epsilon=0.2).transmit_batch(bits, mask, replay)
        assert np.array_equal(report.recipients, expected_targets)
        assert np.array_equal(report.bits, expected_noisy[mask])
        assert np.array_equal(rng.integers(0, 1 << 30, 8), replay.integers(0, 1 << 30, 8))

    def test_counters_and_empty_round(self, perfect):
        network = PushGossipNetwork(size=8)
        rng = np.random.default_rng(1)
        report = network.deliver_all_batch(
            np.zeros((2, 8), dtype=bool), np.zeros((2, 8), dtype=np.int8), perfect, rng
        )
        assert report.num_replicates == 2
        assert report.replicates.size == 0
        assert network.messages_sent_total == 0
        assert network.rounds_executed == 1

    def test_validation(self, perfect):
        network = PushGossipNetwork(size=10)
        rng = np.random.default_rng(0)
        with pytest.raises(ProtocolError):
            network.deliver_all_batch(
                np.ones(10, dtype=bool), np.ones(10, dtype=np.int8), perfect, rng
            )
        with pytest.raises(ProtocolError):
            network.deliver_all_batch(
                np.ones((2, 8), dtype=bool), np.ones((2, 8), dtype=np.int8), perfect, rng
            )
        with pytest.raises(ProtocolError):
            network.deliver_all_batch(
                np.ones((2, 10), dtype=bool), np.full((2, 10), 3, dtype=np.int8), perfect, rng
            )


def _argsort_winners(buckets, priorities):
    """Oracle: the combined-key argsort the collision resolver replaced.

    Sorting by ``bucket + priority`` and keeping the first message of every
    bucket run picks the minimum-priority message per bucket; returns the
    winning buckets (ascending) and the winning message indices.
    """
    order = np.argsort(buckets + priorities)
    sorted_buckets = buckets[order]
    is_first = np.empty(order.size, dtype=bool)
    is_first[:1] = True
    is_first[1:] = sorted_buckets[1:] != sorted_buckets[:-1]
    winners = order[is_first]
    return buckets[winners], winners


def _argsort_deliver_batch(network, send_mask, bits, channel, rng):
    """Oracle: the fault-free batch round as it ran on the argsort resolver."""
    num_replicates, size = send_mask.shape
    accepted = np.zeros((num_replicates, size), dtype=bool)
    accepted_bits = np.zeros((num_replicates, size), dtype=np.int8)
    accepted_senders = np.full((num_replicates, size), -1, dtype=np.int64)
    rows, cols = np.nonzero(send_mask)
    if rows.size:
        if network.allow_self_messages:
            targets = rng.integers(0, size, size=rows.size)
        else:
            draws = rng.integers(0, size - 1, size=rows.size)
            targets = draws + (draws >= cols)
        priorities = rng.random(rows.size)
        winning_buckets, winners = _argsort_winners(rows * size + targets, priorities)
        accepted.reshape(-1)[winning_buckets] = True
        accepted_senders.reshape(-1)[winning_buckets] = cols[winners]
        noisy = channel.transmit(bits[rows[winners], cols[winners]], rng)
        accepted_bits.reshape(-1)[winning_buckets] = noisy
    return accepted, accepted_bits, accepted_senders


class TestCollisionResolver:
    """Differential tests of the sort-free resolver against the argsort oracle."""

    @staticmethod
    def resolve(buckets, priorities, cells):
        return _resolve_collisions(buckets, priorities, _ResolverScratch(cells))

    @pytest.mark.parametrize("cells", [2, 3, 5, 8, 40])
    def test_matches_argsort_oracle_under_heavy_collisions(self, cells):
        rng = np.random.default_rng(cells)
        for messages in (1, cells, 10 * cells, 200):
            buckets = rng.integers(0, cells, size=messages)
            priorities = rng.random(messages)
            accepted, winning, winners = self.resolve(buckets, priorities, cells)
            expected_buckets, expected_winners = _argsort_winners(buckets, priorities)
            assert np.array_equal(winning, expected_buckets)
            assert np.array_equal(winners, expected_winners)
            assert np.array_equal(np.flatnonzero(accepted), expected_buckets)

    def test_winners_come_in_bucket_ascending_order(self):
        rng = np.random.default_rng(7)
        buckets = rng.integers(0, 50, size=400)[::-1].copy()
        accepted, winning, winners = self.resolve(buckets, rng.random(400), 50)
        assert np.all(np.diff(winning) > 0)
        assert np.array_equal(buckets[winners], winning)

    def test_equal_priorities_keep_exactly_one_winner_per_bucket(self):
        buckets = np.array([3, 0, 3, 3, 1, 0, 3], dtype=np.int64)
        priorities = np.full(buckets.size, 0.25)
        priorities[4] = 0.75  # the lone message of bucket 1 still wins
        accepted, winning, winners = self.resolve(buckets, priorities, 5)
        assert np.array_equal(winning, [0, 1, 3])
        assert np.array_equal(accepted, [True, True, False, True, False])
        assert np.array_equal(buckets[winners], winning)
        assert winners.size == np.unique(winners).size

    def test_empty_round(self):
        empty = np.empty(0, dtype=np.int64)
        accepted, winning, winners = self.resolve(empty, np.empty(0), 6)
        assert accepted.shape == (6,) and not accepted.any()
        assert winning.size == 0 and winners.size == 0

    @pytest.mark.parametrize("allow_self", [False, True], ids=["no-self", "self"])
    @pytest.mark.parametrize("size", [2, 3, 5])
    def test_deliver_batch_matches_the_argsort_round(self, size, allow_self):
        from repro.substrate.noise import BinarySymmetricChannel

        inputs = np.random.default_rng(size)
        num_replicates = 6
        for _ in range(20):
            send_mask = inputs.random((num_replicates, size)) < 0.8
            bits = inputs.integers(0, 2, size=(num_replicates, size)).astype(np.int8)
            seed = int(inputs.integers(1 << 30))
            network = PushGossipNetwork(size=size, allow_self_messages=allow_self)
            rng = np.random.default_rng(seed)
            report = network.deliver_batch(
                send_mask, bits, BinarySymmetricChannel(epsilon=0.1), rng
            )
            oracle_network = PushGossipNetwork(size=size, allow_self_messages=allow_self)
            oracle_rng = np.random.default_rng(seed)
            accepted, accepted_bits, accepted_senders = _argsort_deliver_batch(
                oracle_network, send_mask, bits, BinarySymmetricChannel(epsilon=0.1), oracle_rng
            )
            assert np.array_equal(report.accepted, accepted)
            assert np.array_equal(report.bits, accepted_bits)
            assert np.array_equal(report.senders, accepted_senders)
            assert np.array_equal(report.messages_delivered, accepted.sum(axis=1))
            assert rng.random() == oracle_rng.random()


class TestBatchInputChecks:
    """Both batch entry points keep every input check, on both delivery paths."""

    @pytest.mark.parametrize("method", ["deliver_batch", "deliver_all_batch"])
    @pytest.mark.parametrize("resilient", [False, True], ids=["plain", "resilient"])
    def test_bad_inputs_raise(self, perfect, method, resilient):
        from repro.substrate.topology import ChurnTopology

        network = PushGossipNetwork(size=10)
        deliver = getattr(network, method)
        extra = {"topology": ChurnTopology(offline_probability=0.1)} if resilient else {}
        rng = np.random.default_rng(0)
        mask = np.ones((2, 10), dtype=bool)
        bits = np.ones((2, 10), dtype=np.int8)
        with pytest.raises(ProtocolError, match="2-D"):
            deliver(mask[0], bits[0], perfect, rng, **extra)
        with pytest.raises(ProtocolError, match="same shape"):
            deliver(mask, bits[:, :9], perfect, rng, **extra)
        with pytest.raises(ProtocolError, match="agents"):
            deliver(mask[:, :8], bits[:, :8], perfect, rng, **extra)
        for bad in (3, -1):
            bad_bits = bits.copy()
            bad_bits[1, 4] = bad
            with pytest.raises(ProtocolError, match="0 or 1"):
                deliver(mask, bad_bits, perfect, rng, **extra)
        assert network.rounds_executed == 0

    def test_unsent_cells_may_hold_any_value(self, perfect):
        network = PushGossipNetwork(size=10)
        mask = np.zeros((2, 10), dtype=bool)
        mask[0, :3] = True
        bits = np.full((2, 10), 7, dtype=np.int8)
        bits[0, :3] = 1
        report = network.deliver_batch(mask, bits, perfect, np.random.default_rng(0))
        assert report.bits[report.accepted].tolist() == [1] * int(report.accepted.sum())


def _phase_channel(name):
    from repro.substrate.noise import (
        AdversarialFlipBudgetChannel,
        BinarySymmetricChannel,
        HeterogeneousChannel,
    )

    return {
        "bsc": lambda: BinarySymmetricChannel(epsilon=0.3),
        "perfect": lambda: PerfectChannel(),
        "heterogeneous": lambda: HeterogeneousChannel(epsilon=0.2, low_fraction=0.3),
        "adversarial": lambda: AdversarialFlipBudgetChannel(epsilon=0.2, budget=40),
    }[name]()


def _phase_fault_model(name):
    from repro.substrate.faults import BurstNoise, ByzantineSenders, CrashStop

    return {
        "none": None,
        "crash": CrashStop(fraction=0.3, crash_probability=0.2),
        "forced": CrashStop(forced={0: (1,), 2: (0, 3, 3), 5: (4,)}),
        "byzantine": ByzantineSenders(fraction=0.25),
        "adversarial": ByzantineSenders(fraction=0.25, mode="adversarial", adversarial_bit=1),
        "burst": BurstNoise(start_probability=0.4, stop_probability=0.2, flip_probability=0.5),
    }[name]


def _phase_topology(name):
    from repro.substrate.topology import ChurnTopology, DegreeLimitedTopology, TwoClusterTopology

    return {
        "none": None,
        "churn": ChurnTopology(offline_probability=0.2),
        "degree": DegreeLimitedTopology(degree=3),
        "cluster": TwoClusterTopology(cross_probability=0.1),
    }[name]


#: The kernel grid of ``test_resilient_regression.py`` — (channel,
#: allow_self_messages, fault model, topology, replicates, agents) — plus a
#: forced crash schedule, alone and under churn, so the plan's crash-filtered
#: sender lists are rebuilt mid-phase.
PHASE_CASES = [
    ("bsc", False, "none", "none", 4, 37),
    ("bsc", True, "none", "none", 3, 5),
    ("heterogeneous", False, "none", "none", 5, 23),
    ("adversarial", False, "none", "none", 2, 30),
    ("perfect", True, "none", "none", 2, 2),
    ("bsc", False, "crash", "none", 4, 37),
    ("bsc", True, "byzantine", "none", 3, 5),
    ("heterogeneous", False, "adversarial", "none", 3, 29),
    ("adversarial", False, "burst", "none", 2, 30),
    ("bsc", False, "none", "churn", 4, 40),
    ("bsc", False, "burst", "churn", 3, 41),
    ("bsc", False, "crash", "degree", 2, 16),
    ("heterogeneous", False, "byzantine", "cluster", 3, 24),
    ("bsc", False, "forced", "none", 3, 12),
    ("bsc", False, "forced", "churn", 3, 12),
]


def _run_phase(case, planned, rounds=8):
    """``rounds`` deliveries of one fixed (send_mask, bits) pair, through one
    plan (``planned``) or through fresh one-shot calls; every stream seeded
    alike."""
    from repro.substrate.faults import build_injector

    channel_name, allow_self, fault_name, topology_name, replicates, size = case
    inputs = np.random.default_rng([replicates, size, 3])
    send_mask = inputs.random((replicates, size)) < 0.7
    bits = inputs.integers(0, 2, size=(replicates, size)).astype(np.int8)
    rng = np.random.default_rng([size, replicates, 13])
    fault_rng = np.random.default_rng(5)
    network = PushGossipNetwork(size=size, allow_self_messages=allow_self)
    channel = _phase_channel(channel_name)
    injector = build_injector(
        _phase_fault_model(fault_name), size, fault_rng, num_replicates=replicates
    )
    topology = _phase_topology(topology_name)
    plan = network.batch_phase(send_mask, bits) if planned else None
    reports = []
    for _ in range(rounds):
        if planned:
            report = network.deliver_batch(
                plan.send_mask, plan.bits, channel, rng,
                faults=injector, topology=topology, phase=plan,
            )
        else:
            report = network.deliver_batch(
                send_mask, bits, channel, rng, faults=injector, topology=topology
            )
        reports.append(report)
    return reports, network, channel, injector, rng, fault_rng


REPORT_FIELDS = (
    "accepted", "bits", "senders", "messages_sent", "messages_delivered",
    "messages_dropped", "accepted_cells", "accepted_from",
)


class TestBatchPhasePlan:
    """One plan serving a whole phase is indistinguishable from per-round calls."""

    @pytest.mark.parametrize("case", PHASE_CASES, ids=["-".join(map(str, c)) for c in PHASE_CASES])
    def test_planned_phase_equals_per_round_calls(self, case):
        planned = _run_phase(case, planned=True)
        fresh = _run_phase(case, planned=False)
        for planned_report, fresh_report in zip(planned[0], fresh[0]):
            for name in REPORT_FIELDS:
                left, right = getattr(planned_report, name), getattr(fresh_report, name)
                assert left.dtype == right.dtype and np.array_equal(left, right), name
        _, net_a, chan_a, inj_a, rng_a, frng_a = planned
        _, net_b, chan_b, inj_b, rng_b, frng_b = fresh
        for name in (
            "messages_sent_total", "messages_delivered_total",
            "messages_dropped_total", "rounds_executed",
        ):
            assert getattr(net_a, name) == getattr(net_b, name), name
        assert chan_a.flips_applied() == chan_b.flips_applied()
        if inj_a is not None:
            assert inj_a.counters == inj_b.counters
            assert np.array_equal(inj_a.crashed, inj_b.crashed)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        assert frng_a.bit_generator.state == frng_b.bit_generator.state

    def test_forced_crashes_rebuild_the_sender_lists_mid_phase(self):
        reports, _, _, injector, _, _ = _run_phase(("bsc", False, "forced", "none", 3, 12), True)
        # Agent 1 crashes before round 0, agents 0 and 3 before round 2 and
        # agent 4 before round 5; the replicates' sent counts drop in step.
        sent = [int(report.messages_sent.sum()) for report in reports]
        assert sent[0] == sent[1] > sent[2] == sent[3] == sent[4] > sent[5]
        assert injector.counters["crashes"] == 3 * 4

    def test_plan_keeps_read_only_copies(self, perfect):
        network = PushGossipNetwork(size=6)
        send_mask = np.ones((2, 6), dtype=bool)
        bits = np.ones((2, 6), dtype=np.int8)
        plan = network.batch_phase(send_mask, bits)
        send_mask[:] = False  # the caller's grids stay theirs
        bits[:] = 0
        assert plan.send_mask.all() and plan.bits.all()
        with pytest.raises(ValueError):
            plan.bits[0, 0] = 0
        report = network.deliver_batch(
            plan.send_mask, plan.bits, perfect, np.random.default_rng(1), phase=plan
        )
        assert report.messages_sent.tolist() == [6, 6]
        assert np.all(report.bits[report.accepted] == 1)

    def test_plan_rejects_other_arrays_and_networks(self, perfect):
        network = PushGossipNetwork(size=6)
        send_mask = np.ones((2, 6), dtype=bool)
        bits = np.ones((2, 6), dtype=np.int8)
        plan = network.batch_phase(send_mask, bits)
        rng = np.random.default_rng(0)
        for mask_arg, bits_arg in ((send_mask, plan.bits), (plan.send_mask, bits)):
            with pytest.raises(ProtocolError, match="plan"):
                network.deliver_batch(mask_arg, bits_arg, perfect, rng, phase=plan)
        with pytest.raises(ProtocolError, match="plan"):
            PushGossipNetwork(size=6).deliver_batch(
                plan.send_mask, plan.bits, perfect, rng, phase=plan
            )
        with pytest.raises(ProtocolError, match="0 or 1"):
            network.batch_phase(send_mask, np.full((2, 6), 2, dtype=np.int8))
        assert network.rounds_executed == 0

    @pytest.mark.parametrize("resilient", [False, True], ids=["plain", "resilient"])
    def test_resolver_buffers_are_allocated_once_per_plan(self, monkeypatch, perfect, resilient):
        from repro.substrate import network as network_module
        from repro.substrate.topology import ChurnTopology

        constructions = []
        original = network_module._ResolverScratch.__init__

        def counting_init(self, cells):
            constructions.append(cells)
            original(self, cells)

        monkeypatch.setattr(network_module._ResolverScratch, "__init__", counting_init)
        network = PushGossipNetwork(size=9)
        inputs = np.random.default_rng(2)
        plan = network.batch_phase(
            inputs.random((3, 9)) < 0.8, inputs.integers(0, 2, size=(3, 9)).astype(np.int8)
        )
        buffers = (plan.scratch.best, plan.scratch.owner, plan.scratch.candidate)
        topology = ChurnTopology(offline_probability=0.2) if resilient else None
        rng = np.random.default_rng(4)
        for _ in range(6):
            network.deliver_batch(
                plan.send_mask, plan.bits, perfect, rng, topology=topology, phase=plan
            )
        assert constructions == [27]
        now = (plan.scratch.best, plan.scratch.owner, plan.scratch.candidate)
        assert all(after is before for after, before in zip(now, buffers))
