"""Unit tests for repro.substrate.noise."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.substrate.noise import (
    AdversarialFlipBudgetChannel,
    BinarySymmetricChannel,
    HeterogeneousChannel,
    PerfectChannel,
    crossover_probability,
    validate_epsilon,
)


class TestValidateEpsilon:
    def test_valid_values_pass_through(self):
        assert validate_epsilon(0.25) == 0.25
        assert validate_epsilon(0.5) == 0.5

    @pytest.mark.parametrize("bad", [0.0, -0.1, 0.51, 1.0])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ParameterError):
            validate_epsilon(bad)

    def test_crossover_probability(self):
        assert crossover_probability(0.5) == 0.0
        assert crossover_probability(0.1) == pytest.approx(0.4)


class TestBinarySymmetricChannel:
    def test_flip_rate_close_to_crossover(self, rng):
        channel = BinarySymmetricChannel(epsilon=0.2)
        bits = np.zeros(200_000, dtype=np.int8)
        received = channel.transmit(bits, rng)
        assert received.mean() == pytest.approx(0.3, abs=0.01)

    def test_counts_flips(self, rng):
        channel = BinarySymmetricChannel(epsilon=0.2)
        bits = np.ones(10_000, dtype=np.int8)
        received = channel.transmit(bits, rng)
        assert channel.flips_applied() == int(np.count_nonzero(received == 0))

    def test_empty_input(self, rng):
        channel = BinarySymmetricChannel(epsilon=0.2)
        assert channel.transmit(np.empty(0, dtype=np.int8), rng).size == 0

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([0, 2]),
            np.array([-1, 0]),
            np.array([[1, 0], [0, -128]], dtype=np.int8),
            np.array([0.0, 1.0]),
            np.array([True, False]),
        ],
        ids=["two", "negative", "int8-grid", "float", "bool"],
    )
    def test_rejects_non_bits(self, rng, bad):
        channel = BinarySymmetricChannel(epsilon=0.2)
        with pytest.raises(ParameterError):
            channel.transmit(bad, rng)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint8])
    @pytest.mark.parametrize("make", [
        lambda: BinarySymmetricChannel(epsilon=0.1),
        lambda: HeterogeneousChannel(epsilon=0.2, low_fraction=0.3),
    ], ids=["bsc", "heterogeneous"])
    def test_flips_match_the_where_reference(self, make, dtype):
        """Same variates, dtype and values as ``np.where(flip, 1 - bits, bits)``."""
        bits = np.random.default_rng(3).integers(0, 2, size=(4, 50)).astype(dtype)
        channel = make()
        output = channel.transmit(bits, np.random.default_rng(9))
        reference_rng = np.random.default_rng(9)
        if isinstance(channel, HeterogeneousChannel):
            limit = reference_rng.uniform(0.3 * 0.3, 0.3, size=bits.shape)
        else:
            limit = 0.4
        flip = reference_rng.random(bits.shape) < limit
        expected = np.where(flip, 1 - bits, bits)
        assert output.dtype == expected.dtype == dtype
        assert np.array_equal(output, expected)
        assert channel.flips_applied() == int(flip.sum())

    def test_reset_counters(self, rng):
        channel = BinarySymmetricChannel(epsilon=0.2)
        channel.transmit(np.zeros(1000, dtype=np.int8), rng)
        channel.reset_counters()
        assert channel.flips_applied() == 0

    def test_does_not_mutate_input(self, rng):
        channel = BinarySymmetricChannel(epsilon=0.1)
        bits = np.zeros(1000, dtype=np.int8)
        channel.transmit(bits, rng)
        assert bits.sum() == 0


class TestPerfectChannel:
    def test_never_flips(self, rng):
        channel = PerfectChannel()
        bits = rng.integers(0, 2, size=5000).astype(np.int8)
        np.testing.assert_array_equal(channel.transmit(bits, rng), bits)
        assert channel.flips_applied() == 0

    def test_epsilon_forced_to_half(self):
        assert PerfectChannel(epsilon=0.1).epsilon == 0.5


class TestHeterogeneousChannel:
    def test_flip_rate_below_crossover_bound(self, rng):
        channel = HeterogeneousChannel(epsilon=0.2)
        bits = np.zeros(200_000, dtype=np.int8)
        received = channel.transmit(bits, rng)
        # Per-message flip probabilities are uniform in [0, 0.3], mean 0.15.
        assert received.mean() < 0.3
        assert received.mean() == pytest.approx(0.15, abs=0.01)

    def test_low_fraction_one_behaves_like_bsc(self, rng):
        channel = HeterogeneousChannel(epsilon=0.2, low_fraction=1.0)
        bits = np.zeros(100_000, dtype=np.int8)
        assert channel.transmit(bits, rng).mean() == pytest.approx(0.3, abs=0.01)

    def test_invalid_low_fraction(self):
        with pytest.raises(ParameterError):
            HeterogeneousChannel(epsilon=0.2, low_fraction=1.5)


class TestAdversarialFlipBudgetChannel:
    def test_spends_budget_then_stops(self, rng):
        channel = AdversarialFlipBudgetChannel(epsilon=0.2, budget=3)
        first = channel.transmit(np.zeros(2, dtype=np.int8), rng)
        np.testing.assert_array_equal(first, [1, 1])
        second = channel.transmit(np.zeros(4, dtype=np.int8), rng)
        np.testing.assert_array_equal(second, [1, 0, 0, 0])
        assert channel.remaining_budget == 0
        third = channel.transmit(np.zeros(2, dtype=np.int8), rng)
        np.testing.assert_array_equal(third, [0, 0])

    def test_negative_budget_rejected(self):
        with pytest.raises(ParameterError):
            AdversarialFlipBudgetChannel(epsilon=0.2, budget=-1)
