"""Channel noise models for the Flip model.

Section 1.3.2 of the paper specifies that every delivered message is a single
bit which is flipped *independently* with probability at most ``1/2 - epsilon``.
The canonical channel is therefore the binary symmetric channel (BSC) with
crossover probability ``p = 1/2 - epsilon``; the paper's guarantees only
require ``p <= 1/2 - epsilon``, so we also provide a heterogeneous channel
(different flip probability per message, all bounded by ``1/2 - epsilon``)
and a perfect channel (``epsilon = 1/2``) used by noiseless baselines.

All channels operate on vectors of bits (``numpy`` arrays with values in
``{0, 1}``) and consume randomness from an explicitly passed generator, never
from global state.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterError

__all__ = [
    "NoiseChannel",
    "BinarySymmetricChannel",
    "PerfectChannel",
    "HeterogeneousChannel",
    "AdversarialFlipBudgetChannel",
    "crossover_probability",
    "validate_epsilon",
]


def validate_epsilon(epsilon: float) -> float:
    """Validate that ``epsilon`` lies in the half-open interval ``(0, 1/2]``.

    Returns the value as ``float`` for convenience.  ``epsilon = 1/2`` means a
    noiseless channel; ``epsilon`` close to 0 means messages are nearly
    uniformly random.
    """
    eps = float(epsilon)
    if not 0.0 < eps <= 0.5:
        raise ParameterError(f"epsilon must lie in (0, 0.5], got {epsilon!r}")
    return eps


def crossover_probability(epsilon: float) -> float:
    """Return the BSC crossover probability ``1/2 - epsilon`` for ``epsilon``."""
    return 0.5 - validate_epsilon(epsilon)


class NoiseChannel(abc.ABC):
    """Abstract base class for per-message bit-flipping channels."""

    #: Lower bound on the per-message correctness advantage; every concrete
    #: channel guarantees that each bit survives with probability at least
    #: ``1/2 + epsilon``.
    epsilon: float

    @abc.abstractmethod
    def transmit(self, bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return a copy of ``bits`` with noise applied.

        Parameters
        ----------
        bits:
            Integer array with values in ``{0, 1}``; one entry per delivered
            message.
        rng:
            Generator supplying the channel's randomness.
        """

    def transmit_batch(
        self, bits: np.ndarray, accept_mask: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Apply noise to the accepted entries of a batch of delivery grids.

        The batched execution path (:mod:`repro.exec.batching`) represents the
        messages accepted in one round of ``R`` independent replicates as an
        ``(R, n)`` bit grid plus an ``(R, n)`` acceptance mask.  This helper
        noises exactly the accepted entries, in row-major (replicate-major,
        recipient-ascending) order, by delegating to :meth:`transmit` on the
        flattened masked values — so every concrete channel's semantics
        (including stateful ones such as
        :class:`AdversarialFlipBudgetChannel`) carry over to the batch path
        unchanged, bit for bit.

        Parameters
        ----------
        bits:
            ``(R, n)`` integer grid; entries outside ``accept_mask`` are
            passed through untouched.
        accept_mask:
            ``(R, n)`` boolean grid marking which entries carry an accepted
            message this round.
        rng:
            Generator supplying the channel's randomness.
        """
        grid = np.asarray(bits)
        mask = np.asarray(accept_mask, dtype=bool)
        if grid.shape != mask.shape:
            raise ParameterError(
                f"bits and accept_mask must have the same shape, got {grid.shape} vs {mask.shape}"
            )
        output = grid.copy()
        if mask.any():
            output[mask] = self.transmit(grid[mask], rng)
        return output

    def flips_applied(self) -> int:
        """Total number of bit flips applied so far (diagnostic counter)."""
        return getattr(self, "_flips", 0)

    def reset_counters(self) -> None:
        """Reset the flip counter."""
        self._flips = 0

    def _record_flips(self, flip_mask: np.ndarray) -> None:
        self._flips = getattr(self, "_flips", 0) + int(np.count_nonzero(flip_mask))

    @staticmethod
    def _check_bits(bits: np.ndarray) -> np.ndarray:
        array = np.asarray(bits)
        if array.dtype.kind not in "iu":
            raise ParameterError(f"channel input bits must be integers, got dtype {array.dtype}")
        # One OR-reduction checks both bounds: it is 0 or 1 exactly when
        # every entry is, since a negative entry sets the sign bit and an
        # entry above 1 a higher bit.
        if array.size and int(np.bitwise_or.reduce(array, axis=None)) not in (0, 1):
            raise ParameterError("channel input bits must be 0 or 1")
        return array


@dataclass
class BinarySymmetricChannel(NoiseChannel):
    """The canonical Flip-model channel: flip each bit w.p. ``1/2 - epsilon``."""

    epsilon: float = 0.2

    def __post_init__(self) -> None:
        self.epsilon = validate_epsilon(self.epsilon)
        self._flips = 0

    @property
    def flip_probability(self) -> float:
        """The crossover probability ``1/2 - epsilon``."""
        return 0.5 - self.epsilon

    def transmit(self, bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        array = self._check_bits(bits)
        if array.size == 0:
            return array.copy()
        flip_mask = rng.random(array.shape) < self.flip_probability
        self._record_flips(flip_mask)
        return array ^ flip_mask


@dataclass
class PerfectChannel(NoiseChannel):
    """A noiseless channel (``epsilon = 1/2``); used by noiseless baselines."""

    epsilon: float = 0.5

    def __post_init__(self) -> None:
        self.epsilon = 0.5
        self._flips = 0

    def transmit(self, bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self._check_bits(bits).copy()


@dataclass
class HeterogeneousChannel(NoiseChannel):
    """A channel whose per-message flip probability varies but stays ≤ 1/2 - epsilon.

    The paper only requires the flip probability of each message to be *at
    most* ``1/2 - epsilon``; this channel draws each message's flip
    probability uniformly from ``[low_fraction, 1] * (1/2 - epsilon)`` and is
    used in robustness tests to confirm the protocol does not secretly rely
    on the noise being identical across messages.
    """

    epsilon: float = 0.2
    low_fraction: float = 0.0

    def __post_init__(self) -> None:
        self.epsilon = validate_epsilon(self.epsilon)
        if not 0.0 <= self.low_fraction <= 1.0:
            raise ParameterError("low_fraction must lie in [0, 1]")
        self._flips = 0

    def transmit(self, bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        array = self._check_bits(bits)
        if array.size == 0:
            return array.copy()
        max_p = 0.5 - self.epsilon
        per_message_p = rng.uniform(self.low_fraction * max_p, max_p, size=array.shape)
        flip_mask = rng.random(array.shape) < per_message_p
        self._record_flips(flip_mask)
        return array ^ flip_mask


@dataclass
class AdversarialFlipBudgetChannel(NoiseChannel):
    """A stress-testing channel that always flips the first ``budget`` bits it sees.

    This is *stronger* than anything the paper allows (the flips are not
    independent); it is only used in failure-injection tests to check that
    the simulator itself stays consistent under extreme channels, and to
    demonstrate empirically that the protocol's guarantee genuinely depends
    on the stochastic noise assumption.
    """

    epsilon: float = 0.2
    budget: int = 0
    _spent: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        self.epsilon = validate_epsilon(self.epsilon)
        if self.budget < 0:
            raise ParameterError("budget must be non-negative")
        self._flips = 0

    @property
    def remaining_budget(self) -> int:
        """Number of adversarial flips still available."""
        return max(0, self.budget - self._spent)

    def transmit(self, bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        array = self._check_bits(bits)
        if array.size == 0:
            return array.copy()
        to_flip = min(self.remaining_budget, array.size)
        output = array.copy()
        if to_flip > 0:
            output.flat[:to_flip] = 1 - output.flat[:to_flip]
            self._spent += to_flip
            self._flips = getattr(self, "_flips", 0) + to_flip
        return output
