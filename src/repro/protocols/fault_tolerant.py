"""A fault-tolerant approximate-consensus comparator (``AlgorithmTwo``-style).

The paper's protocol tolerates *channel noise* but has no notion of faulty
*agents*.  To give experiment E12 a meaningful yardstick, this module ports
the classic phased approximate-consensus algorithm for ``f`` faulty servers
(the ``AlgorithmTwo`` family referenced in SNIPPETS.md) to the repository's
synchronous simulation conventions:

* every server starts with a value drawn uniformly from ``[0, K]``
  (``K = initial_range``);
* the algorithm runs a fixed budget of ``p_end`` phases with
  ``K * (f / (n - f))^{p_end} <= eps``, i.e.
  ``p_end = ceil(log(eps / K) / log(f / (n - f)))`` — exactly the snippet's
  termination bound;
* in each phase every correct, non-crashed server broadcasts its value and,
  if it received values from at least ``n - f`` servers, replaces its value
  by the average of what it received; otherwise it stalls for the phase;
* Byzantine servers send an independent uniform fake value from the fault
  stream to *every* receiver (the classic equivocation adversary); crashed
  servers send nothing;
* success means the spread (max - min) of the correct, surviving servers'
  values is at most ``eps`` after the phase budget.

The serial implementation here is the differential reference for the batched
``(R, n)`` rule in :mod:`repro.exec.fault_batching`: phase budgets agree
exactly, success rates statistically (pinned by
``tests/unit/exec/test_fault_batching.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ParameterError
from ..substrate.faults import (
    ByzantineSenders,
    CrashStop,
    FaultInjector,
    FaultModel,
    NoFaults,
    build_injector,
)

__all__ = [
    "declared_fault_tolerance",
    "consensus_phase_budget",
    "ConsensusOutcome",
    "PhasedApproximateConsensus",
]


def declared_fault_tolerance(model: Optional[FaultModel], n: int) -> int:
    """The ``f`` the algorithm is configured to tolerate under ``model``.

    For crash-stop and Byzantine models this is the size of the fault-prone
    set (``floor(fraction * eligible)``); for :class:`NoFaults` (or fault
    models without an agent-fault notion, like burst noise) it is zero.
    """
    if isinstance(model, (CrashStop, ByzantineSenders)):
        eligible = n - len(set(int(i) for i in model.immune))
        return int(math.floor(model.fraction * eligible))
    return 0


def consensus_phase_budget(
    n: int,
    num_faulty: int,
    initial_range: float = 1.0,
    agreement_eps: float = 0.05,
    max_phases: int = 64,
) -> int:
    """The snippet's ``p_end``: phases needed to contract ``K`` down to ``eps``.

    ``ceil(log(eps / K) / log(f / (n - f)))``, clamped to ``[1, max_phases]``;
    ``f = 0`` needs a single averaging phase and ``2 f >= n`` (no correct
    majority) gets the cap, since the bound is vacuous there.
    """
    if n < 2:
        raise ParameterError(f"consensus needs n >= 2, got {n}")
    if not 0.0 < agreement_eps < initial_range:
        raise ParameterError(
            f"agreement_eps must be in (0, initial_range), got {agreement_eps}"
        )
    if num_faulty <= 0:
        return 1
    if 2 * num_faulty >= n:
        return max_phases
    ratio = num_faulty / (n - num_faulty)
    phases = math.ceil(math.log(agreement_eps / initial_range) / math.log(ratio))
    return max(1, min(max_phases, phases))


@dataclass(frozen=True)
class ConsensusOutcome:
    """Outcome of one phased approximate-consensus run.

    ``success`` is the snippet's agreement criterion (spread of correct
    survivors at most ``agreement_eps``); ``agreement_fraction`` is the
    fraction of correct survivors within ``agreement_eps`` of their mean —
    the graded analogue reported by E12's tables.
    """

    success: bool
    spread: float
    phases: int
    num_faulty: int
    agreement_fraction: float
    stalled_phases: int


class PhasedApproximateConsensus:
    """Serial synchronous port of the ``AlgorithmTwo`` comparator.

    Construct once (the instance is immutable configuration) and call
    :meth:`run` per trial with fresh generators; nothing is shared between
    runs, so the class is trivially picklable for a process-pool backend.
    """

    name = "phased-approximate-consensus"

    def __init__(
        self,
        initial_range: float = 1.0,
        agreement_eps: float = 0.05,
        max_phases: int = 64,
    ) -> None:
        if initial_range <= 0:
            raise ParameterError(f"initial_range must be positive, got {initial_range}")
        self.initial_range = float(initial_range)
        self.agreement_eps = float(agreement_eps)
        self.max_phases = int(max_phases)
        # Validate eagerly so a bad configuration fails at construction.
        consensus_phase_budget(2, 0, self.initial_range, self.agreement_eps, self.max_phases)

    def phase_budget(self, n: int, model: Optional[FaultModel]) -> int:
        """Phases the algorithm will run for ``n`` servers under ``model``."""
        return consensus_phase_budget(
            n,
            declared_fault_tolerance(model, n),
            self.initial_range,
            self.agreement_eps,
            self.max_phases,
        )

    def run(
        self,
        n: int,
        model: Optional[FaultModel],
        rng: np.random.Generator,
        fault_rng: np.random.Generator,
    ) -> ConsensusOutcome:
        """Run one instance: ``n`` servers, faults per ``model``.

        ``rng`` supplies the honest randomness (initial values); every fault
        decision and Byzantine fake value comes from ``fault_rng`` — the same
        dedicated-stream discipline as the gossip substrate.
        """
        if model is None:
            model = NoFaults()
        num_faulty = declared_fault_tolerance(model, n)
        phases = self.phase_budget(n, model)
        injector: Optional[FaultInjector] = build_injector(model, n, fault_rng)
        values = rng.random(n) * self.initial_range

        byzantine = (
            injector.byzantine[0].copy()
            if injector is not None
            else np.zeros(n, dtype=bool)
        )
        num_byzantine = int(byzantine.sum())
        stalled = 0
        for _ in range(phases):
            if injector is not None:
                injector.begin_round()
            alive = ~injector.crashed[0] if injector is not None else np.ones(n, dtype=bool)
            correct_alive = alive & ~byzantine
            received = int(correct_alive.sum()) + num_byzantine
            if received < n - num_faulty or not correct_alive.any():
                stalled += 1
                continue
            honest_sum = float(values[correct_alive].sum())
            if num_byzantine:
                # One independent fake per (Byzantine sender, receiver) pair:
                # the equivocation adversary, drawn from the fault stream.
                fakes = fault_rng.random((num_byzantine, n)) * self.initial_range
                fake_sums = fakes.sum(axis=0)
            else:
                fake_sums = np.zeros(n)
            averaged = (honest_sum + fake_sums) / received
            values = np.where(correct_alive, averaged, values)

        final_alive = ~injector.crashed[0] if injector is not None else np.ones(n, dtype=bool)
        survivors = values[final_alive & ~byzantine]
        if survivors.size == 0:
            return ConsensusOutcome(False, float("inf"), phases, num_faulty, 0.0, stalled)
        spread = float(survivors.max() - survivors.min())
        near_mean = np.abs(survivors - survivors.mean()) <= self.agreement_eps
        return ConsensusOutcome(
            success=spread <= self.agreement_eps,
            spread=spread,
            phases=phases,
            num_faulty=num_faulty,
            agreement_fraction=float(near_mean.mean()),
            stalled_phases=stalled,
        )
