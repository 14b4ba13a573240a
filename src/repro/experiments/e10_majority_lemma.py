"""Experiment E10 — the noisy-sampling majority lemma (Lemma 2.11).

Lemma 2.11: take ``gamma = 2r + 1`` noisy samples of a population whose bias
towards the correct opinion is ``delta``; then the majority of the samples is
correct with probability at least ``min(1/2 + 4 delta, 1/2 + 1/100)``.  The
proof works through an imaginary two-step process and the Stirling estimate
of Claim 2.12, and it is the engine behind Stage II's per-phase boosting.

The driver checks the lemma head-on, without the rest of the protocol:

* each sample is correct with probability ``1/2 + 2 eps delta`` (population
  bias filtered through the binary symmetric channel);
* Monte-Carlo and exact binomial evaluations of the majority's success
  probability are compared against the lemma's lower bound across the three
  regimes of the proof (small / medium / large ``delta``).

The paper's ``r = ceil(2^22 / eps^2)`` makes the constant 4 work for *every*
``delta``; the driver uses ``r = ceil(r0 / eps^2)`` with a configurable
``r0`` and records, per row, whether the (much smaller) calibrated sample
count already satisfies the bound.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

import numpy as np

from ..api.config import ExecutionConfig, ExecutionPlan, resolve_run_options
from ..core.opinions import correct_probability_after_noise
from ..core.theory import exact_majority_success_probability, sample_majority_success_lower_bound
from ..substrate.rng import spawn_generator
from .report import ExperimentReport

__all__ = ["run"]

DEFAULT_DELTAS: Sequence[float] = (0.002, 0.005, 0.02, 0.05, 0.1, 0.25)


def run(
    epsilon: float = 0.2,
    deltas: Sequence[float] = DEFAULT_DELTAS,
    r0: float = 8.0,
    monte_carlo_reps: int = 40_000,
    base_seed: int = 1010,
    config: Optional[Union[ExecutionConfig, ExecutionPlan]] = None,
) -> ExperimentReport:
    """Run the E10 sampling experiment and return its report.

    ``config`` carries the execution strategy.  ``batch=True`` draws the
    Monte-Carlo sample counts for *all* deltas as a single
    ``(len(deltas), monte_carlo_reps)`` binomial grid instead of one vector
    per delta — deterministic per ``base_seed`` and statistically equivalent
    to the per-delta loop, but drawn from a single batch-level stream (the
    same trade the ``--batch`` simulators make).
    """
    plan = resolve_run_options("E10", config=config)
    batch = plan.batch
    base_seed = plan.base_seed if plan.base_seed is not None else base_seed
    deltas = list(deltas)  # iterated twice below; a one-shot iterable must not go empty
    r = int(math.ceil(r0 / (epsilon * epsilon)))
    gamma = 2 * r + 1
    rng = spawn_generator(base_seed, "e10", epsilon, gamma)

    report = ExperimentReport(
        experiment_id=plan.spec.experiment_id,
        title=plan.spec.title,
        claim=plan.spec.claim,
        config={
            "epsilon": epsilon,
            "r0": r0,
            "gamma": gamma,
            "monte_carlo_reps": monte_carlo_reps,
            "batch": batch,
        },
    )

    per_sample_probs = np.asarray(
        [correct_probability_after_noise(delta, epsilon) for delta in deltas]
    )
    if batch:
        # One draw for the whole sweep: row d holds delta_d's repetitions.
        batch_counts = rng.binomial(
            gamma, per_sample_probs[:, None], size=(len(per_sample_probs), monte_carlo_reps)
        )
        monte_carlo_by_delta = np.mean(2 * batch_counts > gamma, axis=1)

    for index, delta in enumerate(deltas):
        per_sample = float(per_sample_probs[index])
        if batch:
            monte_carlo = float(monte_carlo_by_delta[index])
        else:
            # Monte-Carlo: number of correct samples among gamma, repeated many times.
            correct_counts = rng.binomial(gamma, per_sample, size=monte_carlo_reps)
            monte_carlo = float(np.mean(2 * correct_counts > gamma))
        exact = exact_majority_success_probability(gamma, per_sample)
        bound = sample_majority_success_lower_bound(delta)
        if delta <= epsilon / (2**20):
            regime = "small"
        elif delta < 2**-12:
            regime = "medium"
        else:
            regime = "large"
        report.add_row(
            delta=delta,
            regime_in_paper_proof=regime,
            per_sample_correct_prob=per_sample,
            monte_carlo_majority_prob=monte_carlo,
            exact_majority_prob=exact,
            lemma_lower_bound=bound,
            bound_satisfied=exact >= bound - 1e-9,
        )

    report.add_note(
        f"gamma = 2*ceil({r0}/eps^2)+1 = {gamma}; the paper uses r = ceil(2^22/eps^2), which makes the "
        "constant-4 amplification hold for arbitrarily small delta.  With the calibrated gamma the bound "
        "holds across the sweep as soon as 2*eps*sqrt(2*gamma/pi) >= 4, which the chosen r0 satisfies."
    )
    report.add_note(
        "the paper's regime boundaries (delta <= eps/2^20, delta < 2^-12) all collapse into the 'large' "
        "regime at the delta values that are measurable by Monte-Carlo; the bound itself is what matters here."
    )
    return report
