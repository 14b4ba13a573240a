"""Experiment E6 — Stage II bias boosting (Lemmas 2.11, 2.14, Corollary 2.15).

Stage II starts from a fully opinionated population whose bias towards the
correct opinion is only ``delta_1 = Omega(sqrt(log n / n))`` and must boost
that bias to 1.  Lemma 2.14 guarantees that each boosting phase multiplies a
small bias by at least 1.7 (until it reaches a constant), and the final long
phase finishes the job.

The driver seeds a population at exactly the starting bias Stage I would
deliver, runs Stage II alone, and reports the per-phase bias trajectory and
the per-phase amplification factors, alongside the final success rate.  With
``batch=True`` all trials execute simultaneously on ``(R, n)`` grids through
the instrumented stage kernel
(:func:`repro.exec.stage_batching.run_stage2_instrumented`), whose per-phase
replicate vectors carry exactly the ``delta_i`` trajectory the serial trial
reads off :class:`~repro.core.stage2.StageTwoPhaseSummary`.
"""

from __future__ import annotations

import functools
import math
from typing import Any, Optional, Union

from ..analysis.experiments import run_trials
from ..api.config import ExecutionConfig, ExecutionPlan, resolve_run_options
from ..core.majority import MajorityInstance
from ..core.parameters import ProtocolParameters, StageTwoParameters, initial_bias_target
from ..core.stage2 import execute_stage_two
from ..substrate.engine import SimulationEngine
from .report import ExperimentReport

__all__ = ["run"]


def _stage2_trial(
    seed: int,
    _index: int,
    n: int,
    epsilon: float,
    initial_bias: float,
    parameters: StageTwoParameters,
) -> dict:
    """One Stage-II-only run from a seeded bias (module-level, hence picklable)."""
    engine = SimulationEngine.create(n=n, epsilon=epsilon, seed=seed, source=None)
    instance = MajorityInstance.generate(
        n=n, size=n, bias=initial_bias, majority_opinion=1, rng=engine.random.stream("seeding")
    )
    engine.population.seed_opinionated_set(instance.members, instance.opinions)
    stage2 = execute_stage_two(engine, parameters, correct_opinion=1)
    measurements = {
        "success": stage2.consensus_reached,
        "final_bias": stage2.final_bias,
        "final_fraction": stage2.final_correct_fraction,
    }
    for phase in stage2.phases:
        measurements[f"bias_after_{phase.phase}"] = phase.bias_after
        measurements[f"successful_{phase.phase}"] = phase.successful_agents
    return measurements


def _stage2_batch_result(
    name: str,
    n: int,
    epsilon: float,
    trials: int,
    base_seed: int,
    initial_bias: float,
    parameters: StageTwoParameters,
) -> "Any":
    """All trials at once on ``(R, n)`` grids, with the serial measurement keys."""
    from ..exec.batching import measurements_to_experiment_result
    from ..exec.stage_batching import run_stage2_instrumented
    from ..substrate.rng import derive_seed

    batch = run_stage2_instrumented(
        n=n,
        epsilon=epsilon,
        num_replicates=trials,
        initial_bias=initial_bias,
        base_seed=derive_seed(base_seed, name, "batch"),
        parameters=parameters,
    )
    measurements = []
    for index in range(trials):
        trial = {
            "success": bool(batch.consensus_reached[index]),
            "final_bias": float(batch.final_bias[index]),
            "final_fraction": float(batch.final_correct_fraction[index]),
        }
        for phase in batch.phases:
            trial[f"bias_after_{phase.phase}"] = float(phase.bias_after[index])
            trial[f"successful_{phase.phase}"] = int(phase.successful_agents[index])
        measurements.append(trial)
    return measurements_to_experiment_result(name, measurements, base_seed=base_seed)


def run(
    n: int = 4000,
    epsilon: float = 0.2,
    initial_bias: Optional[float] = None,
    trials: int = 10,
    base_seed: int = 606,
    config: Optional[Union[ExecutionConfig, ExecutionPlan]] = None,
) -> ExperimentReport:
    """Run the E6 Stage-II-only measurement and return its report.

    ``config`` carries the execution strategy: the trials are tasks on the
    run's execution backend, or, with ``batch=True``, one in-process
    simulation of all trials at once via the instrumented Stage-II batch kernel.
    """
    plan = resolve_run_options("E6", config=config)
    batch = plan.batch
    trials = plan.trials if plan.trials is not None else trials
    base_seed = plan.base_seed if plan.base_seed is not None else base_seed
    if initial_bias is None:
        initial_bias = 2.0 * initial_bias_target(n)
    parameters = ProtocolParameters.calibrated(n, epsilon)
    stage2_params = parameters.stage2

    if batch:
        result = _stage2_batch_result(
            "E6-stage2-boost", n, epsilon, trials, base_seed, initial_bias, stage2_params
        )
    else:
        result = run_trials(
            name="E6-stage2-boost",
            trial_fn=functools.partial(
                _stage2_trial,
                n=n,
                epsilon=epsilon,
                initial_bias=initial_bias,
                parameters=stage2_params,
            ),
            num_trials=trials,
            base_seed=base_seed,
        )

    report = ExperimentReport(
        experiment_id=plan.spec.experiment_id,
        title=plan.spec.title,
        claim=plan.spec.claim,
        config={
            "n": n,
            "epsilon": epsilon,
            "initial_bias": initial_bias,
            "gamma": stage2_params.gamma,
            "k": stage2_params.num_boost_phases,
            "trials": trials,
        },
    )

    previous_bias = initial_bias
    for phase_index in range(1, stage2_params.num_phases + 1):
        mean_bias = result.mean(f"bias_after_{phase_index}")
        amplification = mean_bias / previous_bias if previous_bias > 0 else math.inf
        report.add_row(
            phase=phase_index,
            is_final_phase=phase_index == stage2_params.num_phases,
            mean_bias_after=mean_bias,
            amplification_vs_previous=amplification,
            claimed_min_amplification=1.7 if phase_index <= stage2_params.num_boost_phases else None,
            mean_successful_agents=result.mean(f"successful_{phase_index}"),
        )
        previous_bias = mean_bias

    report.add_note(
        f"success rate (all agents correct at end of Stage II): {result.rate('success'):.0%}; "
        f"mean final correct fraction {result.mean('final_fraction'):.4f}"
    )
    report.add_note(
        "amplification naturally falls below 1.7 once the bias approaches its maximum of 1/2 — "
        "Lemma 2.14's guarantee is min(1.7*delta, 1/800) + saturation, which is what the trajectory shows."
    )
    return report
