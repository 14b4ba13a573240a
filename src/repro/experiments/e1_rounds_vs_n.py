"""Experiment E1 — round complexity versus population size (Theorem 2.17).

Theorem 2.17: the noisy broadcast problem is solved w.h.p. in
``O(log n / eps^2)`` rounds.  At fixed ``epsilon`` the round count must
therefore grow logarithmically in ``n`` while the success rate stays at
(essentially) 1.  The driver sweeps ``n`` over a geometric range, measures
rounds / messages / success, and fits ``rounds ~ a ln n + b``.
"""

from __future__ import annotations

import functools
import math
from typing import Mapping, Optional, Sequence, Union

from ..analysis.scaling import fit_log_n_scaling
from ..analysis.sweeps import run_sweep
from ..api.config import ExecutionConfig, ExecutionPlan, resolve_run_options
from ..core.broadcast import solve_noisy_broadcast
from ..core.theory import broadcast_round_bound
from .report import ExperimentReport

__all__ = ["run"]

#: Default population sizes (geometric, spanning more than a decade).
DEFAULT_SIZES: Sequence[int] = (250, 500, 1000, 2000, 4000)


def _broadcast_trial(point: Mapping[str, object], seed: int, _index: int, epsilon: float) -> dict:
    """One noisy-broadcast run at a sweep point (module-level, hence picklable)."""
    result = solve_noisy_broadcast(n=int(point["n"]), epsilon=epsilon, seed=seed)
    return {
        "rounds": result.rounds,
        "messages": result.messages_sent,
        "success": result.success,
        "final_correct_fraction": result.final_correct_fraction,
    }


def run(
    sizes: Sequence[int] = DEFAULT_SIZES,
    epsilon: float = 0.2,
    trials: int = 5,
    base_seed: int = 101,
    config: Optional[Union[ExecutionConfig, ExecutionPlan]] = None,
) -> ExperimentReport:
    """Run the E1 sweep and return its report.

    ``config`` carries the execution strategy (see
    :class:`repro.api.config.ExecutionConfig`); the preferred entry point is
    :func:`repro.api.run_experiment`, which also installs the run's
    execution backend.  Each grid point is one backend task; with
    ``batch=True`` a point simulates all its trials simultaneously via
    :mod:`repro.exec.batching`.
    """
    plan = resolve_run_options("E1", config=config)
    batch = plan.batch
    trials = plan.trials if plan.trials is not None else trials
    base_seed = plan.base_seed if plan.base_seed is not None else base_seed
    if batch:
        from ..exec.batching import run_broadcast_sweep_batched

        sweep = run_broadcast_sweep_batched(
            name="E1-rounds-vs-n",
            points=[{"n": n} for n in sizes],
            trials_per_point=trials,
            base_seed=base_seed,
            defaults={"epsilon": epsilon},
        )
    else:
        sweep = run_sweep(
            name="E1-rounds-vs-n",
            points=[{"n": n} for n in sizes],
            trial_fn=functools.partial(_broadcast_trial, epsilon=epsilon),
            trials_per_point=trials,
            base_seed=base_seed,
        )

    report = ExperimentReport(
        experiment_id=plan.spec.experiment_id,
        title=plan.spec.title,
        claim=plan.spec.claim,
        config={"sizes": list(sizes), "epsilon": epsilon, "trials": trials},
    )
    for point, result in sweep:
        n = point.as_dict()["n"]
        rounds = result.scalar_summary("rounds")
        report.add_row(
            n=n,
            epsilon=epsilon,
            mean_rounds=rounds.mean,
            rounds_over_log_n=rounds.mean / math.log(n),
            predicted_scale=broadcast_round_bound(n, epsilon),
            success_rate=result.rate("success"),
            mean_final_fraction=result.mean("final_correct_fraction"),
        )

    ns, mean_rounds = sweep.series("n", "rounds")
    fit = fit_log_n_scaling(ns, mean_rounds)
    report.add_note(
        f"fit rounds ~ a*ln(n)+b: a={fit.slope:.1f}, b={fit.intercept:.1f}, R^2={fit.r_squared:.3f} "
        "(logarithmic growth in n, matching Theorem 2.17)"
    )
    return report
