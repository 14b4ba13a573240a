"""Experiment E3 — message/bit complexity (Theorem 2.17).

Theorem 2.17 also bounds the total number of messages (equivalently bits,
since each message is one bit) by ``O(n log n / eps^2)``.  The driver sweeps
a small grid of ``(n, epsilon)`` pairs, measures the total messages sent by
the protocol and normalises by ``n ln(n) / eps^2``: the normalised value
should stay bounded (roughly constant) across the grid.  It also reports the
average number of messages per agent, which should track the round count —
the paper's point that agents essentially speak once per round after
activation.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Union

from ..analysis.sweeps import parameter_grid, run_sweep
from ..api.config import ExecutionConfig, ExecutionPlan, resolve_run_options
from ..core.broadcast import solve_noisy_broadcast
from ..core.theory import broadcast_message_bound
from .report import ExperimentReport

__all__ = ["run"]

DEFAULT_SIZES: Sequence[int] = (500, 1000, 2000)
DEFAULT_EPSILONS: Sequence[float] = (0.15, 0.25)


def _broadcast_trial(point: Mapping[str, object], seed: int, _index: int) -> dict:
    """One noisy-broadcast run at a sweep point (module-level, hence picklable)."""
    result = solve_noisy_broadcast(n=int(point["n"]), epsilon=float(point["epsilon"]), seed=seed)
    return {
        "rounds": result.rounds,
        "messages": result.messages_sent,
        "messages_per_agent": result.messages_per_agent,
        "success": result.success,
    }


def run(
    sizes: Sequence[int] = DEFAULT_SIZES,
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    trials: int = 3,
    base_seed: int = 303,
    config: Optional[Union[ExecutionConfig, ExecutionPlan]] = None,
) -> ExperimentReport:
    """Run the E3 sweep and return its report.

    ``config`` selects the execution strategy exactly as in
    :func:`repro.experiments.e1_rounds_vs_n.run`.
    """
    plan = resolve_run_options("E3", config=config)
    batch = plan.batch
    trials = plan.trials if plan.trials is not None else trials
    base_seed = plan.base_seed if plan.base_seed is not None else base_seed
    if batch:
        from ..exec.batching import run_broadcast_sweep_batched

        sweep = run_broadcast_sweep_batched(
            name="E3-message-complexity",
            points=parameter_grid(n=list(sizes), epsilon=list(epsilons)),
            trials_per_point=trials,
            base_seed=base_seed,
        )
    else:
        sweep = run_sweep(
            name="E3-message-complexity",
            points=parameter_grid(n=list(sizes), epsilon=list(epsilons)),
            trial_fn=_broadcast_trial,
            trials_per_point=trials,
            base_seed=base_seed,
        )

    report = ExperimentReport(
        experiment_id=plan.spec.experiment_id,
        title=plan.spec.title,
        claim=plan.spec.claim,
        config={"sizes": list(sizes), "epsilons": list(epsilons), "trials": trials},
    )
    normalised_values = []
    for point, result in sweep:
        params = point.as_dict()
        n, epsilon = params["n"], params["epsilon"]
        messages = result.mean("messages")
        rounds = result.mean("rounds")
        scale = broadcast_message_bound(n, epsilon)
        normalised = messages / scale
        normalised_values.append(normalised)
        report.add_row(
            n=n,
            epsilon=epsilon,
            mean_messages=messages,
            messages_over_nlogn_eps2=normalised,
            messages_per_agent=result.mean("messages_per_agent"),
            messages_per_agent_over_rounds=result.mean("messages_per_agent") / rounds,
            success_rate=result.rate("success"),
        )

    spread = max(normalised_values) / min(normalised_values)
    report.add_note(
        f"messages / (n ln n / eps^2) stays within a factor {spread:.2f} across the grid "
        "(bounded constant, matching the O(n log n / eps^2) claim)"
    )
    report.add_note(
        "messages_per_agent_over_rounds < 1 because agents are silent while dormant "
        "('breathe before speaking') and because only opinionated agents transmit."
    )
    return report
