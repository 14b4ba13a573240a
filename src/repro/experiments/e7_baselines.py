"""Experiment E7 — the paper's protocol versus naive baselines (Section 1.6).

Section 1.6 argues that the two obvious strategies fail in the Flip model:

* *immediate forwarding* spreads the rumor fast but over ``Theta(log n)``-hop
  relay chains, so the typical agent's opinion is correct with probability
  only ``1/2 + (2 eps)^{Theta(log n)}`` — essentially a coin flip;
* *adopt-the-last-bit* (noisy voter with a zealot source) cannot converge:
  the per-round update keeps the population bias at the noise floor.

The paper's protocol, in contrast, reaches full correct consensus in
``O(log n / eps^2)`` rounds.  The driver runs all of them (plus the
idealised direct-from-source reference) on identical instances and reports
final correct fraction, success rate, and rounds used.

Reporting convention (never-converged trials)
---------------------------------------------
``mean_rounds`` averages only over trials that *converged* — i.e. met the
protocol's own stopping rule (voter consensus check, direct-source running
majority going all-correct) or completed a schedule that is fixed up front
(the paper's protocol, the forwarding budget).  Trials that merely exhausted
a round budget are **excluded** (the column is ``NaN`` when no trial
converged) instead of being silently counted at the budget, and the separate
``all_correct_rate`` column reports how often the all-correct state was
reached at all.  The same convention applies in
:mod:`repro.experiments.e11_lower_bounds`.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.experiments import ExperimentResult, run_trials
from ..api.config import ExecutionConfig, ExecutionPlan, resolve_run_options
from ..core.broadcast import solve_noisy_broadcast
from ..core.theory import expected_relay_depth, hop_correct_probability
from ..protocols.direct_source import DirectSourceReference
from ..protocols.naive_forward import ImmediateForwardingBroadcast
from ..protocols.noisy_voter import NoisyVoterBroadcast
from ..substrate.engine import SimulationEngine
from .report import ExperimentReport

__all__ = ["run"]

DEFAULT_EPSILONS: Sequence[float] = (0.1, 0.2)

#: Report/row order of the compared protocols (the paper's protocol first).
PROTOCOL_ORDER: Sequence[str] = (
    "breathe-before-speaking",
    "immediate-forwarding",
    "noisy-voter",
    "direct-source-reference",
)


def _paper_trial(seed: int, _index: int, n: int, epsilon: float) -> dict:
    """One run of the paper's protocol (module-level, hence picklable)."""
    result = solve_noisy_broadcast(n=n, epsilon=epsilon, seed=seed)
    return {
        "fraction": result.final_correct_fraction,
        "success": result.success,
        "rounds": result.rounds,
    }


def _forwarding_trial(seed: int, _index: int, n: int, epsilon: float) -> dict:
    """One run of the immediate-forwarding baseline (module-level, picklable).

    ``converged`` records whether the rumor reached everyone within the
    budget (reach, not correctness); the budget always runs to completion.
    """
    engine = SimulationEngine.create(n=n, epsilon=epsilon, seed=seed)
    result = ImmediateForwardingBroadcast().run(engine, correct_opinion=1)
    return {
        "fraction": result.final_correct_fraction,
        "success": result.success,
        "rounds": result.rounds,
        "converged": result.converged,
    }


def _voter_trial(seed: int, _index: int, n: int, epsilon: float, voter_rounds: int) -> dict:
    """One run of the noisy-voter baseline (module-level, hence picklable).

    ``rounds_converged`` is the round count when the dynamics reached full
    correct consensus and ``None`` when the budget was exhausted, so means
    over it never conflate the two (see the module docstring).
    """
    engine = SimulationEngine.create(n=n, epsilon=epsilon, seed=seed)
    result = NoisyVoterBroadcast(max_rounds=voter_rounds).run(engine, correct_opinion=1)
    return {
        "fraction": result.final_correct_fraction,
        "success": result.success,
        "rounds": result.rounds,
        "converged": result.converged,
        "rounds_converged": result.rounds if result.converged else None,
    }


def _direct_trial(seed: int, _index: int, n: int, epsilon: float) -> dict:
    """One run of the idealised direct-from-source reference (module-level, picklable).

    ``rounds_to_all_correct`` is the first round at which every agent's
    running majority was correct — explicitly ``None`` (not the sampling
    budget) when that never happened, checked with ``is None`` rather than
    truthiness so a legitimate round number is never mistaken for "never".
    """
    engine = SimulationEngine.create(n=n, epsilon=epsilon, seed=seed)
    result = DirectSourceReference().run(engine, correct_opinion=1)
    first_all_correct = result.extra["first_all_correct_round"]
    return {
        "fraction": result.final_correct_fraction,
        "success": result.success,
        "rounds": result.rounds,
        "rounds_to_all_correct": first_all_correct,
        "all_correct": first_all_correct is not None,
    }


def _serial_tasks(
    n: int, epsilon: float, trials: int, voter_rounds: int, base_seed: int
) -> List[Tuple[str, Callable[..., Any], Dict[str, Any]]]:
    """The per-protocol serial ``run_trials`` tasks of one epsilon, in row order."""
    trial_fns: Dict[str, Callable[..., Any]] = {
        "breathe-before-speaking": functools.partial(_paper_trial, n=n, epsilon=epsilon),
        "immediate-forwarding": functools.partial(_forwarding_trial, n=n, epsilon=epsilon),
        "noisy-voter": functools.partial(
            _voter_trial, n=n, epsilon=epsilon, voter_rounds=voter_rounds
        ),
        "direct-source-reference": functools.partial(_direct_trial, n=n, epsilon=epsilon),
    }
    return [
        (
            protocol,
            run_trials,
            {
                "name": f"E7-{protocol}-eps={epsilon}",
                "trial_fn": trial_fns[protocol],
                "num_trials": trials,
                "base_seed": base_seed,
            },
        )
        for protocol in PROTOCOL_ORDER
    ]


def _batch_tasks(
    n: int, epsilon: float, trials: int, voter_rounds: int, base_seed: int
) -> List[Tuple[str, Callable[..., Any], Dict[str, Any]]]:
    """The per-protocol batched simulator tasks of one epsilon, in row order.

    Per-protocol batch seeds are derived from the same experiment names the
    serial path uses, exactly as :func:`repro.exec.batching.run_sweep_batched`
    derives per-point batch seeds.
    """
    from ..exec.batching import run_baseline_batch, run_broadcast_batch
    from ..substrate.rng import derive_seed

    def batch_seed(protocol: str) -> int:
        return derive_seed(base_seed, f"E7-{protocol}-eps={epsilon}", "batch")

    shared = {"n": n, "epsilon": epsilon, "num_replicates": trials}
    return [
        (
            "breathe-before-speaking",
            run_broadcast_batch,
            {**shared, "base_seed": batch_seed("breathe-before-speaking")},
        ),
        (
            "immediate-forwarding",
            run_baseline_batch,
            {
                **shared,
                "protocol": "immediate-forwarding",
                "base_seed": batch_seed("immediate-forwarding"),
            },
        ),
        (
            "noisy-voter",
            run_baseline_batch,
            {
                **shared,
                "protocol": "noisy-voter",
                "max_rounds": voter_rounds,
                "base_seed": batch_seed("noisy-voter"),
            },
        ),
        (
            "direct-source-reference",
            run_baseline_batch,
            {
                **shared,
                "protocol": "direct-source-reference",
                "base_seed": batch_seed("direct-source-reference"),
            },
        ),
    ]


def _add_protocol_row(
    report: ExperimentReport, protocol: str, epsilon: float, result: ExperimentResult
) -> None:
    """Append one comparison row, applying the never-converged convention.

    ``mean_rounds`` excludes budget-exhausted trials (``NaN`` when no trial
    converged) and ``all_correct_rate`` reports how often the all-correct
    state was reached — see the module docstring.
    """
    row: Dict[str, Any] = {
        "protocol": protocol,
        "epsilon": epsilon,
        "mean_final_fraction": result.mean("fraction"),
        "success_rate": result.rate("success"),
    }
    if protocol == "noisy-voter":
        row["mean_rounds"] = result.mean_or("rounds_converged")
        row["all_correct_rate"] = result.rate("converged")
    elif protocol == "direct-source-reference":
        row["mean_rounds"] = result.mean_or("rounds_to_all_correct")
        row["all_correct_rate"] = result.rate("all_correct")
    else:
        # Schedule-fixed protocols: the round count is deterministic and the
        # all-correct state is exactly the end-state success.
        row["mean_rounds"] = result.mean("rounds")
        row["all_correct_rate"] = result.rate("success")
    report.add_row(**row)


def run(
    n: int = 2000,
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    trials: int = 4,
    voter_rounds: int = 600,
    base_seed: int = 707,
    config: Optional[Union[ExecutionConfig, ExecutionPlan]] = None,
) -> ExperimentReport:
    """Run the E7 protocol comparison and return its report.

    ``config`` carries the execution strategy.  Each (epsilon, protocol)
    cell is one task on the run's execution backend, results assembled in
    row order so they are identical to the in-process run; ``batch=True``
    simulates all trials of a cell at once via
    :func:`repro.exec.batching.run_broadcast_batch` (the paper's protocol)
    and :func:`repro.exec.batching.run_baseline_batch` (the Section 1.6
    comparators).

    ``mean_rounds`` follows the never-converged convention of the module
    docstring: budget-exhausted trials are excluded and reported through the
    ``all_correct_rate`` column instead.
    """
    from ..exec import pool
    from ..exec.batching import batch_to_experiment_result

    plan = resolve_run_options("E7", config=config)
    batch = plan.batch
    trials = plan.trials if plan.trials is not None else trials
    base_seed = plan.base_seed if plan.base_seed is not None else base_seed

    report = ExperimentReport(
        experiment_id=plan.spec.experiment_id,
        title=plan.spec.title,
        claim=plan.spec.claim,
        config={
            "n": n,
            "epsilons": list(epsilons),
            "trials": trials,
            "voter_rounds": voter_rounds,
            "batch": batch,
        },
    )

    make_tasks = _batch_tasks if batch else _serial_tasks
    tasks: List[Tuple[float, str, Callable[..., Any], Dict[str, Any]]] = [
        (epsilon, protocol, fn, kwargs)
        for epsilon in epsilons
        for protocol, fn, kwargs in make_tasks(n, epsilon, trials, voter_rounds, base_seed)
    ]

    raw_results = pool.run_point_tasks(
        [(fn, kwargs) for _, _, fn, kwargs in tasks],
    )

    results: List[ExperimentResult] = []
    for (epsilon, protocol, _, _), raw in zip(tasks, raw_results):
        if batch:
            raw = batch_to_experiment_result(
                f"E7-{protocol}-eps={epsilon}", raw, base_seed=base_seed
            )
        results.append(raw)

    for (epsilon, protocol, _, _), result in zip(tasks, results):
        _add_protocol_row(report, protocol, epsilon, result)
        if protocol == PROTOCOL_ORDER[-1]:
            depth = expected_relay_depth(n)
            report.add_note(
                f"eps={epsilon}: Section 1.6 predicts immediate forwarding delivers first messages over "
                f"~{depth:.1f}-hop chains, i.e. correct with probability ~{hop_correct_probability(epsilon, int(depth)):.4f}"
            )

    report.add_note(
        "mean_rounds averages converged trials only (NaN when none converged; see the module "
        "docstring); the noisy-voter dynamics do not converge under noise, so their budget "
        "exhaustion shows up as all_correct_rate=0 rather than a fake round count "
        "(physics baselines of Section 1.2 are expected to need at least polynomial time even without noise)."
    )
    return report
