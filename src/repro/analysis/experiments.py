"""Monte-Carlo experiment runner.

The paper's guarantees are "with high probability" statements; at finite
``n`` we estimate them by running many independent trials of a simulation
and summarising.  :func:`run_trials` is the single entry point every
experiment driver uses: it derives one independent seed per trial from a
base seed, calls the trial function, and collects the returned measurements
into an :class:`ExperimentResult` that can be summarised, tabulated and
serialised.

*Where* the trials execute is decided by the execution backend of the run:
:func:`run_trials` hands one task per trial to the dispatch funnel
:func:`repro.exec.pool.submit_tasks`, which loops in-process when no backend
is installed.  Seeds are derived before dispatch and results are collected
in trial order, so the result is bit-identical on every backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..errors import ExperimentError
from .estimators import ScalarSummary, summarize_scalar
from .statistics import BernoulliSummary, summarize_bernoulli

__all__ = ["TrialResult", "ExperimentResult", "run_trials"]

#: Signature of a trial function: ``(seed, trial_index) -> measurements``.
TrialFunction = Callable[[int, int], Mapping[str, Any]]


@dataclass(frozen=True)
class TrialResult:
    """Measurements returned by a single trial."""

    trial_index: int
    seed: int
    measurements: Dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.measurements[key]

    def get(self, key: str, default: Any = None) -> Any:
        """Return a measurement, or ``default`` when the trial did not record it."""
        return self.measurements.get(key, default)


@dataclass
class ExperimentResult:
    """All trials of one experiment configuration."""

    name: str
    config: Dict[str, Any] = field(default_factory=dict)
    trials: List[TrialResult] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def num_trials(self) -> int:
        """Number of completed trials."""
        return len(self.trials)

    def values(self, key: str) -> List[float]:
        """All numeric values recorded under ``key`` (skips missing entries)."""
        collected = [trial.get(key) for trial in self.trials]
        present = [float(value) for value in collected if value is not None]
        if not present:
            raise ExperimentError(f"no trial recorded a value for {key!r}")
        return present

    def flags(self, key: str) -> List[bool]:
        """All boolean values recorded under ``key``."""
        collected = [trial.get(key) for trial in self.trials]
        present = [bool(value) for value in collected if value is not None]
        if not present:
            raise ExperimentError(f"no trial recorded a flag for {key!r}")
        return present

    def scalar_summary(self, key: str) -> ScalarSummary:
        """Mean/spread summary of a numeric measurement across trials."""
        return summarize_scalar(self.values(key))

    def rate_summary(self, key: str) -> BernoulliSummary:
        """Success-rate summary of a boolean measurement across trials."""
        return summarize_bernoulli(self.flags(key))

    def mean(self, key: str) -> float:
        """Mean of a numeric measurement."""
        return self.scalar_summary(key).mean

    def mean_or(self, key: str, default: float = float("nan")) -> float:
        """Mean of a numeric measurement, or ``default`` when every value is ``None``.

        Trials that recorded ``None`` under ``key`` — e.g. a never-converged
        run's rounds-to-convergence — are excluded from the mean exactly as in
        :meth:`values`; ``default`` (``NaN`` unless overridden) is returned
        only when every trial explicitly recorded ``None``.  A ``key`` that no
        trial recorded at all still raises like :meth:`mean`, so a typo'd or
        renamed measurement fails loudly instead of degrading to ``default``.
        Experiment drivers use this to report budget-exhausted trials as
        "no data" instead of silently counting them at their round budget.
        """
        try:
            return self.mean(key)
        except ExperimentError:
            if not any(key in trial.measurements for trial in self.trials):
                raise
            return default

    def rate(self, key: str) -> float:
        """Observed rate of a boolean measurement."""
        return self.rate_summary(key).rate

    # ------------------------------------------------------------------
    @classmethod
    def from_trials(
        cls,
        name: str,
        config: Optional[Mapping[str, Any]],
        seeds: Sequence[int],
        raw_measurements: Sequence[Any],
    ) -> "ExperimentResult":
        """Assemble a result from per-trial seeds and raw trial return values.

        Trial ``i`` ran with ``seeds[i]``; every return value must be a
        mapping, else :class:`~repro.errors.ExperimentError` names the
        experiment.
        """
        result = cls(name=name, config=dict(config or {}))
        for trial_index, (seed, measurements) in enumerate(zip(seeds, raw_measurements)):
            if not isinstance(measurements, Mapping):
                raise ExperimentError(
                    f"trial function for {name!r} must return a mapping, "
                    f"got {type(measurements).__name__}"
                )
            result.trials.append(
                TrialResult(trial_index=trial_index, seed=seed, measurements=dict(measurements))
            )
        return result

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable representation (used by :mod:`repro.store`)."""
        return {
            "name": self.name,
            "config": self.config,
            "trials": [
                {
                    "trial_index": trial.trial_index,
                    "seed": trial.seed,
                    "measurements": trial.measurements,
                }
                for trial in self.trials
            ],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentResult":
        """Inverse of :meth:`to_dict`."""
        trials = [
            TrialResult(
                trial_index=int(entry["trial_index"]),
                seed=int(entry["seed"]),
                measurements=dict(entry["measurements"]),
            )
            for entry in payload.get("trials", [])
        ]
        return cls(name=str(payload["name"]), config=dict(payload.get("config", {})), trials=trials)


def run_trials(
    name: str,
    trial_fn: TrialFunction,
    num_trials: int,
    base_seed: int = 0,
    config: Optional[Mapping[str, Any]] = None,
) -> ExperimentResult:
    """Run ``num_trials`` independent trials of ``trial_fn`` and collect the results.

    Parameters
    ----------
    name:
        Experiment identifier (stored in the result).
    trial_fn:
        Callable ``(seed, trial_index) -> mapping of measurements``.  Each
        trial receives its own seed derived deterministically from
        ``base_seed`` and the trial index.
    num_trials:
        Number of independent trials.
    base_seed:
        Root seed; fixing it makes the whole experiment reproducible.
    config:
        Arbitrary configuration metadata stored alongside the results.

    The trials are one task each on the run's execution backend (an
    in-process loop when none is installed); for a picklable ``trial_fn``
    the result is bit-identical on every backend.
    """
    # Imported late: repro.exec imports this module for the result
    # containers, so a top-level import either way would be circular.
    from ..exec.backends import Task
    from ..exec.pool import submit_tasks
    from ..exec.seeds import trial_seeds

    if num_trials < 1:
        raise ExperimentError("num_trials must be at least 1")
    seeds = trial_seeds(base_seed, name, num_trials)
    raw = submit_tasks(
        [
            Task(
                fn=trial_fn,
                args=(seed, index),
                context=(("experiment", name), ("trial", index), ("seed", seed)),
            )
            for index, seed in enumerate(seeds)
        ]
    )
    return ExperimentResult.from_trials(name, config, seeds, raw)
