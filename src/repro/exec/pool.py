"""The dispatch funnel between the trial/sweep layers and the execution backends.

Monte-Carlo trials are embarrassingly parallel: every trial receives its own
pre-derived seed and never communicates.  So are the grid points of a sweep
and the cells of a cell-structured driver.  Every such dispatch builds an
ordered :class:`~repro.exec.backends.base.Task` list and makes exactly one
call to :func:`submit_tasks`:

* :func:`repro.analysis.experiments.run_trials` — one task per trial;
* :func:`repro.analysis.sweeps.run_sweep` — one task per sweep point;
* :func:`run_point_tasks` — one task per pre-resolved ``(fn, kwargs)``
  cell (E4, E7, E9, E11, E12 and
  :func:`repro.exec.batching.run_sweep_batched`).

So the dispatch granularity is fixed by which helper a driver calls, and
there is one parallelism knob: the backend installed for the run with
:func:`repro.exec.backends.use_backend` (what
:func:`repro.api.run_experiment` does for ``--jobs`` or ``--backend``).
With no backend installed every dispatch is an in-process loop.

Two properties matter more than raw throughput:

* **Determinism** — seeds are derived in the parent before dispatch and
  results are collected in submission order, so the assembled
  :class:`~repro.analysis.experiments.ExperimentResult` is bit-identical to
  the in-process loop on every backend.
* **Graceful degradation** — tasks that cannot cross a process boundary
  (closures, lambdas, functions defined in ``__main__`` without a file) are
  detected up front with :func:`picklability_error` and run in-process
  instead of crashing mid-experiment.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from .backends import Task, active_backend, run_task

__all__ = ["picklability_error", "submit_tasks", "run_point_tasks"]


def picklability_error(value: Any) -> Optional[str]:
    """Return why ``value`` cannot be sent to a worker, or ``None`` if it can.

    Closures and lambdas pickle by qualified name and therefore fail here;
    the drivers in :mod:`repro.experiments` bind parameters with
    :func:`functools.partial` over module-level functions precisely so this
    probe passes.
    """
    try:
        pickle.dumps(value)
    except Exception as error:  # pickle raises a zoo of types here
        return f"{type(error).__name__}: {error}"
    return None


def submit_tasks(tasks: Sequence[Task]) -> List[Any]:
    """Execute ``tasks`` and return their results in task order.

    The one funnel every dispatch goes through: the active backend when one
    is installed and every task pickles, otherwise an in-process loop (raw
    exceptions, no pickling constraint).
    """
    backend = active_backend()
    if backend is None or picklability_error(list(tasks)) is not None:
        return [run_task(task) for task in tasks]
    return backend.submit(tasks)


def _kwargs_context(index: int, kwargs: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Failure-attribution context scraped from a ``(fn, kwargs)`` task."""
    context: List[Tuple[str, Any]] = []
    for key in ("name", "seed", "base_seed"):
        if kwargs.get(key) is not None:
            context.append((key, kwargs[key]))
    if not context:
        context.append(("position", index))
    return tuple(context)


def run_point_tasks(tasks: Sequence[Tuple[Callable[..., Any], Mapping[str, Any]]]) -> List[Any]:
    """Run pre-resolved ``(fn, kwargs)`` cell tasks, results in cell order.

    Every kwarg — including per-cell seeds — was resolved in the parent, so
    the results are bit-identical to an in-process loop over the same
    tasks.  Failure context is read off the kwargs (``name``, ``seed``,
    ``base_seed``).
    """
    return submit_tasks(
        [
            Task(fn=fn, kwargs=dict(kwargs), context=_kwargs_context(index, kwargs))
            for index, (fn, kwargs) in enumerate(tasks)
        ]
    )
