"""The :class:`ExecutionBackend` contract and the task unit it executes.

"Who runs a task list" is a small strategy interface:

* a :class:`Task` is one self-contained unit of work — a picklable callable
  with its arguments pre-resolved in the parent (including every seed), plus
  a ``context`` tuple naming what the task *is* (task index, sweep-point
  name, seed) so failures can be attributed;
* an :class:`ExecutionBackend` takes an ordered task list and returns the
  results **in task order**, whatever execution strategy it uses underneath
  (an in-process loop, a persistent local pool, remote workers pulling
  chunks off a queue).

The ordering half of the contract is what keeps the repository's bit-identity
pins alive: seeds are derived in the parent *before* ``submit`` and results
are assembled by task position, never by completion time, so a backend may
complete tasks in any order — including adversarially shuffled or retried
ones — without changing a single byte of the assembled
:class:`~repro.analysis.experiments.ExperimentResult`.

A backend is *installed* for the duration of one run with
:func:`use_backend`; the dispatch funnel :func:`repro.exec.pool.submit_tasks`
consults :func:`active_backend` and runs an in-process loop when none is
installed, which is why no experiment driver names a backend.  The active
backend is held in a :class:`contextvars.ContextVar`, so two runs on two
threads (the experiment service's job workers) each see only their own.
"""

from __future__ import annotations

import abc
import contextlib
import contextvars
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from ...errors import ExperimentError

__all__ = [
    "Task",
    "run_task",
    "task_label",
    "task_failure_error",
    "ExecutionBackend",
    "active_backend",
    "use_backend",
    "clear_active_backend",
]


@dataclass(frozen=True)
class Task:
    """One unit of work: ``fn(*args, **kwargs)`` with attribution context.

    Everything a task needs — the callable, its arguments, the seed buried in
    them — is resolved in the parent before the task is built, so executing a
    task is pure function application and its result is independent of
    *where* (or how many times) it runs.

    ``context`` is a tuple of ``(key, value)`` pairs used only for error
    attribution (e.g. ``(("point", "E8[...]"), ("seed", 12345))``); it never
    influences execution.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    context: Tuple[Tuple[str, Any], ...] = ()


def run_task(task: Task) -> Any:
    """Execute one task (shared by every backend and the remote workers)."""
    return task.fn(*task.args, **dict(task.kwargs))


def task_label(task: Task, index: int) -> str:
    """Human-readable attribution of one task, e.g. ``task 3 (point=..., seed=...)``."""
    details = ", ".join(f"{key}={value!r}" for key, value in task.context)
    return f"task {index}" + (f" ({details})" if details else "")


def task_failure_error(
    tasks: Sequence[Task], index: int, error: BaseException, *, where: str
) -> ExperimentError:
    """Build the labelled :class:`~repro.errors.ExperimentError` for a worker failure.

    A ``BrokenProcessPool`` or an exception raised inside a worker used to
    propagate with no indication of which point or seed failed; every pooled
    backend routes its failures through here so the raised error names the
    task (index, sweep-point name, seed) and the execution strategy that ran
    it.  ``index`` is the position of the first task whose result had not
    been collected when the failure surfaced — exact for in-task exceptions
    (results come back in order), a lower bound for a pool that died.
    """
    label = task_label(tasks[index], index) if 0 <= index < len(tasks) else f"task {index}"
    return ExperimentError(
        f"{where} execution failed at {label}: {type(error).__name__}: {error}"
    )


class ExecutionBackend(abc.ABC):
    """Strategy interface for executing an ordered list of :class:`Task`s.

    Lifecycle: :meth:`start` acquires resources (spawns the pool, binds the
    worker endpoint), :meth:`submit` may then be called any number of times
    — the whole point of the persistent backends is that one pool outlives
    many sweep-point families — and :meth:`close` releases everything.
    Backends are context managers (``with backend:`` is start/close).
    """

    #: Short machine-readable strategy name (also the CLI ``--backend`` value).
    name: str = "?"

    #: Tasks handed to :meth:`submit` so far (recorded by :meth:`describe`);
    #: every implementation adds ``len(tasks)`` on each call.
    tasks_submitted: int = 0

    def start(self) -> "ExecutionBackend":
        """Acquire execution resources; idempotent.  Returns ``self``."""
        return self

    def close(self) -> None:
        """Release execution resources; idempotent."""

    @abc.abstractmethod
    def submit(self, tasks: Sequence[Task]) -> List[Any]:
        """Execute ``tasks`` and return their results **in task order**.

        Implementations may run tasks anywhere and complete them in any
        order, but the returned list must satisfy ``result[i] ==
        run_task(tasks[i])`` — the ordered-assembly half of the determinism
        contract.  Failures raise :class:`~repro.errors.ExperimentError`
        built by :func:`task_failure_error` (in-process execution keeps the
        raw exception, exactly like the funnel's own in-process loop).
        """

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly summary of the backend (recorded in run manifests)."""
        return {"name": self.name, "tasks": self.tasks_submitted}

    def __enter__(self) -> "ExecutionBackend":
        return self.start()

    def __exit__(self, *_exc: Any) -> None:
        self.close()


#: The backend installed for the current run, if any (see :func:`use_backend`).
_ACTIVE_BACKEND: "contextvars.ContextVar[Optional[ExecutionBackend]]" = contextvars.ContextVar(
    "repro_active_backend", default=None
)


def active_backend() -> Optional[ExecutionBackend]:
    """The backend installed by :func:`use_backend` in this context, or ``None``.

    ``None`` means "no backend chosen": the dispatch funnel runs its tasks
    in an in-process loop.  The value is per thread (a new thread starts
    with none), and pool workers clear it on start-up
    (:func:`clear_active_backend` is the pool initializer): a forked worker
    would otherwise inherit its parent's backend and route a nested
    dispatch to a copy of the parent's pool.
    """
    return _ACTIVE_BACKEND.get()


def clear_active_backend() -> None:
    """Uninstall any inherited backend (the process-pool worker initializer)."""
    _ACTIVE_BACKEND.set(None)


@contextlib.contextmanager
def use_backend(backend: ExecutionBackend) -> Iterator[ExecutionBackend]:
    """Install ``backend`` as the active backend for the enclosed run.

    :func:`repro.api.run_experiment` wraps the driver invocation in this, so
    every dispatch inside the driver — trial fan-out, sweep points, batched
    task lists — routes through the one backend of the run, with no backend
    argument on the drivers themselves.  Nesting in one context is
    rejected: one run, one backend.
    """
    current = _ACTIVE_BACKEND.get()
    if current is not None:
        raise ExperimentError(
            f"an execution backend ({current.name}) is already active; "
            "backends cannot be nested"
        )
    token = _ACTIVE_BACKEND.set(backend)
    try:
        yield backend
    finally:
        _ACTIVE_BACKEND.reset(token)
