"""The two local backends: an in-process loop and a persistent process pool.

:class:`InProcessBackend` is the reference implementation of the
:class:`~repro.exec.backends.base.ExecutionBackend` contract — a plain
ordered loop in the calling process, byte-for-byte the serial semantics
(including raw exception propagation).

:class:`LocalPoolBackend` is a :class:`concurrent.futures.ProcessPoolExecutor`
fan-out whose pool is created once in :meth:`~LocalPoolBackend.start` and
reused across every :meth:`~LocalPoolBackend.submit` call of the run, so a
multi-family driver (a sweep family per epsilon, per protocol, per fault
model ...) pays one interpreter spawn-up per run, not per family;
``benchmarks/bench_backend_dispatch.py`` records the reuse win.  Every
submission is chunked with :func:`chunksize_for` so large task lists
amortise per-task IPC.  A run that only sets ``--jobs`` gets this backend.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Sequence

from ...errors import ExperimentError
from .base import ExecutionBackend, Task, clear_active_backend, run_task, task_failure_error

__all__ = ["default_jobs", "chunksize_for", "InProcessBackend", "LocalPoolBackend"]

#: Target number of chunks handed to each worker, to amortise IPC overhead
#: while keeping the pool load-balanced.
CHUNKS_PER_WORKER = 4


def default_jobs() -> int:
    """Number of worker processes to use when the caller does not specify one."""
    return max(1, os.cpu_count() or 1)


def chunksize_for(num_tasks: int, jobs: int) -> int:
    """Chunk size yielding roughly :data:`CHUNKS_PER_WORKER` chunks per worker."""
    return max(1, num_tasks // max(1, jobs * CHUNKS_PER_WORKER))


class InProcessBackend(ExecutionBackend):
    """Execute every task in the calling process, in order.

    The deterministic reference: exactly the loop the dispatch funnel runs
    when no backend is installed, so exceptions propagate raw (no wrapping)
    and no pickling constraint applies to the task callables.  Like a pool
    worker, a task runs with no active backend, so a dispatch nested inside
    it loops in-process instead of re-entering this backend.
    """

    name = "in-process"

    def submit(self, tasks: Sequence[Task]) -> List[Any]:
        """Run the tasks sequentially in the current process."""
        self.tasks_submitted += len(tasks)
        context = contextvars.copy_context()
        context.run(clear_active_backend)
        return [context.run(run_task, task) for task in tasks]


class LocalPoolBackend(ExecutionBackend):
    """Fan tasks out over one persistent local process pool.

    Parameters
    ----------
    jobs:
        Worker-process count; ``None`` means one per CPU.

    Attributes
    ----------
    last_chunksize:
        The ``chunksize`` handed to the most recent ``pool.map`` — every
        submission is chunked (``tests/unit/exec/test_backends.py`` pins
        this).
    """

    name = "local"

    def __init__(self, jobs: Optional[int] = None) -> None:
        if jobs is not None and jobs < 1:
            raise ExperimentError(f"local backend jobs must be a positive integer, got {jobs}")
        self.jobs = jobs
        self.last_chunksize: Optional[int] = None
        self._pool: Optional[ProcessPoolExecutor] = None

    @property
    def effective_jobs(self) -> int:
        """The worker count actually used (resolves ``jobs=None`` to the CPU count)."""
        return self.jobs if self.jobs is not None else default_jobs()

    def start(self) -> "LocalPoolBackend":
        """Spawn the worker pool (idempotent); reused by every ``submit``.

        Each worker starts by clearing the active backend it may have
        inherited through ``fork``, so a dispatch nested inside a task runs
        in that worker instead of reaching a copy of this pool.
        """
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.effective_jobs, initializer=clear_active_backend
            )
        return self

    def close(self) -> None:
        """Shut the pool down cleanly (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def submit(self, tasks: Sequence[Task]) -> List[Any]:
        """Execute the tasks on the shared pool, collecting in task order.

        The pool preserves submission order in ``map`` regardless of which
        worker finishes first, so ordered assembly is structural.  A failure
        — an exception inside a worker, or the pool dying underneath us —
        is re-raised as a labelled :class:`~repro.errors.ExperimentError`
        naming the first uncollected task (its index, point and seed).
        """
        self.start()
        assert self._pool is not None  # for the type checker; start() just ran
        self.tasks_submitted += len(tasks)
        self.last_chunksize = chunksize_for(len(tasks), self.effective_jobs)
        results: List[Any] = []
        iterator = self._pool.map(run_task, tasks, chunksize=self.last_chunksize)
        while True:
            try:
                value = next(iterator)
            except StopIteration:
                break
            except Exception as error:
                raise task_failure_error(tasks, len(results), error, where=self.name) from error
            results.append(value)
        return results

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly summary of the backend (recorded in run manifests)."""
        return {**super().describe(), "jobs": self.effective_jobs}
