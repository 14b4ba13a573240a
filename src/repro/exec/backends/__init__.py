"""Pluggable execution backends: who runs a task list, behind one interface.

Every dispatch of the execution layer goes through one funnel,
:func:`repro.exec.pool.submit_tasks`, which hands an ordered
:class:`~repro.exec.backends.base.Task` list to whichever
:class:`~repro.exec.backends.base.ExecutionBackend` is installed for the
run (or loops in-process when none is):

* ``in-process`` — :class:`~repro.exec.backends.local.InProcessBackend`,
  the serial reference;
* ``local`` — :class:`~repro.exec.backends.local.LocalPoolBackend`, one
  process pool created per run and reused across sweep-point families
  (what a run that only sets ``--jobs`` gets);
* ``remote`` — :class:`~repro.exec.backends.remote.RemoteWorkerBackend`,
  a socket task queue that external ``python -m repro.worker`` processes
  attach to, with chunked work-stealing dispatch, capped retry on worker
  death and heartbeat-based eviction.

All three satisfy the same contract — seeds derived in the parent, results
assembled in task order — so they are interchangeable at the bit level;
``tests/unit/exec/test_backends.py`` and the smoke gates pin the digests.

:func:`create_backend` is the one factory the API layer uses; it validates
backend names and option keys so ``--backend`` typos fail with the same
message everywhere.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from ...errors import ExperimentError
from .base import (
    ExecutionBackend,
    Task,
    active_backend,
    run_task,
    task_failure_error,
    task_label,
    use_backend,
)
from .dispatch import DispatchSettings, chunk_tasks, dispatch_chunks, drain_queue
from .local import InProcessBackend, LocalPoolBackend, chunksize_for, default_jobs
from .remote import AUTHKEY_ENV, RemoteWorkerBackend

__all__ = [
    "Task",
    "run_task",
    "task_label",
    "task_failure_error",
    "ExecutionBackend",
    "InProcessBackend",
    "LocalPoolBackend",
    "RemoteWorkerBackend",
    "DispatchSettings",
    "chunk_tasks",
    "dispatch_chunks",
    "drain_queue",
    "chunksize_for",
    "default_jobs",
    "AUTHKEY_ENV",
    "active_backend",
    "use_backend",
    "backend_names",
    "validate_backend_spec",
    "create_backend",
]

#: Recognised option keys per backend name (the factory's validation table).
_BACKEND_OPTIONS = {
    "in-process": frozenset(),
    "local": frozenset({"workers"}),
    "remote": frozenset(
        {
            "workers",
            "endpoint",
            "authkey",
            "chunk_size",
            "chunk_timeout",
            "heartbeat_timeout",
            "max_attempts",
            "startup_timeout",
        }
    ),
}


def backend_names() -> str:
    """Comma-separated names of the registered backends (for help/error text)."""
    return ", ".join(sorted(_BACKEND_OPTIONS))


def validate_backend_spec(name: str, options: Optional[Mapping[str, Any]] = None) -> None:
    """Reject unknown backend names or option keys without building anything.

    Called by :meth:`repro.api.config.ExecutionConfig.resolve` so a typo'd
    ``--backend`` or backend option fails at plan-resolution time with the
    same message the factory would raise.
    """
    recognised = _BACKEND_OPTIONS.get(name)
    if recognised is None:
        raise ExperimentError(
            f"unknown execution backend {name!r}; registered backends: {backend_names()}"
        )
    unknown = sorted(set(options or {}) - recognised)
    if unknown:
        raise ExperimentError(
            f"backend {name!r} has no option(s) {', '.join(unknown)}; "
            f"recognised options: {', '.join(sorted(recognised)) or '(none)'}"
        )


def create_backend(
    name: str,
    options: Optional[Mapping[str, Any]] = None,
    *,
    jobs: Optional[int] = None,
) -> ExecutionBackend:
    """Build a backend from its name and options (not yet started).

    ``jobs`` is the config-level ``--jobs`` value, used as the worker count
    when the options do not name one explicitly (``0`` means one per CPU,
    matching the CLI convention everywhere else).
    """
    validate_backend_spec(name, options)
    resolved = dict(options or {})
    if "workers" not in resolved and jobs is not None and name != "in-process":
        # --jobs 0 means "one per CPU" everywhere; an explicit workers=0 on
        # the remote backend instead means "attach external workers only".
        resolved["workers"] = default_jobs() if jobs == 0 else jobs

    if name == "in-process":
        return InProcessBackend()
    if name == "local":
        workers = resolved.get("workers")
        if workers is not None and workers < 0:
            raise ExperimentError(
                f"backend 'local' workers must be non-negative (0 = one per CPU), got {workers}"
            )
        return LocalPoolBackend(jobs=None if not workers else int(workers))
    authkey = resolved.get("authkey")
    chunk_timeout = resolved.get("chunk_timeout")
    return RemoteWorkerBackend(
        endpoint=str(resolved.get("endpoint", "127.0.0.1:0")),
        workers=int(resolved.get("workers") or 0),
        # None = a random per-run key; non-loopback endpoints require an
        # explicit one (enforced by the backend).
        authkey=None if authkey is None else str(authkey),
        chunk_size=int(resolved.get("chunk_size", 1)),
        # None = no hard per-chunk budget; heartbeats govern liveness.
        chunk_timeout=None if chunk_timeout is None else float(chunk_timeout),
        heartbeat_timeout=float(resolved.get("heartbeat_timeout", 15.0)),
        max_attempts=int(resolved.get("max_attempts", 2)),
        startup_timeout=float(resolved.get("startup_timeout", 60.0)),
    )
