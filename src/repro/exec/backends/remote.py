"""Remote workers attached over a socket: the distributed execution backend.

:class:`RemoteWorkerBackend` hosts a :class:`multiprocessing.managers.BaseManager`
server holding two queues; any number of ``python -m repro.worker`` processes
— on this machine or on other hosts that can reach the endpoint — connect
and pull task chunks off the shared queue (work-stealing: whichever worker
is idle takes the next chunk).  The parent side runs
:func:`~repro.exec.backends.dispatch.dispatch_chunks`, which owns the
chunking, generation-tagged messaging, capped retry/requeue on worker death
(plus an opt-in per-chunk timeout), heartbeat-based eviction and —
crucially — point-order result assembly, so
a sweep sharded over a flaky fleet of workers still produces bit-identical
:class:`~repro.analysis.experiments.ExperimentResult` payloads (all seeds
were derived in the parent before dispatch; tasks are pure).

For single-host convenience (and the CI smoke gate), ``workers=N`` spawns
``N`` local worker subprocesses attached via the loopback endpoint, so
``repro-flip experiment E8 --backend remote`` works out of the box while the
same run scales to external fleets by leaving ``workers=0`` and pointing
real workers at ``--workers-endpoint``.
"""

from __future__ import annotations

import os
import queue
import secrets
import subprocess
import sys
from multiprocessing.managers import BaseManager
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ...errors import ExperimentError
from .base import ExecutionBackend, Task
from .dispatch import DispatchSettings, dispatch_chunks

__all__ = [
    "AUTHKEY_ENV",
    "RemoteWorkerBackend",
    "connect_queues",
    "is_loopback",
    "parse_endpoint",
]

#: Environment variable carrying the shared secret to worker processes.
#: Spawned workers receive the key this way (never on argv, where it would
#: be visible in process listings); external workers may export it instead
#: of passing ``--authkey``.
AUTHKEY_ENV = "REPRO_WORKER_AUTHKEY"

# ----------------------------------------------------------------------
# Queue manager plumbing.  The server process owns the two queues; parent
# and workers both talk to them through proxies.  The singletons live in
# the *server* process (BaseManager.start forks one), so two backends in
# one parent get two servers and therefore two independent queue pairs.
# ----------------------------------------------------------------------

_SERVER_TASK_QUEUE: "queue.Queue" = queue.Queue()
_SERVER_RESULT_QUEUE: "queue.Queue" = queue.Queue()


def _server_task_queue() -> "queue.Queue":
    return _SERVER_TASK_QUEUE


def _server_result_queue() -> "queue.Queue":
    return _SERVER_RESULT_QUEUE


class _QueueManager(BaseManager):
    """Manager exposing the task and result queues over the endpoint."""


_QueueManager.register("get_task_queue", callable=_server_task_queue)
_QueueManager.register("get_result_queue", callable=_server_result_queue)


def parse_endpoint(endpoint: str) -> Tuple[str, int]:
    """Parse ``"host:port"`` into an address tuple (port 0 = auto-assign)."""
    host, separator, port = endpoint.rpartition(":")
    if not separator or not host:
        raise ExperimentError(
            f"workers endpoint must be HOST:PORT (e.g. 127.0.0.1:0), got {endpoint!r}"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ExperimentError(f"workers endpoint port must be an integer, got {port!r}")


def is_loopback(host: str) -> bool:
    """Whether ``host`` can only be reached from this machine."""
    return host in ("localhost", "::1") or host.startswith("127.")


def connect_queues(endpoint: str, authkey: str) -> Tuple[Any, Any]:
    """Attach to a backend's endpoint; returns ``(task_queue, result_queue)`` proxies.

    The worker side of the handshake (used by :mod:`repro.worker`).
    """
    manager = _QueueManager(address=parse_endpoint(endpoint), authkey=authkey.encode())
    manager.connect()
    return manager.get_task_queue(), manager.get_result_queue()


class RemoteWorkerBackend(ExecutionBackend):
    """Shard task lists across external worker processes with work-stealing.

    Parameters
    ----------
    endpoint:
        ``"host:port"`` the queue server binds; port ``0`` (the default)
        lets the OS pick one — read the resolved value from
        :attr:`address` / :meth:`describe` to point workers at it.
    workers:
        Number of local worker subprocesses to auto-spawn against the
        loopback endpoint (``0`` = none; attach external workers instead).
    authkey:
        Shared secret for the manager connection.  ``None`` (the default)
        generates a random per-run key — safe on any endpoint, and handed
        to auto-spawned workers through the :data:`AUTHKEY_ENV` environment
        variable.  A **non-loopback** endpoint requires an explicit key
        (the manager transport unpickles payloads, so a guessable key on a
        reachable port is remote code execution); external workers present
        it via ``--authkey`` or :data:`AUTHKEY_ENV`.
    chunk_size / chunk_timeout / heartbeat_timeout / max_attempts /
    startup_timeout:
        Dispatch tunables, see :class:`~repro.exec.backends.dispatch.DispatchSettings`.
        ``chunk_timeout`` is ``None`` by default — worker liveness is
        governed by heartbeats; set it only as an explicit hard per-chunk
        wall-time budget.
    """

    name = "remote"

    def __init__(
        self,
        endpoint: str = "127.0.0.1:0",
        workers: int = 0,
        authkey: Optional[str] = None,
        chunk_size: int = 1,
        chunk_timeout: Optional[float] = None,
        heartbeat_timeout: float = 15.0,
        max_attempts: int = 2,
        startup_timeout: float = 60.0,
    ) -> None:
        if workers < 0:
            raise ExperimentError(f"remote backend workers must be non-negative, got {workers}")
        host, _ = parse_endpoint(endpoint)
        if authkey is None and not is_loopback(host):
            raise ExperimentError(
                f"remote backend endpoint {endpoint!r} is reachable from other hosts: "
                "an explicit authkey is required (pass the same key to workers via "
                f"--authkey or the {AUTHKEY_ENV} environment variable)"
            )
        self.endpoint = endpoint
        self.workers = workers
        self.authkey = authkey if authkey is not None else secrets.token_hex(16)
        self.settings = DispatchSettings(
            chunk_size=chunk_size,
            chunk_timeout=chunk_timeout,
            heartbeat_timeout=heartbeat_timeout,
            max_attempts=max_attempts,
            startup_timeout=startup_timeout,
        )
        self._manager: Optional[_QueueManager] = None
        self._task_queue: Optional[Any] = None
        self._result_queue: Optional[Any] = None
        self._spawned: List[subprocess.Popen] = []
        self._workers_seen: Set[str] = set()
        self._generation = 0
        self._chunks_dispatched = 0

    @property
    def address(self) -> Optional[str]:
        """The resolved ``host:port`` workers should attach to (after start)."""
        if self._manager is None:
            return None
        host, port = self._manager.address  # type: ignore[misc]
        return f"{host}:{port}"

    def start(self) -> "RemoteWorkerBackend":
        """Bind the queue server and auto-spawn local workers if requested."""
        if self._manager is not None:
            return self
        manager = _QueueManager(
            address=parse_endpoint(self.endpoint), authkey=self.authkey.encode()
        )
        manager.start()
        self._manager = manager
        self._task_queue = manager.get_task_queue()
        self._result_queue = manager.get_result_queue()
        for _ in range(self.workers):
            # The authkey travels in the environment, not on argv, so it
            # never shows up in process listings.
            self._spawned.append(
                subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro.worker",
                        "--endpoint",
                        str(self.address),
                    ],
                    env={**os.environ, AUTHKEY_ENV: self.authkey},
                )
            )
        return self

    def close(self) -> None:
        """Stop workers (one sentinel each), reap spawned ones, shut the server down."""
        if self._manager is None:
            return
        try:
            # One sentinel per worker that ever attached (workers also
            # re-queue the sentinel as they exit, covering attaches the
            # dispatch loop never observed).
            for _ in range(max(len(self._spawned), len(self._workers_seen), 1)):
                self._task_queue.put(("stop",))
        except Exception:  # the server may already be gone; terminate below
            pass
        for process in self._spawned:
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                process.terminate()
                process.wait(timeout=5)
        self._spawned = []
        self._workers_seen = set()
        self._manager.shutdown()
        self._manager = None
        self._task_queue = None
        self._result_queue = None

    def submit(self, tasks: Sequence[Task]) -> List[Any]:
        """Dispatch the tasks to the attached workers; ordered, retried, labelled."""
        self.start()
        # Each submit is its own dispatch generation: late messages from an
        # earlier submit's requeued chunks are discarded, never misread as
        # this dispatch's chunk ids (the bit-identity contract).
        self._generation += 1
        self.tasks_submitted += len(tasks)
        results = dispatch_chunks(
            tasks,
            self._task_queue,
            self._result_queue,
            self.settings,
            where=self.name,
            generation=self._generation,
            workers_seen=self._workers_seen,
        )
        self._chunks_dispatched += -(-len(tasks) // self.settings.chunk_size)
        return results

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly summary of the backend (recorded in run manifests)."""
        return {
            **super().describe(),
            "endpoint": self.address or self.endpoint,
            "workers_spawned": len(self._spawned),
            "chunk_size": self.settings.chunk_size,
            "max_attempts": self.settings.max_attempts,
            "chunks_dispatched": self._chunks_dispatched,
        }
