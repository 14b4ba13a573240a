"""Span tracing around the public functions of each layer of ``repro``.

The benchmark never edits ``src/``: :func:`install` replaces a function at
the name its caller looks up (a class attribute, or a module global that a
caller imported by name) with a wrapper that records one span per call that
returns (a call that raises leaves no span).
A span is ``(id, name, start, end, parent id, root id, counts)``; the root id
names the sweep or request the span belongs to.  Spans stay in memory until
the run ends, and :func:`summarize` folds them into the per-layer metrics.

Self time is a span's duration minus the time its child spans cover.  A
child always runs on its parent's thread, between the parent's start and
end, so the children of one span never overlap and their durations add up.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[int, str, float, float, Optional[int], int, Optional[Dict[str, int]]]


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[Tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        fn: Callable[..., Any],
        name: Any,
        counts: Optional[Callable[[tuple, dict, Any], Dict[str, int]]] = None,
    ) -> Callable[..., Any]:
        """Return ``fn`` wrapped to record a span per call that returns.

        ``name`` is the span name, or a function of ``(args, kwargs)``
        returning it.  ``counts`` maps ``(args, kwargs, result)`` to the
        work counts stored on the span of a call that returned.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            root = parent[1] if parent else span_id
            stack.append((span_id, root))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            label = name(args, kwargs) if callable(name) else name
            work = counts(args, kwargs, result) if counts is not None else None
            tracer.spans.append(
                (span_id, label, start, end, parent[0] if parent else None, root, work)
            )
            return result

        return traced

    def patch(self, owner: Any, attr: str, wrapped: Callable[..., Any]) -> None:
        """Set ``owner.attr`` to ``wrapped``, remembering the original."""
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Put back every function :meth:`patch` replaced."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def _resolve(path: str) -> Any:
    """``"pkg.module"`` or ``"pkg.module:Class"`` to the object."""
    module_name, _, attr = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attr) if attr else module


def _fault_path(args: tuple, kwargs: dict) -> bool:
    """Whether a ``deliver``/``deliver_batch`` call takes the resilient path."""
    faults = kwargs.get("faults", args[5] if len(args) > 5 else None)
    topology = kwargs.get("topology", args[6] if len(args) > 6 else None)
    return faults is not None or topology is not None


def _deliver_batch_name(args: tuple, kwargs: dict) -> str:
    return "substrate.deliver_batch_resilient" if _fault_path(args, kwargs) else "substrate.deliver_batch"


def _deliver_batch_counts(args: tuple, kwargs: dict, report: Any) -> Dict[str, int]:
    send_mask, bits = args[1], args[2]
    arrays = (send_mask, bits, report.accepted, report.bits, report.senders,
              report.messages_sent, report.messages_delivered)
    return {
        "agent_rounds": int(send_mask.size),
        "sent": int(report.messages_sent.sum()),
        "delivered": int(report.messages_delivered.sum()),
        "bytes": sum(int(array.nbytes) for array in arrays),
    }


def _deliver_counts(args: tuple, kwargs: dict, report: Any) -> Dict[str, int]:
    return {
        "agent_rounds": int(args[0].size),
        "sent": int(report.messages_sent),
        "delivered": int(report.messages_delivered),
    }


def _tasks_count(args: tuple, kwargs: dict, result: Any) -> Dict[str, int]:
    return {"tasks": len(args[1])}


def _submit_counts(args: tuple, kwargs: dict, result: Any) -> Dict[str, int]:
    return {"hits": int(result[0] == 200)}


def _get_counts(args: tuple, kwargs: dict, artifact: Any) -> Dict[str, int]:
    return {"hit": int(artifact is not None)}


#: (span name, owner that defines the function, attribute, other owners that
#: imported it by name, work counts).  Every owner is patched, so a caller
#: finds the wrapper whichever name it looks up, and a function that is
#: pickled by reference for a pool worker still pickles.
TARGETS: Tuple[Tuple[Any, str, str, Tuple[str, ...], Any], ...] = (
    (_deliver_batch_name, "repro.substrate.network:PushGossipNetwork", "deliver_batch", (),
     _deliver_batch_counts),
    ("substrate.deliver", "repro.substrate.network:PushGossipNetwork", "deliver", (),
     _deliver_counts),
    ("core.execute_stage_one", "repro.core.stage1", "execute_stage_one",
     ("repro.core.broadcast", "repro.core.majority"), None),
    ("core.execute_stage_two", "repro.core.stage2", "execute_stage_two",
     ("repro.core.broadcast", "repro.core.majority"), None),
    ("exec.run_stage1_batch", "repro.exec.stage_batching", "run_stage1_batch",
     ("repro.exec.batching", "repro.exec.fault_batching"), None),
    ("exec.run_stage2_batch", "repro.exec.stage_batching", "run_stage2_batch",
     ("repro.exec.batching", "repro.exec.fault_batching"), None),
    ("exec.run_faulty_broadcast_batch", "repro.exec.fault_batching",
     "run_faulty_broadcast_batch", (), None),
    ("exec.run_consensus_comparator_batch", "repro.exec.fault_batching",
     "run_consensus_comparator_batch", (), None),
    ("exec.backend.start", "repro.exec.backends.local:LocalPoolBackend", "start", (), None),
    ("exec.backend.submit", "repro.exec.backends.local:LocalPoolBackend", "submit", (),
     _tasks_count),
    ("experiments.driver", "repro.experiments.e8_majority", "run", (), None),
    ("experiments.driver", "repro.experiments.e12_faults", "run", (), None),
    ("api.run_experiment", "repro.api.run", "run_experiment",
     ("repro.api", "repro.service.jobs"), None),
    ("api.resolve_run_inputs", "repro.api.run", "resolve_run_inputs",
     ("repro.service.app", "repro.service.jobs"), None),
    ("store.get", "repro.store.cache:RunStore", "get", (), _get_counts),
    ("store.put", "repro.store.cache:RunStore", "put", (), None),
    ("service.submit_run", "repro.service.app:ExperimentService", "submit_run", (),
     _submit_counts),
    ("service.journal.append", "repro.service.journal:JobJournal", "record", (), None),
)


def install(tracer: Tracer) -> None:
    """Wrap every function of :data:`TARGETS` and every noise channel's
    ``transmit``/``transmit_batch`` so calls record spans on ``tracer``."""
    for name, owner_path, attr, aliases, counts in TARGETS:
        owner = _resolve(owner_path)
        wrapped = tracer.wrap(owner.__dict__[attr], name, counts)
        tracer.patch(owner, attr, wrapped)
        for alias in aliases:
            tracer.patch(_resolve(alias), attr, wrapped)
    from repro.substrate import noise

    for channel in vars(noise).values():
        if isinstance(channel, type) and issubclass(channel, noise.NoiseChannel):
            for attr in ("transmit", "transmit_batch"):
                function = channel.__dict__.get(attr)
                if function is not None and not getattr(function, "__isabstractmethod__", False):
                    tracer.patch(channel, attr, tracer.wrap(function, "substrate.transmit"))


def summarize(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Fold spans into per-name totals.

    For each span name: ``calls``; ``s``, the summed duration of calls not
    nested in a call of the same name (so recursion counts once); ``self_s``,
    the summed self time; and the summed work counts.
    """
    by_id = {span[0]: span for span in spans}
    covered: Dict[int, float] = {}
    for span in spans:
        if span[4] is not None:
            covered[span[4]] = covered.get(span[4], 0.0) + (span[3] - span[2])
    totals: Dict[str, Dict[str, float]] = {}
    for span_id, name, start, end, parent, _root, work in spans:
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        duration = end - start
        entry["calls"] += 1
        entry["self_s"] += duration - covered.get(span_id, 0.0)
        ancestor = by_id.get(parent) if parent is not None else None
        while ancestor is not None and ancestor[1] != name:
            ancestor = by_id.get(ancestor[4]) if ancestor[4] is not None else None
        if ancestor is None:
            entry["s"] += duration
        for key, value in (work or {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals


#: Per-layer metrics that count work.  They depend only on the workload seed
#: and ``--seconds``, never on timing, so two traced runs must agree exactly.
COUNT_METRICS = (
    "substrate.deliver_batch.calls",
    "substrate.deliver_batch.agent_rounds",
    "substrate.deliver_batch.bytes_computed",
    "substrate.deliver_batch_resilient.calls",
    "substrate.deliver.calls",
    "substrate.messages_sent",
    "substrate.messages_delivered",
    "exec.backend.tasks",
    "api.resolve_run_inputs.calls",
    "store.get.calls",
    "store.put.calls",
    "workload.agent_rounds",
)


def layer_metrics(totals: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """The per-layer metrics that come straight from span totals.

    Times are seconds summed over the traced phase.  ``bytes_computed`` is
    the summed size of each call's input and output arrays, computed from
    array sizes and not measured.  ``ns_per_agent_round`` divides the
    whole ``deliver_batch`` time, noise channel included, by R x n summed
    over the calls.
    """

    def get(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0)

    plain, resilient, serial = (
        "substrate.deliver_batch", "substrate.deliver_batch_resilient", "substrate.deliver",
    )
    sent = sum(get(name, "sent") for name in (plain, resilient, serial))
    delivered = sum(get(name, "delivered") for name in (plain, resilient, serial))
    plain_rounds = get(plain, "agent_rounds")
    store_gets = get("store.get", "calls")
    metrics = {
        "substrate.deliver_batch.calls": get(plain, "calls"),
        "substrate.deliver_batch.self_s": get(plain, "self_s"),
        "substrate.deliver_batch.ns_per_agent_round":
            1e9 * get(plain, "s") / plain_rounds if plain_rounds else 0.0,
        "substrate.deliver_batch.bytes_computed": get(plain, "bytes"),
        "substrate.deliver_batch.agent_rounds": plain_rounds,
        "substrate.deliver_batch_resilient.calls": get(resilient, "calls"),
        "substrate.deliver_batch_resilient.self_s": get(resilient, "self_s"),
        "substrate.deliver.calls": get(serial, "calls"),
        "substrate.deliver.self_s": get(serial, "self_s"),
        "substrate.transmit.s": get("substrate.transmit", "s"),
        "substrate.messages_sent": sent,
        "substrate.messages_delivered": delivered,
        "substrate.delivery_ratio": delivered / sent if sent else 0.0,
        "exec.backend.start_s": get("exec.backend.start", "s"),
        "exec.backend.submit_s": get("exec.backend.submit", "s"),
        "exec.backend.tasks": get("exec.backend.submit", "tasks"),
        "api.resolve_run_inputs.calls": get("api.resolve_run_inputs", "calls"),
        "api.resolve_run_inputs.s": get("api.resolve_run_inputs", "s"),
        "store.get.calls": store_gets,
        "store.get.s": get("store.get", "s"),
        "store.put.calls": get("store.put", "calls"),
        "store.put.s": get("store.put", "s"),
        "store.hit_ratio": get("store.get", "hit") / store_gets if store_gets else 0.0,
        "service.submit_run.s": get("service.submit_run", "s"),
        "service.journal.append_s": get("service.journal.append", "s"),
    }
    for name in (
        "core.execute_stage_one", "core.execute_stage_two", "exec.run_stage1_batch",
        "exec.run_stage2_batch", "exec.run_faulty_broadcast_batch",
        "exec.run_consensus_comparator_batch", "experiments.driver", "api.run_experiment",
    ):
        metrics[f"{name}.self_s"] = get(name, "self_s")
    return metrics
