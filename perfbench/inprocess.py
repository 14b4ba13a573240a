"""The in-process workload ``fault_sweep``.

A closed loop of back-to-back :func:`repro.api.run_experiment` calls from
this process, with no run store.  One request is one call; every call
computes its sweep.
"""

from __future__ import annotations

import os
import time
from statistics import median
from typing import Any, Dict, List

# Calls go through the module attribute ``repro.api.run_experiment``, so a
# traced phase reaches the wrapper that tracing.install puts there.
import repro.api
from common import agent_rounds, base_seeds, p90, vm_hwm_mb
from hostspeed import HostSpeed
from repro.api import ExecutionConfig
from tracing import Tracer, install, layer_metrics, summarize

FAULT_KINDS = ("crash", "byzantine")
POOL_JOBS = 2
#: A sweep point passes when at least this share of its trials succeeded.
MIN_SUCCESS = 0.8


def _raise_on(errors: List[str]) -> None:
    if errors:
        raise RuntimeError("warm-up output check failed: " + "; ".join(errors))


class PoolMemory:
    """Peak resident memory of the pool workers, read just before each pool
    shuts down (``LocalPoolBackend.close``)."""

    def __init__(self) -> None:
        from repro.exec.backends.local import LocalPoolBackend

        self.peak_mb = 0.0
        original = LocalPoolBackend.close

        def close(backend: Any) -> None:
            pool = backend._pool
            if pool is not None:
                pids = [process.pid for process in list(pool._processes.values())]
                self.peak_mb = max(self.peak_mb, sum(vm_hwm_mb(pid) for pid in pids))
            original(backend)

        LocalPoolBackend.close = close


class FaultSweep:
    """E12 fault sweeps, alternating crash and byzantine faults, on a
    2-worker local pool (or in this process, for the traced baseline)."""

    name = "fault_sweep"

    def warm_up(self) -> None:
        for pool in (True, False):
            artifact = repro.api.run_experiment(
                "E12", config=self.config(pool), fault_kind="crash", base_seed=1,
                fault_fractions=(0.0, 0.1), trials=2,
            )
            _raise_on(self.check(artifact))

    @staticmethod
    def config(pool: bool) -> Any:
        if pool:
            return ExecutionConfig(batch=True, jobs=POOL_JOBS, backend="local")
        return ExecutionConfig(batch=True)

    def call(self, base_seed: int, index: int, pool: bool = True) -> Any:
        return repro.api.run_experiment(
            "E12", config=self.config(pool), fault_kind=FAULT_KINDS[index % 2],
            base_seed=base_seed,
        )

    def check(self, artifact: Any) -> List[str]:
        """Every (protocol, fraction) row is present, and both protocols
        succeed at f = 0."""
        rows = artifact.report.rows
        fractions = artifact.parameters["fault_fractions"]
        protocols = sorted({row["protocol"] for row in rows})
        present = sorted((row["protocol"], row["fault_fraction"]) for row in rows)
        expected = sorted((protocol, fraction) for protocol in protocols for fraction in fractions)
        errors = []
        if len(protocols) != 2 or present != expected:
            errors.append(f"E12 rows {present} do not cover both protocols at {fractions}")
        for row in rows:
            if row["fault_fraction"] == 0.0 and row["success_rate"] < MIN_SUCCESS:
                errors.append(f"E12 {row['protocol']} at f=0: success_rate {row['success_rate']}")
        return errors

    def agent_rounds(self, artifact: Any) -> int:
        return agent_rounds(artifact.report.to_dict(), n=artifact.parameters["n"],
                            trials=artifact.parameters["trials"])


class Tally:
    """Per-request outcomes of one closed loop."""

    def __init__(self) -> None:
        self.latency_s: List[float] = []
        self.sweep_s: List[float] = []
        self.agent_rounds = 0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.wall_s = 0.0


def _one(workload: Any, tally: Tally, base_seed: int, index: int, **options: Any) -> None:
    tally.attempted += 1
    started = time.perf_counter()
    try:
        artifact = workload.call(base_seed, index, **options)
    except Exception as error:  # a failed request counts, the loop goes on
        tally.failed += 1
        tally.errors.append(f"{type(error).__name__}: {error}")
        return
    tally.latency_s.append(time.perf_counter() - started)
    errors = workload.check(artifact)
    if errors:
        tally.failed += 1
        tally.errors.extend(errors)
        return
    tally.sweep_s.append(artifact.wall_time_seconds)
    tally.agent_rounds += workload.agent_rounds(artifact)


def closed_loop(workload: Any, seeds: List[int], seconds: float, speed: HostSpeed) -> Tally:
    """Run requests back to back for ``seconds``, with reference units
    between them; the last request may overrun.  ``tally.wall_s`` is the
    time spent on requests, the units left out."""
    tally = Tally()
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        started = time.perf_counter()
        _one(workload, tally, seeds[index % len(seeds)], index)
        elapsed = time.perf_counter() - started
        tally.wall_s += elapsed
        speed.after(elapsed)
        index += 1
    return tally


def run_untraced(seed: int, seconds: float, speed: HostSpeed) -> Dict[str, Any]:
    """The end-to-end measurement: a closed loop for ``seconds``."""
    workload = FaultSweep()
    memory = PoolMemory()
    workload.warm_up()
    tally = closed_loop(workload, base_seeds(seed, 1000), seconds, speed)
    latency = tally.latency_s or [float("nan")]
    sweeps = tally.sweep_s or [float("nan")]
    metrics = {
        "agent_rounds_per_s": tally.agent_rounds / tally.wall_s,
        "sweep_s_p50": median(sweeps),
        "requests_per_s": (tally.attempted - tally.failed) / tally.wall_s,
        "latency_ms_p50": 1000.0 * median(latency),
        "miss_turnaround_s_p50": median(latency),
        "miss_turnaround_s_p90": p90(latency),
        "peak_rss_mb": vm_hwm_mb(os.getpid()) + memory.peak_mb,
    }
    notes = {"requests": tally.attempted, "sweep_samples": len(tally.sweep_s)}
    return {"tally": tally, "metrics": metrics, "notes": notes}


def traced_sweeps(seconds: float) -> int:
    """Sweeps per phase of the traced run: fixed work, sized from
    ``--seconds`` so that both phases together take about that long."""
    return max(1, round(seconds / 12.0))


def run_traced(seed: int, seconds: float) -> Dict[str, Any]:
    """The per-layer measurement: a fixed list of sweeps, each run once
    untraced and once traced, back to back, so drift during the run hits
    both sides alike; the difference of their summed times is the tracing
    overhead.

    Every sweep runs on the pool and then in this process.  The pool
    workers' spans stay in the workers, so the kernel self times come from
    the in-process sweeps, which are also the single-process baseline of
    ``exec.parallel_efficiency``.
    """
    workload = FaultSweep()
    workload.warm_up()
    count = traced_sweeps(seconds) * len(FAULT_KINDS)
    passes = [{"pool": True}, {"pool": False}]
    plain = [Tally() for _ in passes]
    traced = [Tally() for _ in passes]
    tracer = Tracer()
    for index, base_seed in enumerate(base_seeds(seed, count)):
        for options, plain_tally, traced_tally in zip(passes, plain, traced):
            # Alternate which side runs first: a sweep runs faster right
            # after an identical one, and that must not read as overhead.
            for side in (0, 1) if index % 2 == 0 else (1, 0):
                if side == 0:
                    _one(workload, plain_tally, base_seed, index, **options)
                    continue
                install(tracer)
                try:
                    _one(workload, traced_tally, base_seed, index, **options)
                finally:
                    tracer.uninstall()

    def busy_s(tallies: List[Tally]) -> float:
        return sum(sum(tally.latency_s) for tally in tallies)

    metrics = layer_metrics(summarize(tracer.spans))
    metrics["exec.parallel_efficiency"] = busy_s(plain[1:]) / (POOL_JOBS * busy_s(plain[:1]))
    metrics["workload.agent_rounds"] = sum(tally.agent_rounds for tally in traced)
    metrics["trace.overhead_s"] = busy_s(traced) - busy_s(plain)
    metrics["trace.overhead_frac"] = busy_s(traced) / busy_s(plain) - 1.0
    merged = Tally()
    for tally in plain + traced:
        merged.attempted += tally.attempted
        merged.failed += tally.failed
        merged.errors.extend(tally.errors)
    notes = {"sweeps_per_phase": sum(tally.attempted for tally in traced),
             "spans": len(tracer.spans)}
    return {"tally": merged, "metrics": metrics, "notes": notes}


def set_up() -> None:
    """What the set-up probe times: imports, then the warm-up sweeps, one of
    them on a freshly started pool."""
    FaultSweep().warm_up()
