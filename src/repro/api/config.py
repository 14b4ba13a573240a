"""Execution settings: a frozen :class:`ExecutionConfig` resolved exactly once.

An :class:`ExecutionConfig` captures *how* an experiment should execute —
worker count, backend, batch mode, seed and trial-count overrides —
independently of *which* experiment runs.  Calling
:meth:`ExecutionConfig.resolve` against an
:class:`~repro.api.spec.ExperimentSpec` turns it into an
:class:`ExecutionPlan`, validated against the spec's capability flags.
This is the one place execution settings are checked; the CLI,
:func:`repro.api.run_experiment` and the benchmark helpers all resolve
through it, so a capability error (``--batch`` on a driver without a batch
path) carries the same message everywhere and can never drift from the
registry.

Parallelism has one knob: the plan's execution backend
(:meth:`ExecutionPlan.create_backend`) — the named one, or a local pool
when only ``jobs`` is set — which :func:`repro.api.run_experiment`
installs for the whole run.

:func:`resolve_run_options` is what the experiment drivers call at the top
of ``run``: it accepts the ``config=`` object (an :class:`ExecutionConfig`,
or an already-resolved :class:`ExecutionPlan` so the resolution genuinely
happens once per run).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..errors import ExperimentError
from .spec import ExperimentSpec, batchable_experiment_ids, get_spec

__all__ = [
    "SERVICE_EXECUTION_KEYS",
    "ExecutionConfig",
    "ExecutionPlan",
    "resolve_run_options",
]

#: Execution options a service request's JSON body may set — the
#: experiment-shaping subset of :class:`ExecutionConfig`.  ``store_path``
#: and ``cache`` are deliberately absent: the service owns its store, and
#: requests must not redirect persistence or disable memoization.
SERVICE_EXECUTION_KEYS = ("jobs", "batch", "trials", "base_seed", "backend", "backend_options")


@dataclass(frozen=True)
class ExecutionConfig:
    """Frozen, experiment-agnostic execution settings.

    Attributes
    ----------
    jobs:
        Worker-process count with the CLI's ``--jobs`` convention: ``None``
        (default) or ``1`` = in-process, ``0`` = one worker per CPU, ``k`` =
        ``k`` workers.  Without a ``backend`` it selects a local process
        pool for the run; with one it sizes that backend's worker fleet.
    batch:
        Use the vectorised batch simulators instead of one engine per trial.
    base_seed:
        Override the driver's default root seed (``None`` = keep default).
    trials:
        Override the driver's default trial count (``None`` = keep default).
    backend:
        Execution backend for the run (``"in-process"``, ``"local"``,
        ``"remote"``; see :mod:`repro.exec.backends`).  ``None`` (default)
        means a local pool when ``jobs`` asks for workers, else in-process
        execution.  :func:`repro.api.run_experiment` builds the backend
        once, installs it for the whole run, and records it in the run
        manifest; results are bit-identical on every backend.
    backend_options:
        Backend-specific options (e.g. ``{"workers": 4}``, or for an
        externally reachable worker fleet ``{"endpoint": "0.0.0.0:7777",
        "authkey": "..."}`` — a non-loopback endpoint requires an explicit
        authkey, since the queue transport would otherwise accept pickles
        from anyone who can reach the port); validated against the
        backend's recognised option names at resolution time.
    store_path:
        Root directory of a content-addressed run store
        (:class:`repro.store.RunStore`).  When set,
        :func:`repro.api.run_experiment` consults the store *before*
        creating any execution backend — an identical semantic request
        (same spec, version, resolved parameters and batch flag; ``jobs``
        and ``backend`` deliberately excluded) is served from the store as
        a cache hit, and a miss is computed and persisted under its
        fingerprint.  ``None`` (default) keeps the uncached behaviour.
    cache:
        Whether the store lookup is consulted (``True``, default).
        ``cache=False`` with a ``store_path`` is the refresh mode (the
        CLI's ``--no-cache``): skip the lookup, recompute, and overwrite
        the stored artifact.  Without a ``store_path`` the flag is inert.
    """

    jobs: Optional[int] = None
    batch: bool = False
    base_seed: Optional[int] = None
    trials: Optional[int] = None
    backend: Optional[str] = None
    backend_options: Optional[Mapping[str, Any]] = None
    store_path: Optional[Union[str, Path]] = None
    cache: bool = True

    @classmethod
    def from_env(cls, variable: str = "REPRO_JOBS", *, batch: bool = False) -> "ExecutionConfig":
        """Build a config from the execution environment variables.

        The single place ``REPRO_BENCH_JOBS``-style knobs are interpreted:
        ``variable`` holds ``--jobs`` (unset/empty → serial, ``0`` → one
        worker per CPU, ``k`` → ``k`` workers — exactly the CLI
        convention).  Two companions select the execution backend:

        * ``REPRO_BACKEND`` — ``in-process``, ``local`` or ``remote``
          (unset/empty → a local pool when the jobs variable asks for
          workers, else in-process);
        * ``REPRO_WORKERS`` — worker count handed to that backend (pool
          size for ``local``, auto-spawned localhost workers for
          ``remote``), overriding the jobs variable for the backend.

        Two more select the run store:

        * ``REPRO_STORE`` — root directory of a content-addressed run
          store (unset/empty → no store, the historical behaviour);
        * ``REPRO_CACHE`` — set to ``0``/``false``/``no``/``off`` to skip
          the store lookup (the ``--no-cache`` refresh mode); anything
          else, or unset, keeps caching on.
        """
        raw = os.environ.get(variable, "").strip()
        backend = os.environ.get("REPRO_BACKEND", "").strip() or None
        workers_raw = os.environ.get("REPRO_WORKERS", "").strip()
        backend_options = {"workers": int(workers_raw)} if workers_raw and backend else None
        store_raw = os.environ.get("REPRO_STORE", "").strip()
        cache_raw = os.environ.get("REPRO_CACHE", "").strip().lower()
        return cls(
            jobs=int(raw) if raw else None,
            batch=batch,
            backend=backend,
            backend_options=backend_options,
            store_path=store_raw or None,
            cache=cache_raw not in ("0", "false", "no", "off"),
        )

    @classmethod
    def for_service(
        cls,
        store_path: Union[str, Path],
        options: Optional[Mapping[str, Any]] = None,
    ) -> "ExecutionConfig":
        """Build a per-request config for the experiment service.

        The service's defaults differ from the library's in exactly two
        ways, both fixed here: every request is **memoized** through the
        service's store (``store_path`` is mandatory, ``cache`` always on —
        the whole point of serving is that repeated parameter points are
        hits), and the execution options come from an untrusted JSON body,
        so only the whitelisted keys in :data:`SERVICE_EXECUTION_KEYS` are
        accepted (``jobs``, ``batch``, ``trials``, ``base_seed``,
        ``backend``, ``backend_options``).  Anything else — notably
        ``store_path``/``cache`` themselves, which a request must not
        redirect — raises a labelled :class:`~repro.errors.ExperimentError`
        that the service maps to a ``400``.
        """
        settings = dict(options or {})
        unknown = sorted(set(settings) - set(SERVICE_EXECUTION_KEYS))
        if unknown:
            raise ExperimentError(
                f"unknown execution option(s) {', '.join(unknown)}; a service request "
                f"may set: {', '.join(SERVICE_EXECUTION_KEYS)}"
            )
        return cls(store_path=Path(store_path), cache=True, **settings)

    def resolve(self, spec_or_id: Union[str, ExperimentSpec]) -> "ExecutionPlan":
        """Resolve into the execution plan for one experiment.

        Validation is driven entirely by the spec's capability flags:

        * ``batch=True`` against a spec without a batch path raises
          :class:`~repro.errors.ExperimentError` naming the batchable ids;
        * ``trials`` / ``base_seed`` overrides against a spec that does not
          declare those parameters raise likewise (E10 counts repetitions
          with ``monte_carlo_reps``);
        * ``jobs`` (or a parallel backend) on an experiment that cannot use
          them resolves to a plan carrying an explanatory note (surfaced by
          the CLI) instead of silently implying parallelism;
        * ``backend`` names and ``backend_options`` keys are validated
          against the backend registry (:mod:`repro.exec.backends`).
        """
        from ..exec.backends import validate_backend_spec

        spec = get_spec(spec_or_id)
        if self.jobs is not None and self.jobs < 0:
            raise ExperimentError(
                f"jobs must be non-negative (0 = one worker per CPU), got {self.jobs}"
            )
        if self.backend is not None:
            validate_backend_spec(self.backend, self.backend_options)
        elif self.backend_options:
            raise ExperimentError(
                "backend_options were given without a backend; set backend= too"
            )
        store_path: Optional[Path] = None
        if self.store_path is not None:
            store_path = Path(self.store_path)
            if store_path.exists() and not store_path.is_dir():
                raise ExperimentError(
                    f"store path {store_path} exists but is not a directory"
                )
        if self.batch and not spec.supports_batch:
            raise ExperimentError(
                f"{spec.experiment_id} has no vectorised batch path; --batch supports the "
                f"batchable experiments ({batchable_experiment_ids()})"
            )
        for name, value in (("trials", self.trials), ("base_seed", self.base_seed)):
            if value is not None and name not in spec.parameter_names:
                raise ExperimentError(
                    f"{spec.experiment_id} has no {name!r} parameter to override; "
                    f"settable parameters are: {', '.join(spec.parameter_names)}"
                )

        notes: Tuple[str, ...] = ()
        wants_workers = self.jobs is not None or self.backend not in (None, "in-process")
        if wants_workers and not spec.supports_jobs:
            notes = (
                f"{spec.experiment_id} vectorises its Monte-Carlo in-process rather than "
                "running per-trial simulations; --jobs has no effect",
            )

        return ExecutionPlan(
            spec=spec,
            jobs=self.jobs,
            batch=self.batch,
            trials=self.trials,
            base_seed=self.base_seed,
            backend=self.backend,
            backend_options=dict(self.backend_options) if self.backend_options else None,
            store_path=store_path,
            cache=self.cache,
            notes=notes,
        )


@dataclass(frozen=True)
class ExecutionPlan:
    """A resolved execution strategy for one specific experiment.

    Produced by :meth:`ExecutionConfig.resolve`; drivers read ``batch`` and
    apply the ``trials`` / ``base_seed`` overrides, and
    :func:`repro.api.run_experiment` builds the run's backend from it, so
    the mapping from settings to behaviour lives here once.
    """

    spec: ExperimentSpec
    jobs: Optional[int] = None
    batch: bool = False
    trials: Optional[int] = None
    base_seed: Optional[int] = None
    backend: Optional[str] = None
    backend_options: Optional[Dict[str, Any]] = None
    store_path: Optional[Path] = None
    cache: bool = True
    notes: Tuple[str, ...] = field(default_factory=tuple)

    def create_backend(self) -> Optional[Any]:
        """Build the run's execution backend (not yet started), or ``None``.

        The named backend, sized by ``jobs``; without one, a local process
        pool when ``jobs`` asks for workers (``0`` = one per CPU, ``k > 1``)
        on an experiment that can use them.  ``None`` — ``jobs`` unset or
        ``1`` — means every dispatch runs in-process.  Called exactly once
        per run by :func:`repro.api.run_experiment`.
        """
        from ..exec.backends import create_backend

        if self.backend is not None:
            return create_backend(self.backend, self.backend_options, jobs=self.jobs)
        if self.jobs in (None, 1) or not self.spec.supports_jobs:
            return None
        return create_backend("local", jobs=self.jobs)

    def describe(self) -> Dict[str, Any]:
        """JSON-friendly summary of the plan (stored in run manifests)."""
        return {
            "jobs": self.jobs,
            "batch": self.batch,
            "trials": self.trials,
            "base_seed": self.base_seed,
            "backend": {"name": self.backend, "options": dict(self.backend_options or {})}
            if self.backend
            else None,
            "store": {"path": str(self.store_path), "cache": self.cache}
            if self.store_path
            else None,
            "notes": list(self.notes),
        }


def resolve_run_options(
    experiment_id: str,
    *,
    config: Optional[Union[ExecutionConfig, ExecutionPlan]] = None,
) -> ExecutionPlan:
    """Resolve a driver's ``config=`` argument into one :class:`ExecutionPlan`.

    Called at the top of every driver ``run``.  ``config`` is an
    :class:`ExecutionConfig` (resolved here against the registry spec), an
    already-resolved :class:`ExecutionPlan` (passed through, so
    :func:`repro.api.run_experiment` resolves exactly once), or ``None``
    for the defaults.
    """
    if config is None:
        config = ExecutionConfig()
    if isinstance(config, ExecutionPlan):
        plan = config
    elif isinstance(config, ExecutionConfig):
        plan = config.resolve(experiment_id)
    else:
        raise ExperimentError(
            f"config must be an ExecutionConfig or ExecutionPlan, got {type(config).__name__}"
        )
    if plan.spec.experiment_id != experiment_id:
        raise ExperimentError(
            f"execution plan was resolved for {plan.spec.experiment_id}, not {experiment_id}"
        )
    return plan
