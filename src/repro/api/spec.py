"""The experiment registry: one declarative :class:`ExperimentSpec` per driver.

Every reproduced claim (the E1–E12 table in ``README.md``) is described here
*declaratively*: its id, title, the paper statement it reproduces, the
capability flags of its driver (``supports_jobs`` / ``supports_batch``) and
its tunable parameters with their defaults.

The registry is the single source of truth that used to be scattered across
the bare ``DRIVERS`` dict, per-driver ``inspect.signature`` probing in the
CLI, and copy-pasted help text.  Capability questions ("which experiments
take ``--batch``?") and parameter questions ("what can ``--set`` override on
E8?") are answered from the spec, never by introspecting a ``run``
signature; ``tests/unit/api/test_spec_registry.py`` pins every default against the
actual driver signatures so the two can never drift.

Driver modules are resolved lazily (:meth:`ExperimentSpec.driver` imports on
first use), so importing :mod:`repro.api` stays cheap and free of circular
imports — the driver modules themselves import :mod:`repro.api.config` for
their ``config=`` argument.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Dict, Iterator, List, Tuple

from ..errors import ExperimentError

__all__ = [
    "ParameterSpec",
    "ExperimentSpec",
    "REGISTRY",
    "get_spec",
    "iter_specs",
    "experiment_ids",
    "batchable_experiment_ids",
]


@dataclass(frozen=True)
class ParameterSpec:
    """One tunable parameter of an experiment driver: name, default, blurb."""

    name: str
    default: Any
    description: str = ""


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment driver.

    Attributes
    ----------
    experiment_id:
        Identifier from the README.md experiment index (e.g. ``"E1"``).
    title:
        Human-readable one-line description (also used by the driver's
        report, so the registry and the rendered tables cannot drift).
    claim:
        The paper statement being reproduced (theorem / claim / section).
    module:
        Dotted path of the driver module, imported lazily by :meth:`driver`.
    supports_jobs:
        Whether ``run`` dispatches work that a parallel backend can spread
        over workers (the CLI's ``--jobs``); E10 vectorises its whole
        Monte-Carlo in-process, so ``--jobs`` has no effect there.
    supports_batch:
        Whether ``run`` has a vectorised batch path (the CLI's ``--batch``).
    parameters:
        The driver's tunable parameters, in signature order, with defaults.
    """

    experiment_id: str
    title: str
    claim: str
    module: str
    supports_jobs: bool = True
    supports_batch: bool = False
    parameters: Tuple[ParameterSpec, ...] = field(default_factory=tuple)

    def driver(self) -> ModuleType:
        """Import (on first use) and return the driver module."""
        return importlib.import_module(self.module)

    @property
    def parameter_names(self) -> Tuple[str, ...]:
        """The declared parameter names, in signature order."""
        return tuple(parameter.name for parameter in self.parameters)

    def defaults(self) -> Dict[str, Any]:
        """The declared parameter defaults as a fresh dict."""
        return {parameter.name: parameter.default for parameter in self.parameters}

    def validate_overrides(self, overrides: Dict[str, Any]) -> None:
        """Reject parameter overrides the driver does not declare."""
        unknown = sorted(set(overrides) - set(self.parameter_names))
        if unknown:
            raise ExperimentError(
                f"{self.experiment_id} has no parameter(s) {', '.join(unknown)}; "
                f"settable parameters are: {', '.join(self.parameter_names)}"
            )


def _spec(experiment_id: str, title: str, claim: str, stem: str, **kwargs: Any) -> ExperimentSpec:
    """Registry construction shorthand (module path from the driver stem)."""
    return ExperimentSpec(
        experiment_id=experiment_id,
        title=title,
        claim=claim,
        module=f"repro.experiments.{stem}",
        **kwargs,
    )


def _parameters(*pairs: Tuple[str, Any, str]) -> Tuple[ParameterSpec, ...]:
    """Build a parameter tuple from ``(name, default, description)`` triples."""
    return tuple(ParameterSpec(name, default, description) for name, default, description in pairs)


#: The experiment registry, keyed by experiment id (E1..E12, in order).
#: ``tests/unit/api/test_spec_registry.py`` pins every entry against the driver
#: signatures — edit both together.
REGISTRY: Dict[str, ExperimentSpec] = {
    spec.experiment_id: spec
    for spec in (
        _spec(
            "E1",
            "Broadcast round complexity versus n at fixed epsilon",
            "Theorem 2.17: O(log n / eps^2) rounds, all agents correct w.h.p.",
            "e1_rounds_vs_n",
            supports_batch=True,
            parameters=_parameters(
                ("sizes", (250, 500, 1000, 2000, 4000), "population sizes swept"),
                ("epsilon", 0.2, "noise margin (flip prob = 1/2 - epsilon)"),
                ("trials", 5, "Monte-Carlo trials per sweep point"),
                ("base_seed", 101, "root random seed"),
            ),
        ),
        _spec(
            "E2",
            "Broadcast round complexity versus epsilon at fixed n",
            "Theorem 2.17: O(log n / eps^2) rounds, all agents correct w.h.p.",
            "e2_rounds_vs_eps",
            supports_batch=True,
            parameters=_parameters(
                ("epsilons", (0.1, 0.15, 0.2, 0.3, 0.4), "noise margins swept"),
                ("n", 1000, "population size"),
                ("trials", 5, "Monte-Carlo trials per sweep point"),
                ("base_seed", 202, "root random seed"),
            ),
        ),
        _spec(
            "E3",
            "Total message (bit) complexity of the broadcast protocol",
            "Theorem 2.17: O(n log n / eps^2) messages in total",
            "e3_messages",
            supports_batch=True,
            parameters=_parameters(
                ("sizes", (500, 1000, 2000), "population sizes of the grid"),
                ("epsilons", (0.15, 0.25), "noise margins of the grid"),
                ("trials", 3, "Monte-Carlo trials per grid point"),
                ("base_seed", 303, "root random seed"),
            ),
        ),
        _spec(
            "E4",
            "Phase 0: agents activated directly by the source and their bias",
            "Claim 2.2: beta_s/3 <= X0 <= beta_s and eps_0 >= eps/2, w.h.p.",
            "e4_phase0",
            supports_batch=True,
            parameters=_parameters(
                ("n", 4000, "population size"),
                ("epsilons", (0.1, 0.2, 0.3), "noise margins measured"),
                ("trials", 30, "Monte-Carlo trials per epsilon"),
                ("base_seed", 404, "root random seed"),
            ),
        ),
        _spec(
            "E5",
            "Stage I: per-phase layer sizes and bias deterioration",
            "Claims 2.4/2.8, Corollaries 2.5-2.7: X_i grows geometrically "
            "(within [1/16, 1] of (beta+1)^i X_0), eps_i >= eps^(i+1)/2, all agents activated",
            "e5_stage1_growth",
            supports_batch=True,
            parameters=_parameters(
                ("n", 8000, "population size"),
                ("epsilon", 0.35, "noise margin"),
                ("beta_override", 8, "shortened per-phase length (more visible phases)"),
                ("trials", 5, "Monte-Carlo trials"),
                ("base_seed", 505, "root random seed"),
            ),
        ),
        _spec(
            "E6",
            "Stage II: per-phase bias amplification from delta_1 = Theta(sqrt(log n / n))",
            "Lemma 2.14 / Corollary 2.15: each phase multiplies a small bias by >= 1.7 "
            "(up to a constant), after which the final phase makes all agents correct w.h.p.",
            "e6_stage2_boost",
            supports_batch=True,
            parameters=_parameters(
                ("n", 4000, "population size"),
                ("epsilon", 0.2, "noise margin"),
                ("initial_bias", None, "seeded Stage-II starting bias (None = 2x the Lemma 2.3 target)"),
                ("trials", 10, "Monte-Carlo trials"),
                ("base_seed", 606, "root random seed"),
            ),
        ),
        _spec(
            "E7",
            "Noisy broadcast: the paper's protocol versus naive strategies",
            "Section 1.6: immediate forwarding leaves the population near a coin flip "
            "(1/2 + (2 eps)^Theta(log n)); adopt-the-last-bit voter dynamics do not converge; "
            "the paper's protocol reaches full correct consensus",
            "e7_baselines",
            supports_batch=True,
            parameters=_parameters(
                ("n", 2000, "population size"),
                ("epsilons", (0.1, 0.2), "noise margins compared"),
                ("trials", 4, "Monte-Carlo trials per (epsilon, protocol) cell"),
                ("voter_rounds", 600, "round budget of the noisy-voter baseline"),
                ("base_seed", 707, "root random seed"),
            ),
        ),
        _spec(
            "E8",
            "Majority-consensus success rate versus |A| and initial majority-bias",
            "Corollary 2.18: success w.h.p. when |A| = Omega(log n / eps^2) and "
            "bias = Omega(sqrt(log n / |A|)); below the bias threshold the majority is not recoverable",
            "e8_majority",
            supports_batch=True,
            parameters=_parameters(
                ("n", 2000, "population size"),
                ("epsilon", 0.2, "noise margin"),
                ("set_sizes", (50, 200, 800), "initial opinionated set sizes |A| swept"),
                ("biases", (0.02, 0.05, 0.1, 0.2, 0.35), "initial majority-biases swept"),
                ("trials", 5, "Monte-Carlo trials per grid point"),
                ("base_seed", 808, "root random seed"),
            ),
        ),
        _spec(
            "E9",
            "Cost of removing the global clock (bounded skew and activation phase)",
            "Theorem 3.1: additive O(log^2 n) rounds, unchanged message complexity",
            "e9_async",
            supports_batch=True,
            parameters=_parameters(
                ("n", 1000, "population size"),
                ("epsilon", 0.25, "noise margin"),
                ("skews", (8, 32, 128), "bounded clock skews D measured"),
                ("trials", 3, "Monte-Carlo trials per variant"),
                ("base_seed", 909, "root random seed"),
            ),
        ),
        _spec(
            "E10",
            "Majority of gamma noisy samples from a delta-biased population",
            "Lemma 2.11: P(majority correct) >= min(1/2 + 4 delta, 1/2 + 1/100)",
            "e10_majority_lemma",
            supports_jobs=False,
            supports_batch=True,
            parameters=_parameters(
                ("epsilon", 0.2, "noise margin"),
                ("deltas", (0.002, 0.005, 0.02, 0.05, 0.1, 0.25), "population biases measured"),
                ("r0", 8.0, "calibrated sample-count constant (gamma = 2*ceil(r0/eps^2)+1)"),
                ("monte_carlo_reps", 40_000, "Monte-Carlo repetitions per delta"),
                ("base_seed", 1010, "root random seed"),
            ),
        ),
        _spec(
            "E11",
            "Lower-bound reference points: direct-from-source versus listen-only",
            "Section 1.4: every agent needs Omega(log n / eps^2) source samples, so even the idealised "
            "direct scheme needs that many rounds, and listen-only broadcast needs Theta(n log n / eps^2) rounds",
            "e11_lower_bounds",
            supports_batch=True,
            parameters=_parameters(
                ("n", 400, "population size"),
                ("epsilon", 0.25, "noise margin"),
                ("trials", 3, "Monte-Carlo trials per scheme"),
                ("base_seed", 1111, "root random seed"),
            ),
        ),
        _spec(
            "E12",
            "Fault injection: the paper's protocol versus a phased fault-tolerant comparator",
            "Beyond the paper's model: sweep success rate against the fraction f of crash-stop "
            "or Byzantine agents, contrasting the protocol (no fault budget) with a classic "
            "approximate-consensus algorithm designed to tolerate exactly f faulty servers",
            "e12_faults",
            supports_batch=True,
            parameters=_parameters(
                ("n", 600, "population size"),
                ("epsilon", 0.25, "noise margin"),
                ("fault_fractions", (0.0, 0.05, 0.1, 0.2, 0.3), "fault-prone fractions f swept"),
                ("fault_kind", "crash", "fault model: crash or byzantine"),
                ("crash_probability", 0.05, "per-round crash probability of prone agents"),
                ("consensus_eps", 0.05, "comparator agreement threshold (values start in [0, 1])"),
                ("trials", 4, "Monte-Carlo trials per (fraction, protocol) cell"),
                ("base_seed", 1212, "root random seed"),
            ),
        ),
    )
}


def get_spec(spec_or_id: Any) -> ExperimentSpec:
    """Resolve an experiment id (or pass an :class:`ExperimentSpec` through).

    Raises :class:`~repro.errors.ExperimentError` for unknown ids, listing
    the registered ones — the single error message the CLI and the
    programmatic API both surface.
    """
    if isinstance(spec_or_id, ExperimentSpec):
        return spec_or_id
    spec = REGISTRY.get(str(spec_or_id))
    if spec is None:
        raise ExperimentError(
            f"unknown experiment {spec_or_id!r}; registered experiments: "
            f"{', '.join(experiment_ids())}"
        )
    return spec


def iter_specs() -> Iterator[ExperimentSpec]:
    """All registered specs, in E1..E12 order."""
    for experiment_id in experiment_ids():
        yield REGISTRY[experiment_id]


def experiment_ids() -> List[str]:
    """All registered experiment ids, sorted numerically (E1..E12)."""
    return sorted(REGISTRY, key=lambda key: int(key[1:]))


def batchable_experiment_ids() -> str:
    """Comma-separated ids of the experiments with a vectorised batch path.

    Derived from the :attr:`ExperimentSpec.supports_batch` flags — the same
    flags :class:`repro.api.config.ExecutionConfig` validates against — so
    ``--batch`` help and error text can never drift from what actually runs.
    """
    return ", ".join(
        experiment_id
        for experiment_id in experiment_ids()
        if REGISTRY[experiment_id].supports_batch
    )
