"""Canonical content fingerprints: one sha256 per semantically distinct run.

The cache-before-compute policy of :class:`repro.store.cache.RunStore` is
only sound because of the determinism contract (``docs/ARCHITECTURE.md``):
two runs with the same *semantic* inputs produce bit-identical reports, so
replaying a stored artifact is indistinguishable from recomputing it.  This
module defines exactly what "same semantic inputs" means:

* the experiment id (``"E1"``..``"E12"``),
* the ``repro`` package version that would produce the run,
* the fully **resolved** parameters (spec defaults with every override
  applied — so a default left implicit and the same value passed explicitly
  hash identically),
* and, of the execution plan, only the ``batch`` flag.  The batch path draws
  its randomness from a batch-level stream instead of per-trial streams, so
  ``batch`` genuinely changes the numbers; ``trials`` and ``base_seed``
  overrides are folded into the resolved parameters by
  :func:`repro.api.run_experiment` before fingerprinting, so they are
  covered through the parameter payload.

Everything else on the plan — ``jobs``, ``backend`` and its options — is
**excluded by design**: the determinism contract proves results are
bit-identical across in-process, pooled and remote execution, so a run
computed on one backend must be a cache hit for every other.

Canonicalisation removes spelling differences before hashing: dict keys are
sorted (insertion order never matters), tuples and numpy arrays become
lists, numpy scalars become their Python equivalents, and non-finite floats
are tagged with the same strict-JSON markers the artifact manifests use
(:func:`repro.store.serialization.encode_nonfinite`), so a ``NaN`` parameter
read back from a manifest re-hashes to the fingerprint it was stored under.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Mapping, Optional

from .serialization import encode_nonfinite

__all__ = [
    "canonical_json",
    "fingerprint_payload",
    "run_fingerprint",
    "FINGERPRINT_FIELDS",
    "EXCLUDED_PLAN_FIELDS",
]

#: The semantic inputs a run fingerprint covers, in payload order.
FINGERPRINT_FIELDS = ("spec_id", "version", "parameters", "execution.batch")

#: Plan fields deliberately excluded: the determinism contract proves them
#: result-irrelevant, so changing them must *not* change the fingerprint.
EXCLUDED_PLAN_FIELDS = (
    "jobs",
    "backend",
    "backend_options",
    "notes",
    "store",
    "cache",
)


def canonical_json(value: Any) -> str:
    """Serialise ``value`` to its one canonical strict-JSON spelling.

    Dict keys are stringified and sorted, tuples/numpy sequences become
    lists, numpy scalars become Python scalars, and non-finite floats are
    tagged via :func:`~repro.store.serialization.encode_nonfinite` — so any
    two spellings of the same semantic value serialise byte-identically.
    """
    return json.dumps(
        encode_nonfinite(value), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def fingerprint_payload(payload: Any) -> str:
    """The sha256 hex digest of ``payload``'s canonical JSON spelling."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def run_fingerprint(
    spec_id: str,
    version: str,
    parameters: Optional[Mapping[str, Any]] = None,
    *,
    batch: bool = False,
) -> str:
    """Fingerprint one run from its semantic inputs (see module docstring).

    ``parameters`` must be the *fully resolved* parameter mapping (defaults
    with overrides applied, ``trials``/``base_seed`` plan overrides already
    folded in), exactly as :func:`repro.api.run_experiment` records it in
    the artifact manifest — which is what lets
    :func:`repro.store.artifact.load_run` recompute and verify the
    fingerprint from the manifest alone.
    """
    payload: Dict[str, Any] = {
        "spec_id": str(spec_id),
        "version": str(version),
        "parameters": dict(parameters or {}),
        "execution": {"batch": bool(batch)},
    }
    return fingerprint_payload(payload)
