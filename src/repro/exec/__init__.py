"""Trial-execution subsystem: one dispatch funnel, pluggable backends, batching.

The analysis layer (:mod:`repro.analysis`) defines *what* a Monte-Carlo
experiment is — trial functions, seed bookkeeping, result containers.  This
package defines *how* the trials execute:

* :mod:`repro.exec.seeds` — :func:`trial_seed` / :func:`trial_seeds`, the
  single per-trial seed source of every execution path;
* :mod:`repro.exec.pool` — the dispatch funnel
  (:func:`~repro.exec.pool.submit_tasks`): every trial loop, sweep and
  cell-structured driver hands it one ordered task list, which runs on the
  run's backend, or in-process when none is installed (or a task cannot be
  pickled);
* :mod:`repro.exec.backends` — the pluggable execution-backend layer ("who
  runs a task list"): the in-process reference, a persistent local process
  pool reused across sweep-point families, and a remote work-stealing
  backend that ``python -m repro.worker`` processes attach to — all behind
  one ordered-results contract, so every backend is bit-identical;
* :mod:`repro.exec.batching` — a vectorised path that simulates ``R``
  independent replicates of the noisy push-gossip protocols (broadcast,
  majority consensus *and* the Section 1.6 / Section 1.4 baseline family)
  as ``(R, n)`` NumPy grids instead of one engine per trial, plus a generic
  batched sweep dispatcher (one backend task per grid point);
* :mod:`repro.exec.stage_batching` — the instrumented ``(R, n)`` stage
  kernels underneath the batched protocols: Stage I / Stage II round loops
  with per-phase replicate-vector measurements (``X_i`` / ``Y_i`` /
  ``eps_i`` / ``delta_i``) for the stage-level experiments E4–E6, and the
  batched Section-3 executors (bounded skew, clock-free) for E9;
* :mod:`repro.exec.fault_batching` — the fault-injected ``(R, n)`` rules for
  E12: the paper protocol under a :mod:`repro.substrate.faults` model (or a
  non-uniform contact topology) and the batched phased approximate-consensus
  comparator, both differentially pinned against their serial references.

There is one parallelism knob: :func:`repro.api.run_experiment` installs a
backend for a run that sets ``--jobs`` (a local pool) or ``--backend``, and
every dispatch of the driver goes to it; see ``docs/ARCHITECTURE.md`` for
the determinism contract.
"""

from __future__ import annotations

from .batching import (
    BatchBaselineResult,
    BatchBroadcastResult,
    BatchMajorityResult,
    batch_to_experiment_result,
    batchable_baselines,
    measurements_to_experiment_result,
    run_baseline_batch,
    run_broadcast_batch,
    run_broadcast_sweep_batched,
    run_majority_batch,
    run_sweep_batched,
)
from .fault_batching import (
    BatchConsensusResult,
    BatchFaultBroadcastResult,
    run_consensus_comparator_batch,
    run_faulty_broadcast_batch,
)
from .stage_batching import (
    BatchWindowedResult,
    StageOneBatchResult,
    StageTwoBatchResult,
    run_bounded_skew_batch,
    run_clock_free_batch,
    run_stage1_batch,
    run_stage1_instrumented,
    run_stage2_batch,
    run_stage2_instrumented,
)
from .backends import (
    ExecutionBackend,
    InProcessBackend,
    LocalPoolBackend,
    RemoteWorkerBackend,
    Task,
    active_backend,
    create_backend,
    use_backend,
)
from .seeds import trial_seed, trial_seeds

__all__ = [
    "ExecutionBackend",
    "InProcessBackend",
    "LocalPoolBackend",
    "RemoteWorkerBackend",
    "Task",
    "active_backend",
    "create_backend",
    "use_backend",
    "trial_seed",
    "trial_seeds",
    "BatchBroadcastResult",
    "BatchMajorityResult",
    "BatchBaselineResult",
    "run_broadcast_batch",
    "run_majority_batch",
    "run_baseline_batch",
    "batchable_baselines",
    "batch_to_experiment_result",
    "measurements_to_experiment_result",
    "run_sweep_batched",
    "run_broadcast_sweep_batched",
    "StageOneBatchResult",
    "StageTwoBatchResult",
    "BatchWindowedResult",
    "run_stage1_batch",
    "run_stage2_batch",
    "run_stage1_instrumented",
    "run_stage2_instrumented",
    "run_bounded_skew_batch",
    "run_clock_free_batch",
    "BatchFaultBroadcastResult",
    "BatchConsensusResult",
    "run_faulty_broadcast_batch",
    "run_consensus_comparator_batch",
]

