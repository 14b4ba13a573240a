"""Unit tests for trial dispatch: seeds, run_trials/run_sweep on every backend.

The determinism contract of the one parallelism knob: ``run_trials`` and
``run_sweep`` derive every seed before dispatch and assemble results in
order, so running them with no backend (an in-process loop) and on a local
process pool gives equal results; tasks that cannot be pickled run
in-process instead of failing.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import ExperimentResult, run_trials
from repro.analysis.sweeps import run_sweep
from repro.api import ExecutionConfig
from repro.errors import ExperimentError
from repro.exec.backends import InProcessBackend, LocalPoolBackend, default_jobs, use_backend
from repro.exec.seeds import trial_seed, trial_seeds
from repro.substrate.rng import derive_seed, spawn_generator


def _cheap_trial(seed, trial_index):
    """Deterministic module-level trial function (picklable for the pool)."""
    rng = spawn_generator(seed, "trial")
    draws = rng.random(16)
    return {
        "seed_echo": seed,
        "index_echo": trial_index,
        "mean_draw": float(draws.mean()),
        "heads": bool(draws[0] < 0.5),
    }


def _bad_trial(seed, trial_index):
    """A trial function that violates the mapping contract."""
    return [seed, trial_index]


def _raising_trial(seed, trial_index):
    """A trial function that fails on its third trial."""
    if trial_index == 2:
        raise ValueError(f"trial {trial_index} failed")
    return {"value": seed}


def _sweep_trial(point, seed, index):
    """Deterministic module-level sweep trial (picklable through _PointBoundTrial)."""
    rng = spawn_generator(seed, "sweep")
    return {"value": float(rng.random()) * point["scale"], "index": index}


def _on_pool(jobs, fn, *args, **kwargs):
    """Run ``fn`` with a ``jobs``-worker local pool installed; return (result, tasks)."""
    with LocalPoolBackend(jobs=jobs) as backend, use_backend(backend):
        result = fn(*args, **kwargs)
    return result, backend.describe()["tasks"]


class TestSeedDerivation:
    def test_trial_seed_matches_historical_derivation(self):
        """Every path must use the same seeds run_trials always derived."""
        assert trial_seed(7, "E1", 3) == derive_seed(7, "E1", 3)

    def test_trial_seeds_vector_matches_scalar(self):
        assert trial_seeds(11, "X", 5) == [trial_seed(11, "X", i) for i in range(5)]


class TestInProcessTrials:
    def test_result_structure_and_seeds(self):
        result = run_trials("exp", _cheap_trial, 4, base_seed=9, config={"k": 1})
        assert result.num_trials == 4
        assert result.config == {"k": 1}
        for index, trial in enumerate(result.trials):
            assert trial.trial_index == index
            assert trial.seed == trial_seed(9, "exp", index)
            assert trial["seed_echo"] == trial.seed

    def test_rejects_zero_trials(self):
        with pytest.raises(ExperimentError):
            run_trials("exp", _cheap_trial, 0)

    def test_rejects_non_mapping_measurements(self):
        with pytest.raises(ExperimentError, match="must return a mapping"):
            run_trials("exp", _bad_trial, 1)

    def test_trial_exception_propagates_raw(self):
        """With no backend the funnel is a plain loop: no wrapping."""
        with pytest.raises(ValueError, match="trial 2 failed"):
            run_trials("exp", _raising_trial, 4, base_seed=3)


class TestPooledTrials:
    def test_identical_results_to_in_process(self):
        """The acceptance criterion: equal ExperimentResults for equal seeds."""
        in_process = run_trials("par", _cheap_trial, 8, base_seed=4, config={"a": 2})
        pooled, tasks = _on_pool(3, run_trials, "par", _cheap_trial, 8, base_seed=4, config={"a": 2})
        assert tasks == 8, "expected one pool task per trial"
        assert in_process.to_dict() == pooled.to_dict()

    def test_unpicklable_trial_runs_in_process_with_equal_results(self):
        captured = 3

        def closure_trial(seed, trial_index):
            return {"value": (seed + trial_index) % captured}

        pooled, tasks = _on_pool(2, run_trials, "fb", closure_trial, 5, base_seed=1)
        assert tasks == 0, "an unpicklable trial must not reach the pool"
        assert run_trials("fb", closure_trial, 5, base_seed=1).to_dict() == pooled.to_dict()

    def test_in_process_backend_gives_equal_results(self):
        with use_backend(InProcessBackend()) as backend:
            result = run_trials("one", _cheap_trial, 3, base_seed=2)
        assert backend.describe()["tasks"] == 3
        assert result.to_dict() == run_trials("one", _cheap_trial, 3, base_seed=2).to_dict()

    def test_more_workers_than_trials_is_fine(self):
        pooled, _ = _on_pool(4, run_trials, "few", _cheap_trial, 2, base_seed=6)
        assert pooled.to_dict() == run_trials("few", _cheap_trial, 2, base_seed=6).to_dict()

    def test_trial_exception_in_a_worker_names_the_trial(self):
        seed = trial_seed(3, "boom", 2)
        with pytest.raises(ExperimentError) as excinfo:
            _on_pool(2, run_trials, "boom", _raising_trial, 4, base_seed=3)
        message = str(excinfo.value)
        assert "local execution failed at task 2" in message
        assert f"(experiment='boom', trial=2, seed={seed})" in message
        assert "ValueError: trial 2 failed" in message

    def test_worker_result_is_validated_in_the_parent(self):
        with pytest.raises(ExperimentError, match="must return a mapping"):
            _on_pool(2, run_trials, "bad", _bad_trial, 4, base_seed=0)

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ExperimentError):
            LocalPoolBackend(jobs=-2)


class TestFromTrials:
    def test_trials_keep_their_order_and_seeds(self):
        result = ExperimentResult.from_trials("ft", {"k": 1}, [5, 9], [{"x": 1}, {"x": 2}])
        assert result.name == "ft" and result.config == {"k": 1}
        assert [(t.trial_index, t.seed, t["x"]) for t in result.trials] == [(0, 5, 1), (1, 9, 2)]

    def test_copies_config_and_measurements(self):
        config, measurements = {"k": 1}, {"x": 1}
        result = ExperimentResult.from_trials("ft", config, [5], [measurements])
        config["k"], measurements["x"] = 2, 2
        assert result.config == {"k": 1} and result.trials[0]["x"] == 1
        assert ExperimentResult.from_trials("ft", None, [5], [{}]).config == {}

    def test_rejects_a_non_mapping_naming_the_experiment(self):
        with pytest.raises(ExperimentError, match="'ft' must return a mapping, got list"):
            ExperimentResult.from_trials("ft", None, [5, 9], [{"x": 1}, [2]])


class TestJobsSelectTheBackend:
    def test_none_and_one_mean_in_process(self):
        assert ExecutionConfig().resolve("E1").create_backend() is None
        assert ExecutionConfig(jobs=1).resolve("E1").create_backend() is None

    def test_zero_means_all_cpus(self):
        backend = ExecutionConfig(jobs=0).resolve("E1").create_backend()
        assert isinstance(backend, LocalPoolBackend)
        assert backend.effective_jobs == default_jobs() >= 1

    def test_explicit_worker_count(self):
        backend = ExecutionConfig(jobs=5).resolve("E1").create_backend()
        assert isinstance(backend, LocalPoolBackend) and backend.jobs == 5

    def test_negative_rejected(self):
        with pytest.raises(ExperimentError):
            ExecutionConfig(jobs=-1).resolve("E1")


class TestSweepDispatch:
    def test_run_trials_on_the_in_process_backend(self):
        default = run_trials("rt", _cheap_trial, 4, base_seed=5)
        with use_backend(InProcessBackend()):
            routed = run_trials("rt", _cheap_trial, 4, base_seed=5)
        assert default.to_dict() == routed.to_dict()

    def test_run_sweep_on_a_pool_is_identical(self):
        """run_sweep sends one task per point and assembles an identical sweep."""
        points = [{"scale": 1.0}, {"scale": 2.5}]
        in_process = run_sweep("sw", points, _sweep_trial, trials_per_point=3, base_seed=8)
        pooled, tasks = _on_pool(
            2, run_sweep, "sw", points, _sweep_trial, trials_per_point=3, base_seed=8
        )
        assert tasks == len(points), "point-bound trials must be picklable"
        assert in_process.to_dict() == pooled.to_dict()
