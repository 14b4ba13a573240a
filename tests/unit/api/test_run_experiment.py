"""Tests for run_experiment and the drivers' direct ``run(config=...)`` path.

The equivalence class here is the determinism contract of the one
parallelism knob: calling a driver's ``run`` directly with a config (no
backend installed, so every dispatch is an in-process loop) must return a
report bit-identical to :func:`repro.api.run_experiment` running the same
experiment on a two-worker local pool — for every one of the eleven
drivers.
"""

from __future__ import annotations

import pytest

import repro
from repro.api import ExecutionConfig, run_experiment
from repro.errors import ExperimentError
from repro.experiments import DRIVERS

#: Tiny per-driver configurations (mirroring the integration tests) plus
#: the batch flag each case runs with.
DRIVER_CASES = {
    "E1": (dict(sizes=(200, 400), epsilon=0.3, trials=2), True),
    "E2": (dict(epsilons=(0.25, 0.45), n=300, trials=2), True),
    "E3": (dict(sizes=(300,), epsilons=(0.3,), trials=2), False),
    "E4": (dict(n=600, epsilons=(0.3,), trials=4), False),
    "E5": (dict(n=1500, epsilon=0.4, beta_override=6, trials=2), False),
    "E6": (dict(n=800, epsilon=0.3, trials=2), False),
    "E7": (dict(n=250, epsilons=(0.3,), trials=2, voter_rounds=32), True),
    "E8": (dict(n=400, epsilon=0.3, set_sizes=(120,), biases=(0.05, 0.3), trials=2), True),
    "E9": (dict(n=250, epsilon=0.3, skews=(4,), trials=2), False),
    "E10": (dict(epsilon=0.25, deltas=(0.01, 0.1), monte_carlo_reps=2000), True),
    "E11": (dict(n=120, epsilon=0.35, trials=2), False),
}


class TestRunExperiment:
    def test_returns_a_populated_artifact(self):
        artifact = run_experiment("E10", deltas=(0.01, 0.1), monte_carlo_reps=2000)
        assert artifact.spec_id == "E10"
        assert artifact.report.experiment_id == "E10" and artifact.report.rows
        assert artifact.version == repro.__version__
        assert artifact.wall_time_seconds > 0
        assert artifact.parameters["monte_carlo_reps"] == 2000
        assert artifact.parameters["base_seed"] == 1010  # spec default resolved in
        assert artifact.execution["backend"] is None and artifact.execution["notes"] == []

    def test_config_overrides_are_recorded_in_parameters(self):
        artifact = run_experiment(
            "E11",
            config=ExecutionConfig(trials=2, base_seed=77),
            n=120,
            epsilon=0.35,
        )
        assert artifact.parameters["trials"] == 2
        assert artifact.parameters["base_seed"] == 77
        assert artifact.execution["trials"] == 2 and artifact.execution["base_seed"] == 77

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            run_experiment("E99")

    def test_unknown_parameter_override_lists_the_valid_ones(self):
        with pytest.raises(ExperimentError, match="settable parameters are"):
            run_experiment("E10", sample_count=5)

    def test_conflicting_trials_specifications_rejected(self):
        with pytest.raises(ExperimentError, match="pass it once"):
            run_experiment("E11", config=ExecutionConfig(trials=2), trials=3)

    def test_driver_takes_execution_settings_through_config_only(self):
        with pytest.raises(TypeError, match="batch"):
            DRIVERS["E1"].run(sizes=(200,), trials=1, config=ExecutionConfig(), batch=True)

    def test_manifest_records_the_backend_and_its_task_count(self):
        artifact = run_experiment(
            "E8",
            config=ExecutionConfig(backend="in-process"),
            n=60,
            epsilon=0.3,
            set_sizes=(10, 16),
            biases=(0.2,),
            trials=2,
        )
        assert artifact.execution["backend"] == {"name": "in-process", "tasks": 2}
        assert not {"runner", "point_jobs"} & set(artifact.execution)
        assert artifact.execution["notes"] == []

    def test_an_idle_in_process_backend_adds_no_jobs_note(self):
        """The "--jobs has no effect" note is for parallel backends only."""
        artifact = run_experiment(
            "E5",
            config=ExecutionConfig(backend="in-process", batch=True),
            n=300,
            epsilon=0.35,
            beta_override=4,
            trials=2,
        )
        assert artifact.execution["backend"]["tasks"] == 0
        assert artifact.execution["notes"] == []

    def test_accepts_an_already_resolved_plan(self):
        plan = ExecutionConfig(batch=True).resolve("E10")
        artifact = run_experiment("E10", config=plan, deltas=(0.01, 0.1), monte_carlo_reps=2000)
        assert artifact.execution["batch"] is True

    def test_plan_for_another_experiment_rejected(self):
        plan = ExecutionConfig(batch=True).resolve("E8")
        with pytest.raises(ExperimentError, match="resolved for E8"):
            run_experiment("E10", config=plan)


@pytest.mark.parametrize("experiment_id", sorted(DRIVER_CASES, key=lambda key: int(key[1:])))
class TestDirectDriverCall:
    def test_in_process_driver_call_matches_a_pooled_run(self, experiment_id):
        tiny, batch = DRIVER_CASES[experiment_id]
        direct = DRIVERS[experiment_id].run(config=ExecutionConfig(batch=batch), **tiny)
        pooled = run_experiment(experiment_id, config=ExecutionConfig(jobs=2, batch=batch), **tiny)
        assert pooled.report.render() == direct.render()
        if experiment_id == "E10":  # vectorised in-process: no pool is built
            assert pooled.execution["backend"] is None
        else:
            assert pooled.execution["backend"]["name"] == "local"
            assert pooled.execution["backend"]["tasks"] > 0
