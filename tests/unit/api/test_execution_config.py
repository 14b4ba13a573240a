"""Unit tests for ExecutionConfig resolution into ExecutionPlans."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import ExecutionConfig, ExecutionPlan, get_spec, resolve_run_options
from repro.errors import ExperimentError
from repro.exec import LocalPoolBackend
from repro.exec.backends import default_jobs


class TestResolution:
    def test_default_config_is_serial(self):
        plan = ExecutionConfig().resolve("E1")
        assert plan.create_backend() is None and not plan.batch
        assert plan.spec is get_spec("E1")
        assert plan.notes == ()

    def test_jobs_map_to_a_local_pool_like_the_cli(self):
        assert ExecutionConfig(jobs=1).resolve("E1").create_backend() is None
        parallel = ExecutionConfig(jobs=4).resolve("E1").create_backend()
        assert isinstance(parallel, LocalPoolBackend) and parallel.jobs == 4
        all_cpus = ExecutionConfig(jobs=0).resolve("E1").create_backend()
        assert isinstance(all_cpus, LocalPoolBackend)
        assert all_cpus.effective_jobs == default_jobs()

    def test_negative_jobs_rejected(self):
        with pytest.raises(ExperimentError, match="non-negative"):
            ExecutionConfig(jobs=-2).resolve("E1")

    def test_batch_with_jobs_keeps_the_local_pool(self):
        plan = ExecutionConfig(jobs=3, batch=True).resolve("E8")
        backend = plan.create_backend()
        assert plan.batch and isinstance(backend, LocalPoolBackend) and backend.jobs == 3

    def test_batch_on_unsupported_experiment_names_the_batchable_ones(self):
        # Every registered experiment is batchable since the stage kernels
        # landed, so the guard is exercised through a synthetic spec.
        unbatchable = dataclasses.replace(get_spec("E4"), supports_batch=False)
        with pytest.raises(ExperimentError, match=r"E1, E2, E3, E4, E5, E6, E7, E8, E9, E10, E11"):
            ExecutionConfig(batch=True).resolve(unbatchable)

    def test_jobs_on_batch_only_experiment_yield_a_note_not_parallelism(self):
        plan = ExecutionConfig(jobs=2, batch=True).resolve("E10")
        assert plan.create_backend() is None
        assert any("--jobs has no effect" in note for note in plan.notes)

    def test_jobs_on_an_experiment_without_jobs_support_yield_a_note(self):
        plan = ExecutionConfig(jobs=2).resolve("E10")
        assert plan.create_backend() is None
        assert any("--jobs has no effect" in note for note in plan.notes)

    def test_jobs_on_a_batch_stage_experiment_carry_no_resolution_note(self):
        # E5/E6 --batch dispatch nothing, but whether a run sends its backend
        # tasks is only known after it ran (see run_experiment's note).
        plan = ExecutionConfig(jobs=2, batch=True).resolve("E5")
        assert plan.notes == ()
        assert isinstance(plan.create_backend(), LocalPoolBackend)

    def test_trials_override_requires_a_trials_parameter(self):
        assert ExecutionConfig(trials=7).resolve("E1").trials == 7
        with pytest.raises(ExperimentError, match="no 'trials' parameter"):
            ExecutionConfig(trials=7).resolve("E10")

    def test_config_is_frozen(self):
        config = ExecutionConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.jobs = 3  # type: ignore[misc]

    def test_describe_summarises_the_plan(self):
        summary = ExecutionConfig(jobs=2, batch=True, trials=3, base_seed=9).resolve("E8").describe()
        assert summary == {
            "jobs": 2,
            "batch": True,
            "trials": 3,
            "base_seed": 9,
            "backend": None,
            "store": None,
            "notes": [],
        }

    def test_store_path_flows_into_the_plan_and_describe(self, tmp_path):
        plan = ExecutionConfig(store_path=tmp_path / "store").resolve("E8")
        assert plan.store_path == tmp_path / "store" and plan.cache
        assert plan.describe()["store"] == {"path": str(tmp_path / "store"), "cache": True}
        bypass = ExecutionConfig(store_path=str(tmp_path / "store"), cache=False).resolve("E8")
        assert bypass.describe()["store"]["cache"] is False

    def test_store_path_pointing_at_a_file_is_rejected(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("occupied")
        with pytest.raises(ExperimentError, match="not a directory"):
            ExecutionConfig(store_path=target).resolve("E8")


class TestBackendResolution:
    def test_default_config_has_no_backend(self):
        plan = ExecutionConfig().resolve("E1")
        assert plan.backend is None and plan.backend_options is None
        assert plan.create_backend() is None
        assert plan.describe()["backend"] is None

    def test_unknown_backend_is_rejected_naming_the_valid_ones(self):
        with pytest.raises(ExperimentError, match="in-process.*local.*remote"):
            ExecutionConfig(backend="threads").resolve("E1")

    def test_unknown_backend_option_is_rejected(self):
        with pytest.raises(ExperimentError, match="chunk_size"):
            ExecutionConfig(backend="local", backend_options={"chunk_size": 3}).resolve("E1")

    def test_backend_options_without_backend_are_rejected(self):
        with pytest.raises(ExperimentError, match="without a backend"):
            ExecutionConfig(backend_options={"workers": 2}).resolve("E1")

    def test_parallel_backend_without_jobs_uses_one_worker_per_cpu(self):
        plan = ExecutionConfig(backend="local").resolve("E8")
        backend = plan.create_backend()
        assert isinstance(backend, LocalPoolBackend) and backend.jobs is None
        assert plan.jobs is None  # the *requested* jobs stay untouched

    def test_in_process_backend_stays_serial(self):
        from repro.exec.backends import InProcessBackend

        plan = ExecutionConfig(backend="in-process", jobs=3).resolve("E8")
        assert isinstance(plan.create_backend(), InProcessBackend)

    def test_explicit_jobs_win_over_the_backend_default(self):
        backend = ExecutionConfig(jobs=3, backend="local").resolve("E8").create_backend()
        assert isinstance(backend, LocalPoolBackend) and backend.jobs == 3

    def test_create_backend_builds_the_named_backend(self):
        from repro.exec.backends import InProcessBackend, LocalPoolBackend, RemoteWorkerBackend

        assert isinstance(
            ExecutionConfig(backend="in-process").resolve("E1").create_backend(),
            InProcessBackend,
        )
        local = ExecutionConfig(backend="local", backend_options={"workers": 2}).resolve(
            "E1"
        ).create_backend()
        assert isinstance(local, LocalPoolBackend) and local.jobs == 2
        remote = ExecutionConfig(
            backend="remote", backend_options={"workers": 2, "chunk_size": 4}
        ).resolve("E1").create_backend()
        assert isinstance(remote, RemoteWorkerBackend)
        assert remote.workers == 2 and remote.settings.chunk_size == 4

    def test_describe_records_the_backend(self):
        summary = ExecutionConfig(
            backend="remote", backend_options={"workers": 2}
        ).resolve("E8").describe()
        assert summary["backend"] == {"name": "remote", "options": {"workers": 2}}


class TestFromEnv:
    def test_unset_means_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_JOBS", raising=False)
        assert ExecutionConfig.from_env("REPRO_TEST_JOBS").jobs is None

    def test_set_value_is_parsed_as_jobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_JOBS", " 3 ")
        config = ExecutionConfig.from_env("REPRO_TEST_JOBS", batch=True)
        assert config.jobs == 3 and config.batch

    def test_repro_backend_selects_the_backend(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_JOBS", raising=False)
        monkeypatch.setenv("REPRO_BACKEND", "local")
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        config = ExecutionConfig.from_env("REPRO_TEST_JOBS")
        assert config.backend == "local" and config.backend_options is None

    def test_repro_workers_becomes_a_backend_option(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_JOBS", raising=False)
        monkeypatch.setenv("REPRO_BACKEND", "remote")
        monkeypatch.setenv("REPRO_WORKERS", " 4 ")
        config = ExecutionConfig.from_env("REPRO_TEST_JOBS")
        assert config.backend == "remote"
        assert config.backend_options == {"workers": 4}

    def test_repro_workers_without_backend_is_ignored(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_JOBS", raising=False)
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.setenv("REPRO_WORKERS", "4")
        config = ExecutionConfig.from_env("REPRO_TEST_JOBS")
        assert config.backend is None and config.backend_options is None

    def test_empty_backend_variable_means_default_dispatch(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_JOBS", raising=False)
        monkeypatch.setenv("REPRO_BACKEND", "  ")
        config = ExecutionConfig.from_env("REPRO_TEST_JOBS")
        assert config.backend is None

    def test_repro_store_selects_the_run_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_JOBS", raising=False)
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.setenv("REPRO_STORE", " runs/store ")
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        config = ExecutionConfig.from_env("REPRO_TEST_JOBS")
        assert config.store_path == "runs/store" and config.cache

    def test_repro_cache_falsy_values_disable_the_lookup(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_JOBS", raising=False)
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_STORE", raising=False)
        for raw in ("0", "false", "No", "OFF"):
            monkeypatch.setenv("REPRO_CACHE", raw)
            assert not ExecutionConfig.from_env("REPRO_TEST_JOBS").cache
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert ExecutionConfig.from_env("REPRO_TEST_JOBS").cache
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert ExecutionConfig.from_env("REPRO_TEST_JOBS").cache


class TestResolveRunOptions:
    def test_resolved_plan_passes_through_unchanged(self):
        plan = ExecutionConfig(batch=True).resolve("E1")
        assert resolve_run_options("E1", config=plan) is plan

    def test_plan_for_another_experiment_is_rejected(self):
        plan = ExecutionConfig(batch=True).resolve("E2")
        with pytest.raises(ExperimentError, match="resolved for E2"):
            resolve_run_options("E1", config=plan)

    def test_unexpected_config_type_is_rejected(self):
        with pytest.raises(ExperimentError, match="ExecutionConfig or ExecutionPlan"):
            resolve_run_options("E1", config=object())  # type: ignore[arg-type]

    def test_no_config_resolves_the_in_process_defaults(self):
        plan = resolve_run_options("E8")
        assert isinstance(plan, ExecutionPlan)
        assert not plan.batch and plan.create_backend() is None and plan.notes == ()
