"""Unit tests for the execution-backend layer and its pool routing.

Covers the :class:`~repro.exec.backends.base.ExecutionBackend` contract
(ordered results, lifecycle, task counting, active-backend installation per
thread and its reset in pool workers), the chunking pin, the labelled
worker-failure errors, the routing of every dispatch helper through the one
funnel, and the adversarial ordering differential: a mock backend that
completes tasks in shuffled order must still produce a bit-identical E8
sweep.
"""

from __future__ import annotations

import contextvars
import functools
import random
import threading

import pytest

from repro.errors import ExperimentError
from repro.exec import pool
from repro.exec.backends import (
    InProcessBackend,
    LocalPoolBackend,
    Task,
    active_backend,
    chunksize_for,
    create_backend,
    run_task,
    task_failure_error,
    task_label,
    use_backend,
    validate_backend_spec,
)
from repro.exec.backends.base import clear_active_backend


def _add(a, b):
    return a + b


def _boom(_seed, _index):
    raise ValueError("exploding trial")


def _trial(seed, index):
    return {"value": seed + index}


def _point_trial(point, seed, index):
    return {"value": point["a"] + index}


def _active_backend_name(_index):
    """Worker-side probe: the name of the backend this process sees as active."""
    backend = active_backend()
    return None if backend is None else backend.name


class TestTask:
    def test_run_task_applies_args_and_kwargs(self):
        task = Task(fn=_add, args=(2,), kwargs={"b": 3})
        assert run_task(task) == 5

    def test_task_label_includes_the_context(self):
        task = Task(fn=_add, context=(("point", "E8[n=10]"), ("seed", 42)))
        assert task_label(task, 7) == "task 7 (point='E8[n=10]', seed=42)"
        assert task_label(Task(fn=_add), 0) == "task 0"

    def test_failure_error_names_task_index_point_and_seed(self):
        tasks = [Task(fn=_add, context=(("point", "p"), ("seed", 5)))]
        error = task_failure_error(tasks, 0, ValueError("dead"), where="local")
        assert "local execution failed" in str(error)
        assert "task 0 (point='p', seed=5)" in str(error)
        assert "ValueError: dead" in str(error)

    def test_failure_error_survives_an_out_of_range_index(self):
        error = task_failure_error([], 3, RuntimeError("x"), where="local")
        assert "task 3" in str(error)


class TestInProcessBackend:
    def test_results_come_back_in_task_order(self):
        tasks = [Task(fn=_add, args=(i, 1)) for i in range(5)]
        backend = InProcessBackend()
        assert backend.submit(tasks) == [1, 2, 3, 4, 5]
        assert backend.describe() == {"name": "in-process", "tasks": 5}

    def test_tasks_see_no_backend_like_pool_workers(self):
        """A dispatch nested inside a task loops in-process, as in a worker."""
        backend = InProcessBackend()
        with use_backend(backend):
            seen = backend.submit([Task(fn=_active_backend_name, args=(0,))])
            assert active_backend() is backend
        assert seen == [None]
        assert backend.tasks_submitted == 1

    def test_exceptions_propagate_raw(self):
        """Exactly the historical serial semantics: no wrapping."""
        with pytest.raises(ValueError, match="exploding"):
            InProcessBackend().submit([Task(fn=_boom, args=(1, 2))])


class TestLocalPoolBackend:
    def test_pool_is_created_once_and_reused_across_submits(self):
        tasks = [Task(fn=_add, args=(i, 0)) for i in range(4)]
        with LocalPoolBackend(jobs=2) as backend:
            first = backend.submit(tasks)
            pool_object = backend._pool
            second = backend.submit(tasks)
            assert backend._pool is pool_object  # no respawn between submits
        assert first == second == [0, 1, 2, 3]
        assert backend._pool is None  # close() tore it down
        assert backend.describe() == {"name": "local", "tasks": 8, "jobs": 2}

    def test_workers_do_not_inherit_the_active_backend(self):
        """A forked worker starts with no backend, so a nested dispatch inside
        a task loops in that worker instead of reaching a copy of the pool."""
        with LocalPoolBackend(jobs=2) as backend, use_backend(backend):
            seen = backend.submit([Task(fn=_active_backend_name, args=(i,)) for i in range(4)])
            assert active_backend() is backend  # the parent keeps its own
        assert seen == [None] * 4

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ExperimentError, match="positive integer"):
            LocalPoolBackend(jobs=0)

    def test_worker_failure_is_labelled_with_task_context(self):
        tasks = [
            Task(fn=_add, args=(0, 0), context=(("point", "ok"),)),
            Task(fn=_boom, args=(1, 2), context=(("point", "E8[x]"), ("seed", 99))),
        ]
        with LocalPoolBackend(jobs=2) as backend:
            with pytest.raises(ExperimentError) as excinfo:
                backend.submit(tasks)
        message = str(excinfo.value)
        assert "local execution failed" in message
        assert "task 1 (point='E8[x]', seed=99)" in message
        assert "exploding trial" in message

    def test_every_submission_is_chunked(self):
        """The chunking pin: submissions route through chunksize_for."""
        tasks = [Task(fn=_add, args=(i, 0)) for i in range(40)]
        with LocalPoolBackend(jobs=2) as backend:
            backend.submit(tasks)
            assert backend.last_chunksize == chunksize_for(40, 2) == 5
            backend.submit(tasks[:3])
            assert backend.last_chunksize == chunksize_for(3, 2) == 1


class TestChunksizeFor:
    def test_targets_four_chunks_per_worker(self):
        assert chunksize_for(80, 4) == 5
        assert chunksize_for(16, 2) == 2

    def test_never_below_one(self):
        assert chunksize_for(3, 8) == 1
        assert chunksize_for(0, 1) == 1


class TestActiveBackend:
    def test_no_backend_by_default(self):
        assert active_backend() is None

    def test_use_backend_installs_and_uninstalls(self):
        backend = InProcessBackend()
        with use_backend(backend) as installed:
            assert installed is backend
            assert active_backend() is backend
        assert active_backend() is None

    def test_nesting_is_rejected(self):
        with use_backend(InProcessBackend()):
            with pytest.raises(ExperimentError, match="cannot be nested"):
                with use_backend(InProcessBackend()):
                    pass  # pragma: no cover
        assert active_backend() is None

    def test_uninstalled_even_when_the_run_raises(self):
        with pytest.raises(RuntimeError):
            with use_backend(InProcessBackend()):
                raise RuntimeError("driver failed")
        assert active_backend() is None

    def test_clearing_in_a_copied_context_leaves_the_run_its_backend(self):
        """What a pool worker and the in-process backend do before a task."""
        backend = InProcessBackend()
        with use_backend(backend):
            context = contextvars.copy_context()
            context.run(clear_active_backend)
            assert context.run(active_backend) is None
            assert active_backend() is backend

    def test_two_threads_install_their_own_backends(self):
        """The service runs jobs on worker threads: each run keeps its own
        backend, and a run that named none never sees another's."""
        first, second = InProcessBackend(), InProcessBackend()
        both_installed = threading.Barrier(3)
        seen = {}
        errors = []

        def run(key, backend):
            try:
                if backend is None:
                    both_installed.wait(timeout=10)
                    seen[key] = active_backend()
                    both_installed.wait(timeout=10)
                    return
                with use_backend(backend):
                    both_installed.wait(timeout=10)
                    seen[key] = active_backend()
                    both_installed.wait(timeout=10)
            except Exception as error:  # surfaced below, in the test thread
                errors.append(error)

        threads = [
            threading.Thread(target=run, args=("first", first)),
            threading.Thread(target=run, args=("second", second)),
            threading.Thread(target=run, args=("none", None)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert errors == []
        assert seen == {"first": first, "second": second, "none": None}

    def test_concurrent_runs_on_two_threads(self):
        """End to end: a run with a named backend on one thread while another
        thread runs with a backend and a third with none installed."""
        from repro.api import ExecutionConfig, run_experiment

        kwargs = dict(n=60, epsilon=0.3, set_sizes=(10,), biases=(0.2,), trials=2, base_seed=3)
        expected = run_experiment("E8", config=ExecutionConfig(), **kwargs).report.render()
        holder = _RecordingBackend()
        installed, release = threading.Event(), threading.Event()
        results = {}
        errors = []

        def hold_a_backend():
            with use_backend(holder):
                installed.set()
                release.wait(timeout=60)

        def run(key, backend):
            try:
                artifact = run_experiment("E8", config=ExecutionConfig(backend=backend), **kwargs)
                results[key] = artifact.report.render()
            except Exception as error:  # surfaced below, in the test thread
                errors.append(error)

        other = threading.Thread(target=hold_a_backend)
        other.start()
        assert installed.wait(timeout=10)
        workers = [
            threading.Thread(target=run, args=("named", "in-process")),
            threading.Thread(target=run, args=("unnamed", None)),
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=120)
            assert not thread.is_alive()
        release.set()
        other.join(timeout=10)
        assert not other.is_alive()
        assert errors == []
        assert results == {"named": expected, "unnamed": expected}
        assert holder.submissions == [], "a run on another thread used this thread's backend"


class _RecordingBackend(InProcessBackend):
    """In-process execution that records every submitted task list."""

    def __init__(self):
        self.submissions = []

    def submit(self, tasks):
        self.submissions.append(list(tasks))
        return super().submit(tasks)


class TestPoolRouting:
    """Every dispatch helper funnels through the installed backend."""

    def test_run_trials_routes_to_the_active_backend(self):
        from repro.analysis.experiments import run_trials
        from repro.exec.seeds import trial_seeds

        backend = _RecordingBackend()
        with use_backend(backend):
            result = run_trials("exp", _trial, 2, base_seed=4)
        seeds = trial_seeds(4, "exp", 2)
        assert [trial["value"] for trial in result.trials] == [seeds[0], seeds[1] + 1]
        (tasks,) = backend.submissions
        assert tasks[1].context == (("experiment", "exp"), ("trial", 1), ("seed", seeds[1]))

    def test_run_sweep_routes_one_task_per_point_and_labels_it(self):
        from repro.analysis.sweeps import run_sweep

        backend = _RecordingBackend()
        with use_backend(backend):
            sweep = run_sweep("sweep", [{"a": 1}, {"a": 2}], _point_trial, trials_per_point=2)
        names = sweep.point_names()
        (tasks,) = backend.submissions
        assert len(tasks) == 2
        for task, name, result in zip(tasks, names, sweep.results):
            assert task.context == (("point", name), ("first_seed", result.trials[0].seed))

    def test_run_point_tasks_scrapes_context_from_kwargs(self):
        backend = _RecordingBackend()
        with use_backend(backend):
            results = pool.run_point_tasks(
                [(_add, {"a": 1, "b": 2}), (_add, {"a": 3, "b": 4})]
            )
        assert results == [3, 7]
        (tasks,) = backend.submissions
        assert tasks[0].context == (("position", 0),)

    def test_run_point_tasks_uses_the_backend_even_for_one_task(self):
        backend = _RecordingBackend()
        with use_backend(backend):
            results = pool.run_point_tasks([(_add, {"a": 1, "b": 1})])
        assert results == [2]
        assert len(backend.submissions) == 1

    def test_no_backend_runs_in_process(self):
        """Without a backend every dispatch is an in-process loop."""
        results = pool.run_point_tasks([(_add, {"a": 1, "b": 1})])
        assert results == [2]

    def test_unpicklable_tasks_stay_in_process(self):
        backend = _RecordingBackend()
        with use_backend(backend):
            results = pool.submit_tasks([Task(fn=lambda: 7)])
        assert results == [7] and backend.submissions == []


class TestPicklabilityError:
    def test_partial_over_a_module_function_pickles(self):
        task = Task(fn=functools.partial(_add, 1), args=(2,), context=(("seed", 3),))
        assert pool.picklability_error([task]) is None

    def test_a_closure_is_reported_with_the_error_type(self):
        offset = 1
        reason = pool.picklability_error([Task(fn=lambda value: value + offset)])
        assert reason is not None and reason.split(":")[0] in {
            "PicklingError",
            "AttributeError",
        }


class _ShuffledBackend(InProcessBackend):
    """Adversarial completion order: executes tasks shuffled, returns ordered.

    Models what a remote fleet does — tasks finish in arbitrary order — while
    honouring the contract that ``submit`` returns results by task position.
    """

    name = "shuffled"

    def submit(self, tasks):
        self.tasks_submitted += len(tasks)
        order = list(range(len(tasks)))
        random.Random(1234).shuffle(order)
        results = [None] * len(tasks)
        for index in order:
            results[index] = run_task(tasks[index])
        return results


class TestOrderedAssemblyDifferential:
    def test_shuffled_completion_is_bit_identical_on_a_small_e8_grid(self):
        """Seeds derived in the parent + ordered assembly ⇒ backend-invariant."""
        from repro.api import ExecutionConfig, run_experiment

        kwargs = dict(
            n=60, epsilon=0.3, set_sizes=(10, 16), biases=(0.2,), trials=3, base_seed=11
        )
        serial = run_experiment("E8", config=ExecutionConfig(), **kwargs)
        with use_backend(_ShuffledBackend()) as backend:
            # A run that names no backend dispatches onto the installed one.
            shuffled = run_experiment("E8", config=ExecutionConfig(), **kwargs)
        assert backend.tasks_submitted == 2
        assert shuffled.report.rows == serial.report.rows
        assert shuffled.report.render() == serial.report.render()


class TestFactory:
    def test_validate_rejects_unknown_backend_and_options(self):
        with pytest.raises(ExperimentError, match="registered backends"):
            validate_backend_spec("threads")
        with pytest.raises(ExperimentError, match="no option"):
            validate_backend_spec("in-process", {"workers": 2})

    def test_jobs_fill_in_the_workers_option(self):
        backend = create_backend("local", jobs=3)
        assert isinstance(backend, LocalPoolBackend) and backend.jobs == 3

    def test_jobs_zero_means_one_worker_per_cpu(self):
        from repro.exec.backends import RemoteWorkerBackend, default_jobs

        backend = create_backend("remote", jobs=0)
        assert isinstance(backend, RemoteWorkerBackend)
        assert backend.workers == default_jobs()

    def test_explicit_zero_workers_on_remote_means_external_only(self):
        backend = create_backend("remote", {"workers": 0}, jobs=4)
        assert backend.workers == 0
