"""Command-line interface to the protocol runners and experiment drivers.

Installed as ``repro-flip``.  Three subcommands cover the common workflows:

* ``repro-flip broadcast --n 2000 --epsilon 0.2`` — run the paper's noisy
  broadcast protocol once and print the outcome;
* ``repro-flip majority --n 2000 --epsilon 0.2 --set-size 300 --bias 0.1`` —
  run the noisy majority-consensus protocol once;
* ``repro-flip experiment E1 --jobs 4`` — run one of the experiment drivers
  (the E1–E11 table in ``README.md``) and print its report.

The ``experiment`` subcommand is a thin shell over the unified experiment
API (:mod:`repro.api`): the experiment registry supplies the valid ids,
capability help/error text (``--batch`` support comes from
:attr:`~repro.api.spec.ExperimentSpec.supports_batch` flags, never from
signature introspection) and the parameter names ``--set key=value`` may
override; :class:`~repro.api.config.ExecutionConfig` resolves ``--jobs`` /
``--batch`` / ``--trials`` / ``--seed`` into an execution plan; and
``--save DIR`` persists the returned
:class:`~repro.store.RunArtifact` (manifest + report payload)
for later reloading with :func:`~repro.store.load_run`.

``--store DIR`` memoizes the run through the content-addressed
:class:`~repro.store.RunStore` (an identical semantic request is a cache
hit, served without creating any execution backend; ``--no-cache``
recomputes and refreshes the stored artifact), and the ``store``
subcommand administers such a store: ``repro-flip store ls|show|verify|gc
--store DIR``.

``repro-flip serve --store DIR`` stands the experiment service up
(:mod:`repro.service`): submit runs over HTTP as async jobs, poll
results, and let every repeated parameter point be a store-served cache
hit — see the "Serving experiments" section of ``README.md``.
"""

from __future__ import annotations

import argparse
import ast
import sys
from typing import Any, Dict, List, Optional, Sequence

from .analysis.tables import render_kv, render_table
from .api import ExecutionConfig, RunStore, batchable_experiment_ids, experiment_ids, get_spec, run_experiment, save_run
from .core.broadcast import solve_noisy_broadcast
from .core.majority import solve_noisy_majority_consensus
from .core.synchronizer import run_clock_free_broadcast
from .errors import ExperimentError

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-flip",
        description="Noisy broadcast / majority-consensus in the Flip model (PODC 2014 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    broadcast = subparsers.add_parser("broadcast", help="run the noisy broadcast protocol once")
    broadcast.add_argument("--n", type=int, default=1000, help="population size")
    broadcast.add_argument("--epsilon", type=float, default=0.2, help="noise margin (flip prob = 1/2 - epsilon)")
    broadcast.add_argument("--seed", type=int, default=0, help="root random seed")
    broadcast.add_argument(
        "--clock-free", action="store_true", help="use the Section-3 protocol without a global clock"
    )

    majority = subparsers.add_parser("majority", help="run the noisy majority-consensus protocol once")
    majority.add_argument("--n", type=int, default=1000)
    majority.add_argument("--epsilon", type=float, default=0.2)
    majority.add_argument("--seed", type=int, default=0)
    majority.add_argument("--set-size", type=int, default=200, help="size of the initial opinionated set A")
    majority.add_argument("--bias", type=float, default=0.1, help="majority-bias of the initial set")

    experiment = subparsers.add_parser("experiment", help="run an experiment driver (E1..E11)")
    experiment.add_argument("experiment_id", choices=experiment_ids())
    experiment.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="run the experiment's trials, sweep points or cells across N worker processes "
        "of one local pool for the whole run (0 = one per CPU; default: in-process); with "
        "--backend, the backend's worker count. Results are identical to an in-process run",
    )
    experiment.add_argument(
        "--batch",
        action="store_true",
        help="simulate all trials of each sweep point at once with the vectorised batch path "
        f"({batchable_experiment_ids()}; deterministic per base seed, but drawn from a "
        "batch-level random stream instead of per-trial streams); combine with --jobs to "
        "additionally run independent sweep points or cells across worker processes",
    )
    experiment.add_argument(
        "--backend",
        choices=["in-process", "local", "remote"],
        default=None,
        help="execution backend for the run (default: 'local' when --jobs asks for workers, "
        "else in-process). 'local' keeps one persistent process pool for the whole run; "
        "'remote' opens a work-stealing task queue that `python -m repro.worker` processes "
        "attach to (combine with --jobs to auto-spawn that many localhost workers). "
        "Results are bit-identical on every backend. Env equivalents: REPRO_BACKEND / "
        "REPRO_WORKERS (see ExecutionConfig.from_env)",
    )
    experiment.add_argument(
        "--workers-endpoint",
        metavar="HOST:PORT",
        default=None,
        help="with --backend remote: bind the worker task queue here (default 127.0.0.1 with "
        "an OS-assigned port); point external workers at it with "
        "`python -m repro.worker --endpoint HOST:PORT`",
    )
    experiment.add_argument(
        "--workers-authkey",
        metavar="KEY",
        default=None,
        help="with --backend remote: shared secret workers must present (required for a "
        "non-loopback --workers-endpoint; default: a random per-run key that only "
        "auto-spawned localhost workers know). External workers pass it via "
        "`python -m repro.worker --authkey KEY` or REPRO_WORKER_AUTHKEY",
    )
    experiment.add_argument(
        "--trials",
        type=int,
        default=None,
        metavar="N",
        help="override the experiment's default Monte-Carlo trial count",
    )
    experiment.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="override the experiment's default root random seed",
    )
    experiment.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="overrides",
        help="override one declared experiment parameter (repeatable); values are parsed as "
        "Python literals where possible, e.g. --set epsilon=0.3 --set 'sizes=(250, 500)'; "
        "run list-experiments to see each experiment's parameters",
    )
    experiment.add_argument(
        "--save",
        metavar="DIR",
        default=None,
        help="write the run artifact (manifest + report payload) to this directory; "
        "reload it with repro.api.load_run",
    )
    experiment.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="memoize the run through the content-addressed run store rooted here: an "
        "identical semantic request (same experiment, parameters and batch flag — "
        "--jobs/--backend deliberately excluded) is served from the store as a cache "
        "hit; a miss is computed and persisted under its fingerprint. Env equivalent: "
        "REPRO_STORE",
    )
    experiment.add_argument(
        "--no-cache",
        action="store_true",
        help="with --store: skip the cache lookup, recompute, and refresh the stored "
        "artifact. Env equivalent: REPRO_CACHE=0",
    )

    subparsers.add_parser(
        "list-experiments", help="list the registered experiment drivers and their parameters"
    )

    serve = subparsers.add_parser(
        "serve",
        help="serve experiments over HTTP: submit runs as async jobs, poll results, "
        "with every completed run memoized through the content-addressed store",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="interface to bind (default 127.0.0.1; bind 0.0.0.0 only behind a trusted proxy "
        "— the service has no authentication of its own)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8000,
        help="TCP port to bind (0 = OS-assigned ephemeral port, printed on startup; default 8000)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="worker threads executing submitted jobs (bounds concurrent simulations; default 2)",
    )
    serve.add_argument(
        "--store",
        metavar="DIR",
        required=True,
        help="root directory of the content-addressed run store backing the service; repeated "
        "parameter points are served from it as cache hits without running any simulation",
    )
    serve.add_argument(
        "--max-queued",
        type=int,
        default=None,
        metavar="N",
        help="bound on jobs waiting for a worker; submissions beyond it are shed with "
        "429 + Retry-After instead of queueing unboundedly (default: unbounded)",
    )
    serve.add_argument(
        "--no-journal",
        action="store_true",
        help="disable the crash-recovery job journal (journal.jsonl beside the store); "
        "jobs in flight when the process dies are then lost instead of replayed on restart",
    )
    serve.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-request access logging",
    )

    store = subparsers.add_parser(
        "store", help="administer a content-addressed run store (ls, show, verify, gc)"
    )
    store.add_argument(
        "action",
        choices=["ls", "show", "verify", "gc"],
        help="ls: list stored runs; show: print one run's manifest summary and report; "
        "verify: recompute and check every stored fingerprint; gc: sweep stale staging "
        "directories and corrupt artifacts, then rebuild the index",
    )
    store.add_argument(
        "fingerprint",
        nargs="?",
        default=None,
        help="a stored run's fingerprint (any unambiguous prefix); required for show, "
        "optional for verify (default: verify everything)",
    )
    store.add_argument(
        "--store",
        metavar="DIR",
        required=True,
        help="root directory of the run store to administer",
    )
    return parser


def _run_broadcast(args: argparse.Namespace) -> int:
    if args.clock_free:
        result = run_clock_free_broadcast(n=args.n, epsilon=args.epsilon, seed=args.seed)
        summary = {
            "protocol": "clock-free broadcast",
            "success": result.success,
            "rounds": result.rounds,
            "overhead_rounds": result.overhead_rounds,
            "messages": result.messages_sent,
            "final_correct_fraction": result.final_correct_fraction,
        }
    else:
        result = solve_noisy_broadcast(n=args.n, epsilon=args.epsilon, seed=args.seed)
        summary = {
            "protocol": "noisy broadcast",
            "success": result.success,
            "rounds": result.rounds,
            "messages": result.messages_sent,
            "final_correct_fraction": result.final_correct_fraction,
            "stage1_bias": result.stage1.final_bias,
        }
    print(render_kv(summary))
    return 0 if result.success else 1


def _run_majority(args: argparse.Namespace) -> int:
    result = solve_noisy_majority_consensus(
        n=args.n,
        epsilon=args.epsilon,
        initial_set_size=args.set_size,
        majority_bias=args.bias,
        seed=args.seed,
    )
    print(
        render_kv(
            {
                "protocol": "noisy majority-consensus",
                "success": result.success,
                "rounds": result.rounds,
                "messages": result.messages_sent,
                "start_phase": result.start_phase,
                "final_correct_fraction": result.final_correct_fraction,
            }
        )
    )
    return 0 if result.success else 1


def _parse_overrides(
    raw_overrides: Sequence[str], parser: argparse.ArgumentParser
) -> Dict[str, Any]:
    """Parse repeated ``--set key=value`` flags into parameter overrides.

    Values are parsed as Python literals (numbers, tuples, lists, booleans,
    ``None``, quoted strings); anything that is not a literal stays a plain
    string.  Whether a key is a valid parameter of the chosen experiment is
    validated by :func:`repro.api.run_experiment` against the registry.
    """
    overrides: Dict[str, Any] = {}
    for raw in raw_overrides:
        key, separator, value = raw.partition("=")
        key = key.strip()
        if not separator or not key:
            parser.error(f"--set expects KEY=VALUE, got {raw!r}")
        try:
            overrides[key] = ast.literal_eval(value.strip())
        except (ValueError, SyntaxError):
            overrides[key] = value.strip()
    return overrides


def _run_experiment(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Run one experiment through :func:`repro.api.run_experiment`."""
    backend_options = {}
    if args.workers_endpoint is not None:
        backend_options["endpoint"] = args.workers_endpoint
    if args.workers_authkey is not None:
        backend_options["authkey"] = args.workers_authkey
    if backend_options and args.backend != "remote":
        parser.error("--workers-endpoint/--workers-authkey only apply to --backend remote")
    backend_options = backend_options or None
    if args.no_cache and args.store is None:
        parser.error("--no-cache only applies together with --store")
    config = ExecutionConfig(
        jobs=args.jobs,
        batch=args.batch,
        trials=args.trials,
        base_seed=args.seed,
        backend=args.backend,
        backend_options=backend_options,
        store_path=args.store,
        cache=not args.no_cache,
    )
    overrides = _parse_overrides(args.overrides, parser)
    try:
        # Validate override names up front: run_experiment would reject them
        # too, but a reserved name like ``config`` must produce the same
        # "settable parameters" message instead of a keyword collision.
        get_spec(args.experiment_id).validate_overrides(overrides)
        artifact = run_experiment(args.experiment_id, config=config, **overrides)
    except ExperimentError as error:
        parser.error(str(error))
    for note in artifact.execution.get("notes", []):
        print(f"note: {note}", file=sys.stderr)
    if args.store is not None:
        print(
            f"store: cache {artifact.execution.get('cache', '?')} "
            f"(fingerprint {artifact.fingerprint})",
            file=sys.stderr,
        )
    print(artifact.report.render())
    if args.save is not None:
        destination = save_run(artifact, args.save)
        print(f"run artifact saved to {destination}", file=sys.stderr)
    return 0


def _run_store(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Administer a run store: ``ls`` / ``show`` / ``verify`` / ``gc``."""
    store = RunStore(args.store)
    try:
        if args.action == "ls":
            if args.fingerprint is not None:
                parser.error("store ls takes no fingerprint; use show to inspect one run")
            entries = store.entries()
            if not entries:
                print(f"store at {store.root}: empty")
                return 0
            rows = [
                {
                    "fingerprint": entry["fingerprint"][:12],
                    "spec": str(entry.get("spec_id", "?")),
                    "version": str(entry.get("version", "?")),
                    "wall_s": entry.get("wall_time_seconds"),
                    "indexed": "yes" if entry["indexed"] else "NO (run gc)",
                }
                for entry in entries
            ]
            print(render_table(rows, title=f"store at {store.root}"))
            return 0
        if args.action == "show":
            if args.fingerprint is None:
                parser.error("store show needs a fingerprint (any unambiguous prefix)")
            fingerprint = store.resolve_prefix(args.fingerprint)
            artifact = store.get(fingerprint)
            print(
                render_kv(
                    {
                        "fingerprint": fingerprint,
                        "spec_id": artifact.spec_id,
                        "version": artifact.version,
                        "wall_time_seconds": artifact.wall_time_seconds,
                        "path": str(store.artifact_dir(fingerprint)),
                    }
                )
            )
            print(artifact.report.render())
            return 0
        if args.action == "verify":
            fingerprint = (
                store.resolve_prefix(args.fingerprint) if args.fingerprint else None
            )
            report = store.verify(fingerprint)
            failures = 0
            for outcome in report:
                if outcome["ok"]:
                    print(f"ok      {outcome['fingerprint']}")
                else:
                    failures += 1
                    print(f"CORRUPT {outcome['fingerprint']}: {outcome['error']}")
            print(f"{len(report)} checked, {failures} corrupt")
            return 1 if failures else 0
        if args.action == "gc":
            if args.fingerprint is not None:
                parser.error("store gc takes no fingerprint; it sweeps the whole store")
            summary = store.gc()
            print(
                render_kv(
                    {
                        "removed_stale": len(summary["removed_stale"]),
                        "removed_corrupt": len(summary["removed_corrupt"]),
                        "kept": summary["kept"],
                    }
                )
            )
            for fingerprint in summary["removed_corrupt"]:
                print(f"removed corrupt artifact {fingerprint}", file=sys.stderr)
            return 0
    except ExperimentError as error:
        parser.error(str(error))
    parser.error(f"unknown store action {args.action!r}")
    return 2


def _list_experiments() -> int:
    """Print the registry: one line per experiment, parameters indented."""
    for experiment_id in experiment_ids():
        spec = get_spec(experiment_id)
        capabilities: List[str] = []
        if spec.supports_batch:
            capabilities.append("--batch")
        if spec.supports_jobs:
            capabilities.append("--jobs")
        suffix = f"  [{' '.join(capabilities)}]" if capabilities else ""
        print(f"{experiment_id}: {spec.title}{suffix}")
        settable = ", ".join(
            f"{parameter.name}={parameter.default!r}" for parameter in spec.parameters
        )
        print(f"    parameters: {settable}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "broadcast":
        return _run_broadcast(args)
    if args.command == "majority":
        return _run_majority(args)
    if args.command == "experiment":
        return _run_experiment(args, parser)
    if args.command == "list-experiments":
        return _list_experiments()
    if args.command == "serve":
        # Imported here: the service layer (http.server, job queue) is only
        # paid for by the one subcommand that serves traffic.
        from .service import serve as run_service

        return run_service(
            args.store,
            host=args.host,
            port=args.port,
            workers=args.workers,
            verbose=not args.quiet,
            max_queued=args.max_queued,
            journal=not args.no_journal,
        )
    if args.command == "store":
        return _run_store(args, parser)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
