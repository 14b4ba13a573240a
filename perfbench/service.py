"""The ``service_mixed`` workload: mixed hit/miss traffic against a served store.

The service runs as its own process (:mod:`server`), so the client threads
here never share its interpreter lock.  Set-up starts it on a fresh store
and prefills :data:`HIT_KEYS` E8 points.  Then :data:`CLIENTS` client
threads run a closed loop: 90 % of requests ask for a prefilled point (a
store hit), 10 % for a fresh seed (a miss: a queued job running the serial
E8 engine).  A miss is polled at a fixed interval, and its turnaround is
read from the job manifest's timestamps rather than from the polls.  The
timed loop runs in :data:`STRETCHES` stretches; between them the clients
stop, and the reference task of :mod:`hostspeed` is timed while the service
is idle.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median, quantiles
from typing import Any, Dict, List, Optional, Tuple

from common import agent_rounds, base_seeds, p90, scratch_dir, vm_hwm_mb
from hostspeed import HostSpeed
from tracing import layer_metrics, summarize

HERE = Path(__file__).resolve().parent
#: The E8 point every request asks for; only ``base_seed`` varies.
E8_PARAMS = {"n": 200, "epsilon": 0.3, "set_sizes": [40], "biases": [0.2], "trials": 3}
HIT_KEYS = 6
#: Each block of this many consecutive requests holds exactly one miss, at a
#: position drawn from the seed: 10 % misses with no run-to-run variance in
#: the miss count.
BLOCK = 10
CLIENTS = 2
#: The timed loop runs in this many stretches, with the clients stopped and
#: reference units timed between them (:mod:`hostspeed`).
STRETCHES = 25
POLL_S = 0.05
REQUEST_TIMEOUT_S = 30.0
JOB_TIMEOUT_S = 60.0
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


class RequestFailed(Exception):
    """A request was refused, timed out or answered wrongly."""


def call(port: int, method: str, path: str, body: Any = None) -> Tuple[int, bytes]:
    """One HTTP exchange on a fresh connection; returns (status, raw body)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {} if payload is None else {"Content-Type": "application/json"}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def run_body(base_seed: int) -> Dict[str, Any]:
    return {"experiment": "E8", "params": dict(E8_PARAMS, base_seed=base_seed)}


class Server:
    """The service subprocess on a fresh store; ``stop`` drains it."""

    def __init__(self, traced: bool) -> None:
        self.directory = scratch_dir("service-")
        self.spans_path = self.directory / "spans.json" if traced else None
        command = [sys.executable, str(HERE / "server.py"), "--store", str(self.directory / "store")]
        if self.spans_path is not None:
            command += ["--spans", str(self.spans_path)]
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=HERE.parent)
        try:
            self.port = self._read_port()
        except BaseException:
            self.close()
            raise

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.process.stdout], [], [], START_TIMEOUT_S)
        line = self.process.stdout.readline() if ready else ""
        match = re.search(r"http://[^\s:]+:(\d+)", line)
        if match is None:
            raise RuntimeError(f"service did not announce its port (got {line!r})")
        return int(match.group(1))

    def stop(self) -> Tuple[float, List[Any]]:
        """SIGTERM drain; returns (peak RSS in MiB, spans of a traced server)."""
        peak_mb = vm_hwm_mb(self.process.pid)
        self.process.send_signal(signal.SIGTERM)
        self.process.communicate(timeout=STOP_TIMEOUT_S)
        spans: List[Any] = []
        if self.spans_path is not None:
            with open(self.spans_path, encoding="utf-8") as handle:
                spans = json.load(handle)
        self.close()
        return peak_mb, spans

    def close(self) -> None:
        """Kill the process if it still runs and remove its files."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.communicate()
        shutil.rmtree(self.directory, ignore_errors=True)


def submit(port: int, base_seed: int) -> str:
    """Submit a point that is not stored; returns its job id."""
    status, raw = call(port, "POST", "/v1/runs", run_body(base_seed))
    if status != 202:
        raise RequestFailed(f"miss submission answered {status}: {raw[:200]!r}")
    return json.loads(raw)["job_id"]


def wait_for(port: int, job_id: str) -> Tuple[Dict[str, Any], int]:
    """Poll a job every :data:`POLL_S` until it ends.

    Returns the final job body (manifest plus result) and the poll count.
    """
    deadline = time.perf_counter() + JOB_TIMEOUT_S
    polls = 0
    while True:
        time.sleep(POLL_S)
        status, raw = call(port, "GET", f"/v1/runs/{job_id}")
        polls += 1
        if status != 200:
            raise RequestFailed(f"poll of {job_id} answered {status}")
        body = json.loads(raw)
        if body["status"] in ("done", "failed", "cancelled"):
            break
        if time.perf_counter() > deadline:
            raise RequestFailed(f"job {job_id} still {body['status']} after {JOB_TIMEOUT_S} s")
    if body["status"] != "done" or body["cache"] != "miss":
        raise RequestFailed(f"job {job_id} ended {body['status']} with cache {body['cache']}")
    return body, polls


def prefill(port: int, hit_seeds: List[int]) -> List[str]:
    """Compute the hit set; returns each point's rendered report.

    All points are submitted at once, so only the last job's poll rounds
    the set-up time up to the poll interval.
    """
    jobs = [submit(port, seed) for seed in hit_seeds]
    return [wait_for(port, job_id)[0]["result"]["rendered"] for job_id in jobs]


class Traffic:
    """The closed loop: whether request ``k`` is a hit or a miss, and which
    point it asks for, is drawn from the workload seed, whichever client
    thread sends it."""

    def __init__(self, port: int, seed: int, reference: List[str],
                 count: Optional[int]) -> None:
        self.port = port
        self.seed = seed
        self.reference = reference
        self.hit_seeds = hit_seeds_of(seed)
        #: Clients send no new request after this time (set per stretch).
        self.deadline: Optional[float] = None
        self.count = count
        self.miss_seed_base = 2**31 + random.Random(f"perfbench-miss:{seed}").randrange(2**30)
        self._lock = threading.Lock()
        self._next = 0
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.hit_latency_s: List[float] = []
        self.hit_bytes: List[int] = []
        self.turnaround_s: List[float] = []
        self.queue_wait_s: List[float] = []
        self.job_run_s: List[float] = []
        self.polls = 0
        self.misses_submitted = 0
        self.agent_rounds = 0
        self.wall_s = 0.0

    def run(self) -> None:
        start = time.perf_counter()
        clients = [threading.Thread(target=self._client) for _ in range(CLIENTS)]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        self.wall_s += time.perf_counter() - start

    def _client(self) -> None:
        while True:
            with self._lock:
                k = self._next
                if self.count is not None and k >= self.count:
                    return
                if self.deadline is not None and k > 0 and time.perf_counter() >= self.deadline:
                    return
                self._next += 1
            try:
                if k % BLOCK == random.Random(f"perfbench-block:{self.seed}:{k // BLOCK}").randrange(BLOCK):
                    self._miss(self.miss_seed_base + k)
                else:
                    self._hit(random.Random(f"perfbench-hit:{self.seed}:{k}").randrange(HIT_KEYS))
            except Exception as error:  # a failed request counts, the loop goes on
                with self._lock:
                    self.attempted += 1
                    self.failed += 1
                    self.errors.append(f"request {k}: {type(error).__name__}: {error}")

    def _hit(self, key: int) -> None:
        started = time.perf_counter()
        status, raw = call(self.port, "POST", "/v1/runs", run_body(self.hit_seeds[key]))
        latency = time.perf_counter() - started
        if status != 200:
            raise RequestFailed(f"hit answered {status}")
        body = json.loads(raw)
        if body["cache"] != "hit" or body["result"]["rendered"] != self.reference[key]:
            raise RequestFailed(f"hit on key {key} does not match the report its miss produced")
        with self._lock:
            self.attempted += 1
            self.hit_latency_s.append(latency)
            self.hit_bytes.append(len(raw))

    def _miss(self, base_seed: int) -> None:
        with self._lock:
            self.misses_submitted += 1
        body, polls = wait_for(self.port, submit(self.port, base_seed))
        result = body["result"]
        rounds = agent_rounds(result["report"], n=result["parameters"]["n"],
                              trials=result["parameters"]["trials"])
        with self._lock:
            self.attempted += 1
            self.turnaround_s.append(body["finished_at"] - body["submitted_at"])
            self.queue_wait_s.append(body["started_at"] - body["submitted_at"])
            self.job_run_s.append(body["finished_at"] - body["started_at"])
            self.polls += polls
            self.agent_rounds += rounds

    def check_metrics(self) -> None:
        """``/metrics`` counts exactly one miss per distinct miss fingerprint:
        the prefilled points plus every miss this loop submitted."""
        status, raw = call(self.port, "GET", "/metrics")
        expected = HIT_KEYS + self.misses_submitted
        misses = json.loads(raw)["cache"]["miss"] if status == 200 else None
        if misses != expected:
            self.errors.append(f"/metrics counts {misses} misses, expected {expected}")
            self.failed += 1


def hit_seeds_of(seed: int) -> List[int]:
    return base_seeds(seed, HIT_KEYS)


def set_up(traced: bool, seed: int) -> Tuple[Server, List[str]]:
    """Start the service on a fresh store and prefill the hit set."""
    server = Server(traced)
    try:
        return server, prefill(server.port, hit_seeds_of(seed))
    except BaseException:
        server.close()
        raise


def timed_set_up(seed: int, speed: HostSpeed) -> float:
    """The time of one untraced set-up; the server is then closed."""
    started = time.perf_counter()
    server, _ = set_up(False, seed)
    elapsed = time.perf_counter() - started
    server.close()
    speed.after(elapsed)
    return elapsed


def _traffic(seed: int, traced: bool, seconds: Optional[float], count: Optional[int],
             speed: Optional[HostSpeed] = None) -> Dict[str, Any]:
    """Set up, run the loop, drain.  A loop of ``seconds`` runs in
    :data:`STRETCHES` stretches with reference units for ``speed`` between
    them; a loop of ``count`` requests runs in one go."""
    server = None
    try:
        started = time.perf_counter()
        server, reference = set_up(traced, seed)
        setup_s = time.perf_counter() - started
        traffic = Traffic(server.port, seed, reference, count)
        if seconds is None:
            traffic.run()
        else:
            speed.after(setup_s)
            start = time.perf_counter()
            for stretch in range(1, STRETCHES + 1):
                traffic.deadline = start + seconds * stretch / STRETCHES
                before_s = traffic.wall_s
                traffic.run()
                speed.after(traffic.wall_s - before_s)
        traffic.check_metrics()
        peak_mb, spans = server.stop()
        server = None
    finally:
        if server is not None:
            server.close()
    return {"traffic": traffic, "setup_s": setup_s, "peak_mb": peak_mb, "spans": spans}


def _outcome(traffic: Traffic) -> Dict[str, Any]:
    return {"attempted": traffic.attempted, "failed": traffic.failed, "errors": traffic.errors}


def run_untraced(seed: int, seconds: float, setups: int, speed: HostSpeed) -> Dict[str, Any]:
    """The end-to-end measurement: the closed loop for ``seconds``.

    ``setup_s`` is the median of ``setups`` set-ups: the one that serves the
    loop, about half the others before it and the rest after the drain, so
    that the samples span the run.
    """
    before = [timed_set_up(seed, speed) for _ in range(setups // 2)]
    result = _traffic(seed, False, seconds, None, speed)
    setup_s = before + [result["setup_s"]]
    setup_s += [timed_set_up(seed, speed) for _ in range(setups - len(setup_s))]
    traffic = result["traffic"]
    hits = traffic.hit_latency_s or [float("nan")]
    turnaround = traffic.turnaround_s or [float("nan")]
    metrics = {
        "setup_s": median(setup_s),
        "agent_rounds_per_s": traffic.agent_rounds / traffic.wall_s,
        "sweep_s_p50": median(traffic.job_run_s or [float("nan")]),
        "requests_per_s": (traffic.attempted - traffic.failed) / traffic.wall_s,
        "latency_ms_p50": 1000.0 * median(hits),
        "miss_turnaround_s_p50": median(turnaround),
        "miss_turnaround_s_p90": p90(turnaround),
        "peak_rss_mb": result["peak_mb"],
    }
    notes = {"hits": len(traffic.hit_latency_s), "misses": len(traffic.turnaround_s),
             "setup_samples": len(setup_s)}
    return {**_outcome(traffic), "metrics": metrics, "notes": notes}


def traced_requests(seconds: float) -> int:
    """Requests per phase of the traced run: fixed work, sized from
    ``--seconds`` so that both phases together take about that long."""
    return max(50, round(seconds * 12))


def run_traced(seed: int, seconds: float) -> Dict[str, Any]:
    """The per-layer measurement: the same fixed request list against an
    untraced server and then a traced one, each on a fresh store."""
    count = traced_requests(seconds)
    plain = _traffic(seed, False, None, count)["traffic"]
    result = _traffic(seed, True, None, count)
    traffic, spans = result["traffic"], result["spans"]
    submit_hits = [span[3] - span[2] for span in spans
                   if span[1] == "service.submit_run" and span[6] and span[6]["hits"]]
    misses = max(1, len(traffic.turnaround_s))
    metrics = layer_metrics(summarize(spans))
    metrics.update({
        "service.http_overhead_ms_p50": 1000.0 * (median(traffic.hit_latency_s) - median(submit_hits)),
        "service.hit_latency_ms_p99":
            1000.0 * quantiles(traffic.hit_latency_s, n=100, method="inclusive")[98],
        "service.hit_bytes": sum(traffic.hit_bytes) / max(1, len(traffic.hit_bytes)),
        "service.queue_wait_s_p50": median(traffic.queue_wait_s),
        "service.job_run_s_p50": median(traffic.job_run_s),
        "service.polls_per_miss": traffic.polls / misses,
        "workload.agent_rounds": traffic.agent_rounds,
        "trace.overhead_s": traffic.wall_s - plain.wall_s,
        "trace.overhead_frac": traffic.wall_s / plain.wall_s - 1.0,
    })
    outcome = _outcome(traffic)
    outcome["attempted"] += plain.attempted
    outcome["failed"] += plain.failed
    outcome["errors"] += plain.errors
    notes = {"requests_per_phase": count, "spans": len(spans)}
    return {**outcome, "metrics": metrics, "notes": notes}
