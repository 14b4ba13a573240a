"""Helpers shared by the benchmark's workloads: paths, statistics, memory."""

from __future__ import annotations

import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence

#: Root of the checkout: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Scratch space for stores, span files and the like, inside the checkout.
WORK = ROOT / ".perfbench_work"


def add_src_to_path() -> None:
    """Make ``import repro`` load the checkout's sources, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {SRC / 'repro'}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def scratch_dir(prefix: str) -> Path:
    """A fresh directory under :data:`WORK`; the caller removes it."""
    WORK.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))


def base_seeds(seed: int, count: int) -> List[int]:
    """``count`` experiment base seeds derived from the workload seed."""
    rng = random.Random(f"perfbench:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(count)]


def p90(values: Sequence[float]) -> float:
    """The 90th percentile by linear interpolation between samples; the lone
    value of a one-sample list, which ``statistics.quantiles`` refuses."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for pid {pid}")


def agent_rounds(report: Dict, *, trials: int, n: int = 0) -> int:
    """Σ over report rows of ``mean_rounds × n × trials``.

    ``report`` is a report as a dict (``ExperimentReport.to_dict``); a row's
    own ``n`` wins over the run-wide ``n``.
    """
    total = 0.0
    for row in report["rows"]:
        total += row["mean_rounds"] * row.get("n", n) * trials
    return int(round(total))


def provenance() -> Dict[str, object]:
    """What the numbers were measured on: code version, CPUs, interpreter."""
    import numpy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


