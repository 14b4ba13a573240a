"""Host speed: a fixed reference task timed all through a run.

The benchmark's host is a share of a machine whose speed drifts by a third
or more over minutes, and more samples in a run cannot even out a drift
that outlasts the run.  So a run also times a fixed reference task, spread
over the run, and reports each time (or rate) as it would read on a host
where one reference unit takes :data:`NOMINAL_UNIT_S`:

    normalised time = measured time × NOMINAL_UNIT_S / mean unit time

The reference is the benchmark's own code, numpy and plain Python, and
calls nothing in ``repro``, so a change to the program moves the measured
times and leaves the reference alone.
"""

from __future__ import annotations

import time
from typing import List

import numpy

#: A reference unit's time on a nominal host: about what one unit took on
#: the 2-vCPU machine where the recorded figures were measured.
NOMINAL_UNIT_S = 0.05
#: Share of a run's time spent on the reference, spread over the run.
REFERENCE_SHARE = 0.1


def reference_unit() -> float:
    """Time one unit of the reference task: the same mix the kernels run
    (random draws, masks, fancy indexing and ``bincount`` on arrays of about
    1.6 MB) plus a loop of dictionary updates in the interpreter."""
    started = time.perf_counter()
    rng = numpy.random.default_rng(7)
    for _ in range(10):
        targets = rng.integers(0, 8000, size=200_000)
        delivered = rng.random(200_000) < 0.25
        numpy.bincount(targets[delivered], minlength=8000).argmax()
    tally: dict = {}
    for i in range(75_000):
        tally[i & 1023] = tally.get(i & 1023, 0) + i
    return time.perf_counter() - started


class HostSpeed:
    """The reference units timed in one run, and the run's speed factor."""

    def __init__(self) -> None:
        self.unit_s: List[float] = []
        self.work_s = 0.0

    def after(self, work_s: float) -> None:
        """Count ``work_s`` more seconds of measured work, then run units
        until the reference has had :data:`REFERENCE_SHARE` of the time that
        it and the work took together, so the units follow the run."""
        self.work_s += work_s
        while sum(self.unit_s) < REFERENCE_SHARE * (sum(self.unit_s) + self.work_s):
            self.unit_s.append(reference_unit())

    @property
    def factor(self) -> float:
        """Multiply a time by this (divide a rate by it) to normalise it."""
        return NOMINAL_UNIT_S * len(self.unit_s) / sum(self.unit_s)
