"""Host speed, read from a fixed reference kernel the program never runs.

The 2-vCPU host the benchmark was sized on changes speed by up to 2x over
minutes, and CPU time moves with wall time, so a run's timings say as much
about the host as about the program.  Each run therefore also times a
reference kernel: a numpy sort and a pure-Python loop on fixed inputs,
the two kinds of work the program does.  It runs only while the system
under test is idle (between ``fig21-cold`` passes, between set-ups and
after a served window), so the program cannot change its speed.

The timed end-to-end metrics of CPU-bound work are reported at reference
speed: a time is divided by :meth:`HostSpeed.factor` and a rate multiplied
by it, where the factor is the run's median reference time over
:data:`REF_MS`.  The raw figures are printed beside them, and
``host.ref_ms`` records the median.
"""

from __future__ import annotations

import time

import numpy as np

from .layers import quantile

#: Nominal time of one reference call, in ms; a host that takes this long
#: reports timings unscaled.
REF_MS = 2.0
#: Reference calls made after each set-up.
CALLS_PER_SETUP = 20
#: Reference calls made after each ``fig21-cold`` pass, outside the window.
CALLS_PER_PASS = 2
#: Seconds of reference calls after a served window.
AFTER_WINDOW_S = 1.0

_SORT_INPUT = np.random.default_rng(0).random(100_000)
_LOOP = 20_000


def reference_call_ns() -> int:
    """Time one reference call."""
    t0 = time.perf_counter_ns()
    np.sort(_SORT_INPUT)
    x = 0
    for j in range(_LOOP):
        x += j * j
    return time.perf_counter_ns() - t0


class HostSpeed:
    """Reference-call samples of one run."""

    def __init__(self):
        self.samples: list[int] = []

    def sample(self, calls: int) -> None:
        self.samples.extend(reference_call_ns() for _ in range(calls))

    def sample_for(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self.samples.append(reference_call_ns())

    def ref_ms(self) -> float:
        return quantile(self.samples, 0.5) / 1e6

    def factor(self) -> float:
        """How many times slower than nominal the host ran (1 with no samples)."""
        return self.ref_ms() / REF_MS if self.samples else 1.0
