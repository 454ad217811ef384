"""Wall time scaled to a reference host speed.

A shared host runs the benchmark at changing speeds: on a 2-core VM a fixed
loop ran up to 1.7x slower in phases of a second to several minutes, and the
process's CPU time tracked its wall time, so no clock of the process sees the
change.  :class:`ScaledClock` measures it instead.  At every mark it runs a
fixed probe (step loops over numpy arrays of 512 and 4096 elements, like the
engines' inner loops, so that both interpreter-bound and array-bound code are
represented) and scales the wall time since the previous
mark by ``PROBE_REF_S`` over the mean of the probe times at both ends.  A
segment run in a slow phase is scaled down by as much as the probe slowed.

The probe does not call the library, so a change to the library moves the
scaled times exactly as it moves the wall times.  Probe time is excluded from
both.  The scaled value is in seconds at the reference speed, at which one
probe takes ``PROBE_REF_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: probe time at the reference speed.  On a 2-core Intel Xeon VM the probe
#: took 1.5 ms in the host's fast phases and 2.3 ms in its slow ones.
PROBE_REF_S = 2.0e-3

#: probes per mark; their median is the mark's probe time, so one interrupt
#: does not skew it
PROBE_REPEATS = 3


def _steps(width: int, n: int) -> None:
    rng = np.random.Generator(np.random.PCG64(12345))
    x = np.zeros(width)
    for _ in range(n):
        z = rng.standard_normal(width)
        x = x + 0.01 * np.sin(x) + 0.1 * z
        x = np.where(np.abs(x) > 3.0, 0.0, x)


def _probe_once() -> float:
    t0 = time.perf_counter()
    _steps(512, 30)
    _steps(4096, 8)
    return time.perf_counter() - t0


def probe() -> float:
    """Median wall time of ``PROBE_REPEATS`` runs of the probe, in seconds."""
    return statistics.median(_probe_once() for _ in range(PROBE_REPEATS))


class ScaledClock:
    """Sum of wall-time segments, each scaled to the reference speed.

    ``start()`` opens the first segment; each ``mark()`` closes the open
    segment, returns its scaled seconds and opens the next one.
    """

    def __init__(self):
        self.scaled = 0.0
        self.wall = 0.0
        self.probes: list[float] = []
        self._t = None
        self._p = None

    def start(self) -> None:
        self._p = probe()
        self.probes.append(self._p)
        self._t = time.perf_counter()

    def mark(self) -> float:
        seg = time.perf_counter() - self._t
        p = probe()
        self.probes.append(p)
        scaled = seg * PROBE_REF_S / (0.5 * (self._p + p))
        self.wall += seg
        self.scaled += scaled
        self._p = p
        self._t = time.perf_counter()
        return scaled
