"""Pass timing scaled by an interleaved reference workload.

The machine this benchmark was tuned on is a 2-vCPU VM whose throughput
drifts with load on its host: the same pass takes anywhere from 0.7x to 1.3x
its typical time within one process.  Process CPU time drifts the same way,
so it is no help.  What does help is to time a fixed reference slice next to
the work and scale the work by (nominal slice time / measured slice time):
the slowdown that hits the program also hits the slice next to it.  The
reference is code of the benchmark's own, so a change to the program changes
the work timed and leaves the yardstick alone.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

# Median wall time of one reference_slice() on the tuning machine (2-vCPU
# Intel Xeon VM at 2.0 GHz, Python 3.11, numpy 2.4).  Scaled times are
# "seconds on that machine at its typical speed".
REF_SLICE_S = 0.002


@dataclass(frozen=True)
class _Relay:
    lo: float
    hi: float
    out: int


_KNOTS = [(0.01 * i, (37 * i % 101) / 50.0) for i in range(1000)]
_X = np.linspace(0.0, 1.0, 128)


def reference_slice() -> float:
    """About 2 ms of the program's own kinds of work: rebuilding a tuple of
    knot times and bisecting it, replacing fields of a frozen dataclass,
    tuple-building RK4 steps and small numpy calls, plus a quarter of plain
    integer arithmetic.

    Host load slows these patterns by different amounts.  Measured as the
    log-log elasticity of pass time against the time of each part, a tight
    integer loop slows least (1.5 on every workload) and the other parts
    slow a little more than `long_signals` (0.72-0.90), about as much as
    `paper_suite` (0.88-1.07) and a little less than `relay_events`
    (1.07-1.24).  The integer quarter brings the blend close to 1 on the
    signals workload without moving the other two much.
    """
    acc = 0.0
    n = 0
    for i in range(6000):
        n += i * i % 7
    for q in range(8):
        times = tuple(t for t, _ in _KNOTS)
        acc += _KNOTS[bisect_right(times, 1.3 + q)][1]
    r = _Relay(-0.5, 0.5, 1)
    for _ in range(300):
        r = replace(r, out=-r.out)
    z, h = (0.1, 0.2, 0.3), 1e-3
    for _ in range(120):
        k1 = (1.0, 0.5, z[0])
        k2 = (1.0, 0.5, z[0] + 0.5 * h * k1[0])
        z = tuple(a + (h / 6.0) * (b + 2.0 * c) for a, b, c in zip(z, k1, k2))
    for _ in range(30):
        acc += float(np.interp(_X * 0.9, _X, _X).sum())
    return acc + n + r.out + z[2]


class PassClock:
    """Times one pass as alternating reference slices and work segments.

    A slice runs before and after every operation and, when `tick` is set,
    every `tick` seconds during it (from SIGALRM, between bytecodes), so a
    long operation is scaled by the speed measured while it ran.  Each work
    segment is scaled by the mean of the two slices around it.
    """

    def __init__(self, tick: float | None = None):
        self.tick = tick
        self.segments: list[float] = []
        self.refs: list[float] = []  # always one more than segments
        self._mark = 0.0
        self._in_op = False
        if tick:
            signal.signal(signal.SIGALRM, self._on_alarm)

    def _slice(self) -> None:
        t0 = time.perf_counter()
        reference_slice()
        t1 = time.perf_counter()
        self.refs.append(t1 - t0)
        self._mark = t1

    def _on_alarm(self, signum, frame) -> None:
        if self._in_op:
            self.segments.append(time.perf_counter() - self._mark)
            self._slice()

    def run(self, fn):
        """Time fn(), bracketed by reference slices; return fn's result."""
        if not self.refs:
            self._slice()
        self._mark = time.perf_counter()
        self._in_op = True
        if self.tick:
            signal.setitimer(signal.ITIMER_REAL, self.tick, self.tick)
        try:
            return fn()
        finally:
            if self.tick:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._in_op = False
            self.segments.append(time.perf_counter() - self._mark)
            self._slice()

    @property
    def work(self) -> float:
        return sum(self.segments)

    @property
    def factor(self) -> float:
        """Nominal over measured reference time (>1 when the machine is fast)."""
        return len(self.refs) * REF_SLICE_S / sum(self.refs)

    @property
    def scaled(self) -> float:
        return sum(
            w * 2.0 * REF_SLICE_S / (a + b)
            for w, a, b in zip(self.segments, self.refs, self.refs[1:])
        )


def speed_factor(repeats: int = 5) -> float:
    """Scale factor from a few reference slices in a row (median)."""
    reference_slice()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_slice()
        times.append(time.perf_counter() - t0)
    times.sort()
    return REF_SLICE_S / times[len(times) // 2]
