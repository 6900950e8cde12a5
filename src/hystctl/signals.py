"""Piecewise-constant and piecewise-linear scalar time signals on [0, T].

Every control, play input/output and state coordinate in this package is one
of these two signal kinds, so the whole toolkit can work with closed-form
piecewise arithmetic instead of sampling.  Step signals use the half-open
convention (value of [t_{j-1}, t_j) at t, last interval closed), which makes
evaluation single-valued without changing any integral.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

# Knot times are considered equal when within this relative tolerance;
# no other snapping is ever applied.
KNOT_TOL = 1e-12


class DomainError(ValueError):
    """An argument violates a documented precondition."""


def _times_equal(a: float, b: float) -> bool:
    return abs(a - b) <= KNOT_TOL * max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing subdivision 0 = t_0 < t_1 < ... < t_n = T."""

    points: tuple[float, ...]

    def __post_init__(self):
        pts = tuple(float(t) for t in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise DomainError("time grid needs at least 2 points")
        if not all(np.isfinite(pts)):
            raise DomainError("time grid points must be finite")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise DomainError("time grid points must be strictly increasing")

    @property
    def horizon(self) -> float:
        return self.points[-1]

    @property
    def n_intervals(self) -> int:
        return len(self.points) - 1

    def interval_of(self, t: float) -> int:
        """Index of the interval containing t (half-open, last closed)."""
        if t < self.points[0] or t > self.points[-1]:
            raise DomainError(f"t={t} outside [0, {self.points[-1]}]")
        j = bisect_right(self.points, t) - 1
        return min(j, self.n_intervals - 1)


@dataclass(frozen=True)
class StepSignal:
    """Piecewise-constant signal: value values[j] on [t_j, t_{j+1})."""

    grid: TimeGrid
    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != self.grid.n_intervals:
            raise DomainError("need exactly one value per grid interval")
        if not all(np.isfinite(vals)):
            raise DomainError("step values must be finite")

    @property
    def horizon(self) -> float:
        return self.grid.horizon

    def __call__(self, t: float) -> float:
        return self.values[self.grid.interval_of(t)]

    def to_json(self) -> dict:
        return {"grid": list(self.grid.points), "values": list(self.values)}

    @staticmethod
    def from_json(data: dict) -> "StepSignal":
        return StepSignal(TimeGrid(tuple(data["grid"])), tuple(data["values"]))

    def csv_rows(self):
        """(t, value) sampled on the native grid."""
        return [(t, self(t)) for t in self.grid.points]


@dataclass(frozen=True)
class PolylineSignal:
    """Continuous piecewise-linear signal given by its knots."""

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        kn = tuple((float(t), float(v)) for t, v in self.knots)
        object.__setattr__(self, "knots", kn)
        if len(kn) < 2:
            raise DomainError("polyline needs at least 2 knots")
        times = [t for t, _ in kn]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise DomainError("polyline knot times must be strictly increasing")
        if not all(np.isfinite(t) and np.isfinite(v) for t, v in kn):
            raise DomainError("polyline knots must be finite")

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.knots)

    @property
    def horizon(self) -> float:
        return self.knots[-1][0]

    def initial_value(self) -> float:
        return self.knots[0][1]

    def final_value(self) -> float:
        return self.knots[-1][1]

    def __call__(self, t: float) -> float:
        times = self.times
        if t < times[0] or t > times[-1]:
            raise DomainError(f"t={t} outside [{times[0]}, {times[-1]}]")
        j = min(bisect_right(times, t) - 1, len(times) - 2)
        (t0, v0), (t1, v1) = self.knots[j], self.knots[j + 1]
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)

    def slopes(self) -> tuple[float, ...]:
        return tuple(
            (v1 - v0) / (t1 - t0)
            for (t0, v0), (t1, v1) in zip(self.knots, self.knots[1:])
        )

    def to_json(self) -> dict:
        return {"knots": [[t, v] for t, v in self.knots]}

    @staticmethod
    def from_json(data: dict) -> "PolylineSignal":
        return PolylineSignal(tuple((t, v) for t, v in data["knots"]))

    def csv_rows(self):
        return list(self.knots)


Signal = StepSignal | PolylineSignal


def evaluate(s, t: float) -> float:
    return s(t)


def sample(s, ts: np.ndarray) -> np.ndarray:
    """Vectorized evaluation (same conventions as scalar evaluation).

    Times may stray outside the horizon by KNOT_TOL only (they are clamped).
    """
    ts = np.asarray(ts, dtype=float)
    knots = np.asarray(breakpoints(s))
    t0, T = knots[0], knots[-1]
    if ts.size and not (
        t0 - KNOT_TOL * max(1.0, abs(t0)) <= ts.min()
        and ts.max() <= T + KNOT_TOL * max(1.0, abs(T))
    ):
        raise DomainError(f"sample times outside [{t0}, {T}]")
    if isinstance(s, PolylineSignal):
        vals = np.asarray([v for _, v in s.knots])
        return np.interp(ts, knots, vals)
    idx = np.searchsorted(knots, ts, side="right") - 1
    idx = np.clip(idx, 0, len(knots) - 2)
    if isinstance(s, StepSignal):
        return np.asarray(s.values)[idx]
    lv = np.asarray([p[0] for p in s.pieces])
    sl = np.asarray([p[1] for p in s.pieces])
    return lv[idx] + sl[idx] * (ts - knots[idx])


def signal_to_json(s) -> dict:
    return s.to_json()


def signal_from_json(data: dict):
    if "knots" in data:
        return PolylineSignal.from_json(data)
    return StepSignal.from_json(data)


def load_signal(path: str):
    with open(path) as fh:
        return signal_from_json(json.load(fh))


# ---------------------------------------------------------------------------
# calculus

def antiderivative(s: StepSignal, x0: float = 0.0) -> PolylineSignal:
    """Polyline x with x(0)=x0 and slope s on each grid interval."""
    knots = [(s.grid.points[0], float(x0))]
    acc = float(x0)
    for (t0, t1), v in zip(zip(s.grid.points, s.grid.points[1:]), s.values):
        acc += v * (t1 - t0)
        knots.append((t1, acc))
    return PolylineSignal(tuple(knots))


def derivative(p: PolylineSignal) -> StepSignal:
    """Slope staircase; antiderivative(derivative(p), p(0)) == p knot-wise."""
    return StepSignal(TimeGrid(p.times), p.slopes())


# ---------------------------------------------------------------------------
# merged-grid combination and metrics

@dataclass(frozen=True)
class PiecewiseAffine:
    """Internal piecewise-affine (possibly discontinuous) representation.

    breaks[j] .. breaks[j+1] carries value pieces[j][0] + pieces[j][1]*(t-breaks[j]),
    half-open like StepSignal.
    """

    breaks: tuple[float, ...]
    pieces: tuple[tuple[float, float], ...]  # (left value, slope) per interval

    @property
    def horizon(self) -> float:
        return self.breaks[-1]

    def __call__(self, t: float) -> float:
        if t < self.breaks[0] or t > self.breaks[-1]:
            raise DomainError(f"t={t} outside [0, {self.breaks[-1]}]")
        j = min(bisect_right(self.breaks, t) - 1, len(self.breaks) - 2)
        lv, sl = self.pieces[j]
        return lv + sl * (t - self.breaks[j])


def breakpoints(s) -> tuple[float, ...]:
    if isinstance(s, StepSignal):
        return s.grid.points
    if isinstance(s, PolylineSignal):
        return s.times
    if isinstance(s, PiecewiseAffine):
        return s.breaks
    raise TypeError(f"not a signal: {type(s)}")


def merge_times(*time_lists) -> tuple[float, ...]:
    merged = sorted(t for ts in time_lists for t in ts)
    out = [merged[0]]
    for t in merged[1:]:
        if not _times_equal(t, out[-1]):
            out.append(t)
    return tuple(out)


def _piece_on(s, t0: float, t1: float) -> tuple[float, float]:
    """(value at t0+, slope) of s on a subinterval of one of its pieces."""
    tm = 0.5 * (t0 + t1)
    if isinstance(s, StepSignal):
        return s(tm), 0.0
    if isinstance(s, PolylineSignal):
        v0, v1 = s(t0), s(t1)
        return v0, (v1 - v0) / (t1 - t0)
    if isinstance(s, PiecewiseAffine):
        j = min(bisect_right(s.breaks, tm) - 1, len(s.breaks) - 2)
        lv, sl = s.pieces[j]
        return lv + sl * (t0 - s.breaks[j]), sl
    raise TypeError(f"not a signal: {type(s)}")


def _check_common_horizon(a, b) -> None:
    if not _times_equal(a.horizon, b.horizon):
        raise DomainError(
            f"signals live on different horizons: {a.horizon} vs {b.horizon}"
        )


def combine(a, b, ca: float = 1.0, cb: float = 1.0):
    """Exact ca*a + cb*b on the merged grid.

    Same-kind operands stay in their kind; a mixed pair is returned as a
    PiecewiseAffine since a polyline minus a step is discontinuous.
    """
    _check_common_horizon(a, b)
    times = merge_times(breakpoints(a), breakpoints(b))
    if isinstance(a, StepSignal) and isinstance(b, StepSignal):
        vals = tuple(
            ca * a(0.5 * (t0 + t1)) + cb * b(0.5 * (t0 + t1))
            for t0, t1 in zip(times, times[1:])
        )
        return StepSignal(TimeGrid(times), vals)
    if isinstance(a, PolylineSignal) and isinstance(b, PolylineSignal):
        return PolylineSignal(tuple((t, ca * a(t) + cb * b(t)) for t in times))
    pieces = []
    for t0, t1 in zip(times, times[1:]):
        va, sa = _piece_on(a, t0, t1)
        vb, sb = _piece_on(b, t0, t1)
        pieces.append((ca * va + cb * vb, ca * sa + cb * sb))
    return PiecewiseAffine(times, tuple(pieces))


def add(a, b):
    return combine(a, b, 1.0, 1.0)


def subtract(a, b):
    return combine(a, b, 1.0, -1.0)


def l1_distance(a, b) -> float:
    """Exact integral of |a - b| over the common horizon.

    Each merged interval carries an affine difference, integrated in closed
    form with a split at its sign change.
    """
    _check_common_horizon(a, b)
    times = merge_times(breakpoints(a), breakpoints(b))
    total = 0.0
    for t0, t1 in zip(times, times[1:]):
        va, sa = _piece_on(a, t0, t1)
        vb, sb = _piece_on(b, t0, t1)
        c, m = va - vb, sa - sb
        tau = t1 - t0
        d0, d1 = c, c + m * tau
        if m != 0.0:
            r = -c / m
            if 0.0 < r < tau:
                total += 0.5 * (abs(d0) * r + abs(d1) * (tau - r))
                continue
        total += 0.5 * (abs(d0) + abs(d1)) * tau
    return total


def sup_distance(a, b) -> float:
    """Exact sup of |a - b|, attained at merged breakpoints (one-sided)."""
    _check_common_horizon(a, b)
    times = merge_times(breakpoints(a), breakpoints(b))
    best = 0.0
    for t0, t1 in zip(times, times[1:]):
        va, sa = _piece_on(a, t0, t1)
        vb, sb = _piece_on(b, t0, t1)
        c, m = va - vb, sa - sb
        best = max(best, abs(c), abs(c + m * (t1 - t0)))
    return best
