"""Piecewise-constant and piecewise-linear scalar time signals on [t0, T].

Every control, play input/output and state coordinate in this package is one
of these two signal kinds, so the whole toolkit can work with closed-form
piecewise arithmetic instead of sampling.  Step signals use the half-open
convention (value of [t_{j-1}, t_j) at t, last interval closed), which makes
evaluation single-valued without changing any integral.

Step signals, polylines and the PiecewiseAffine results of mixed combinations
share one view, affine_view() -> (breaks, left, slope) as read-only numpy
arrays, built once per signal: the signal is left[j] + slope[j]*(t - breaks[j])
on [breaks[j], breaks[j+1]).  Scalar calls, sampling, breakpoints,
combination and the metrics are written once on that view, so s(t) and
sample(s, [t]) agree bit for bit; the binary operations read both operands
on their merged grid (merge_times), where a run of times each within
KNOT_TOL of the one before merges into its first.  The three time rules
(_check_breaks, _in_range, _check_domain) use no tolerance but KNOT_TOL.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from operator import lt

import numpy as np

# Knot times are considered equal when within this relative tolerance;
# no other snapping is ever applied.
KNOT_TOL = 1e-12


class DomainError(ValueError):
    """An argument violates a documented precondition."""


def _times_equal(a: float, b: float) -> bool:
    return abs(a - b) <= KNOT_TOL * max(1.0, abs(a), abs(b))


def _in_range(t: float, t0: float, T: float) -> bool:
    """t lies in [t0, T] or equals an end (_times_equal); False for NaN."""
    return t0 <= t <= T or _times_equal(t, t0) or _times_equal(t, T)


def _check_breaks(times, what: str) -> None:
    """DomainError unless the times are at least 2, finite and strictly increasing."""
    if len(times) < 2:
        raise DomainError(f"{what} needs at least 2 knots")
    if not all(map(math.isfinite, times)):
        raise DomainError(f"{what} times must be finite")
    if not all(map(lt, times, times[1:])):
        raise DomainError(f"{what} times must be strictly increasing")


def _check_domain(signals, message: str, t0: float | None = None) -> None:
    """DomainError(message) unless every signal lives on the first one's
    [t0, T], or on [t0, T] for the t0 given, both ends to _times_equal."""
    breaks = signals[0].affine_view()[0]
    start, T = breaks[0] if t0 is None else t0, breaks[-1]
    for s in signals:
        b = s.affine_view()[0]
        if not (_times_equal(b[0], start) and _times_equal(b[-1], T)):
            raise DomainError(f"{message}: [{b[0]}, {b[-1]}] against [{start}, {T}]")


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing subdivision t_0 < t_1 < ... < t_n = T; t_0 need not be 0."""

    points: tuple[float, ...]

    def __post_init__(self):
        pts = tuple(float(t) for t in self.points)
        object.__setattr__(self, "points", pts)
        _check_breaks(pts, "time grid")


def _piece(breaks, t: float) -> int:
    """Index of the piece of breaks holding t, half-open with the last closed
    and a stray _in_range on the end piece; DomainError if not _in_range."""
    if not _in_range(t, breaks[0], breaks[-1]):
        raise DomainError(f"t={t} outside [{breaks[0]}, {breaks[-1]}]")
    return bisect_right(breaks, t, 1, len(breaks) - 1) - 1


class _Affine:
    """The signal kinds' one view, built by _view() on first use and kept on
    the instance (no dataclass field: ==, hash, repr, replace ignore it)."""

    @cached_property
    def _arrays(self):
        arrays = self._view()
        for a in arrays:
            a.flags.writeable = False
        return arrays

    def affine_view(self):
        return self._arrays

    @property
    def horizon(self) -> float:
        return float(self._arrays[0][-1])

    def __call__(self, t: float) -> float:
        breaks, left, slope = self._arrays
        j = _piece(breaks, t)
        return float(left[j] + slope[j] * (t - breaks[j]))


@dataclass(frozen=True)
class StepSignal(_Affine):
    """Piecewise-constant signal: value values[j] on [t_j, t_{j+1})."""

    grid: TimeGrid
    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != len(self.grid.points) - 1:
            raise DomainError("need exactly one value per grid interval")
        if not all(np.isfinite(vals)):
            raise DomainError("step values must be finite")

    def _view(self):
        vals = np.asarray(self.values)
        return np.asarray(self.grid.points), vals, np.zeros_like(vals)

    def to_json(self) -> dict:
        return {"grid": list(self.grid.points), "values": list(self.values)}

    @staticmethod
    def from_json(data: dict) -> "StepSignal":
        return StepSignal(TimeGrid(tuple(data["grid"])), tuple(data["values"]))

    def csv_rows(self):
        """(t, value) sampled on the native grid."""
        return [(t, self(t)) for t in self.grid.points]


@dataclass(frozen=True)
class PolylineSignal(_Affine):
    """Continuous piecewise-linear signal given by its knots."""

    knots: tuple[tuple[float, float], ...]
    times: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kn = tuple((float(t), float(v)) for t, v in self.knots)
        object.__setattr__(self, "knots", kn)
        times = tuple(t for t, _ in kn)
        _check_breaks(times, "polyline")
        if not all(math.isfinite(v) for _, v in kn):
            raise DomainError("polyline knots must be finite")
        object.__setattr__(self, "times", times)

    def final_value(self) -> float:
        return self.knots[-1][1]

    def _view(self):
        t, v = np.array(self.times), np.array([v for _, v in self.knots])
        return t, v[:-1], (v[1:] - v[:-1]) / (t[1:] - t[:-1])

    def slopes(self) -> tuple[float, ...]:
        return tuple(self.affine_view()[2].tolist())

    def to_json(self) -> dict:
        return {"knots": [[t, v] for t, v in self.knots]}

    @staticmethod
    def from_json(data: dict) -> "PolylineSignal":
        return PolylineSignal(tuple((t, v) for t, v in data["knots"]))

    def csv_rows(self):
        return list(self.knots)


def check_times(ts, t0: float, T: float) -> np.ndarray:
    """ts as a float array; DomainError unless every time is _in_range
    [t0, T] (so also for NaN)."""
    ts = np.asarray(ts, dtype=float)
    if ts.size and not (_in_range(ts.min(), t0, T) and _in_range(ts.max(), t0, T)):
        raise DomainError(f"sample times outside [{t0}, {T}]")
    return ts


def sample(s, ts: np.ndarray) -> np.ndarray:
    """Vectorized evaluation (same conventions as scalar evaluation).

    Times outside the horizon raise DomainError, except strays within
    KNOT_TOL, which are evaluated on the nearest piece.
    """
    breaks, left, slope = s.affine_view()
    ts = check_times(ts, breaks[0], breaks[-1])
    j = np.searchsorted(breaks[1:-1], ts, side="right")
    return left[j] + slope[j] * (ts - breaks[j])


def _has_bool(x) -> bool:
    return isinstance(x, bool) or isinstance(x, list) and any(map(_has_bool, x))


def signal_from_json(data):
    """The signal whose to_json() equals data, with no JSON bools; else DomainError."""
    kinds = {("knots",): PolylineSignal, ("grid", "values"): StepSignal}
    try:
        sig = kinds[tuple(sorted(data))].from_json(data)
        if sig.to_json() != data or any(map(_has_bool, data.values())):
            raise ValueError("times and values must be JSON numbers")
        return sig
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"not a signal ({type(exc).__name__}: {exc}); expected "
                          "{'knots': [[t, v], ...]} or {'grid': [...], 'values': [...]}") from None


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
class PiecewiseAffine(_Affine):
    """Internal piecewise-affine (possibly discontinuous) representation.

    breaks[j] .. breaks[j+1] carries value pieces[j][0] + pieces[j][1]*(t-breaks[j]),
    half-open like StepSignal.
    """

    breaks: tuple[float, ...]
    pieces: tuple[tuple[float, float], ...]  # (left value, slope) per interval

    def _view(self):
        pieces = np.asarray(self.pieces).reshape(-1, 2)
        return np.asarray(self.breaks), pieces[:, 0], pieces[:, 1]


def breakpoints(s) -> tuple[float, ...]:
    return tuple(s.affine_view()[0].tolist())


def merge_times(*time_lists) -> np.ndarray:
    """Sorted union of the time lists (an array), each run of times within
    KNOT_TOL of the one before (_times_equal) merged into its first time."""
    t = np.sort(np.concatenate(time_lists))
    bound = KNOT_TOL * np.maximum(1.0, np.maximum(np.abs(t[:-1]), np.abs(t[1:])))
    return t[np.concatenate(([True], np.diff(t) > bound))]


def _point(p, n: int) -> tuple[float, ...]:
    """The n coordinates of the point p as floats; DomainError unless there
    are n of them and each is a finite number."""
    try:
        c = tuple(float(x) for x in p)
    except (TypeError, ValueError):
        c = ()
    if len(c) != n or not all(map(math.isfinite, c)):
        raise DomainError(f"a point needs {n} finite numeric coordinates, got {p!r}")
    return c


def _affine_on(view, grid: np.ndarray):
    """(left, slope) of a signal's affine_view() on each interval of grid.

    left is the value at the interval's start and slope the slope of the
    signal's piece containing the interval's midpoint, so a break of the
    signal merged away within KNOT_TOL extends its neighbour's line.
    """
    breaks, lv, sl = view
    t0 = grid[:-1]
    j = np.searchsorted(breaks[1:-1], 0.5 * (t0 + grid[1:]), side="right")
    return lv[j] + sl[j] * (t0 - breaks[j]), sl[j]


def _merged(a, b, ca: float, cb: float):
    """ca*a + cb*b on the merged grid: (times, left, slope).

    times are the merged breaks (an array); left and slope hold the value at
    the start and the slope of the sum on each merged interval (_affine_on).
    """
    _check_domain((a, b), "signals must share the horizon")
    views = a.affine_view(), b.affine_view()
    times = merge_times(views[0][0], views[1][0])
    left, slope = np.zeros(len(times) - 1), np.zeros(len(times) - 1)
    for c, view in zip((ca, cb), views):
        lv, sl = _affine_on(view, times)
        left += c * lv
        slope += c * sl
    return times, left, slope


def combine(a, b, ca: float = 1.0, cb: float = 1.0):
    """Exact ca*a + cb*b on the merged grid.

    Same-kind operands stay in their kind; a mixed pair is returned as a
    PiecewiseAffine since a polyline minus a step is discontinuous.
    """
    times, left, slope = _merged(a, b, ca, cb)
    times = tuple(times.tolist())
    if isinstance(a, StepSignal) and isinstance(b, StepSignal):
        return StepSignal(TimeGrid(times), left.tolist())
    if isinstance(a, PolylineSignal) and isinstance(b, PolylineSignal):
        end = left[-1] + slope[-1] * (times[-1] - times[-2])
        return PolylineSignal(tuple(zip(times, left.tolist() + [float(end)])))
    return PiecewiseAffine(times, tuple(zip(left.tolist(), slope.tolist())))


def l1_distance(a, b) -> float:
    """Exact integral of |a - b| over the common horizon.

    Each merged interval carries an affine difference, integrated in closed
    form with a split at its sign change.
    """
    times, c, m = _merged(a, b, 1.0, -1.0)
    tau = np.diff(times)
    d0, d1 = np.abs(c), np.abs(c + m * tau)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = -c / m  # inf or nan where m == 0, and then no split
    split = (0.0 < r) & (r < tau)
    r = np.where(split, r, 0.0)
    pieces = np.where(split, 0.5 * (d0 * r + d1 * (tau - r)), 0.5 * (d0 + d1) * tau)
    return float(pieces.sum())


def sup_distance(a, b) -> float:
    """Exact sup of |a - b|, attained at merged breakpoints (one-sided)."""
    times, c, m = _merged(a, b, 1.0, -1.0)
    d1 = c + m * np.diff(times)
    return float(max(np.abs(c).max(initial=0.0), np.abs(d1).max(initial=0.0)))
