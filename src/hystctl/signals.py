"""Piecewise-constant and piecewise-linear scalar time signals on [t0, T].

Every control, play input/output and state coordinate in this package is one
of these signal kinds, so the whole toolkit can work with closed-form
piecewise arithmetic instead of sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import lt

import numpy as np

# Knot times are considered equal when within this relative tolerance, the
# one tolerance of the time rules (_check_breaks, _in_range, _check_domain);
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
        pts = tuple(map(float, self.points))
        object.__setattr__(self, "points", pts)
        _check_breaks(pts, "time grid")


def _read_only(arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _built(cls, view=None, **fields):
    """cls with these __dict__ entries, without __post_init__: bank_trace's eager fields,
    built from its lists, or an operator output's view (its affine_view()) and a polyline's
    _knot_values, from which its tuple fields are made at first read (_lazy_fields)."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    if view is not None:
        obj.__dict__["_arrays"] = _read_only(view)
    return obj


class _Affine:
    """The signal kinds' one view, affine_view() -> (breaks, left, slope) as
    read-only numpy arrays: the signal is left[j] + slope[j]*(t - breaks[j])
    on [breaks[j], breaks[j+1]).  _view() builds it on first use unless _built
    seeded it; it is kept on the instance (no dataclass field: ==, hash, repr, replace ignore it)."""

    @cached_property
    def _arrays(self):
        return _read_only(self._view())

    def affine_view(self):
        return self._arrays

    @property
    def horizon(self) -> float:
        return float(self._arrays[0][-1])

    def __call__(self, t: float) -> float:
        return float(sample(self, [t])[0])


@dataclass(frozen=True)
class StepSignal(_Affine):
    """Piecewise-constant signal: value values[j] on [t_j, t_{j+1}), the last
    interval closed."""

    grid: TimeGrid
    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(map(float, self.values))
        object.__setattr__(self, "values", vals)
        if len(vals) != len(self.grid.points) - 1:
            raise DomainError("need exactly one value per grid interval")
        if not all(map(math.isfinite, vals)):
            raise DomainError("step values must be finite")

    def _view(self):
        vals = np.asarray(self.values)
        return np.asarray(self.grid.points), vals, np.zeros_like(vals)

    def to_json(self) -> dict:
        return {"grid": list(self.grid.points), "values": list(self.values)}

    def csv_rows(self):
        """(t, value) at each grid point, the last one repeating the last value."""
        return list(zip(self.grid.points, self.values + self.values[-1:]))


@dataclass(frozen=True)
class PolylineSignal(_Affine):
    """Continuous piecewise-linear signal given by its knots."""

    knots: tuple[tuple[float, float], ...]
    times: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            kn = tuple((float(t), float(v)) for t, v in self.knots)
        except (TypeError, ValueError):
            raise DomainError("polyline knots must be (t, v) pairs of numbers") from None
        object.__setattr__(self, "knots", kn)
        times = tuple(t for t, _ in kn)
        _check_breaks(times, "polyline")
        if not all(math.isfinite(v) for _, v in kn):
            raise DomainError("polyline knots must be finite")
        object.__setattr__(self, "times", times)

    def final_value(self) -> float:
        return self.knots[-1][1]

    def _view(self):
        return _polyline_view(np.array(self.times), np.array([v for _, v in self.knots]))

    def slopes(self) -> tuple[float, ...]:
        return tuple(self.affine_view()[2].tolist())

    def to_json(self) -> dict:
        return {"knots": [[t, v] for t, v in self.knots]}

    def csv_rows(self):
        return list(self.knots)


def _polyline_view(t: np.ndarray, v: np.ndarray):
    """The affine_view() of the polyline with knots (t, v); DomainError unless
    every segment has a finite duration and slope (so every knot is finite)."""
    with np.errstate(over="ignore", invalid="ignore"):
        slope = (v[1:] - v[:-1]) / (t[1:] - t[:-1])
        if not (np.isfinite(t[-1] - t[0]) and np.isfinite(slope).all()):
            raise DomainError("polyline segments need finite durations and slopes")
    return t, v[:-1], slope


def check_times(ts, t0: float, T: float) -> np.ndarray:
    """ts as a float array; DomainError unless every time is _in_range
    [t0, T] (so also for NaN)."""
    ts = np.asarray(ts, dtype=float)
    if ts.size and not (_in_range(ts.min(), t0, T) and _in_range(ts.max(), t0, T)):
        raise DomainError(f"sample times outside [{t0}, {T}]")
    return ts


def sample(s, ts: np.ndarray) -> np.ndarray:
    """The values of s at the times ts (s(t) is sample(s, [t])[0]).

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
    kinds = {("knots",): lambda d: PolylineSignal(tuple(d["knots"])),
             ("grid", "values"): lambda d: StepSignal(TimeGrid(tuple(d["grid"])), tuple(d["values"]))}
    try:
        sig = kinds[tuple(sorted(data))](data)
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
    t, v, _ = s.affine_view()
    with np.errstate(over="ignore", invalid="ignore"):  # cumsum adds left to right, not pairwise
        x = np.cumsum(np.concatenate(([float(x0)], v * (t[1:] - t[:-1]))))
    return _built(PolylineSignal, _polyline_view(t, x), _knot_values=x)


def derivative(p: PolylineSignal) -> StepSignal:
    """Slope staircase; antiderivative(derivative(p), p(0)) == p knot-wise."""
    t, _, slope = p.affine_view()
    return _built(StepSignal, (t, slope, np.zeros_like(slope)))


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


def _lazy_fields(cls, **make):
    """Bind make[name](self), which makes a field from an operator output's view at first
    read, as a cached_property of cls: a constructed signal's own fields hide it."""
    for name, fn in make.items():
        setattr(cls, name, prop := cached_property(fn))
        prop.__set_name__(cls, name)


_lazy_fields(StepSignal, values=lambda s: tuple(s._arrays[1].tolist()),
             grid=lambda s: _built(TimeGrid, points=tuple(s._arrays[0].tolist())))
_lazy_fields(PolylineSignal, times=lambda s: tuple(s._arrays[0].tolist()),
             knots=lambda s: tuple(zip(s.times, s._knot_values.tolist())))
_lazy_fields(PiecewiseAffine, breaks=lambda s: tuple(s._arrays[0].tolist()),
             pieces=lambda s: tuple(zip(s._arrays[1].tolist(), s._arrays[2].tolist())))


def merge_times(*time_lists, tol: float = KNOT_TOL) -> np.ndarray:
    """Sorted union of the time lists (an array), each run of times within
    tol relative of the one before merged into its first time (0: exact)."""
    t = np.sort(np.concatenate(time_lists))
    bound = tol and tol * np.maximum(1.0, np.maximum(np.abs(t[:-1]), np.abs(t[1:])))  # 0: none
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
    signal's piece containing its midpoint, which matters only on _pieces'
    grid: a break merged away there (KNOT_TOL) extends its neighbour's line.
    """
    breaks, lv, sl = view
    t0 = grid[:-1]
    j = np.searchsorted(breaks[1:-1], 0.5 * (t0 + grid[1:]), side="right")
    return lv[j] + sl[j] * (t0 - breaks[j]), sl[j]


def _merged(a, b, ca: float, cb: float):
    """ca*a + cb*b on the merged grid: (times, left, slope).

    times are the exact union of the breaks (an array, strictly increasing), so
    each interval is in one piece of each signal; left and slope are the sum's there (_affine_on).
    """
    _check_domain((a, b), "signals must share the horizon")
    views = a.affine_view(), b.affine_view()
    times = merge_times(views[0][0], views[1][0], tol=0.0)  # not np.union1d: it imports numpy.ma
    left, slope = np.zeros(len(times) - 1), np.zeros(len(times) - 1)
    for c, view in zip((ca, cb), views):
        lv, sl = _affine_on(view, times)
        left += c * lv
        slope += c * sl
    return times, left, slope


def _finite(x, what: str):
    """x (a float or an array); DomainError if the arithmetic that gave it overflowed the floats."""
    if not (math.isfinite(x) if isinstance(x, float) else np.isfinite(x).all()):
        raise DomainError(f"{what} overflows the floats")
    return x


def combine(a, b, ca: float = 1.0, cb: float = 1.0):
    """Exact ca*a + cb*b on the merged grid.

    Same-kind operands stay in their kind; a mixed pair is returned as a
    PiecewiseAffine since a polyline minus a step is discontinuous.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        times, left, slope = _merged(a, b, ca, cb)
        right = left + slope * np.diff(times)  # the value at each interval's end
    if isinstance(a, StepSignal) and isinstance(b, StepSignal):
        return _built(StepSignal, (times, _finite(left, "combine"), np.zeros_like(left)))
    if isinstance(a, PolylineSignal) and isinstance(b, PolylineSignal):
        v = np.append(left, right[-1])
        return _built(PolylineSignal, _polyline_view(times, v), _knot_values=v)
    _finite(right, "combine")
    return _built(PiecewiseAffine, (times, left, slope))


def l1_distance(a, b) -> float:
    """Exact integral of |a - b| over the common horizon.

    Each merged interval carries an affine difference, integrated in closed
    form with a split at its sign change.
    """
    with np.errstate(all="ignore"):
        times, c, m = _merged(a, b, 1.0, -1.0)
        tau = np.diff(times)
        d0, d1 = np.abs(c), np.abs(c + m * tau)
        r = -c / m  # inf or nan where m == 0, and then no split
        split = (0.0 < r) & (r < tau)
        r = np.where(split, r, 0.0)
        pieces = np.where(split, 0.5 * (d0 * r + d1 * (tau - r)), 0.5 * (d0 + d1) * tau)
        return _finite(float(pieces.sum()), "l1_distance")


def sup_distance(a, b) -> float:
    """Exact sup of |a - b|, attained at merged breakpoints (one-sided)."""
    with np.errstate(over="ignore", invalid="ignore"):
        times, c, m = _merged(a, b, 1.0, -1.0)
        d1 = c + m * np.diff(times)
    return _finite(float(max(np.abs(c).max(initial=0.0), np.abs(d1).max(initial=0.0))), "sup_distance")
