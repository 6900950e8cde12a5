"""Checks computed apart from the program: numpy closed forms and exact
event simulations for constant fields.

Nothing here calls into hystctl except to read a signal's public fields
(grid points, values, knots, pieces); every number the checks compare
against is recomputed from those.
"""

from __future__ import annotations

import numpy as np


def pa_arrays(s):
    """(breaks, left values, slopes) of a step, polyline or piecewise-affine
    signal, one entry per half-open piece [breaks[j], breaks[j+1])."""
    if hasattr(s, "grid"):  # StepSignal
        vals = np.asarray(s.values, dtype=float)
        return np.asarray(s.grid.points, dtype=float), vals, np.zeros_like(vals)
    if hasattr(s, "knots"):  # PolylineSignal
        kn = np.asarray(s.knots, dtype=float)
        t, v = kn[:, 0], kn[:, 1]
        return t, v[:-1], np.diff(v) / np.diff(t)
    pieces = np.asarray(s.pieces, dtype=float).reshape(-1, 2)  # PiecewiseAffine
    return np.asarray(s.breaks, dtype=float), pieces[:, 0], pieces[:, 1]


def _values_on(arrs, grid):
    """Left values and slopes of a signal on each interval of a finer grid."""
    breaks, left, slope = arrs
    j = np.clip(np.searchsorted(breaks, grid[:-1], side="right") - 1, 0, len(left) - 1)
    return left[j] + slope[j] * (grid[:-1] - breaks[j]), slope[j]


def merged_grid(a, b) -> np.ndarray:
    return np.union1d(pa_arrays(a)[0], pa_arrays(b)[0])


def difference(a, b, ca: float = 1.0, cb: float = -1.0):
    """ca*a + cb*b on the np.union1d merged grid, as (grid, left, slope)."""
    A, B = pa_arrays(a), pa_arrays(b)
    grid = np.union1d(A[0], B[0])
    la, sa = _values_on(A, grid)
    lb, sb = _values_on(B, grid)
    return grid, ca * la + cb * lb, ca * sa + cb * sb


def sup_distance(a, b) -> float:
    grid, d0, m = difference(a, b)
    d1 = d0 + m * np.diff(grid)
    return float(max(np.abs(d0).max(), np.abs(d1).max()))


def l1_distance(a, b) -> float:
    """Integral of |a - b|: trapezoids, split where the affine piece changes sign."""
    grid, d0, m = difference(a, b)
    tau = np.diff(grid)
    d1 = d0 + m * tau
    a0, a1 = np.abs(d0), np.abs(d1)
    same = np.sign(d0) * np.sign(d1) >= 0.0
    whole = 0.5 * (a0 + a1) * tau
    with np.errstate(invalid="ignore", divide="ignore"):
        split = 0.5 * tau * (a0 * a0 + a1 * a1) / (a0 + a1)
    return float(np.where(same, whole, split).sum())


def close(x, y, rel: float = 1e-9) -> bool:
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.shape != y.shape:
        return False
    scale = max(1.0, float(np.abs(y).max(initial=0.0)))
    return bool(np.all(np.abs(x - y) <= rel * scale))


def combine_matches(result, a, b, ca: float, cb: float) -> bool:
    """result equals ca*a + cb*b piece by piece on the merged grid."""
    grid, left, slope = difference(a, b, ca, cb)
    rg, rl, rs = pa_arrays(result)
    if len(rg) != len(grid) or not close(rg, grid, 1e-14):
        return False
    if hasattr(result, "grid"):  # step result: slopes are not stored
        return close(rl, left) and close(slope, 0.0 * slope)
    span = float(grid[-1] - grid[0])
    return close(rl, left) and close(rs * span, slope * span)


def sample_matches(s, ts, sampled) -> bool:
    """Vectorised sample agrees with one scalar call per time."""
    scalar = np.array([s(float(t)) for t in ts])
    return close(sampled, scalar, 1e-12)


def cumulative_matches(x, s, x0: float) -> bool:
    """x is the antiderivative of the step signal s with x(0) = x0."""
    t = np.asarray(s.grid.points)
    kn = np.asarray(x.knots, dtype=float)
    expect = x0 + np.concatenate([[0.0], np.cumsum(np.asarray(s.values) * np.diff(t))])
    return np.array_equal(kn[:, 0], t) and close(kn[:, 1], expect)


def steps_equal(p, q, tol: float = 1e-9) -> bool:
    """Two step signals have the same grid and values."""
    return (
        len(p.grid.points) == len(q.grid.points)
        and close(p.grid.points, q.grid.points, 1e-14)
        and close(p.values, q.values, tol)
    )


def play_properties_hold(u, w, w0: float, rho: float, tol: float = 1e-9) -> bool:
    """Play output w of input u: starts at w0, keeps |u - w| <= rho, and is
    constant on every merged interval where |u - w| < rho throughout.

    u - w is affine between merged knots, so checking the knots is exact.
    """
    grid, d0, m = difference(u, w)
    d1 = d0 + m * np.diff(grid)
    if abs(w.knots[0][1] - w0) > tol or max(np.abs(d0).max(), np.abs(d1).max()) > rho + tol:
        return False
    inside = np.maximum(np.abs(d0), np.abs(d1)) < rho - tol
    _, w_slope = _values_on(pa_arrays(w), grid)
    return bool(np.all(np.abs(w_slope[inside]) <= tol))


def truncated_band_holds(zeta, w, w0: float, tol: float = 1e-9) -> bool:
    """Truncated-play output: starts at w0, stays in [-1, 1] and between the
    branches 2*zeta - 1 and 2*zeta + 1 at every knot of either signal."""
    grid = merged_grid(zeta, w)
    kz, kw = np.asarray(zeta.knots), np.asarray(w.knots)
    z = np.interp(grid, kz[:, 0], kz[:, 1])
    v = np.interp(grid, kw[:, 0], kw[:, 1])
    lo = np.clip(2.0 * z - 1.0, -1.0, 1.0)
    hi = np.clip(2.0 * z + 1.0, -1.0, 1.0)
    return bool(
        abs(w.knots[0][1] - w0) <= tol
        and np.all(v >= lo - tol)
        and np.all(v <= hi + tol)
    )


def reversal_error(knots, j: int) -> float:
    """Largest |incoming slope| at a slope-sign reversal, divided by j."""
    kn = np.asarray(knots, dtype=float)
    s = np.diff(kn[:, 1]) / np.diff(kn[:, 0])
    sg = np.sign(s)
    rev = (sg[:-1] != 0) & (sg[1:] == -sg[:-1])
    return float(np.abs(s[:-1][rev]).max(initial=0.0)) / j


def bank_thresholds(k: int):
    i = np.arange(1, k + 1)
    return -1.0 + i / k, i / k  # lo, hi of relay i (1-based)


def bank_events_on_thresholds(zeta, events, k: int, tol: float = 1e-9) -> bool:
    """At every switch, zeta equals the switching relay's threshold."""
    if not events:
        return True
    kz = np.asarray(zeta.knots, dtype=float)
    t = np.array([e.time for e in events])
    idx = np.array([e.index for e in events])
    new = np.array([e.new for e in events])
    lo, hi = bank_thresholds(k)
    thr = np.where(new > 0, hi[idx - 1], lo[idx - 1])
    return bool(np.all(np.abs(np.interp(t, kz[:, 0], kz[:, 1]) - thr) <= tol))


def is_staircase(outputs) -> bool:
    o = np.asarray(outputs)
    return bool(np.all(o[:-1] >= o[1:]))


# ---------------------------------------------------------------------------
# exact simulation of relay-switched systems with constant fields

def switching_interval(fields, xi, thresholds, u, z, s, t, b):
    """Exact motion of a relay-switched system with constant fields over one
    control interval [t, b] with control values u.

    fields[i][s] is field i's vector while relay i outputs s; relay i reads
    xi[i].z and switches strictly past thresholds[i] = (lo, hi).  Motion is
    affine between events, so each event is the first hitting time of an
    active threshold.  Returns ([(time, axis, old, new)], z(b), s(b)).
    """
    z = np.asarray(z, dtype=float)
    s = list(s)
    events = []
    while True:
        v = sum(u[i] * np.asarray(fields[i][s[i]], dtype=float) for i in range(len(s)))
        best = None
        for i in range(len(s)):
            rate = float(np.dot(xi[i], v))
            if (s[i] == 1 and rate < 0.0) or (s[i] == -1 and rate > 0.0):
                thr = thresholds[i][0] if s[i] == 1 else thresholds[i][1]
                dt = (thr - float(np.dot(xi[i], z))) / rate
                if t + dt < b and (best is None or dt < best[0]):
                    best = (dt, i)
        if best is None:
            return events, z + (b - t) * v, tuple(s)
        dt, i = best
        z = z + dt * v
        t += dt
        events.append((t, i, s[i], -s[i]))
        s[i] = -s[i]


def bank_walk(z0: float, outs, speed, target: float):
    """Exact 1-D walk from z0 to target at rate +-speed(w) under a relay bank.

    outs holds the bank's relay outputs (updated in place) and w is their
    mean, so the rate is constant between threshold crossings.  Returns
    (duration, [(time offset, relay index 1-based, new output)]).
    """
    lo, hi = bank_thresholds(len(outs))
    up = target > z0
    z, t, events = float(z0), 0.0, []
    while True:
        rate = speed(float(np.mean(outs)))
        if up:
            cand = [(hi[i], i) for i in range(len(outs)) if outs[i] == -1 and z < hi[i] < target]
            nxt = min(cand) if cand else None
        else:
            cand = [(lo[i], i) for i in range(len(outs)) if outs[i] == 1 and target < lo[i] < z]
            nxt = max(cand) if cand else None
        if nxt is None:
            return t + abs(target - z) / rate, events
        t += abs(nxt[0] - z) / rate
        z = nxt[0]
        outs[nxt[1]] = -outs[nxt[1]]
        events.append((t, nxt[1] + 1, outs[nxt[1]]))
