"""Control and input builders.

Staircase approximants of step controls, exact play-operator inverses,
alignment maneuvers, bracket loops, and the steering schedules assembled
from them, as pure functions emitting signals or schedules.
"""

from __future__ import annotations

import numpy as np

from .dynamics import _simpson
from .hysteresis import _check_rho, _seed, play_apply
from .signals import (
    DomainError,
    PolylineSignal,
    StepSignal,
    TimeGrid,
    _check_domain,
    _point,
    antiderivative,
    derivative,
    sup_distance,
)


def _sign(x: float) -> int:
    return int(x > 0) - int(x < 0)


def _const(duration: float, value: float) -> StepSignal:
    return StepSignal(TimeGrid((0.0, duration)), (value,))


# ---------------------------------------------------------------------------
# schedules

def _then(*legs: tuple[StepSignal, ...]) -> tuple[StepSignal, ...]:
    """The legs played one after another.  A leg is m step controls on
    [0, d], d the horizon of its first control; the schedule is m step
    controls on [0, sum of the d]."""
    for leg in legs:
        _check_domain(leg, "leg controls must live on [0, d]", 0.0)
    out = []
    for i in range(len(legs[0])):
        pts, vals, off = [0.0], [], 0.0
        for leg in legs:
            pts += [off + b for b in leg[i].grid.points[1:]]
            vals += leg[i].values
            off += leg[0].horizon
        out.append(StepSignal(TimeGrid(tuple(pts)), tuple(vals)))
    return tuple(out)


def _embed(leg: tuple[StepSignal, ...], m: int, slots: tuple[int, ...]) -> tuple[StepSignal, ...]:
    """The leg's controls in the given slots of m, zero in the others."""
    zero = _const(leg[0].horizon, 0.0)
    return tuple(leg[slots.index(s)] if s in slots else zero for s in range(m))


# ---------------------------------------------------------------------------
# staircase approximant u^k and its play inverse v^k

def build_uk(ubar: StepSignal, w0: float, k: int) -> PolylineSignal:
    """Continuous piecewise-linear approximant of the step control ubar.

    Starts at w0, ramps to the first level within 1/k, and crosses each
    interior level change with an affine ramp of width 2/k centred at the
    knot; elsewhere it sits on the step levels.
    """
    pts = ubar.grid.points
    gaps = np.diff(pts)
    if k < 1 or 2.0 / k >= gaps.min():
        raise DomainError(f"k={k} too small for this grid (need 2/k < min gap)")
    knots = [(pts[0], float(w0)), (pts[0] + 1.0 / k, ubar.values[0])]
    for i in range(1, len(pts) - 1):
        knots.append((pts[i] - 1.0 / k, ubar.values[i - 1]))
        knots.append((pts[i] + 1.0 / k, ubar.values[i]))
    knots.append((pts[-1], ubar.values[-1]))
    return PolylineSignal(tuple(knots))


def _side(x: PolylineSignal) -> int:
    """Sign of the first nonzero slope of x, +1 if x is flat."""
    return next((s for s in map(_sign, x.slopes()) if s), 1)


def _ride(x: PolylineSignal, rho: float, window) -> PolylineSignal:
    """The polyline v that rides the dead-band edge x + sigma*rho.

    sigma starts at _side(x).  At every interior knot t where x turns
    against sigma, v swings from x(a) + sigma*rho to x(b) - sigma*rho on
    (a, b) = window(t_prev, t), t_prev being the knot before t, and sigma
    flips; elsewhere v has a knot at each knot of x.
    """
    sigma = _side(x)
    knots = [(x.times[0], x.knots[0][1] + sigma * rho)]
    for (t_prev, _), (t, y), out in zip(x.knots, x.knots[1:-1], map(_sign, x.slopes()[1:])):
        if out == -sigma:
            a, b = window(t_prev, t)
            knots.append((a, x(a) + sigma * rho))
            sigma = out
            knots.append((b, x(b) + sigma * rho))
        else:
            knots.append((t, y + sigma * rho))
    knots.append((x.times[-1], x.knots[-1][1] + sigma * rho))
    return PolylineSignal(tuple(knots))


# Largest sup distance play_inverse_exact lets between the play output of its
# result and the target (its postcondition).
_INVERSE_TOL = 1e-9


def play_inverse_exact(target: PolylineSignal, rho: float, ramp_width: float) -> PolylineSignal:
    """Polyline v with play output exactly equal to target.

    v rides target +- rho, each run of flat segments taken as one plateau;
    a slope-sign reversal must be preceded by a plateau, whose final
    `ramp_width` hosts the 2*rho swing that carries the pair across the
    dead band without moving the output.
    """
    _check_rho(rho)
    signs = [_sign(s) for s in target.slopes()]
    x = PolylineSignal(tuple(
        k for k, before, after in zip(target.knots, [1] + signs, signs + [1]) if before or after
    ))

    def window(t_prev: float, t: float) -> tuple[float, float]:
        if x(t_prev) != x(t):
            raise DomainError("slope reversal without a preceding plateau")
        if t - ramp_width <= t_prev:
            raise DomainError("plateau too short for the pre-reversal swing")
        return t - ramp_width, t

    v = _ride(x, rho, window)
    if sup_distance(play_apply(v, target.knots[0][1], rho), target) > _INVERSE_TOL:
        raise RuntimeError("play inversion postcondition failed")
    return v


def build_vk(ubar: StepSignal, w0: float, rho: float, k: int) -> PolylineSignal:
    """Input whose play output is exactly build_uk(ubar, w0, k)."""
    _check_rho(rho)
    target = build_uk(ubar, w0, k)
    try:
        return play_inverse_exact(target, rho, 1.0 / k)
    except DomainError as exc:
        raise DomainError(f"k={k} too small: {exc}") from exc


# ---------------------------------------------------------------------------
# density construction v^j

def build_vj(x: PolylineSignal, rho: float, j: int) -> PolylineSignal:
    """Input whose play output tracks the polyline x up to max slope / j.

    v rides x + sigma*rho and swings across the dead band over [t - 1/j,
    t + 1/j] at each slope reversal t; the play seeded at x(0) then
    reproduces x exactly outside these windows.
    """
    _check_rho(rho)
    if rho == 0.0:
        raise DomainError("rho must be positive")
    if j < 1 or 2.0 / j >= np.diff(x.times).min():
        raise DomainError(f"j={j} too small for this knot spacing")
    return _ride(x, rho, lambda t_prev, t: (t - 1.0 / j, t + 1.0 / j))


def reversal_sup_error(x: PolylineSignal, j: int) -> float:
    """max over sign-reversal knots of |incoming slope| / j (zero if none)."""
    slopes = x.slopes()
    best = 0.0
    for a, b in zip(slopes, slopes[1:]):
        if _sign(a) != 0 and _sign(b) == -_sign(a):
            best = max(best, abs(a))
    return best / j


# ---------------------------------------------------------------------------
# Heisenberg bracket loop and alignment

def heisenberg_loop(alpha: float, beta: float, T: float) -> tuple[StepSignal, ...]:
    """Four-leg square loop (+x, +y, -x, -y); net effect on the Heisenberg
    system is a pure z-displacement of T^2 * alpha * beta."""
    legs = ((alpha, 0.0), (0.0, beta), (-alpha, 0.0), (0.0, -beta))
    return _then(*((_const(T, a), _const(T, b)) for a, b in legs))


def align_schedule(xA: float, w0: float, rho: float, direction: int) -> tuple[StepSignal, ...]:
    """Place the pair (x, w) exactly at (xA + direction*rho, xA) in unit time.

    Two constant-slope legs: overshoot to xA - direction*rho (dragging the
    output to xA from any admissible w0), then cross the whole dead band to
    xA + direction*rho, leaving the output pinned at xA.
    """
    if direction not in (-1, 1):
        raise DomainError("direction must be -1 or +1")
    _seed(xA, w0, xA - _check_rho(rho), xA + rho)
    legs = ((0.5, -2.0 * rho * direction), (0.5, 4.0 * rho * direction))
    return _then(*((_const(d, s), _const(d, 0.0)) for d, s in legs))


# ---------------------------------------------------------------------------
# steering schedules

def thm3_schedule(ubar: tuple[StepSignal, StepSignal], A: tuple[float, float, float], rho: float,
                  w0: float, j: int) -> tuple[StepSignal, ...]:
    """Approximate steering of the triangular hysteretic system.

    Given a reference (u1, u2) steering the hysteresis-free system from A,
    plays align / replay / adjust legs: the x coordinate follows the
    dead-band-shifted trajectory v^j whose play output tracks the reference
    x path, so y lands exactly and the z defect vanishes as j grows.
    """
    u1b, u2b = ubar
    xA = _point(A, 3)[0]
    xbar = antiderivative(u1b, xA)
    align = align_schedule(xA, w0, rho, _side(xbar))
    v = build_vj(xbar, rho, j)
    adjust = (_const(1.0, xbar.final_value() - v.final_value()), _const(1.0, 0.0))
    return _then(align, (derivative(v), u2b), adjust)


def heis_exact_schedule(A: tuple[float, float, float], B: tuple[float, float, float], rho: float,
                        w0: float) -> tuple[StepSignal, ...]:
    """Exact steering of the hysteretic Heisenberg system from A to B.

    Legs: move y with x frozen (z drifts by w0 * dy), align the play pair,
    replay the exact play inverse of a bracket-loop tent sized to the
    remaining z gap, then adjust x.  Every leg's effect is closed-form, so
    the endpoint is exact up to rounding.
    """
    xA, yA, zA = _point(A, 3)
    xB, yB, zB = _point(B, 3)
    _seed(xA, w0, xA - _check_rho(rho), xA + rho)
    dy = yB - yA
    legs = [(_const(1.0, 0.0), _const(1.0, dy))]
    dz = zB - (zA + w0 * dy)
    x_now = xA
    if dz != 0.0:
        s = _sign(dz)
        legs.append(align_schedule(xA, w0, rho, s))
        tent = PolylineSignal(
            ((0.0, xA), (1.0, xA + dz), (2.0, xA + dz), (3.0, xA), (4.0, xA))
        )
        v = play_inverse_exact(tent, rho, 0.5)
        u2 = StepSignal(TimeGrid((0.0, 1.0, 2.0, 3.0, 4.0)), (0.0, 1.0, 0.0, -1.0))
        legs.append((derivative(v), u2))
        x_now = v.final_value()
    legs.append((_const(1.0, xB - x_now), _const(1.0, 0.0)))
    return _then(*legs)


# ---------------------------------------------------------------------------
# hysteresis-free reference planner

# Least gap I2 - I1 between the leg integrals of a (p, q) the planner solves
# for, relative to max(3, |I1|, |I2|).
_DET_TOL = 1e-9
# Largest miss of the z displacement when every (p, q) fails _DET_TOL and u2
# is forced by dy, relative to max(1, |dz|, |dy|).
_CONSISTENCY_TOL = 1e-8


def plan_triangular(f, A, B) -> tuple[StepSignal, StepSignal]:
    """Reference controls on [0, 3] steering the hysteresis-free triangular
    system A -> B.

    The x path runs three unit-time legs xA -> p -> q -> xB (up, down, up, so
    both interior knots are genuine reversals) with u2 constant (a, b, 0);
    (a, b) is solved from the linear system a + b = dy, a*I1 + b*I2 = dz
    matching the y displacement and the z displacement integrals I1, I2 of f
    along the first two legs.  Degenerates to a consistency check when f has
    equal leg averages for every candidate (p, q) pair (e.g. f constant).
    """
    xA, yA, zA = _point(A, 3)
    xB, yB, zB = _point(B, 3)
    dy, dz = yB - yA, zB - zA
    hi, lo = max(xA, xB), min(xA, xB)
    candidates = (
        (hi + 1.0, lo - 1.0),
        (hi + 2.0, lo - 1.0),
        (hi + 1.0, lo - 2.0),
        (hi + 0.5, lo - 0.5),
        (hi + 2.0, lo - 2.0),
    )
    fallback = None
    n = 1000  # Simpson panels per unit-time leg
    for p, q in candidates:
        xs = np.concatenate([np.linspace(xA, p, 2 * n + 1), np.linspace(p, q, 2 * n + 1)[1:]])
        panels = _simpson(f, (xs,), 0.5 / n)
        I1, I2 = float(panels[:n].sum()), float(panels[n:].sum())
        det = I2 - I1
        if fallback is None:
            fallback = (p, q, I1, I2)
        if abs(det) > _DET_TOL * max(3.0, abs(I1), abs(I2)):
            a = (dy * I2 - dz) / det
            b = (dz - I1 * dy) / det
            break
    else:
        # equal leg averages for every candidate: u2 is forced by y displacement
        p, q, I1, I2 = fallback
        if not np.isfinite([I1, I2]).all():  # they fail every comparison, so they land here
            raise DomainError(f"f has no finite integral on the legs {xA} -> {p} -> {q}")
        a = b = dy / 2.0
        if abs(a * (I1 + I2) - dz) > _CONSISTENCY_TOL * max(1.0, abs(dz), abs(dy)):
            raise DomainError("target z displacement inconsistent with this f")
    grid = TimeGrid((0.0, 1.0, 2.0, 3.0))
    return StepSignal(grid, (p - xA, q - p, xB - q)), StepSignal(grid, (a, b, 0.0))


# ---------------------------------------------------------------------------
# chain systems (m <= 3)

def chain_schedule(spec, A, B, j: int) -> tuple[StepSignal, ...]:
    """Steering schedule for chain systems with m controls, m in {2, 3}.

    m=2 is exactly the triangular schedule.  For m=3 the two output
    directions are fixed in two decoupled stages: first (x1, x3, y5) with u2
    off (so x2 and y4 are untouched and the second play is frozen), then
    (x1, x2, y4) with u3 off.
    """
    fs, rho, w0s = spec.fs, spec.rho, spec.w0
    if spec.m == 2:
        ubar = plan_triangular(fs[0], A, B)
        return thm3_schedule(ubar, A, rho, w0s[0], j)
    if spec.m != 3:
        raise DomainError("chain schedules support m in {2, 3} only")
    x1A, x2A, x3A, y4A, y5A = _point(A, 5)
    x1B, x2B, x3B, y4B, y5B = _point(B, 5)
    w01, w02 = w0s

    # stage A: drive y5 through f3(P[x1], w02) with u2 off
    f3 = fs[1]
    planA = plan_triangular(lambda x1: f3(x1, w02), (x1A, x3A, y5A), (x1B, x3B, y5B))
    stageA = thm3_schedule(planA, (x1A, x3A, y5A), rho, w01, j)

    # the first play's state after stage A, from the exact x1 path
    x1_path = antiderivative(stageA[0], x1A)
    w1_end = play_apply(x1_path, w01, rho).final_value()

    # stage B: drive y4 through f2(P[x1]) with u3 off
    planB = plan_triangular(fs[0], (x1B, x2A, y4A), (x1B, x2B, y4B))
    stageB = thm3_schedule(planB, (x1B, x2A, y4A), rho, w1_end, j)

    return _then(_embed(stageA, 3, (0, 2)), _embed(stageB, 3, (0, 1)))
