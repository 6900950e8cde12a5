"""Control and input builders.

Staircase approximants of step controls, exact play-operator inverses,
alignment maneuvers, bracket loops, and the multi-phase steering schedules
assembled from them.  The two play inputs, the exact inverse v^k and the
density input v^j, are one ride of the dead-band edge (_ride) with two swing
windows.  Everything here is a pure function emitting signals or schedules;
integration lives in `dynamics`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hysteresis import _play_bounds, _seed, play_apply
from .signals import (
    DomainError,
    PolylineSignal,
    StepSignal,
    TimeGrid,
    _off_horizon,
    _times_equal,
    antiderivative,
    derivative,
    sup_distance,
)


def _sign(x: float) -> int:
    return (x > 0) - (x < 0)


def _const(duration: float, value: float) -> StepSignal:
    return StepSignal(TimeGrid((0.0, duration)), (value,))


# ---------------------------------------------------------------------------
# schedules

@dataclass(frozen=True)
class Phase:
    """One stretch of the strategy: step controls on local time [0, duration],
    the duration being the first control's horizon."""

    controls: tuple[StepSignal, ...]
    label: str = ""

    def __post_init__(self):
        if not self.controls:
            raise DomainError("phase needs at least one control")
        for c in self.controls:
            if not _times_equal(c.grid.points[0], 0.0) or _off_horizon(c.horizon, self.duration):
                raise DomainError("phase controls must live on [0, duration]")

    @property
    def duration(self) -> float:
        return self.controls[0].horizon


@dataclass(frozen=True)
class ControlSchedule:
    phases: tuple[Phase, ...]

    def __post_init__(self):
        if not self.phases:
            raise DomainError("schedule needs at least one phase")
        m = len(self.phases[0].controls)
        if any(len(p.controls) != m for p in self.phases):
            raise DomainError("control dimension must be constant across phases")

    @property
    def m(self) -> int:
        return len(self.phases[0].controls)

    @property
    def total_duration(self) -> float:
        return sum(p.duration for p in self.phases)

    def concatenated(self) -> tuple[StepSignal, ...]:
        """The schedule as step controls on the global interval [0, T*]."""
        out = []
        for i in range(self.m):
            pts = [0.0]
            vals: list[float] = []
            off = 0.0
            for ph in self.phases:
                c = ph.controls[i]
                for b, v in zip(c.grid.points[1:], c.values):
                    pts.append(off + b)
                    vals.append(v)
                off += ph.duration
            out.append(StepSignal(TimeGrid(tuple(pts)), tuple(vals)))
        return tuple(out)


def embed_schedule(sched: ControlSchedule, m: int, slots: tuple[int, ...]) -> ControlSchedule:
    """Lift a low-dimensional schedule into m control slots, zeros elsewhere."""
    if len(slots) != sched.m or any(not 0 <= s < m for s in slots):
        raise DomainError("bad slot assignment")
    phases = []
    for ph in sched.phases:
        controls: list[StepSignal] = [_const(ph.duration, 0.0) for _ in range(m)]
        for c, s in zip(ph.controls, slots):
            controls[s] = c
        phases.append(Phase(tuple(controls), ph.label))
    return ControlSchedule(tuple(phases))


def concat_schedules(*scheds: ControlSchedule) -> ControlSchedule:
    phases = tuple(p for s in scheds for p in s.phases)
    return ControlSchedule(phases)


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


def play_inverse_exact(target: PolylineSignal, rho: float, ramp_width: float) -> PolylineSignal:
    """Polyline v with play output exactly equal to target.

    v rides target +- rho, each run of flat segments taken as one plateau;
    a slope-sign reversal must be preceded by a plateau, whose final
    `ramp_width` hosts the 2*rho swing that carries the pair across the
    dead band without moving the output.
    """
    _play_bounds(rho)  # checks rho
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
    if sup_distance(play_apply(v, target.knots[0][1], rho), target) > 1e-9:
        raise RuntimeError("play inversion postcondition failed")
    return v


def build_vk(ubar: StepSignal, w0: float, rho: float, k: int) -> PolylineSignal:
    """Input whose play output is exactly build_uk(ubar, w0, k)."""
    _play_bounds(rho)  # checks rho
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
    _play_bounds(rho)  # checks rho
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

def heisenberg_loop(alpha: float, beta: float, T: float) -> ControlSchedule:
    """Four-phase square loop; net effect on the Heisenberg system is a pure
    z-displacement of T^2 * alpha * beta."""
    legs = (
        ((alpha, 0.0), "loop+x"),
        ((0.0, beta), "loop+y"),
        ((-alpha, 0.0), "loop-x"),
        ((0.0, -beta), "loop-y"),
    )
    return ControlSchedule(
        tuple(Phase((_const(T, a), _const(T, b)), lab) for (a, b), lab in legs)
    )


def align_schedule(xA: float, w0: float, rho: float, direction: int) -> ControlSchedule:
    """Place the pair (x, w) exactly at (xA + direction*rho, xA) in unit time.

    Two constant-slope legs: overshoot to xA - direction*rho (dragging the
    output to xA from any admissible w0), then cross the whole dead band to
    xA + direction*rho, leaving the output pinned at xA.
    """
    if direction not in (-1, 1):
        raise DomainError("direction must be -1 or +1")
    _seed(xA, w0, *_play_bounds(rho))
    legs = ((0.5, -2.0 * rho * direction), (0.5, 4.0 * rho * direction))
    return ControlSchedule(
        tuple(Phase((_const(d, s), _const(d, 0.0)), "align") for d, s in legs)
    )


# ---------------------------------------------------------------------------
# steering schedules

def thm3_schedule(
    ubar: tuple[StepSignal, StepSignal],
    A: tuple[float, float, float],
    rho: float,
    w0: float,
    j: int,
) -> ControlSchedule:
    """Approximate steering of the triangular hysteretic system.

    Given a reference (u1, u2) steering the hysteresis-free system from A,
    returns align / replay / adjust phases: the x coordinate follows the
    dead-band-shifted trajectory v^j whose play output tracks the reference
    x path, so y lands exactly and the z defect vanishes as j grows.
    """
    u1b, u2b = ubar
    xA = float(A[0])
    xbar = antiderivative(u1b, xA)
    align = align_schedule(xA, w0, rho, _side(xbar))
    v = build_vj(xbar, rho, j)
    replay = Phase((derivative(v), u2b), "replay")
    xB = xbar.final_value()
    adjust = Phase((_const(1.0, xB - v.final_value()), _const(1.0, 0.0)), "adjust")
    return ControlSchedule(align.phases + (replay, adjust))


def heis_exact_schedule(
    A: tuple[float, float, float],
    B: tuple[float, float, float],
    rho: float,
    w0: float,
) -> ControlSchedule:
    """Exact steering of the hysteretic Heisenberg system from A to B.

    Phases: move y with x frozen (z drifts by w0 * dy), align the play pair,
    replay the exact play inverse of a bracket-loop tent sized to the
    remaining z gap, then adjust x.  Every phase's effect is closed-form, so
    the endpoint is exact up to rounding.
    """
    xA, yA, zA = (float(c) for c in A)
    xB, yB, zB = (float(c) for c in B)
    _seed(xA, w0, *_play_bounds(rho))
    phases: list[Phase] = []
    dy = yB - yA
    phases.append(Phase((_const(1.0, 0.0), _const(1.0, dy)), "ymove"))
    dz = zB - (zA + w0 * dy)
    x_now = xA
    if dz != 0.0:
        s = _sign(dz)
        phases.extend(align_schedule(xA, w0, rho, s).phases)
        tent = PolylineSignal(
            ((0.0, xA), (1.0, xA + dz), (2.0, xA + dz), (3.0, xA), (4.0, xA))
        )
        v = play_inverse_exact(tent, rho, 0.5)
        u2 = StepSignal(TimeGrid((0.0, 1.0, 2.0, 3.0, 4.0)), (0.0, 1.0, 0.0, -1.0))
        phases.append(Phase((derivative(v), u2), "loop"))
        x_now = v.final_value()
    phases.append(Phase((_const(1.0, xB - x_now), _const(1.0, 0.0)), "adjust"))
    return ControlSchedule(tuple(phases))


# ---------------------------------------------------------------------------
# hysteresis-free reference planner

def _leg_integral(f, x0: float, x1: float) -> float:
    """Simpson integral of f(x(t)) over a unit-time affine leg x0 -> x1."""
    n = 1000  # panel pairs
    xs = np.linspace(x0, x1, 2 * n + 1)
    vals = np.asarray(f(xs), dtype=float)
    if vals.shape != xs.shape:
        vals = np.array([float(f(float(x))) for x in xs])
    h = 1.0 / (2 * n)
    return (h / 3.0) * (vals[0] + vals[-1] + 4.0 * vals[1::2].sum() + 2.0 * vals[2:-1:2].sum())


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
    xA, yA, zA = (float(c) for c in A)
    xB, yB, zB = (float(c) for c in B)
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
    for p, q in candidates:
        I1 = _leg_integral(f, xA, p)
        I2 = _leg_integral(f, p, q)
        det = I2 - I1
        if fallback is None:
            fallback = (p, q, I1, I2)
        if abs(det) > 1e-9 * max(3.0, abs(I1), abs(I2)):
            a = (dy * I2 - dz) / det
            b = (dz - I1 * dy) / det
            break
    else:
        # equal leg averages for every candidate: u2 is forced by y displacement
        p, q, I1, I2 = fallback
        a = b = dy / 2.0
        if abs(a * (I1 + I2) - dz) > 1e-8 * max(1.0, abs(dz), abs(dy)):
            raise DomainError("target z displacement inconsistent with this f")
    grid = TimeGrid((0.0, 1.0, 2.0, 3.0))
    return StepSignal(grid, (p - xA, q - p, xB - q)), StepSignal(grid, (a, b, 0.0))


# ---------------------------------------------------------------------------
# chain systems (m <= 3)

def chain_schedule(spec, A, B, j: int) -> ControlSchedule:
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
    x1A, x2A, x3A, y4A, y5A = (float(c) for c in A)
    x1B, x2B, x3B, y4B, y5B = (float(c) for c in B)
    w01, w02 = w0s

    # stage A: drive y5 through f3(P[x1], w02) with u2 off
    f3 = fs[1]
    planA = plan_triangular(lambda x1: f3(x1, w02), (x1A, x3A, y5A), (x1B, x3B, y5B))
    stageA = thm3_schedule(planA, (x1A, x3A, y5A), rho, w01, j)

    # the first play's state after stage A, from the exact x1 path
    u1_total = stageA.concatenated()[0]
    x1_path = antiderivative(u1_total, x1A)
    w1_end = play_apply(x1_path, w01, rho).final_value()

    # stage B: drive y4 through f2(P[x1]) with u3 off
    planB = plan_triangular(fs[0], (x1B, x2A, y4A), (x1B, x2B, y4B))
    stageB = thm3_schedule(planB, (x1B, x2A, y4A), rho, w1_end, j)

    return concat_schedules(
        embed_schedule(stageA, 3, (0, 2)), embed_schedule(stageB, 3, (0, 1))
    )
