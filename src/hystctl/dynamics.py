"""Trajectory integration for driftless control-affine systems.

Five flavours: plain (no hysteresis), play in the controls, play in the state
(triangular/chain), delayed-relay switching, and relay-bank systems.  Each
takes the system, its controls (or play inputs), z0 and the step.  Controls
that do not share one domain [t0, T] (signals._check_domain) and a z0 that is
not a point of finite coordinates raise DomainError, and a coordinate that
leaves [-NORM_CAP, NORM_CAP] or is not finite raises DivergenceError.

All but play in the state run one loop, the relay core: classical RK4 on each
piece between the merged control breakpoints, on the piece's nominal grid
a + q*h whose last point is exactly b.  Controls are affine on a piece (a
step signal with slope 0, a polyline such as a play output with its own), so
the right-hand side is sum_i (u_i(a) + s_i (t - a)) g_i(z).  Switching and
bank systems carry relay banks on the projections z.xi_j: a switching axis a
one-relay bank, a bank axis k relays.  A step is checked against the next
relay to switch on each axis in each direction, one index each way as
hysteresis keeps it; a step that crosses one is cut at the earliest crossing,
located to EVENT_TOL by Illinois regula falsi on the RK4 map (_locate_event),
and after the switch resumes to the same grid point.
A plain system is the core with no relays, and play in the controls is a
plain system driven by the play outputs.  An axis may switch at most
EVENT_BUDGET * (nominal steps + its relays) times; a relay that chatters
past that raises DivergenceError.

For triangular systems the x coordinates and the play outputs are computed
in closed form and only the output integrals are quadratures: one Simpson
pass over all pieces (_simpson, shared with the planner in `constructions`).
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .hysteresis import RelayBank, RelayState, SwitchEvent, _Walk, play_apply
from .signals import (
    DomainError, StepSignal, _affine_on, _check_domain, _point, antiderivative, check_times,
    merge_times, sample,
)

NORM_CAP = 1e6
EVENT_TOL = 1e-12
# Least offset of the event locator's squeeze probe.  A located event is late
# by up to it, and the old field runs on for that lateness, which stays in the
# state and adds up over a run with constant fields: so it is well below
# EVENT_TOL.
_PROBE = EVENT_TOL / 1000
# The probe also moves z.xi by at least this many ulps of the threshold, so
# that at a large threshold it does not round to the iterate's own state.
_PROBE_ULPS = 4
# Relative slack when a piece is cut into steps (a piece a hair longer than
# whole steps gets no sliver step).
_PIECE_SLACK = 1e-9
# Events allowed on an axis per nominal step and per relay on the axis; more
# means a relay chatters (the switching and bank runs measured stay below 1).
EVENT_BUDGET = 4


class DivergenceError(RuntimeError):
    """State norm exceeded the compactness cap."""


@dataclass(frozen=True)
class FieldSet:
    """m control vector fields on R^n; fields map a state tuple to a vector."""

    n: int
    m: int
    fields: tuple

    def __post_init__(self):
        if len(self.fields) != self.m:
            raise DomainError(f"need one field per control: {len(self.fields)} for m={self.m}")


def heisenberg_fields() -> FieldSet:
    """g1 = d/dx, g2 = d/dy + x d/dz."""
    return FieldSet(n=3, m=2, fields=(lambda z: (1.0, 0.0, 0.0), lambda z: (0.0, 1.0, z[0])))


@dataclass(frozen=True)
class TriangularSpec:
    """Chain system with m controls: dx_i = u_i, dy_{m+i-1} = f_i(plays) u_i.

    fs holds f_2..f_m (f_i takes the first i-1 play outputs), so m is
    len(fs) + 1; rho and the seeds w0 configure the plays on x_1..x_{m-1}.
    """

    fs: tuple
    rho: float
    w0: tuple

    def __post_init__(self):
        if not self.fs or len(self.w0) != len(self.fs):
            raise DomainError("need at least one f, and one seed per f")

    @property
    def m(self) -> int:
        return len(self.fs) + 1


# How far the Euclidean norm of a switching or bank axis xi_i may be from 1.
_UNIT_TOL = 1e-9


def _check_unit(xi):
    """DomainError unless every axis is a unit vector (a NaN norm is not)."""
    for v in xi:
        if not abs(math.sqrt(sum(c * c for c in v)) - 1.0) <= _UNIT_TOL:
            raise DomainError("xi must be unit vectors")


@dataclass(frozen=True)
class SwitchingSpec:
    """Each field g_i switches between two versions driven by a relay on z.xi_i.

    field_table maps exactly {-1,+1}^m to FieldSets of one (n, m), n = len(xi_i);
    thresholds, one (lo, hi) per axis, is (-eta, eta) on every axis if not given.
    """

    xi: tuple
    eta: float
    field_table: dict
    thresholds: tuple | None = None

    def __post_init__(self):
        m = len(self.xi)
        if set(self.field_table) != set(itertools.product((-1, 1), repeat=m)):
            raise DomainError("field table keys must be exactly the strings in {-1,+1}^m")
        sets = self.field_table.values()
        ns = {fs.n for fs in sets} | {len(v) for v in self.xi}
        if len(ns) != 1 or len({fs.m for fs in sets}) != 1:
            raise DomainError("the field sets and every xi need one n, and the field sets one m")
        _check_unit(self.xi)
        if self.thresholds is None:
            object.__setattr__(self, "thresholds", ((-self.eta, self.eta),) * m)
        if len(self.thresholds) != m or any(len(pair) != 2 for pair in self.thresholds):
            raise DomainError("need one (lo, hi) threshold pair per axis")
        for pair in self.thresholds:
            RelayState(*pair, 1)  # checks the thresholds

    @property
    def m(self) -> int:
        return len(self.xi)


@dataclass(frozen=True)
class BankSpec:
    """Relay-bank system: dz = sum_j g_j(w_k[z.xi_j], z) u_j, one g_j per axis xi_j."""

    xi: tuple
    k: int
    fields: tuple  # g_j(w, z) -> vector

    def __post_init__(self):
        if len(self.fields) != len(self.xi) or len({len(v) for v in self.xi}) != 1:
            raise DomainError("need one field per axis and one length for every xi")
        _check_unit(self.xi)

    @property
    def m(self) -> int:
        return len(self.xi)


def gronwall_bound(C_k: float, m: float, M: float, L: float, T: float) -> float:
    if not all(x >= 0.0 for x in (C_k, m, M, L, T)):  # also refuses NaN
        raise DomainError("Gronwall inputs must be nonnegative numbers")
    return C_k * math.exp(m * M * L * T)


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    hysteresis_log: dict = field(default_factory=dict)
    events: tuple = ()

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def sample(self, ts) -> np.ndarray:
        """States at the times ts, linear between steps; DomainError for
        times outside [t0, T] by more than KNOT_TOL."""
        ts = check_times(ts, self.times[0], self.times[-1])
        return np.column_stack(
            [np.interp(ts, self.times, self.states[:, i]) for i in range(self.states.shape[1])]
        )

    def to_csv(self, path: str) -> None:
        """One row per time; a relay log entry is written as +/- per relay,
        one string per axis of a bank joined by '|' (as ++--|+---)."""
        n = self.states.shape[1]
        log_keys = sorted(self.hysteresis_log)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t"] + [f"z{i + 1}" for i in range(n)] + log_keys)
            for idx in range(len(self.times)):
                row = [self.times[idx]] + list(self.states[idx])
                for key in log_keys:
                    val = self.hysteresis_log[key][idx]
                    row.append(_signs(val) if isinstance(val, tuple) else val)
                w.writerow(row)


def _signs(outs: tuple) -> str:
    if isinstance(outs[0], tuple):
        return "|".join(map(_signs, outs))
    return "".join("+" if v > 0 else "-" for v in outs)


# ---------------------------------------------------------------------------
# core stepping

def _rk4(rhs, t, z, h):
    """One classical RK4 step of z' = rhs(t, z) from (t, z) with step h."""
    hh = 0.5 * h
    tm = t + hh
    k1 = rhs(t, z)
    k2 = rhs(tm, tuple(zi + hh * ki for zi, ki in zip(z, k1)))
    k3 = rhs(tm, tuple(zi + hh * ki for zi, ki in zip(z, k2)))
    k4 = rhs(t + h, tuple(zi + h * ki for zi, ki in zip(z, k3)))
    h6 = h / 6.0
    return tuple(
        zi + h6 * (a + 2.0 * b + 2.0 * c + d)
        for zi, a, b, c, d in zip(z, k1, k2, k3, k4)
    )


def _check_cap(z):
    """DivergenceError unless every coordinate is finite and within NORM_CAP."""
    for c in z:
        if not -NORM_CAP <= c <= NORM_CAP:
            raise DivergenceError(f"state left the cap {NORM_CAP} or is not finite")


def _pieces(step, signals):
    """Pieces (a, b, nsteps) between the merged breakpoints of the signals.

    All signals must share one domain (_check_domain); each piece gets the
    fewest equal steps that are no longer than step.
    """
    if not 0.0 < step < math.inf:
        raise DomainError(f"step must be positive and finite, got {step}")
    _check_domain(signals, "controls must share the horizon")
    breaks = merge_times(*(s.affine_view()[0] for s in signals)).tolist()
    return [
        (a, b, max(1, math.ceil((b - a) / step - _PIECE_SLACK)))
        for a, b in zip(breaks, breaks[1:])
    ]


def _affine_rhs(fields, u0, slope, a, n):
    """rhs(t, z) = sum_i (u0_i + slope_i (t - a)) g_i(z) over the fields whose
    control is not zero on the piece."""
    active = [(c, s, g) for c, s, g in zip(u0, slope, fields) if c != 0.0 or s != 0.0]

    def rhs(t, z):
        acc = [0.0] * n
        tau = t - a
        for c, s, g in active:
            ui = c + s * tau
            gz = g(z)
            for i in range(n):
                acc[i] += ui * gz[i]
        return acc

    return rhs


def _checked(selected, z, n):
    """The selection (fields, log entry), once each field gives n components at z."""
    for g in selected[0]:
        if (got := len(g(z))) != n:
            raise DomainError(f"a field gives {got} components, the state has {n}")
    return selected


def _proj(z, xi):
    return sum(c * x for c, x in zip(z, xi))


def _locate_event(rhs, t, z, h, z_hi, xi, thr, d):
    """Smallest step fraction at which z.xi first passes thr, rising for
    d = 1 and falling for d = -1.

    z_hi is the RK4 state after the full step h, which is past thr; returns
    (s, z_s) with the crossing bracketed to EVENT_TOL (or to neighbouring
    floats) and z_s = RK4(z, s) strictly past the threshold.

    Illinois regula falsi on g(s) = d (RK4(z, s).xi - thr) keeps a bracket
    [lo, hi] with g(lo) <= 0 < g(hi) (a g(0) > 0, left by a tie, counts as
    0), and an end kept twice in a row weighs half.  Each iterate is probed
    to its other side, by twice its distance to the root as the secant slope
    estimates it plus _PROBE_ULPS ulps of thr, and at least _PROBE, so the
    bracket closes around a close iterate at once; with constant fields g is
    affine and the first iterate is the root to rounding.  An iterate that
    does not halve the bracket is followed by a halving, so a call takes at
    most about 2 log2(h / EVENT_TOL) iterates of two RK4 steps each.
    """
    lo, hi = 0.0, h
    g_lo, g_hi = min(d * (_proj(z, xi) - thr), 0.0), d * (_proj(z_hi, xi) - thr)
    kept = 0  # the end the last evaluation moved: 1 for hi, -1 for lo
    floor = _PROBE_ULPS * math.ulp(abs(thr) + 1.0)
    halve = False
    while hi - lo > EVENT_TOL:
        width = hi - lo
        slope = (g_hi - g_lo) / width
        s = lo - g_lo / slope
        if halve or not lo < s < hi:
            s = 0.5 * (lo + hi)
            if not lo < s < hi:
                break  # lo and hi are neighbouring floats
        for _ in range(2):  # the iterate, then its probe
            z_s = _rk4(rhs, t, z, s)
            g_s = d * (_proj(z_s, xi) - thr)
            off = max(_PROBE, (2.0 * abs(g_s) + floor) / slope)
            if g_s > 0.0:
                if kept == 1:
                    g_lo *= 0.5
                hi, g_hi, z_hi, kept = s, g_s, z_s, 1
                s = hi - off
            else:
                if kept == -1:
                    g_hi *= 0.5
                lo, g_lo, kept = s, g_s, -1
                s = lo + off
            if not lo < s < hi:
                break
        halve = hi - lo > 0.5 * width
    return hi, z_hi


def _integrate(controls, z0, step, select, n, xi=(), banks=(), label=None):
    """RK4 on R^n on the nominal grid of every piece, with delayed-relay
    events on the projections z.xi_j: (times, states, log, events).

    banks[j] is the RelayBank of axis j.  select(walks) maps the banks'
    current outputs to (fields, log entry); the fields, one per control
    (every selection has as many as the first), are driven by the controls,
    affine on each piece, and each gives n components, checked at every
    selection.  log holds the entry of every row, and the event of relay i
    on axis j is SwitchEvent(t, i + 1, new, label(j, i)).

    A step ends at the earliest crossing, ties going to the lowest axis (at
    its grid point if within EVENT_TOL of it), and the next step resumes to
    the same grid point.  Only the next relay to switch on each axis in each
    direction is located: z.xi_j passes a nearer relay's threshold before a
    farther one's, so the farther relay switches at the nearer one's event
    or later (on the next step if it is past its threshold there too).
    """
    walks = [_Walk(bank) for bank in banks]
    z = _point(z0, n)
    fields, entry = _checked(select(walks), z, n)
    if len(controls) != len(fields):
        raise DomainError("one control per field required")
    for j, (v, walk) in enumerate(zip(xi, walks)):
        if walk.crossed(_proj(z, v)):
            raise DomainError(f"relay outputs inconsistent with z0 on axis {j + 1}")
    pieces = _pieces(step, controls)
    grid = np.array([a for a, _, _ in pieces] + [pieces[-1][1]])
    on_grid = [_affine_on(c.affine_view(), grid) for c in controls]
    u0 = zip(*(left.tolist() for left, _ in on_grid))  # per piece: the controls at a
    slope = zip(*(sl.tolist() for _, sl in on_grid))  # and their slopes
    nominal = sum(nsteps for _, _, nsteps in pieces)
    budgets = [EVENT_BUDGET * (nominal + bank.k) for bank in banks]
    switches = [0] * len(banks)
    times = [pieces[0][0]]
    states = [z]
    log = [entry]
    events = []
    for (a, b, nsteps), c0, sl in zip(pieces, u0, slope):
        rhs = _affine_rhs(fields, c0, sl, a, n)
        h = (b - a) / nsteps
        t = a
        for q in range(1, nsteps + 1):
            t_end = b if q == nsteps else a + q * h
            dt = h
            while True:
                z_new = _rk4(rhs, t, z, dt)
                hit = None
                for j, (v, walk) in enumerate(zip(xi, walks)):
                    crossed = walk.crossed(_proj(z_new, v))
                    if crossed:
                        d, thr = crossed
                        s, z_s = _locate_event(rhs, t, z, dt, z_new, v, thr, d)
                        if hit is None or s < hit[0]:
                            hit = (s, z_s, j, d)
                if hit is None:
                    z, t = z_new, t_end
                else:
                    s, z, j, d = hit
                    t = t_end if t_end - (t + s) <= EVENT_TOL else t + s
                    i = walks[j].switch(d)
                    events.append(SwitchEvent(t, i + 1, d, label(j, i)))
                    switches[j] += 1
                    if switches[j] > budgets[j]:
                        raise DivergenceError(
                            f"relay on axis {j + 1} chatters: more than {budgets[j]} events")
                    fields, entry = _checked(select(walks), z, n)
                    rhs = _affine_rhs(fields, c0, sl, a, n)
                _check_cap(z)
                times.append(t)
                states.append(z)
                log.append(entry)
                if t == t_end:
                    break
                dt = t_end - t
    return np.asarray(times), np.asarray(states), log, tuple(events)


# ---------------------------------------------------------------------------
# plain and play-in-controls systems

def integrate_plain(sys: FieldSet, controls, z0, step=1e-3) -> Trajectory:
    """Fixed-step RK4 on the nominal grid between the control breakpoints;
    the controls, step signals or polylines, are affine on each piece."""
    times, states, _, _ = _integrate(controls, z0, step, lambda walks: (sys.fields, None), sys.n)
    return Trajectory(times, states)


def integrate_play_controls(sys: FieldSet, v, w0, rho, z0, step=1e-3) -> Trajectory:
    """The plain system driven by the play outputs of the inputs v."""
    if len(w0) != len(v):
        raise DomainError("one seed per input required")
    plays = [play_apply(vi, wi, rho) for vi, wi in zip(v, w0)]
    traj = integrate_plain(sys, plays, z0, step)
    log = {f"play{i + 1}": sample(p, traj.times) for i, p in enumerate(plays)}
    return Trajectory(traj.times, traj.states, hysteresis_log=log)


# ---------------------------------------------------------------------------
# play-in-state (triangular / chain) systems

def _simpson(f, args, h):
    """Composite-Simpson integral of f(*args) on each panel.

    args are arrays on the panels' ends and midpoints (2N + 1 nodes for N
    panels, neighbours sharing an end) and h is each panel's half-width; an
    f that returns one number takes it at every node, and one that returns
    neither one number nor one per node raises DomainError.
    """
    w = np.asarray(f(*args), dtype=float)
    try:
        w = np.broadcast_to(w, args[0].shape)
    except ValueError:
        raise DomainError(f"f gives shape {w.shape}: need one number or one per node "
                          f"{args[0].shape}") from None
    return (h / 3.0) * (w[:-1:2] + 4.0 * w[1::2] + w[2::2])


def integrate_play_state(spec: TriangularSpec, controls, z0, step=1e-3) -> Trajectory:
    """Triangular/chain integration: exact x and play paths, Simpson outputs.

    State ordering is (x_1..x_m, y_{m+1}..y_{2m-1}).  Each piece is cut into
    panels no wider than step; y gains nothing on a panel where its control
    is zero, whatever f gives there.
    """
    m = spec.m
    if len(controls) != m:
        raise DomainError("control dimension inconsistent with spec")
    z0 = _point(z0, 2 * m - 1)
    if not all(isinstance(c, StepSignal) for c in controls):
        raise DomainError("controls must be step signals")
    x_polys = [antiderivative(controls[i], z0[i]) for i in range(m)]
    plays = [play_apply(x_polys[i], float(spec.w0[i]), spec.rho) for i in range(m - 1)]
    pieces = _pieces(step, [*controls, *plays])
    a, b, nsub = (np.array(col) for col in zip(*pieces))
    nodes = np.concatenate([a[:1]] + [np.linspace(t0, t1, 2 * n + 1)[1:] for t0, t1, n in pieces])
    tgrid = nodes[::2]
    h = np.repeat((b - a) / (2 * nsub), nsub)
    p_nodes = [sample(p, nodes) for p in plays]
    y_cols = []
    for i, f in enumerate(spec.fs):
        u = np.repeat(_affine_on(controls[i + 1].affine_view(), np.append(a, b[-1]))[0], nsub)
        on = u != 0.0
        inc = np.zeros(len(u))
        inc[on] = _simpson(f, p_nodes[: i + 1], h)[on] * u[on]
        y_cols.append(np.cumsum(np.concatenate([[z0[m + i]], inc])))
    states = np.column_stack([sample(p, tgrid) for p in x_polys] + y_cols)
    _check_cap(np.abs(states).max(axis=0))
    log = {f"play{i + 1}": ps[::2] for i, ps in enumerate(p_nodes)}
    return Trajectory(tgrid, states, hysteresis_log=log)


# ---------------------------------------------------------------------------
# switching and bank systems: the relay core with one bank per axis

def sector_index(z, spec: SwitchingSpec) -> set:
    """All m-strings compatible with z under closure semantics."""
    options = []
    for xi, thr in zip(spec.xi, spec.thresholds):
        proj = _proj(z, xi)
        options.append([w for w in (1, -1)
                        if RelayBank((RelayState(*thr, w),)).consistent_with(proj)])
    return set(itertools.product(*options))


def integrate_switching(spec: SwitchingSpec, controls, z0, w0_string, step=1e-3) -> Trajectory:
    """Relay-switched system: one delayed relay per axis drives the field choice."""
    string = tuple(w0_string)
    if string not in spec.field_table:
        raise DomainError("initial string must be in {-1,+1}^m")
    banks = [RelayBank((RelayState(*thr, int(w)),)) for thr, w in zip(spec.thresholds, string)]

    def select(walks):
        s = tuple(walk.outs[0] for walk in walks)
        return spec.field_table[s].fields, s

    times, states, log, events = _integrate(controls, z0, step, select, spec.field_table[string].n,
                                            spec.xi, banks, lambda j, i: f"axis{j + 1}")
    return Trajectory(times, states, {"string": log}, events)


def integrate_bank(spec: BankSpec, controls, z0, banks, step=1e-3) -> Trajectory:
    """Relay-bank system: each axis carries a k-relay bank whose macroscopic
    output feeds the corresponding field."""
    if len(banks) != spec.m or any(bk.k != spec.k for bk in banks):
        raise DomainError("one k-relay bank per axis required")

    def select(walks):
        fields = tuple(partial(g, walk.total / spec.k) for g, walk in zip(spec.fields, walks))
        return fields, tuple(tuple(walk.outs) for walk in walks)

    times, states, log, events = _integrate(controls, z0, step, select, len(spec.xi[0]), spec.xi,
                                            banks, lambda j, i: f"axis{j + 1}.relay{i + 1}")
    return Trajectory(times, states, {"strings": log}, events)
