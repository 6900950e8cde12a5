"""Trajectory integration for driftless control-affine systems.

Five flavours: plain (no hysteresis), play in the controls, play in the state
(triangular/chain), delayed-relay switching, and relay-bank systems.  All but
play in the state run one loop, the relay core (_integrate), whose rules are
stated at its parts: _pieces, _affine_rhs, _rk4, _exact_rows, _quartic,
_locate_event.
Play in the state is closed form but for one Simpson pass (_simpson).
"""

from __future__ import annotations

import csv
import itertools
import math
import sys
from dataclasses import dataclass, field
from functools import partial
from operator import mul

import numpy as np

from .hysteresis import RelayBank, _Events, _Walk, play_apply
from .signals import (
    DomainError, StepSignal, _affine_on, _check_domain, _finite, _point, antiderivative,
    check_times, merge_times, sample,
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
# Most rows of one run, refused by _pieces before any is allocated (1e7 rows at n = 3 hold 320 MB).
_ROW_CAP = 10**7
# Least nominal steps of a stretch tested for a closed-form solution (the
# test costs five RK4 steps), and the relative agreement that passes it.
_EXACT_STEPS = 32
_EXACT_TOL = 1e-13
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
        for lo, hi in self.thresholds:
            RelayBank((lo,), (hi,), (1,))  # checks the thresholds


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
    if not all(0.0 <= x < math.inf for x in (C_k, m, M, L, T)):  # also refuses NaN
        raise DomainError("Gronwall inputs must be finite nonnegative numbers")
    if C_k == 0.0:  # exactly 0, whatever the exponent
        return 0.0
    try:
        return _finite(C_k * math.exp(m * M * L * T), "the Gronwall bound")
    except OverflowError:
        raise DomainError("the Gronwall bound overflows the floats") from None


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    hysteresis_log: dict = field(default_factory=dict)
    events: _Events | tuple = ()

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def sample(self, ts) -> np.ndarray:
        """States at the times ts, linear between rows; DomainError for
        times outside [t0, T] by more than KNOT_TOL."""
        ts = check_times(ts, self.times[0], self.times[-1])
        return np.column_stack(
            [np.interp(ts, self.times, self.states[:, i]) for i in range(self.states.shape[1])]
        )

    def to_csv(self, path: str) -> None:
        """One row per time; a relay log entry is written as +/- per relay,
        one string per axis of a bank joined by '|' (as ++--|+---)."""
        keys, text = sorted(self.hysteresis_log), {}  # text by id: each entry and axis state once
        logs = [[text.get(id(v)) or _signs(v, text) if isinstance(v, tuple) else v
                 for v in self.hysteresis_log[key]] for key in keys]
        _write_csv(["t"] + [f"z{i + 1}" for i in range(self.states.shape[1])] + keys,
                   ([t, *z, *vals] for t, z, *vals in zip(self.times, self.states, *logs)), path)


def _write_csv(header, rows, path=None) -> None:
    """header, then rows, as CSV: to the file at path in csv's default dialect
    (\r\n line ends), or to stdout with \n line ends when no path is given."""
    lines = itertools.chain([header], rows)
    if path:
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(lines)
    else:
        csv.writer(sys.stdout, lineterminator="\n").writerows(lines)


def _signs(outs: tuple, text: dict) -> str:
    nested = isinstance(outs[0], tuple)  # a bank entry: its axes' texts, each formatted once
    return text.setdefault(id(outs), "|".join([text.get(id(o)) or _signs(o, text) for o in outs])
                           if nested else "".join("+" if v > 0 else "-" for v in outs))


# ---------------------------------------------------------------------------
# core stepping

def _rk4(rhs, t, z, k1, h):
    """One classical RK4 step of z' = rhs(t, z) from (t, z) with step h and
    first stage k1 = rhs(t, z), computed once for every step from (t, z)."""
    hh = 0.5 * h
    tm = t + hh
    k2 = rhs(tm, tuple([zi + hh * ki for zi, ki in zip(z, k1)]))
    k3 = rhs(tm, tuple([zi + hh * ki for zi, ki in zip(z, k2)]))
    k4 = rhs(t + h, tuple([zi + h * ki for zi, ki in zip(z, k3)]))
    h6 = h / 6.0
    return tuple([zi + h6 * (a + 2.0 * b + 2.0 * c + d)
                  for zi, a, b, c, d in zip(z, k1, k2, k3, k4)])


def _check_cap(z):
    """DivergenceError unless every coordinate is finite and within NORM_CAP."""
    for c in z:
        if not -NORM_CAP <= c <= NORM_CAP:
            raise DivergenceError(f"state left the cap {NORM_CAP} or is not finite")


def _pieces(step, signals):
    """(grid, nsteps): the signals' merged breakpoints, an array, and each piece's steps.

    All signals must share one domain (_check_domain) and (T - t0) / step may not
    pass _ROW_CAP; each piece gets the fewest equal steps no longer than step.
    """
    if not 0.0 < step < math.inf:
        raise DomainError(f"step must be positive and finite, got {step}")
    _check_domain(signals, "controls must share the horizon")
    grid = merge_times(*(s.affine_view()[0] for s in signals))
    if float(grid[-1] - grid[0]) / float(step) > _ROW_CAP:  # a Python inf, no numpy warning
        raise DomainError(f"step {step} gives more than {_ROW_CAP} rows on [{grid[0]}, {grid[-1]}]")
    return grid, [max(1, math.ceil(d / step - _PIECE_SLACK)) for d in np.diff(grid).tolist()]


def _affine_rhs(fields, u0, slope, a, n):
    """rhs(t, z) = sum_i (u0_i + slope_i (t - a)) g_i(z) over the fields whose
    control is not zero on the piece; a g_i(z) of other than n components raises DomainError."""
    active = [(c, s, g) for c, s, g in zip(u0, slope, fields) if c != 0.0 or s != 0.0]
    components = range(n)

    def rhs(t, z):
        acc = [0.0] * n
        tau = t - a
        for c, s, g in active:
            ui = c + s * tau
            if len(gz := g(z)) != n:
                raise DomainError(f"a field gives {len(gz)} components, the state has {n}")
            for i in components:
                acc[i] += ui * gz[i]
        return acc

    return rhs


def _proj(z, xi):
    return sum(map(mul, z, xi))


def _locate_event(rhs, t, z, k1, h, z_hi, xi, thr, d):
    """Smallest step fraction at which z.xi first passes thr, rising for
    d = 1 and falling for d = -1.

    z_hi is the RK4 state after the full step h, which is past thr, and k1
    its first stage, shared by every RK4 step here; returns (s, z_s) with the
    crossing bracketed to EVENT_TOL (or to neighbouring floats) and
    z_s = RK4(z, s) strictly past the threshold.

    A z already past thr (g(0) > 0 below, left by a tie) gives (0, z) at
    once.  Otherwise a bracket [lo, hi] with g(lo) <= 0 < g(hi), where
    g(s) = d (RK4(z, s).xi - thr), shrinks by three rules, floor being
    _PROBE_ULPS ulps of thr: the secant iterate, at least max(_PROBE,
    floor / slope, ulp(t)) above lo (so a z on thr pins neither s to lo nor
    t + s to t); its probe to the other side, by twice its distance to the
    root as the secant slope estimates it plus floor, and at least _PROBE,
    which closes the bracket around a close iterate at once (with constant
    fields g is affine and the first iterate is the root to rounding); and
    a bisection after a round that does not halve the bracket, which alone
    bounds a call to about 2 log2(h / EVENT_TOL) rounds of two RK4 steps.
    """
    lo, hi = 0.0, h
    g_lo, g_hi = d * (_proj(z, xi) - thr), d * (_proj(z_hi, xi) - thr)
    if g_lo > 0.0:
        return lo, z
    floor = _PROBE_ULPS * math.ulp(abs(thr) + 1.0)
    halve = False
    while hi - lo > EVENT_TOL:
        width = hi - lo
        slope = (g_hi - g_lo) / width
        s = max(lo - g_lo / slope, lo + max(_PROBE, floor / slope, math.ulp(t)))
        if halve or not lo < s < hi:
            s = 0.5 * (lo + hi)
            if not lo < s < hi:
                break  # lo and hi are neighbouring floats
        for _ in range(2):  # the iterate, then its probe
            z_s = _rk4(rhs, t, z, k1, s)
            g_s = d * (_proj(z_s, xi) - thr)
            off = max(_PROBE, (2.0 * abs(g_s) + floor) / slope)
            if g_s > 0.0:
                hi, g_hi, z_hi = s, g_s, z_s
                s = hi - off
            else:
                lo, g_lo = s, g_s
                s = lo + off
            if not lo < s < hi:
                break
        halve = hi - lo > 0.5 * width
    return hi, z_hi


def _quartic(coefs, t, quarter, ts):
    """Rows at the times ts of the quartic through the states at t + i *
    quarter, i = 0..4, in Newton form: coefs are their k-th differences over
    k!, k = 4..0, so a constant coordinate stays bit-constant.  The one
    evaluation of closed-form rows."""
    theta, rows = ((ts - t) / quarter)[:, None], 0.0
    for k, c in zip((4, 3, 2, 1, 0), coefs):
        rows = c + (theta - k) * rows
    return rows


def _exact_rows(rhs, t, z, piece, q, xi, walks):
    """(ts, rows): the solution from (t, z) at the grid points a + p h, p = q
    to nsteps (the last being b) of piece = (a, b, h, nsteps), up to the
    first row whose z.xi_j passes a pending threshold of walks[j], if one
    RK4 step over [t, b] agrees with four quarter steps to _EXACT_TOL
    relative: RK4 reproduces a solution of degree <= 4 to rounding.  These
    speculative steps probe the fields off the trajectory, so an exception
    or a non-finite state there fails the test (numpy warnings silenced).
    With walks the rows come in chunks that double from _EXACT_STEPS, up to
    the first chunk with a row past a threshold; without, in one."""
    a, b, h, nsteps = piece
    quarter = 0.25 * (b - t)
    nodes = [z]
    with np.errstate(all="ignore"):
        try:
            k1 = rhs(t, z)
            whole = _rk4(rhs, t, z, k1, b - t)
            for i in range(4):
                ti = t + i * quarter
                nodes.append(_rk4(rhs, ti, nodes[-1], rhs(ti, nodes[-1]) if i else k1, quarter))
            exact = all(
                all(map(math.isfinite, col)) and abs(w - x) <= _EXACT_TOL * max(map(abs, col))
                for w, x, col in zip(whole, nodes[4], zip(whole, *nodes)))
        except Exception:
            exact = False
    if not exact:
        return np.empty(0), np.empty((0, len(z)))
    nodes, parts = np.array(nodes, dtype=float), []
    coefs = [np.diff(nodes, k, axis=0)[0] / math.factorial(k) for k in (4, 3, 2, 1, 0)]
    rise, fall = [walk.rise for walk in walks], [walk.fall for walk in walks]
    axes = np.reshape(xi, (len(xi), len(z))).T
    size = _EXACT_STEPS if walks else nsteps + 1 - q
    while q <= nsteps:
        stop = min(q + size, nsteps + 1)
        stop -= stop == nsteps  # no one-row chunk: numpy rounds a one-row product its own way
        ts = a + np.arange(q, stop) * h
        if stop > nsteps:
            ts[-1] = b
        rows, cut = _quartic(coefs, t, quarter, ts), len(ts)
        if walks:
            proj = rows @ axes
            cut = np.append(((proj > rise) | (proj < fall)).any(axis=1), True).argmax()
        parts.append((ts[:cut], rows[:cut]))
        if cut < len(ts):
            break
        q, size = stop, 2 * size
    return tuple(np.concatenate(column) for column in zip(*parts))


def _integrate(controls, z0, step, select, n, xi=(), banks=(), label=None, entry=None):
    """RK4 on R^n on the nominal grid a + q*h of every piece, the last point
    exactly b, with delayed-relay events on the projections z.xi_j:
    (times, states, log, events).  A stretch of at least _EXACT_STEPS steps,
    from a piece's start or from an event after a closed-form stretch, is
    tested once by _exact_rows; every other row is one classical RK4 step.

    banks[j] is the RelayBank of axis j.  select(walks) maps the banks'
    current outputs to the fields, one per control (every selection has as
    many as the first), driven by the controls, affine on each piece; every
    vector summed is checked for n components (_affine_rhs), a field whose
    control is zero never.  The event of relay i on axis j is the row (t,
    i + 1, new, label(j, i)) of events, t being its row's time bit for bit,
    each label one string per run.  An axis that switches more than
    EVENT_BUDGET * (nominal steps + its relays) times chatters and raises
    DivergenceError.
    Only rows and events are kept: log is None without entry, else a list in
    which each event's row and the rows up to the next event's share one
    entry(outs), outs the banks' outputs with the events so far replayed as
    tuples, one per axis state: entries with an axis in one state share it.

    A step ends at the earliest crossing, ties going to the lowest axis (at
    its grid point if within EVENT_TOL of it; if within EVENT_TOL after its
    start, on the row there but z0's, which keeps its time and state), and
    the next step resumes to the same grid point.  Only the next relay to
    switch on each axis in each direction is located; at its event the walk
    switches, each with an event at the row's time, every relay on the axis
    that the located z.xi_j is past: a farther one only if within the
    locator's overshoot, else at its own event.  An axis is located (on the
    whole step, with its k1) only if also past its threshold at the earliest
    event located so far: if not, it crosses later, unless z.xi_j turns back
    in the step.
    """
    z = _point(z0, n)
    walks = [_Walk(bank, _proj(z, v)) for bank, v in zip(banks, xi)]
    axes = [*zip(itertools.count(), xi, walks)]  # (j, xi_j, walk_j), read on every row
    fields = select(walks)
    if len(controls) != len(fields):
        raise DomainError("one control per field required")
    grid, piece_steps = _pieces(step, controls)
    on_grid = [_affine_on(c.affine_view(), grid) for c in controls]
    u0, slope = np.transpose(on_grid, (1, 2, 0)).tolist()  # each piece's controls at a, slopes
    budgets = [EVENT_BUDGET * (sum(piece_steps) + bank.k) for bank in banks]  # events left per axis
    blocks = []  # (times, states) arrays in row order; the RK4 rows since the last in flat lists
    breaks = grid.tolist()
    times, states = [breaks[0]], [*z]
    events = [], [], [], [], []  # the columns time, index, new, operator, and beside them the axis
    names = {}  # (j, i): label(j, i), formatted at the first event of relay i on axis j
    for a, b, nsteps, c0, sl in zip(breaks, breaks[1:], piece_steps, u0, slope):
        rhs = _affine_rhs(fields, c0, sl, a, n)
        h = (b - a) / nsteps
        t = a
        q = 1  # the next row is grid point q
        test = True  # test the stretch from t for a closed form
        stretch = 0  # closed-form rows since the last event
        while q <= nsteps:
            if test and nsteps - q + 1 >= _EXACT_STEPS:
                test = False
                ts, rows = _exact_rows(rhs, t, z, (a, b, h, nsteps), q, xi, walks)
                stretch = len(ts)
                if stretch:
                    _check_cap(np.abs(rows).max(axis=0))
                    blocks.append((np.array(times), np.reshape(states, (-1, n))))
                    blocks.append((ts, rows))
                    times, states = [], []
                    t, z = float(ts[-1]), tuple(rows[-1].tolist())
                    q += stretch
                    continue
            t_end = b if q == nsteps else a + q * h
            dt = h if t == a + (q - 1) * h else t_end - t  # from a row on grid point q - 1, or an event
            k1 = rhs(t, z)
            z_new = _rk4(rhs, t, z, k1, dt)
            hit = None
            for j, v, walk in axes:
                p = sum(map(mul, z_new, v))
                if p > walk.rise:
                    d, thr = 1, walk.rise
                elif p < walk.fall:
                    d, thr = -1, walk.fall
                else:
                    continue
                if hit is None or d * (_proj(hit[1], v) - thr) > 0.0:  # it can come first
                    s, z_s = _locate_event(rhs, t, z, k1, dt, z_new, v, thr, d)
                    if hit is None or s < hit[0]:
                        hit = (s, z_s, j, d)
            if hit is None:
                z, t = z_new, t_end
            else:
                s, z_s, j, d = hit
                at_row = s <= EVENT_TOL and t > breaks[0]  # on the step start's row, not z0's
                if not at_row:
                    z = z_s
                    t = t_end if t_end - (t + s) <= EVENT_TOL else t + s
                for i in walks[j].switch(d, _proj(z_s, xi[j])):
                    name = names.get((j, i)) or names.setdefault((j, i), label(j, i))
                    for column, value in zip(events, (t, i + 1, d, name, j)):
                        column.append(value)
                    budgets[j] -= 1
                if budgets[j] < 0:
                    raise DivergenceError(f"relay on axis {j + 1} chatters: more than "
                                          f"{EVENT_BUDGET} events per nominal step and relay")
                rhs = _affine_rhs(fields := select(walks), c0, sl, a, n)
                test = stretch >= _EXACT_STEPS
                stretch = 0
                if at_row:
                    continue
            _check_cap(z)
            times.append(t)
            states += z
            if t == t_end:
                q += 1
    blocks.append((np.array(times), np.reshape(states, (-1, n))))
    times, states = (np.concatenate(column) for column in zip(*blocks))
    log = None
    if entry:  # one run of one entry from each event's row (its time, bit for bit) to the next's
        outs = [bank.outs for bank in banks]
        seen, moves = {o: o for o in outs}, {}  # one tuple per state; (id(state), i, new) -> next
        rows = np.searchsorted(times, events[0]).tolist() + [len(times)]
        log = [entry(outs)] * rows[0]
        for j, i, new, row, end in zip(events[4], events[1], events[2], rows, rows[1:]):
            if (move := (id(outs[j]), i, new)) not in moves:
                moves[move] = seen.setdefault(o := outs[j][:i - 1] + (new,) + outs[j][i:], o)
            outs[j] = moves[move]
            log += [entry(outs)] * (end - row)
    return times, states, log, _Events(*events[:4])


# ---------------------------------------------------------------------------
# plain and play-in-controls systems

def integrate_plain(sys: FieldSet, controls, z0, step=1e-3) -> Trajectory:
    """Fixed-step RK4 on the nominal grid between the control breakpoints;
    the controls, step signals or polylines, are affine on each piece."""
    return Trajectory(*_integrate(controls, z0, step, lambda walks: sys.fields, sys.n)[:2])


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
    grid, nsub = _pieces(step, [*controls, *plays])
    nodes = np.concatenate([grid[:1]] + [np.linspace(t0, t1, 2 * n + 1)[1:]
                                         for t0, t1, n in zip(grid, grid[1:], nsub)])
    tgrid = nodes[::2]
    h = np.repeat(0.5 * np.diff(grid) / nsub, nsub)
    p_nodes = [sample(p, nodes) for p in plays]
    y_cols = []
    for i, f in enumerate(spec.fs):
        u = np.repeat(_affine_on(controls[i + 1].affine_view(), grid)[0], nsub)
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

def integrate_switching(spec: SwitchingSpec, controls, z0, w0_string, step=1e-3) -> Trajectory:
    """Relay-switched system: one delayed relay per axis drives the field choice."""
    string = tuple(w0_string)
    if string not in spec.field_table:
        raise DomainError("initial string must be in {-1,+1}^m")
    banks = [RelayBank((lo,), (hi,), (int(w),)) for (lo, hi), w in zip(spec.thresholds, string)]

    def select(walks):
        return spec.field_table[tuple(walk.outs[0] for walk in walks)].fields

    times, states, log, events = _integrate(controls, z0, step, select, spec.field_table[string].n,
                                            spec.xi, banks, lambda j, i: f"axis{j + 1}",
                                            lambda outs: tuple(o[0] for o in outs))
    return Trajectory(times, states, {"string": log}, events)


def integrate_bank(spec: BankSpec, controls, z0, banks, step=1e-3) -> Trajectory:
    """Relay-bank system: each axis carries a k-relay bank whose macroscopic
    output feeds the corresponding field."""
    if len(banks) != spec.m or any(bk.k != spec.k for bk in banks):
        raise DomainError("one k-relay bank per axis required")

    def select(walks):
        return tuple(partial(g, walk.total / spec.k) for g, walk in zip(spec.fields, walks))

    times, states, log, events = _integrate(controls, z0, step, select, len(spec.xi[0]), spec.xi,
                                            banks, lambda j, i: f"axis{j + 1}.relay{i + 1}", tuple)
    return Trajectory(times, states, {"strings": log}, events)
