"""Trajectory integration for driftless control-affine systems.

Five flavours: plain (no hysteresis), play in the controls, play in the state
(triangular/chain), delayed-relay switching, and relay-bank systems.  The base
scheme is fixed-step classical RK4 with mandatory sub-steps at every control
and play-output breakpoint.  For triangular systems the x coordinates and the
play outputs are computed in closed form and only the output integrals are
quadratures (Simpson, exact on piecewise-affine integrands).

Switching and bank systems share one event-driven loop over relay banks on
the projections z.xi_j: a switching axis carries a one-relay bank, a bank
axis k relays.  Each step is checked against the next relay to switch on
each axis in each direction, one index each way as hysteresis keeps it, and
the first crossing is localized by bisection.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .hysteresis import RelayBank, RelayState, _Walk, play_apply
from .signals import (
    DomainError, StepSignal, antiderivative, breakpoints, check_times, merge_times, sample,
)

NORM_CAP = 1e6
EVENT_TOL = 1e-12
# Relative slack when controls must share a horizon and when a piece is cut
# into steps (a piece a hair longer than whole steps gets no sliver step).
_PIECE_SLACK = 1e-9
# Relative slack below a piece's end at which the event loop stops stepping.
_END_SLACK = 1e-15


class DivergenceError(RuntimeError):
    """State norm exceeded the compactness cap."""


@dataclass(frozen=True)
class FieldSet:
    """m control vector fields on R^n; fields map a state tuple to a vector."""

    n: int
    m: int
    fields: tuple
    lipschitz: float | None = None
    bound: float | None = None


def heisenberg_fields() -> FieldSet:
    """g1 = d/dx, g2 = d/dy + x d/dz."""
    return FieldSet(
        n=3,
        m=2,
        fields=(lambda z: (1.0, 0.0, 0.0), lambda z: (0.0, 1.0, z[0])),
        lipschitz=1.0,
    )


@dataclass(frozen=True)
class TriangularSpec:
    """Chain system with m controls: dx_i = u_i, dy_{m+i-1} = f_i(plays) u_i.

    fs holds f_2..f_m (f_i takes the first i-1 play outputs); rho and the
    seeds w0 configure the plays on x_1..x_{m-1}.
    """

    m: int
    fs: tuple
    rho: float
    w0: tuple

    def __post_init__(self):
        if self.m < 2:
            raise DomainError("triangular systems need m >= 2")
        if len(self.fs) != self.m - 1 or len(self.w0) != self.m - 1:
            raise DomainError("need one f and one seed per output direction")


@dataclass(frozen=True)
class SwitchingSpec:
    """Each field g_i switches between two versions driven by a relay on z.xi_i.

    field_table maps every m-string in {-1,+1}^m to a FieldSet; thresholds
    defaults to (-eta, eta) on every axis but can be overridden per axis.
    """

    xi: tuple
    eta: float
    field_table: dict
    thresholds: tuple | None = None

    def __post_init__(self):
        m = len(self.xi)
        if len(self.field_table) != 2 ** m:
            raise DomainError("field table must cover all 2^m strings")
        for v in self.xi:
            if abs(math.sqrt(sum(c * c for c in v)) - 1.0) > 1e-9:
                raise DomainError("xi must be unit vectors")
        if self.thresholds is not None and (
            len(self.thresholds) != m or any(len(pair) != 2 for pair in self.thresholds)
        ):
            raise DomainError("need one (lo, hi) threshold pair per axis")
        for i in range(m):
            RelayState(*self.axis_thresholds(i), 1)  # checks the thresholds

    @property
    def m(self) -> int:
        return len(self.xi)

    def axis_thresholds(self, i: int) -> tuple[float, float]:
        if self.thresholds is not None:
            return self.thresholds[i]
        return (-self.eta, self.eta)


@dataclass(frozen=True)
class BankSpec:
    """Relay-bank system: dz = sum_j g_j(w_k[z.xi_j], z) u_j."""

    xi: tuple
    k: int
    fields: tuple  # g_j(w, z) -> vector

    @property
    def m(self) -> int:
        return len(self.xi)


@dataclass(frozen=True)
class Event:
    time: float
    operator: str
    old: float
    new: float


def gronwall_bound(C_k: float, m: float, M: float, L: float, T: float) -> float:
    if min(C_k, m, M, L, T) < 0.0:
        raise DomainError("Gronwall inputs must be nonnegative")
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
        n = self.states.shape[1]
        log_keys = sorted(self.hysteresis_log)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t"] + [f"z{i + 1}" for i in range(n)] + log_keys)
            for idx in range(len(self.times)):
                row = [self.times[idx]] + list(self.states[idx])
                for key in log_keys:
                    val = self.hysteresis_log[key][idx]
                    if isinstance(val, (tuple, list)):
                        row.append("".join("+" if int(v) > 0 else "-" for v in val))
                    else:
                        row.append(val)
                w.writerow(row)


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


def _check_dim(z0, n):
    if len(z0) != n:
        raise DomainError(f"z0 has {len(z0)} coordinates, the system {n}")


def _check_cap(z, cap):
    """DivergenceError unless every coordinate is finite and within the cap."""
    for c in z:
        if not -cap <= c <= cap:
            raise DivergenceError(f"state left the cap {cap} or is not finite")


def _pieces(step, T, controls, plays=()):
    """Pieces (a, b, nsteps) between the merged breakpoints of the signals.

    The controls must be step signals, since the integrators hold each one
    at its midpoint value on a piece; the plays are polyline outputs.  All
    signals must share the horizon T (the first signal's if T is None);
    each piece gets the fewest equal steps that are no longer than step.
    """
    if step <= 0.0:
        raise DomainError("step must be positive")
    if not all(isinstance(c, StepSignal) for c in controls):
        raise DomainError("controls must be step signals")
    signals = [*controls, *plays]
    if T is None:
        T = signals[0].horizon
    for s in signals:
        if abs(s.horizon - T) > _PIECE_SLACK * max(1.0, T):
            raise DomainError("controls must share the horizon [0, T]")
    breaks = merge_times(*(breakpoints(s) for s in signals))
    return [
        (a, b, max(1, math.ceil((b - a) / step - _PIECE_SLACK)))
        for a, b in zip(breaks, breaks[1:])
    ]


def _combined_rhs(fields, u, n):
    """rhs(t, z) = sum_i u_i g_i(z) over the fields with a nonzero control."""
    active = [(ui, g) for ui, g in zip(u, fields) if ui != 0.0]
    if not active:
        zeros = (0.0,) * n
        return lambda t, z: zeros
    if len(active) == 1:
        u0, g0 = active[0]

        def rhs1(t, z):
            return tuple(u0 * c for c in g0(z))

        return rhs1

    def rhs(t, z):
        acc = [0.0] * n
        for ui, g in active:
            gz = g(z)
            for i in range(n):
                acc[i] += ui * gz[i]
        return acc

    return rhs


def _rk4_pieces(pieces, rhs_of, z0, cap):
    """Equal RK4 steps across each piece (a, b, nsteps), with rhs_of(a, b)."""
    z = tuple(float(c) for c in z0)
    times = [pieces[0][0]]
    states = [z]
    for a, b, nsteps in pieces:
        rhs = rhs_of(a, b)
        h = (b - a) / nsteps
        t = a
        for q in range(nsteps):
            z = _rk4(rhs, t, z, h)
            t = b if q == nsteps - 1 else a + (q + 1) * h
            _check_cap(z, cap)
            times.append(t)
            states.append(z)
    return np.asarray(times), np.asarray(states)


# ---------------------------------------------------------------------------
# plain and play-in-controls systems

def integrate_plain(sys: FieldSet, controls, z0, T=None, step=1e-3, cap=NORM_CAP) -> Trajectory:
    """Fixed-step RK4 with sub-steps aligned to every control breakpoint."""
    if len(controls) != sys.m:
        raise DomainError("one control per field required")
    _check_dim(z0, sys.n)

    def rhs_of(a, b):
        return _combined_rhs(sys.fields, [c(0.5 * (a + b)) for c in controls], sys.n)

    return Trajectory(*_rk4_pieces(_pieces(step, T, controls), rhs_of, z0, cap))


def integrate_play_controls(
    sys: FieldSet, v, w0, rho, z0, T=None, step=1e-3, cap=NORM_CAP
) -> Trajectory:
    """System driven by the play outputs of the inputs v (exact polylines)."""
    if len(v) != sys.m or len(w0) != sys.m:
        raise DomainError("one input and one seed per field required")
    _check_dim(z0, sys.n)
    plays = [play_apply(vi, wi, rho) for vi, wi in zip(v, w0)]
    fields = sys.fields
    m = sys.m
    n = sys.n

    def rhs_of(a, b):
        p0 = [p(a) for p in plays]
        sl = [(p(b) - q) / (b - a) for p, q in zip(plays, p0)]

        def rhs(t, z, p0=p0, sl=sl, a=a):
            acc = [0.0] * n
            tau = t - a
            for i in range(m):
                ui = p0[i] + sl[i] * tau
                if ui == 0.0:
                    continue
                gz = fields[i](z)
                for q in range(n):
                    acc[q] += ui * gz[q]
            return acc

        return rhs

    times, states = _rk4_pieces(_pieces(step, T, (), plays), rhs_of, z0, cap)
    log = {f"play{i + 1}": sample(p, times) for i, p in enumerate(plays)}
    return Trajectory(times, states, hysteresis_log=log)


# ---------------------------------------------------------------------------
# play-in-state (triangular / chain) systems

def _vectorized(f, arrays):
    vals = np.asarray(f(*arrays), dtype=float)
    if vals.shape != arrays[0].shape:
        vals = np.broadcast_to(vals, arrays[0].shape).copy()
    return vals


def integrate_play_state(
    spec: TriangularSpec, controls, z0, T=None, step=1e-3, cap=NORM_CAP
) -> Trajectory:
    """Triangular/chain integration: exact x and play paths, Simpson outputs.

    State ordering is (x_1..x_m, y_{m+1}..y_{2m-1}).
    """
    m = spec.m
    if len(controls) != m or len(z0) != 2 * m - 1:
        raise DomainError("control/state dimensions inconsistent with spec")
    x_polys = [antiderivative(controls[i], float(z0[i])) for i in range(m)]
    plays = [play_apply(x_polys[i], float(spec.w0[i]), spec.rho) for i in range(m - 1)]
    pieces = _pieces(step, T, controls, plays)

    y0 = np.array([float(c) for c in z0[m:]])
    tgrid_parts = [np.array([pieces[0][0]])]
    y_parts = [y0[None, :]]
    y = y0
    # Simpson nodes of every piece, and each play sampled on all of them at once
    nodes = [np.linspace(a, b, 2 * nsub + 1) for a, b, nsub in pieces]
    ends = np.cumsum([len(ts) for ts in nodes])
    p_all = [sample(p, np.concatenate(nodes)) for p in plays]
    for (a, b, nsub), ts, end in zip(pieces, nodes, ends):
        p_samp = [ps[end - len(ts):end] for ps in p_all]
        h = (b - a) / (2 * nsub)
        incs = np.zeros((nsub, m - 1))
        for i in range(2, m + 1):
            ui = controls[i - 1](0.5 * (a + b))
            if ui == 0.0:
                continue
            w = _vectorized(spec.fs[i - 2], p_samp[: i - 1]) * ui
            incs[:, i - 2] = (h / 3.0) * (w[0:-1:2] + 4.0 * w[1::2] + w[2::2])
        y_path = y + np.cumsum(incs, axis=0)
        y = y_path[-1]
        tgrid_parts.append(ts[2::2])
        y_parts.append(y_path)
    tgrid = np.concatenate(tgrid_parts)
    y_all = np.vstack(y_parts)
    x_cols = [sample(p, tgrid) for p in x_polys]
    states = np.column_stack(x_cols + [y_all[:, i] for i in range(m - 1)])
    _check_cap(np.abs(states).max(axis=0), cap)
    log = {f"play{i + 1}": sample(p, tgrid) for i, p in enumerate(plays)}
    return Trajectory(tgrid, states, hysteresis_log=log)


# ---------------------------------------------------------------------------
# switching and bank systems: one event-driven loop over delayed relays

def _proj(z, xi):
    return sum(c * x for c, x in zip(z, xi))


def sector_index(z, spec: SwitchingSpec) -> set:
    """All m-strings compatible with z under closure semantics."""
    options = []
    for i, xi in enumerate(spec.xi):
        proj, lo_hi = _proj(z, xi), spec.axis_thresholds(i)
        options.append([w for w in (1, -1) if RelayState(*lo_hi, w).consistent_with(proj)])
    return set(itertools.product(*options))


def _bisect_event(rhs, t, z, h, z_hi, xi, thr, d):
    """Smallest step fraction at which z.xi first passes thr, rising for
    d = 1 and falling for d = -1.

    z_hi is the RK4 state after the full step h, which is past thr; returns
    (s, z_s) with the crossing bracketed to EVENT_TOL and z_s strictly past
    the threshold.
    """
    lo, hi = 0.0, h
    while hi - lo > EVENT_TOL:
        mid = 0.5 * (lo + hi)
        z_mid = _rk4(rhs, t, z, mid)
        if d * _proj(z_mid, xi) > d * thr:
            hi, z_hi = mid, z_mid
        else:
            lo = mid
    return hi, z_hi


def _integrate_relays(xi, banks, select, log_key, label, controls, z0, T, step, cap):
    """RK4 with delayed-relay events on the projections z.xi_j.

    banks[j] is the RelayBank of axis j.  select(outs) maps the current
    outputs (one list per axis) to (fields, log entry); the fields are
    combined with the controls as in a plain system.  The log entry of every
    step goes to hysteresis_log[log_key], and label(j, i) names the events
    of relay i on axis j.

    A step ends at the earliest crossing, ties going to the lowest axis.  Only
    the next relay to switch on each axis in each direction is bisected:
    a farther relay's crossing implies the nearer one's, so its bisection can
    never end earlier (if it ends at the same fraction, the nearer relay
    switches first and the farther one on the next step).
    """
    z = tuple(float(c) for c in z0)
    walks = [_Walk(bank) for bank in banks]
    for j, (v, walk) in enumerate(zip(xi, walks)):
        _check_dim(z, len(v))
        if walk.crossed(_proj(z, v)):
            raise DomainError(f"relay outputs inconsistent with z0 on axis {j + 1}")
    pieces = _pieces(step, T, controls)
    n = len(z)
    outs = [walk.outs for walk in walks]  # the walks switch these lists in place
    fields, entry = select(outs)
    times = [pieces[0][0]]
    states = [z]
    log = [entry]
    events = []
    for a, b, nsteps in pieces:
        u = [c(0.5 * (a + b)) for c in controls]
        rhs = _combined_rhs(fields, u, n)
        t = a
        h_nom = (b - a) / nsteps
        while t < b - _END_SLACK * max(1.0, b):
            h = min(h_nom, b - t)
            z_new = _rk4(rhs, t, z, h)
            hit = None
            for j, (v, walk) in enumerate(zip(xi, walks)):
                crossed = walk.crossed(_proj(z_new, v))
                if crossed:
                    d, thr = crossed
                    s, z_s = _bisect_event(rhs, t, z, h, z_new, v, thr, d)
                    if hit is None or s < hit[0]:
                        hit = (s, z_s, j, d)
            if hit is None:
                z = z_new
                t = t + h
            else:
                s, z, j, d = hit
                t = t + s
                events.append(Event(t, label(j, walks[j].switch(d)), -d, d))
                fields, entry = select(outs)
                rhs = _combined_rhs(fields, u, n)
            _check_cap(z, cap)
            times.append(t)
            states.append(z)
            log.append(entry)
    return Trajectory(np.asarray(times), np.asarray(states), {log_key: log}, tuple(events))


def integrate_switching(
    spec: SwitchingSpec, controls, z0, w0_string, T=None, step=1e-3, cap=NORM_CAP
) -> Trajectory:
    """Relay-switched system: one delayed relay per axis drives the field choice."""
    m = spec.m
    string = tuple(int(w) for w in w0_string)
    if len(string) != m or any(w not in (-1, 1) for w in string):
        raise DomainError("initial string must be in {-1,+1}^m")
    if len(controls) != spec.field_table[string].m:
        raise DomainError("one control per field required")
    _check_dim(z0, spec.field_table[string].n)
    banks = [RelayBank((RelayState(*spec.axis_thresholds(i), w),)) for i, w in enumerate(string)]

    def select(outs):
        s = tuple(o[0] for o in outs)
        return spec.field_table[s].fields, s

    return _integrate_relays(
        spec.xi, banks, select, "string", lambda j, i: f"axis{j + 1}",
        controls, z0, T, step, cap,
    )


def integrate_bank(
    spec: BankSpec, controls, z0, banks, T=None, step=1e-3, cap=NORM_CAP
) -> Trajectory:
    """Relay-bank system: each axis carries a k-relay bank whose macroscopic
    output feeds the corresponding field."""
    m = spec.m
    if len(banks) != m or any(bk.k != spec.k for bk in banks):
        raise DomainError("one k-relay bank per axis required")
    if len(controls) != m:
        raise DomainError("one control per field required")

    def select(outs):
        fields = tuple(partial(g, sum(o) / spec.k) for g, o in zip(spec.fields, outs))
        return fields, tuple(map(tuple, outs))

    return _integrate_relays(
        spec.xi, banks, select, "strings",
        lambda j, i: f"axis{j + 1}.relay{i + 1}", controls, z0, T, step, cap,
    )
