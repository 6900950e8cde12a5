"""Scalar play operator, truncated play, delayed relays and relay banks.

All operators are exact on piecewise-monotone inputs, which is the only class
we ever feed them (polylines are piecewise monotone).  The play and the
truncated play are front ends of one generalized play: its output is clamped
between two nondecreasing piecewise-affine boundary curves of the input, each
given as (breaks, pieces), its sorted kinks and one (intercept, slope) per
piece.  States are small frozen value types; updates return new states.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace

from .signals import DomainError, PolylineSignal, StepSignal, TimeGrid

_SEED_SLACK = 1e-12


def _clamp(w: float, lo: float, hi: float) -> float:
    """min(hi, max(lo, w)) for lo <= hi."""
    return lo if w < lo else hi if w > hi else w


def _curve(boundary, xs) -> list:
    """The boundary's values at the inputs xs."""
    breaks, pieces = boundary
    return [a + b * x for x in xs for a, b in (pieces[bisect_right(breaks, x)],)]


def _seed(u0: float, w0: float, lower, upper) -> float:
    """w0 clamped into [lower(u0), upper(u0)]; DomainError unless it is finite
    and lies there up to _SEED_SLACK * max(1, |u0|, |w0|)."""
    (lo,), (hi,) = _curve(lower, [u0]), _curve(upper, [u0])
    slack = _SEED_SLACK * max(1.0, abs(u0), abs(w0))
    if not (math.isfinite(w0) and lo - slack <= w0 <= hi + slack):
        raise DomainError(f"seed w0={w0} outside [{lo}, {hi}] at input {u0}")
    return _clamp(float(w0), lo, hi)


def _play_bounds(rho: float):
    """The play's boundaries u - rho and u + rho."""
    if not 0.0 <= rho < math.inf:
        raise DomainError(f"play half-width rho must be finite and >= 0, got {rho}")
    return ((), ((-float(rho), 1.0),)), ((), ((float(rho), 1.0),))


def _generalized_play(u: PolylineSignal, w0: float, lower, upper) -> PolylineSignal:
    """Exact output along u of the play between the boundaries lower <= upper.

    w is frozen strictly between them; a rising input drags it up along lower,
    a falling one down along upper, and such a segment ends in the one clamp.
    A knot goes where w meets the boundary it is about to ride and at every
    kink of that boundary while w rides it, so there is no sampling error.
    """
    rides = {}  # direction s -> (kinks, pieces), in the order u passes them
    for s, (breaks, pieces) in ((1, lower), (-1, upper)):
        rides[s] = list(zip(breaks, _curve((breaks, pieces), breaks)))[::s], pieces[::s]
    knots = u.knots
    us = [v for _, v in knots]
    lo, hi = _curve(lower, us), _curve(upper, us)
    w = _seed(knots[0][1], w0, lower, upper)
    out = [(knots[0][0], w)]

    def emit(t, v):
        if t > out[-1][0]:
            out.append((t, v))

    for (t0, u0), (t1, u1), lo0, lo1, hi0, hi1 in zip(knots, knots[1:], lo, lo[1:], hi, hi[1:]):
        s, r0, r1 = (1, lo0, lo1) if u1 > u0 else (-1, -hi0, -hi1)  # pushing boundary, times s
        if r0 < r1 and s * w <= r1:  # it moves and reaches w within this segment
            kinks, pieces = rides[s]
            if r0 < s * w < r1:  # frozen first, then dragged, on the piece after the kinks below w
                a, b = pieces[sum(s * v < s * w for _, v in kinks)]
                emit(t0 + ((w - a) / b - u0) * (t1 - t0) / (u1 - u0), w)
            for x, v in kinks:
                if s * u0 < s * x < s * u1 and s * v >= s * w:
                    emit(t0 + (x - u0) * (t1 - t0) / (u1 - u0), v)
            w = _clamp(w, lo1, hi1)
        emit(t1, w)
    return PolylineSignal(tuple(out))


@dataclass(frozen=True)
class PlayState:
    """Dead-band half-width rho and current output w; |u - w| <= rho always."""

    rho: float
    w: float

    def __post_init__(self):
        _play_bounds(self.rho)  # checks rho


def play_update(state: PlayState, u_next: float) -> PlayState:
    """Advance the play across one monotone input move ending at u_next.

    The clamp between u - rho and u + rho is the unique rule matching the
    phase portrait: frozen inside the strip, dragged along its boundary.
    """
    return replace(state, w=_clamp(state.w, u_next - state.rho, u_next + state.rho))


def play_apply(u: PolylineSignal, w0: float, rho: float) -> PolylineSignal:
    """Exact output polyline of the play operator driven by the polyline u."""
    return _generalized_play(u, w0, *_play_bounds(rho))


_TRUNCATED_BOUNDS = (
    ((0.0, 1.0), ((-1.0, 0.0), (-1.0, 2.0), (1.0, 0.0))),
    ((-1.0, 0.0), ((-1.0, 0.0), (1.0, 2.0), (1.0, 0.0))),
)


def truncated_play_apply(zeta: PolylineSignal, w0: float) -> PolylineSignal:
    """Exact truncated-play (continuum relay bank) output, between clip(2*zeta -+ 1, -1, 1)."""
    return _generalized_play(zeta, w0, *_TRUNCATED_BOUNDS)


# ---------------------------------------------------------------------------
# delayed relay

@dataclass(frozen=True)
class RelayState:
    """Two-threshold switch: output -1/+1, switching strictly beyond lo/hi."""

    lo: float
    hi: float
    out: int

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError("relay needs lo < hi")
        if self.out not in (-1, 1):
            raise DomainError("relay output must be -1 or +1")

    def consistent_with(self, z: float) -> bool:
        return z >= self.lo if self.out == 1 else z <= self.hi


@dataclass(frozen=True)
class SwitchEvent:
    time: float
    index: int
    old: int
    new: int


def relay_advance(
    state: RelayState,
    z_prev: float,
    z_next: float,
    t_prev: float = 0.0,
    t_next: float = 1.0,
    index: int = 0,
):
    """Advance a relay across one affine input move; at most one switch.

    Strict inequalities at the thresholds (no switch on touching them); the
    crossing time is affinely interpolated, exact for polyline inputs.
    """
    if not state.consistent_with(z_prev):
        raise DomainError(
            f"relay output {state.out} inconsistent with input {z_prev} "
            f"(thresholds {state.lo}, {state.hi})"
        )
    if state.out == 1 and z_next < state.lo:
        thr, new = state.lo, -1
    elif state.out == -1 and z_next > state.hi:
        thr, new = state.hi, 1
    else:
        return state, None
    frac = (thr - z_prev) / (z_next - z_prev)
    event = SwitchEvent(t_prev + frac * (t_next - t_prev), index, state.out, new)
    return replace(state, out=new), event


# ---------------------------------------------------------------------------
# relay bank (finite Preisach superposition)

@dataclass(frozen=True)
class RelayBank:
    """Ordered bank of k relays, relay i with thresholds (-1+i/k, i/k)."""

    relays: tuple[RelayState, ...]

    @property
    def k(self) -> int:
        return len(self.relays)

    @property
    def output(self) -> float:
        return sum(r.out for r in self.relays) / self.k

    @staticmethod
    def make(k: int, outputs) -> "RelayBank":
        if k < 1:
            raise DomainError("bank needs k >= 1")
        relays = tuple(
            RelayState(-1.0 + i / k, i / k, out)
            for i, out in zip(range(1, k + 1), outputs)
        )
        if len(relays) != k:
            raise DomainError("need one output per relay")
        return RelayBank(relays)

    @staticmethod
    def staircase(k: int, n_plus: int) -> "RelayBank":
        """Bank in the staircase configuration (+1 x n_plus, -1 x rest)."""
        if not 0 <= n_plus <= k:
            raise DomainError("n_plus must be in 0..k")
        return RelayBank.make(k, [1] * n_plus + [-1] * (k - n_plus))

    def is_staircase(self) -> bool:
        outs = [r.out for r in self.relays]
        return all(a >= b for a, b in zip(outs, outs[1:]))

    def consistent_with(self, zeta: float) -> bool:
        return all(r.consistent_with(zeta) for r in self.relays)

    def to_json(self):
        return [{"lo": r.lo, "hi": r.hi, "out": r.out} for r in self.relays]


def bank_trace(bank: RelayBank, zeta: PolylineSignal):
    """(macroscopic step output, switch events, final bank) along zeta.

    Relay switch times inside one monotone segment are sorted, so the update
    order never depends on relay index.
    """
    if not bank.consistent_with(zeta.knots[0][1]):
        raise DomainError("bank relay states inconsistent with zeta(0)")
    relays = list(bank.relays)
    events: list[SwitchEvent] = []
    break_times = [zeta.knots[0][0]]
    levels = [sum(r.out for r in relays) / bank.k]

    for (t0, z0), (t1, z1) in zip(zeta.knots, zeta.knots[1:]):
        seg = []
        for i, r in enumerate(relays):
            _, ev = relay_advance(r, z0, z1, t0, t1, index=i + 1)
            if ev is not None:
                seg.append(ev)
        for ev in sorted(seg, key=lambda e: e.time):
            relays[ev.index - 1] = replace(relays[ev.index - 1], out=ev.new)
            events.append(ev)
            level = sum(r.out for r in relays) / bank.k
            if break_times[-1] < ev.time:
                break_times.append(ev.time)
                levels.append(level)
            else:  # simultaneous switches merge into one breakpoint
                levels[-1] = level
    T = zeta.horizon
    if break_times[-1] >= T:  # event exactly at the horizon: keep grid valid
        break_times.pop()
        levels.pop()
        levels[-1] = sum(r.out for r in relays) / bank.k
    break_times.append(T)
    output = StepSignal(TimeGrid(tuple(break_times)), tuple(levels))
    return output, events, RelayBank(tuple(relays))


def saturation_prefix(
    zeta: PolylineSignal, lead: float = 1.0, direction: int = 1
) -> PolylineSignal:
    """Prepend a there-and-back ramp to +-1 so the bank enters its staircase loop.

    The returned input lives on [0, lead + T] and agrees with zeta afterwards.
    """
    if lead <= 0.0:
        raise DomainError("lead time must be positive")
    z0 = zeta.knots[0][1]
    peak = float(direction)
    knots = [(0.0, z0)]
    if peak != z0:
        knots.append((0.5 * lead, peak))
    knots.append((lead, z0))
    knots.extend((t + lead, v) for t, v in zeta.knots[1:])
    return PolylineSignal(tuple(knots))

