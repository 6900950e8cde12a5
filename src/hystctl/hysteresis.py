"""Scalar play operator, truncated play, delayed relays and relay banks.

All operators are exact on piecewise-monotone inputs, which is the only class
we ever feed them (polylines are piecewise monotone).  The play and the
truncated play are front ends of one generalized play: its output is clamped
between two nondecreasing piecewise-affine boundary curves of the input, each
given as (breaks, pieces), its sorted kinks and one (intercept, slope) per
piece.  A delayed relay is a one-relay bank.  A bank's thresholds strictly
increase with the relay index, so the next relay to switch is one index each
way (wiping-out); _Walk keeps that pair, and bank_trace and the relay core of
dynamics both read it.  States are small frozen value types; updates return
new states.
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
        if not math.isfinite(self.w):
            raise DomainError(f"play output w must be finite, got {self.w}")


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
# delayed relays and relay banks (a delayed relay is a one-relay bank)

@dataclass(frozen=True)
class RelayState:
    """Two-threshold switch: output -1/+1, switching strictly beyond lo/hi."""

    lo: float
    hi: float
    out: int

    def __post_init__(self):
        if not -math.inf < self.lo < self.hi < math.inf:
            raise DomainError(f"relay needs finite thresholds lo < hi, got ({self.lo}, {self.hi})")
        if self.out not in (-1, 1):
            raise DomainError("relay output must be -1 or +1")


@dataclass(frozen=True)
class SwitchEvent:
    """Relay index switched to new (from -new) at time; operator names its
    axis in a relay-core run and is empty in bank_trace."""

    time: float
    index: int
    new: int
    operator: str = ""

    @property
    def old(self) -> int:
        return -self.new


@dataclass(frozen=True)
class RelayBank:
    """Finite Preisach superposition: relays whose lo and hi both strictly
    increase with the index; its output is the mean of theirs.

    A delayed relay is the one-relay bank.  With sorted thresholds the next
    relay to switch is one index each way (wiping-out): the lowest-index
    relay at -1 on a rise, at its hi, and the highest-index one at +1 on a
    fall, at its lo.  make and staircase give relay i of k thresholds (-1+i/k, i/k).
    """

    relays: tuple[RelayState, ...]

    def __post_init__(self):
        if not self.relays:
            raise DomainError("bank needs at least one relay")
        for a, b in zip(self.relays, self.relays[1:]):
            if not (a.lo < b.lo and a.hi < b.hi):
                raise DomainError("bank thresholds must strictly increase with the index")

    @property
    def k(self) -> int:
        return len(self.relays)

    @property
    def output(self) -> float:
        return sum(r.out for r in self.relays) / self.k

    @staticmethod
    def make(outputs) -> "RelayBank":
        """One relay per output, k = len(outputs)."""
        k = len(outputs)
        return RelayBank(tuple(
            RelayState(-1.0 + i / k, i / k, out) for i, out in enumerate(outputs, 1)))

    @staticmethod
    def staircase(k: int, n_plus: int) -> "RelayBank":
        """Bank in the staircase configuration (+1 x n_plus, -1 x rest)."""
        if not 0 <= n_plus <= k:
            raise DomainError("n_plus must be in 0..k")
        return RelayBank.make([1] * n_plus + [-1] * (k - n_plus))

    def is_staircase(self) -> bool:
        outs = [r.out for r in self.relays]
        return all(a >= b for a, b in zip(outs, outs[1:]))

    def consistent_with(self, zeta: float) -> bool:
        """Whether every relay's output is one it may hold at the input zeta
        (never at a NaN)."""
        return not math.isnan(zeta) and _Walk(self).crossed(zeta) is None


class _Walk:
    """A bank's outputs while it switches, and its next switch each way: up,
    the lowest index at -1, and down, the highest at +1.  They are k and -1
    if there is none, where the sentinels his[k] = inf and los[-1] = -inf
    are never passed.  A switch moves its pointer by a scan from the
    switched index, one step in a staircase bank."""

    def __init__(self, bank: RelayBank):
        self.outs = [r.out for r in bank.relays]
        self.his = [r.hi for r in bank.relays] + [math.inf]
        self.los = [r.lo for r in bank.relays] + [-math.inf]
        self.total = sum(self.outs)
        self.up = self._scan(0, 1)
        self.down = self._scan(bank.k - 1, -1)

    def _scan(self, j: int, s: int) -> int:
        """The first index from j on, stepping by s, whose output is -s."""
        outs = self.outs
        while 0 <= j < len(outs) and outs[j] == s:
            j += s
        return j

    def crossed(self, z: float):
        """(s, threshold) of the next switch z is strictly past, s = +1 on a
        rise and -1 on a fall; None if there is none, that is if every relay
        is consistent with z."""
        if z > self.his[self.up]:
            return 1, self.his[self.up]
        if z < self.los[self.down]:
            return -1, self.los[self.down]
        return None

    def switch(self, s: int) -> int:
        """Switch the next relay in direction s to s; return its index."""
        if s == 1:
            i = self.up
            self.up, self.down = self._scan(i + 1, 1), max(self.down, i)
        else:
            i = self.down
            self.down, self.up = self._scan(i - 1, -1), min(self.up, i)
        self.outs[i] = s
        self.total += 2 * s
        return i


def bank_trace(bank: RelayBank, zeta: PolylineSignal):
    """(macroscopic step output, switch events, final bank) along zeta.

    On each input segment the pending relay switches while the segment's end
    is strictly past its threshold, at the affinely interpolated crossing
    time, so the events come in time order (two at a bit-equal time on a
    fall list the higher index first).  An event at the horizon is listed and
    switches the final bank, but no piece of the output follows it.
    """
    walk = _Walk(bank)
    if walk.crossed(zeta.knots[0][1]):
        raise DomainError("bank relay states inconsistent with zeta(0)")
    k = bank.k
    events: list[SwitchEvent] = []
    break_times = [zeta.knots[0][0]]
    levels = [walk.total / k]
    T = zeta.horizon
    for (t0, z0), (t1, z1) in zip(zeta.knots, zeta.knots[1:]):
        while hit := walk.crossed(z1):
            s, thr = hit
            time = t0 + ((thr - z0) / (z1 - z0)) * (t1 - t0)
            events.append(SwitchEvent(time, walk.switch(s) + 1, s))
            if time >= T:
                continue
            if break_times[-1] < time:
                break_times.append(time)
                levels.append(walk.total / k)
            else:  # simultaneous switches merge into one breakpoint
                levels[-1] = walk.total / k
    break_times.append(T)
    output = StepSignal(TimeGrid(tuple(break_times)), tuple(levels))
    final = RelayBank(tuple(replace(r, out=o) for r, o in zip(bank.relays, walk.outs)))
    return output, events, final


def saturation_prefix(
    zeta: PolylineSignal, lead: float = 1.0, direction: int = 1
) -> PolylineSignal:
    """Prepend a there-and-back ramp to +-1 so the bank enters its staircase loop.

    The returned input lives on [0, lead + T] and agrees with zeta afterwards.
    """
    if direction not in (-1, 1):
        raise DomainError("direction must be -1 or +1")
    if not 0.0 < lead < math.inf:
        raise DomainError("lead time must be positive and finite")
    z0 = zeta.knots[0][1]
    peak = float(direction)
    knots = [(0.0, z0)]
    if peak != z0:
        knots.append((0.5 * lead, peak))
    knots.append((lead, z0))
    knots.extend((t + lead, v) for t, v in zeta.knots[1:])
    return PolylineSignal(tuple(knots))

