"""Scalar play operator, truncated play, delayed relays and relay banks.

All operators are exact on piecewise-monotone inputs, which is the only class
we ever feed them (polylines are piecewise monotone).
"""

from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, replace
from operator import ge, lt
from typing import NamedTuple

from .signals import DomainError, PolylineSignal, StepSignal, TimeGrid, _built

_SEED_SLACK = 1e-12
_RELAY_CAP = 10**5  # most relays of a staircase bank, checked before its tuples are built


def _clamp(w: float, lo: float, hi: float) -> float:
    """min(hi, max(lo, w)) for lo <= hi."""
    return lo if w < lo else hi if w > hi else w


def _seed(u0: float, w0: float, lo: float, hi: float) -> float:
    """w0 clamped into the band [lo, hi] at input u0; DomainError unless it
    is finite and lies there up to _SEED_SLACK * max(1, |u0|, |w0|)."""
    slack = _SEED_SLACK * max(1.0, abs(u0), abs(w0))
    if not (math.isfinite(w0) and lo - slack <= w0 <= hi + slack):
        raise DomainError(f"seed w0={w0} outside [{lo}, {hi}] at input {u0}")
    return _clamp(float(w0), lo, hi)


def _check_rho(rho: float) -> float:
    """The play's half-width rho as a float; DomainError unless 0 <= rho < inf."""
    if not 0.0 <= rho < math.inf:
        raise DomainError(f"play half-width rho must be finite and >= 0, got {rho}")
    return float(rho)


def _cross(out: list, t: float, v: float, t1: float) -> None:
    """Append (t, v), a knot inside a segment ending at t1, t moved to within
    (last knot, t1) if it rounded out (dropped if v repeats the last knot)."""
    t = min(t, math.nextafter(t1, -math.inf))
    t = t if v == out[-1][1] else max(t, math.nextafter(out[-1][0], math.inf))
    if out[-1][0] < t < t1:
        out.append((t, v))


def _play(knots, w: float, rho: float) -> list:
    """Exact output knots of the play of half-width rho along the input knots,
    seeded at w in the strip [u - rho, u + rho]. w stays frozen until the edge
    that drags it (u - rho on a rise, u + rho on a fall) meets it; a knot goes
    there, and each segment ends in the one clamp.
    """
    out = [(knots[0][0], w)]
    for (t0, u0), (t1, u1) in zip(knots, knots[1:]):
        a = -rho if u1 > u0 else rho  # the edge u + a drags w
        if u0 + a < w < u1 + a or u1 + a < w < u0 + a:
            _cross(out, t0 + (0.5 * w - 0.5 * a - 0.5 * u0) / (0.5 * u1 - 0.5 * u0) * (t1 - t0), w, t1)
        w = _clamp(w, u1 - rho, u1 + rho)
        out.append((t1, w))
    return out


@dataclass(frozen=True)
class PlayState:
    """Dead-band half-width rho and current output w; |u - w| <= rho always."""

    rho: float
    w: float

    def __post_init__(self):
        _check_rho(self.rho)
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
    u0, rho = u.knots[0][1], _check_rho(rho)
    return PolylineSignal(tuple(_play(u.knots, _seed(u0, w0, u0 - rho, u0 + rho), rho)))


def truncated_play_apply(zeta: PolylineSignal, w0: float) -> PolylineSignal:
    """Exact truncated-play (continuum relay bank) output, between
    clip(2*zeta -+ 1), clip to [-1, 1]: it is clip(P_1[2*zeta]), the play of
    half-width 1 driven by 2*zeta, clipped with a knot at each crossing of -+1,
    as clip is nondecreasing: clip(clamp(w, u - 1, u + 1)) = clamp(clip(w),
    clip(u - 1), clip(u + 1))."""
    z0 = zeta.knots[0][1]
    w = _seed(z0, w0, _clamp(2.0 * z0 - 1.0, -1.0, 1.0), _clamp(2.0 * z0 + 1.0, -1.0, 1.0))
    p = _play(zeta.knots, _clamp(0.5 * w, z0 - 0.5, z0 + 0.5), 0.5)  # P_1[2*zeta] / 2, 2*zeta may overflow
    out = [(p[0][0], w)]
    for (t0, p0), (t1, p1) in zip(p, p[1:]):
        for c in ((-0.5, 0.5) if p1 > p0 else (0.5, -0.5)):  # in the order p meets them
            if p0 < c < p1 or p1 < c < p0:
                _cross(out, t0 + (0.5 * c - 0.5 * p0) / (0.5 * p1 - 0.5 * p0) * (t1 - t0), 2.0 * c, t1)
        out.append((t1, _clamp(2.0 * p1, -1.0, 1.0)))
    inner = [b for a, b, c in zip(out, out[1:], out[2:]) if not a[1] == b[1] == c[1] in (-1.0, 1.0)]
    return PolylineSignal((out[0], *inner, out[-1]))  # no knot inside a run at -+1


# ---------------------------------------------------------------------------
# delayed relays and relay banks (a delayed relay is a one-relay bank)

class RelayState(NamedTuple):
    """One relay of a bank, as RelayBank.relays shows it."""

    lo: float
    hi: float
    out: int


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
    """Finite Preisach superposition of k relays, as three tuples checked
    once, here: relay i has thresholds lo[i] < hi[i] and output outs[i] in
    {-1, +1}, and the bank's output is the mean of outs.

    lo and hi strictly increase, so the next relay to switch is one index each
    way (wiping-out): the lowest-index relay at -1 on a rise, at its hi, and
    the highest-index one at +1 on a fall, at its lo.  make and staircase give
    relay i of k thresholds (-1+i/k, i/k).
    """

    lo: tuple
    hi: tuple
    outs: tuple

    def __post_init__(self):
        for name in ("lo", "hi", "outs"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        lo, hi, outs = self.lo, self.hi, self.outs
        if not outs or not len(lo) == len(hi) == len(outs):
            raise DomainError(f"bank needs a relay, and one lo, hi and output per relay; got "
                              f"{len(lo)}, {len(hi)} and {len(outs)}")
        if not (-sys.float_info.max <= lo[0] and hi[-1] <= sys.float_info.max and all(map(lt, lo, hi))):
            raise DomainError("relay needs thresholds lo < hi within the floats")
        if not set(outs) <= {-1, 1}:
            raise DomainError("relay output must be -1 or +1")
        if not (all(map(lt, lo, lo[1:])) and all(map(lt, hi, hi[1:]))):
            raise DomainError("bank thresholds must strictly increase with the index")

    @property
    def relays(self) -> tuple:
        """The relays as RelayStates (a read-only view)."""
        return tuple(map(RelayState, self.lo, self.hi, self.outs))

    @property
    def k(self) -> int:
        return len(self.outs)

    @staticmethod
    def make(outputs) -> "RelayBank":
        """One relay per output, k = len(outputs)."""
        k = len(outputs)
        return RelayBank(tuple(-1.0 + i / k for i in range(1, k + 1)),
                         tuple(i / k for i in range(1, k + 1)), outputs)

    @staticmethod
    def staircase(k: int, n_plus: int) -> "RelayBank":
        """Bank in the staircase configuration (+1 x n_plus, -1 x rest)."""
        # integers as operator.index takes them (numpy's too), checked before any comparison
        ints = all(hasattr(type(x), "__index__") for x in (k, n_plus))
        if not (ints and 0 <= n_plus <= k <= _RELAY_CAP):
            raise DomainError(f"need integers 0 <= n_plus <= k <= {_RELAY_CAP}, "
                              f"got n_plus={n_plus!r}, k={k!r}")
        return RelayBank.make((1,) * n_plus + (-1,) * (k - n_plus))

    def is_staircase(self) -> bool:
        return all(map(ge, self.outs, self.outs[1:]))


class _Walk:
    """A bank's outputs from the start value z (DomainError if z is past a
    threshold), their sum total, its thresholds his and los as Python floats,
    and its next switch each way, moved by a scan past the switched relays
    (one step in a staircase bank): the lowest index at -1 rises at its hi,
    rise, and the highest at +1 falls at its lo, fall (inf and -inf, never
    passed, if there is none).  A value z crosses the walk, and some relay
    must switch, only if strictly past one of them: z > rise (s = 1) or
    z < fall (s = -1).  Every reader of the walk tests it so, in place."""

    def __init__(self, bank: RelayBank, z: float):
        self.outs = list(bank.outs)
        self.his = (*map(float, bank.hi), math.inf)  # the sentinels his[k] and los[-1]
        self.los = (*map(float, bank.lo), -math.inf)
        self.total = sum(self.outs)
        self._point(0, bank.k - 1)
        if z > self.rise or z < self.fall:
            raise DomainError(f"relay outputs inconsistent with the start value {z}")

    def _point(self, up: int, down: int) -> None:
        """Point at the first -1 from up on and the last +1 from down back."""
        while up < len(self.outs) and self.outs[up] == 1:
            up += 1
        while down >= 0 and self.outs[down] == -1:
            down -= 1
        self._up, self._down, self.rise, self.fall = up, down, self.his[up], self.los[down]

    def switch(self, s: int, z: float) -> list:
        """Switch to s every relay at -s that z is strictly past (wiping-out;
        z must cross the walk by s), and return their indices in the order z
        meets their thresholds: from the pointer on, stepping by s."""
        p = self._up if s == 1 else self._down
        if s == 1:  # the -1s below bisect_left(hi, z)
            stop = bisect_left(self.his, z, p)
        else:  # the +1s from bisect_right(lo, z) on
            stop = bisect_right(self.los, z, 0, p + 1) - 1
        hit = [i for i in range(p, stop, s) if self.outs[i] != s]
        a, b = sorted((p, stop - s))  # the relays passed, in index order
        self.outs[a:b + 1] = [s] * (b + 1 - a)
        self._point(*((stop, max(self._down, b)) if s == 1 else (min(self._up, a), stop)))
        self.total += 2 * s * len(hit)
        return hit


class _Events(Sequence):
    """Switch events, read-only: columns time (the floats given), index (an
    array('i')), new (an array('b')) and, in a relay-core run, operator; rows
    are SwitchEvents, and a slice is another _Events."""

    def __init__(self, time, index, new, *operator):
        self._columns = (time, array("i", index), array("b", new), *operator)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, i):
        row = [c[i] for c in self._columns]
        return _Events(*row) if isinstance(i, slice) else SwitchEvent(*row)

    def __iter__(self):
        return map(SwitchEvent, *self._columns)


def bank_trace(bank: RelayBank, zeta: PolylineSignal):
    """(macroscopic step output, switch events, final bank) along zeta.

    Each input segment switches every relay its end is strictly past in one
    _Walk.switch, at the affinely interpolated crossing times: the events, a
    read-only sequence of SwitchEvent rows, come in time order (a fall lists
    the higher index first), and the output is replayed from them in one
    pass that counts the relays at +1.  One at the horizon is listed but
    starts no piece.
    """
    walk, knots = _Walk(bank, zeta.knots[0][1]), zeta.knots
    times, index, new = [], array("i"), array("b")
    for (t0, z0), (t1, z1) in zip(knots, knots[1:]):
        if z1 > walk.rise:
            s, thr = 1, walk.his
        elif z1 < walk.fall:
            s, thr = -1, walk.los
        else:
            continue
        hit = walk.switch(s, z1)
        dz, dt = 0.5 * z1 - 0.5 * z0, t1 - t0
        times += [t0 + ((0.5 * thr[i] - 0.5 * z0) / dz) * dt for i in hit]
        index.fromlist([i + 1 for i in hit])
        new += array("b", (s,)) * len(hit)
    k, T = bank.k, knots[-1][0]
    levels = [(2 * i - k) / k for i in range(k + 1)]  # the output with i relays at +1
    up = bank.outs.count(1)
    breaks, values = [knots[0][0]], [levels[up]]
    for t, s in zip(times, new):
        up += s
        if breaks[-1] < t < T:
            breaks.append(t)
            values.append(levels[up])
        elif t <= breaks[-1]:  # merges into the last breakpoint
            values[-1] = levels[up]
    grid = _built(TimeGrid, points=(*breaks, T))  # unchecked: the replay's breaks strictly increase
    output = _built(StepSignal, grid=grid, values=tuple(values))
    final = _built(RelayBank, lo=bank.lo, hi=bank.hi, outs=tuple(walk.outs))  # walk.outs are +-1
    return output, _Events(times, index, new), final
