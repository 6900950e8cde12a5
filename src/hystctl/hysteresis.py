"""Scalar play operator, truncated play, delayed relays and relay banks.

All operators are exact on piecewise-monotone inputs, which is the only class
we ever feed them (polylines are piecewise monotone).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, replace
from operator import ge, lt
from typing import NamedTuple

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
    """Exact output along u of the play between the boundaries lower <= upper,
    nondecreasing piecewise-affine curves of the input, each given as
    (breaks, pieces): its sorted kinks and one (intercept, slope) per piece.

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
        if not (-math.inf < lo[0] and hi[-1] < math.inf and all(map(lt, lo, hi))):
            raise DomainError("relay needs finite thresholds lo < hi")
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
        if not 0 <= n_plus <= k:
            raise DomainError("n_plus must be in 0..k")
        return RelayBank.make((1,) * n_plus + (-1,) * (k - n_plus))

    def is_staircase(self) -> bool:
        return all(map(ge, self.outs, self.outs[1:]))


class _Walk:
    """A bank's outputs while it switches, and its next switch each way: up,
    the lowest index at -1, and down, the highest at +1.  They are k and -1
    if there is none, where the sentinels his[k] = inf and los[-1] = -inf
    are never passed.  A switch moves its pointer by a scan past the
    switched relays, one step in a staircase bank."""

    def __init__(self, bank: RelayBank):
        self.outs = list(bank.outs)
        self.his = bank.hi + (math.inf,)
        self.los = bank.lo + (-math.inf,)
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

    def switch(self, s: int, stop: int | None = None) -> list:
        """Switch to s every relay at -s from the pointer to stop, exclusive,
        stepping by s (by default only the next one); return their indices."""
        p = self.up if s == 1 else self.down
        stop = p + s if stop is None else stop
        hit = [i for i in range(p, stop, s) if self.outs[i] != s]
        a, b = sorted((p, stop - s))  # the relays passed, in index order
        self.outs[a:b + 1] = [s] * (b + 1 - a)
        after, last = self._scan(stop, s), hit[-1]
        self.up, self.down = (after, max(self.down, last)) if s == 1 else (min(self.up, last), after)
        self.total += 2 * s * len(hit)
        return hit


class _Events(Sequence):
    """Switch events, read-only: columns time, index, new and (in a relay-core
    run) operator; rows are SwitchEvents, and a slice is another _Events."""

    def __init__(self, *columns):
        self._columns = columns

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
    the higher index first).  One at the horizon is listed but starts no piece.
    """
    walk, knots, k = _Walk(bank), zeta.knots, bank.k
    if walk.crossed(knots[0][1]):
        raise DomainError("bank relay states inconsistent with zeta(0)")
    times, index, new = [], [], []
    breaks, totals, T = [knots[0][0]], [walk.total], knots[-1][0]
    for (t0, z0), (t1, z1) in zip(knots, knots[1:]):
        total, up, down, dz, dt = walk.total, walk.up, walk.down, z1 - z0, t1 - t0
        if z1 > walk.his[up]:  # the -1s below bisect_left(hi, z1) switch
            s, thr, hit = 1, bank.hi, walk.switch(1, bisect_left(walk.his, z1, up))
        elif z1 < walk.los[down]:  # the +1s from bisect_right(lo, z1) on switch
            s, thr, hit = -1, bank.lo, walk.switch(-1, bisect_right(walk.los, z1, 0, down + 1) - 1)
        else:
            continue
        ts = [t0 + ((thr[i] - z0) / dz) * dt for i in hit]
        times += ts
        index += [i + 1 for i in hit]
        new += [s] * len(hit)
        for t, level in zip(ts, range(total + 2 * s, walk.total + s, 2 * s)):
            if breaks[-1] < t < T:
                breaks.append(t)
                totals.append(level)
            elif t <= breaks[-1]:  # merges into the last breakpoint
                totals[-1] = level
    output = StepSignal(TimeGrid((*breaks, T)), tuple([v / k for v in totals]))
    return output, _Events(times, index, new), RelayBank(bank.lo, bank.hi, tuple(walk.outs))

