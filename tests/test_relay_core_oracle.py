"""The relay core against exact event simulation.

With fields that depend only on the relay outputs (constant fields in a
switching system, fields of w alone in a bank system) and step controls, the
state moves at a constant velocity between events.  Every event is then the
first time a projection z.xi_j reaches the next threshold of its axis, which
exact_events below solves for in closed form (adapted from the benchmark's
switching_interval and bank_walk oracles, so that these tests do not import
the benchmark).
"""

import itertools
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hystctl.dynamics import (
    EVENT_BUDGET, EVENT_TOL, BankSpec, FieldSet, SwitchingSpec, integrate_bank,
    integrate_switching,
)
from hystctl.hysteresis import RelayBank, RelayState
from hystctl.signals import StepSignal, TimeGrid

TOL = 1e-9
# draws whose events come closer than this in time to an interval end or to
# another candidate event, or cross at a lower rate, are ambiguous in
# floating point (a tie, a touch at a breakpoint, a graze) and are skipped
MIN_GAP, MIN_RATE = 1e-6, 1e-3
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def exact_events(velocity, xi, banks, z, pieces):
    """Exact events of dz/dt = velocity(outs, u) under delayed-relay banks on
    the projections z.xi_j.

    banks[j] lists the (lo, hi, out) of axis j's relays; pieces are (a, b, u)
    with the controls u held on [a, b).  A relay at -1 switches up when
    z.xi_j passes its hi, one at +1 down when it passes its lo, so the next
    switch up is the least hi among relays at -1 and the next one down the
    greatest lo among relays at +1.  Returns ([(time, axis, relay, new)],
    least time gap, least crossing rate).
    """
    z = np.asarray(z, dtype=float)
    outs = [[out for _, _, out in bank] for bank in banks]
    events, gap, slowest = [], math.inf, math.inf
    for a, b, u in pieces:
        t = a
        while True:
            v = np.asarray(velocity(outs, u), dtype=float)
            cands = []
            for j, (bank, o) in enumerate(zip(banks, outs)):
                rate = float(np.dot(xi[j], v))
                s = 1 if rate > 0.0 else -1
                pending = [(bank[i][1 if s == 1 else 0], i) for i in range(len(bank)) if o[i] == -s]
                if rate != 0.0 and pending:
                    thr, i = (min if s == 1 else max)(pending)
                    cands.append(((thr - float(np.dot(xi[j], z))) / rate, j, i, s, abs(rate)))
            cands.sort()
            end = b - t
            if not cands or cands[0][0] >= end:
                gap = min([gap] + [c[0] - end for c in cands])
                z = z + end * v
                break
            dt, j, i, s, rate = cands[0]
            gap = min([gap, end - dt] + [c[0] - dt for c in cands[1:]])
            slowest = min(slowest, rate)
            z, t = z + dt * v, t + dt
            outs[j][i] = s
            events.append((t, j, i, s))
    return events, gap, slowest


def clear_events(velocity, xi, banks, z, pieces, h):
    """exact_events, skipping a draw that is ambiguous in floating point or
    whose relays chatter past the relay core's event budget at step h."""
    events, gap, slowest = exact_events(velocity, xi, banks, z, pieces)
    assume(gap > MIN_GAP and slowest > MIN_RATE)
    per_axis = max([sum(e[1] == j for e in events) for j in range(len(xi))])
    assume(per_axis <= EVENT_BUDGET * pieces[-1][1] / h)
    return events


def polar(angle, length):
    return (length * math.cos(angle), length * math.sin(angle))


# controls and field vectors bounded away from zero, so that most draws switch
angles = st.floats(0.0, 2.0 * math.pi)
vectors = st.builds(polar, angles, st.floats(0.5, 1.5))
controls_values = st.builds(lambda sign, size: sign * size, st.sampled_from([1.0, -1.0]),
                            st.floats(0.5, 1.5))


def gaps(draw, k):
    return draw(st.lists(st.floats(0.05, 0.3), min_size=k, max_size=k))


@st.composite
def systems(draw, bank):
    """(xi, banks as (lo, hi, out) lists, z0, step controls, pieces, step)
    on R^2 with one or two axes; a switching axis has one relay, a bank axis
    up to four with lo and hi strictly increasing."""
    m = draw(st.integers(1, 2))
    xi = tuple(polar(a, 1.0) for a in draw(st.lists(angles, min_size=m, max_size=m)))
    z0 = draw(st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)))
    k = draw(st.integers(1, 4)) if bank else 1
    banks = []
    for v in xi:
        lo = -draw(st.floats(0.1, 0.8)) + np.cumsum([0.0] + gaps(draw, k - 1))
        hi = draw(st.floats(0.1, 0.5)) + np.cumsum([0.0] + gaps(draw, k - 1))
        assume(all(lo < hi))
        proj = float(np.dot(v, z0))
        ups = draw(st.lists(st.booleans(), min_size=k, max_size=k))  # inside the dead band
        banks.append([(float(l), float(h), 1 if proj > h or (proj >= l and up) else -1)
                      for l, h, up in zip(lo, hi, ups)])
    n_pieces = draw(st.integers(1, 4))
    grid = np.concatenate([[0.0], np.cumsum(draw(st.lists(
        st.floats(0.3, 1.5), min_size=n_pieces, max_size=n_pieces)))])
    values = draw(st.lists(st.lists(controls_values, min_size=n_pieces, max_size=n_pieces),
                           min_size=m, max_size=m))
    controls = tuple(StepSignal(TimeGrid(tuple(grid)), tuple(vals)) for vals in values)
    pieces = [(a, b, [vals[q] for vals in values])
              for q, (a, b) in enumerate(zip(grid, grid[1:]))]
    return xi, banks, z0, controls, pieces, draw(st.sampled_from([0.2, 0.1, 0.05]))


def check_events(traj, expected, xi, banks, label):
    """The trajectory's events are the expected ones to TOL, and each event
    row lies on the switching relay's threshold to TOL."""
    assert [(e.operator, e.old, e.new) for e in traj.events] == [
        (label(j, i), -s, s) for _, j, i, s in expected]
    for ev, (t, _, _, _) in zip(traj.events, expected):
        assert abs(ev.time - t) <= TOL
    log = next(iter(traj.hysteresis_log.values()))
    rows = [r for r in range(1, len(log)) if log[r] != log[r - 1]]  # one per event
    assert len(rows) == len(expected)
    for r, ev, (_, j, i, s) in zip(rows, traj.events, expected):
        assert traj.times[r] == ev.time
        thr = banks[j][i][1] if s == 1 else banks[j][i][0]
        assert abs(float(np.dot(traj.states[r], xi[j])) - thr) <= TOL


def assert_same_events(a, b):
    assert [(e.operator, e.old, e.new) for e in a.events] == [
        (e.operator, e.old, e.new) for e in b.events]
    assert all(abs(ea.time - eb.time) <= TOL for ea, eb in zip(a.events, b.events))


def switching_case(case, data):
    """(spec, initial string, exact events) of a drawn switching system with
    constant fields per string, skipping a draw whose events are not clear."""
    xi, banks, z0, controls, pieces, h = case
    m = len(xi)
    table = {s: data.draw(st.lists(vectors, min_size=m, max_size=m))
             for s in itertools.product((-1, 1), repeat=m)}

    def velocity(outs, u):
        return sum(ui * np.asarray(g) for ui, g in zip(u, table[tuple(o[0] for o in outs)]))

    expected = clear_events(velocity, xi, banks, z0, pieces, h)
    spec = SwitchingSpec(
        xi=xi, eta=1.0, thresholds=tuple((bk[0][0], bk[0][1]) for bk in banks),
        field_table={s: FieldSet(2, m, tuple(lambda z, g=g: g for g in gs))
                     for s, gs in table.items()})
    return spec, tuple(bk[0][2] for bk in banks), expected


@PROPERTY
@given(case=systems(bank=False), data=st.data())
def test_switching_events_match_exact_simulation(case, data):
    xi, banks, z0, controls, _, h = case
    spec, string, expected = switching_case(case, data)
    traj = integrate_switching(spec, controls, z0, string, step=h)
    check_events(traj, expected, xi, banks, lambda j, i: f"axis{j + 1}")
    assert_same_events(traj, integrate_switching(spec, controls, z0, string, step=h / 2))


@PROPERTY
@given(case=systems(bank=True), data=st.data())
def test_bank_events_match_exact_simulation(case, data):
    xi, banks, z0, controls, pieces, h = case
    m = len(xi)
    # g_j(w) = a_j + w b_j: constant between events
    ab = data.draw(st.lists(st.tuples(vectors, vectors), min_size=m, max_size=m))

    def velocity(outs, u):
        return sum(ui * (np.asarray(a) + sum(o) / len(o) * np.asarray(b))
                   for ui, (a, b), o in zip(u, ab, outs))

    expected = clear_events(velocity, xi, banks, z0, pieces, h)
    spec = BankSpec(xi=xi, k=len(banks[0]), fields=tuple(
        lambda w, z, a=a, b=b: (a[0] + w * b[0], a[1] + w * b[1]) for a, b in ab))
    relays = tuple(RelayBank(tuple(RelayState(*r) for r in bk)) for bk in banks)
    traj = integrate_bank(spec, controls, z0, relays, step=h)
    check_events(traj, expected, xi, banks, lambda j, i: f"axis{j + 1}.relay{i + 1}")
    assert_same_events(traj, integrate_bank(spec, controls, z0, relays, step=h / 2))


# a relay-switched line: z moves at SPEED[w] times the control while its
# relay outputs w, with thresholds +-LINE_ETA
SPEED = {1: 1.0, -1: 1.4}
LINE_ETA = 0.25


def line_system(intervals, calls, offset=0.0):
    """(spec, controls, expected events) of the line from z = 0.5 + offset,
    w = 1, with thresholds offset +- LINE_ETA.

    Each interval aims 0.1-0.4 past the threshold the relay awaits, so it
    switches the relay once, well inside the interval; calls[0] counts the
    field's evaluations.
    """
    rng = np.random.default_rng(0)
    z, out, grid, values = 0.5, 1, [0.0], []
    for _ in range(intervals):
        thr = -LINE_ETA * out
        target = thr - out * rng.uniform(0.1, 0.4)
        dur = rng.uniform(0.5, 0.8)
        values.append(((thr - z) / SPEED[out] + (target - thr) / SPEED[-out]) / dur)
        grid.append(grid[-1] + dur)
        z, out = target, -out
    pieces = [(a, b, [u]) for a, b, u in zip(grid, grid[1:], values)]
    relay = (offset - LINE_ETA, offset + LINE_ETA)
    expected, gap, _ = exact_events(lambda outs, u: (u[0] * SPEED[outs[0][0]],), ((1.0,),),
                                    [[(*relay, 1)]], (0.5 + offset,), pieces)
    assert len(expected) == intervals and gap > 0.01

    def field(c):
        def g(z):
            calls[0] += 1
            return (c,)
        return g

    table = {(w,): FieldSet(1, 1, (field(c),)) for w, c in SPEED.items()}
    spec = SwitchingSpec(xi=((1.0,),), eta=LINE_ETA, field_table=table,
                         thresholds=(relay,))
    return spec, (StepSignal(TimeGrid(tuple(grid)), tuple(values)),), expected


def test_switching_events_do_not_drift():
    # the old field runs on for as long as a located event is late, and that
    # stays in the state: over 600 events, a lateness of up to EVENT_TOL
    # would move the later event times by ~1e-10
    spec, controls, expected = line_system(600, [0])
    traj = integrate_switching(spec, controls, (0.5,), (1,), step=0.04)
    check_events(traj, expected, ((1.0,),), [[(-LINE_ETA, LINE_ETA, 1)]], lambda j, i: "axis1")
    assert max(abs(e.time - t) for e, (t, *_) in zip(traj.events, expected)) <= 5e-12


def test_event_location_cost_with_constant_fields():
    # one field, so every row costs one RK4 step of 4 evaluations; an event
    # adds its cut step, the locator's steps and the new field's check.  With
    # constant fields z.xi is affine in the step, so the locator's first
    # iterate is the root and its probe closes the bracket: 2 RK4 steps
    calls = [0]
    spec, controls, expected = line_system(100, calls)
    traj = integrate_switching(spec, controls, (0.5,), (1,), step=0.04)
    assert len(traj.events) == len(expected)
    stepping = 4 * (len(traj.times) - 1)
    assert (calls[0] - stepping) / len(traj.events) <= 12


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(c=st.floats(-1e3, 1e3))
def test_event_location_cost_at_offset_thresholds(c):
    # the same line shifted by c: the same events, and the locator's probe
    # still closes the bracket where a probe below one ulp of z over the
    # slope would leave the state unchanged and fall back to halving
    calls = [0]
    spec, controls, expected = line_system(100, calls, c)
    traj = integrate_switching(spec, controls, (0.5 + c,), (1,), step=0.04)
    assert [(e.index, e.new) for e in traj.events] == [(i + 1, s) for _, _, i, s in expected]
    assert all(abs(e.time - t) <= TOL for e, (t, *_) in zip(traj.events, expected))
    stepping = 4 * (len(traj.times) - 1)
    assert (calls[0] - stepping) / len(traj.events) <= 12


@PROPERTY
@given(case=systems(bank=False), data=st.data(), lam=st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e))
def test_time_scaling_scales_the_event_times(case, data, lam):
    # z(t) under u is z(t / lam) under u(t / lam) / lam on [0, lam T]: the
    # same events, at lam times the time (each run locates to EVENT_TOL),
    # with the step scaled too
    _, _, z0, controls, _, h = case
    spec, string, _ = switching_case(case, data)
    slow = tuple(StepSignal(TimeGrid(tuple(lam * t for t in c.grid.points)),
                            tuple(v / lam for v in c.values)) for c in controls)
    traj = integrate_switching(spec, controls, z0, string, step=h)
    scaled = integrate_switching(spec, slow, z0, string, step=lam * h)
    assert [(e.operator, e.new) for e in scaled.events] == [(e.operator, e.new) for e in traj.events]
    assert all(abs(es.time - lam * e.time) <= (1.0 + lam) * EVENT_TOL
               for es, e in zip(scaled.events, traj.events))
    assert np.abs(scaled.final_state - traj.final_state).max() <= TOL


@PROPERTY
@given(case=systems(bank=False), data=st.data())
def test_axis_permutation_permutes_the_event_axes(case, data):
    # swapping the two axes, with their thresholds, fields, controls and
    # relay outputs, is the same system with the axes named the other way;
    # a sum of two terms is the same either way round, so bit for bit
    assume(len(case[0]) == 2)
    _, _, z0, controls, _, h = case
    spec, string, _ = switching_case(case, data)
    swapped = SwitchingSpec(
        xi=spec.xi[::-1], eta=1.0, thresholds=spec.thresholds[::-1],
        field_table={s[::-1]: FieldSet(2, 2, fs.fields[::-1]) for s, fs in spec.field_table.items()})
    traj = integrate_switching(spec, controls, z0, string, step=h)
    other = integrate_switching(swapped, controls[::-1], z0, string[::-1], step=h)
    rename = {"axis1": "axis2", "axis2": "axis1"}
    assert [(rename[e.operator], e.new) for e in other.events] == [
        (e.operator, e.new) for e in traj.events]
    assert [e.time for e in other.events] == [e.time for e in traj.events]
    assert np.array_equal(other.states, traj.states)
