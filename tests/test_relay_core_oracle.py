"""The relay core against exact event simulation.

With fields that depend only on the relay outputs (constant fields in a
switching system, fields of w alone in a bank system) and step controls, the
state moves at a constant velocity between events.  Every event is then the
first time a projection z.xi_j reaches the next threshold of its axis, which
exact_events below solves for in closed form (adapted from the benchmark's
switching_interval and bank_walk oracles, so that these tests do not import
the benchmark), and through which a closed-form planner steers the demo
system to a target.  The last tests take rotation fields instead, whose
events are closed-form angles, to check the order of RK4 across events.
"""

import dataclasses
import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hystctl.dynamics import (
    EVENT_BUDGET, EVENT_TOL, BankSpec, FieldSet, SwitchingSpec, integrate_bank,
    integrate_switching,
)
from hystctl.experiments import demo_switching_spec
from hystctl.hysteresis import RelayBank
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


def check_log_replays_events(traj, outs):
    """Every event is at a row's time bit for bit, none at z0's, and each
    row's log entry is the initial outputs outs[j] of the banks with every
    event up to the row's time applied, relay by relay (so a row where two
    relays switch takes both).  The log is a list written in runs: the rows
    between two events share one entry object."""
    (key, log), = traj.hysteresis_log.items()
    assert type(log) is list and len({id(entry) for entry in log}) <= len(traj.events) + 1
    times = traj.times.tolist()
    assert {e.time for e in traj.events} <= set(times[1:])
    outs, events = [list(o) for o in outs], list(traj.events)
    for t, entry in zip(times, log, strict=True):
        while events and events[0].time <= t:
            e = events.pop(0)
            outs[int(e.operator.split(".")[0][4:]) - 1][e.index - 1] = e.new
        assert entry == (tuple(o[0] for o in outs) if key == "string" else tuple(map(tuple, outs)))


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
    check_log_replays_events(traj, [[out for _, _, out in bk] for bk in banks])
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
    relays = tuple(RelayBank(*zip(*bk)) for bk in banks)
    traj = integrate_bank(spec, controls, z0, relays, step=h)
    check_events(traj, expected, xi, banks, lambda j, i: f"axis{j + 1}.relay{i + 1}")
    check_log_replays_events(traj, [[out for _, _, out in bk] for bk in banks])
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


def counted(spec, calls):
    """spec with every field of its table counting its evaluations in calls[0]."""
    def count(g):
        def f(z):
            calls[0] += 1
            return g(z)
        return f

    table = {s: FieldSet(fs.n, fs.m, tuple(map(count, fs.fields))) for s, fs in spec.field_table.items()}
    return dataclasses.replace(spec, field_table=table)


@pytest.mark.parametrize("c", [1e3, -1e3, 1e5, -1e5])
def test_switching_demo_commutes_with_a_translation(c):
    # z0 and every threshold of the demo moved by c along both axes: its
    # fields are constant, so the same switches, at times that move only by
    # the rounding of the shifted state, a few ulp(c) per event.  Its events
    # sit on grid points, where the shifted state rounds exactly onto the
    # threshold: the next step starts on it, and its event costs a secant
    # step, not a bisection down to EVENT_TOL
    calls, calls_c = [0], [0]
    spec = demo_switching_spec()
    moved = dataclasses.replace(spec, thresholds=tuple((lo + c, hi + c) for lo, hi in spec.thresholds))
    grid = TimeGrid((0.0, 1.0, 2.0, 4.0))
    controls = (StepSignal(grid, (-1.0, 0.0, 1.0)), StepSignal(grid, (0.0, -1.0, 0.0)))
    traj = integrate_switching(counted(spec, calls), controls, (0.5, 0.5), (1, 1), step=1e-3)
    traj_c = integrate_switching(counted(moved, calls_c), controls, (0.5 + c, 0.5 + c), (1, 1),
                                 step=1e-3)
    assert [(e.operator, e.new) for e in traj_c.events] == [(e.operator, e.new) for e in traj.events]
    assert len(traj.events) == 3
    assert all(abs(ec.time - e.time) <= 4 * (i + 1) * math.ulp(c)
               for i, (ec, e) in enumerate(zip(traj_c.events, traj.events)))
    assert calls_c[0] <= (calls[0] + 10 if abs(c) < 1e4 else 1.5 * calls[0])


@pytest.mark.parametrize("t0", [0.0, 10.0, 1000.0])
def test_start_on_a_threshold_keeps_the_rows_apart(t0):
    # z0 exactly on the threshold its relay awaits, moving past it: the
    # switch comes within EVENT_TOL, on a row of its own after z0's (at
    # t0 = 1000, t0 + _PROBE rounds to t0)
    spec = demo_switching_spec()
    grid = TimeGrid((t0, t0 + 1.0))
    controls = (StepSignal(grid, (-1.0,)), StepSignal(grid, (0.0,)))
    traj = integrate_switching(spec, controls, (spec.thresholds[0][0], 0.5), (1, 1), step=1e-2)
    assert [(e.operator, e.new) for e in traj.events] == [("axis1", -1)]
    assert 0.0 < traj.events[0].time - t0 <= EVENT_TOL
    assert traj.times[1] == traj.events[0].time
    assert np.diff(traj.times).min() > 0.0


@pytest.mark.parametrize("c", [1e3, -1e3, 1e5, -1e5])
def test_bank_system_commutes_with_a_translation(c):
    # z0 and every threshold of both banks moved by c: the fields depend on
    # the outputs alone, so the same switches, at times that move by the
    # rounding of the shifted state over speeds below 1, a few ulp(c) per event
    k = 8
    spec = BankSpec(xi=((1.0, 0.0), (0.0, 1.0)), k=k,
                    fields=(lambda w, z: (0.6 + 0.3 * w, 0.0), lambda w, z: (0.0, 1.0 + 0.4 * w)))
    bank = RelayBank.staircase(k, k // 2)
    moved = RelayBank(tuple(lo + c for lo in bank.lo), tuple(hi + c for hi in bank.hi), bank.outs)
    grid = TimeGrid((0.0, 1.5, 4.0, 5.0))
    controls = (StepSignal(grid, (1.0, -1.0, 0.5)), StepSignal(grid, (-1.0, 0.0, 2.5)))
    traj = integrate_bank(spec, controls, (0.05, 0.05), (bank, bank), step=0.01)
    traj_c = integrate_bank(spec, controls, (0.05 + c, 0.05 + c), (moved, moved), step=0.01)
    assert [(e.operator, e.new) for e in traj_c.events] == [(e.operator, e.new) for e in traj.events]
    assert len(traj.events) == 18
    assert all(abs(ec.time - e.time) <= 8 * (i + 1) * math.ulp(c)
               for i, (ec, e) in enumerate(zip(traj_c.events, traj.events)))


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


def two_line_system(intervals, first, calls):
    """(spec, controls, expected events) of two relay-switched lines, one per
    axis, from z = (0.5, 0.5), w = (1, 1): each interval of 15 steps of 0.04
    switches both relays once inside its 12th step, axis `first` 0.3 steps
    in and the other 0.7 in on even intervals, the other way round on odd
    ones; calls[0] counts the fields' evaluations."""
    dur, nsteps = 0.6, 15
    z, out, grid, values, expected = [0.5, 0.5], [1, 1], [0.0], [[], []], []
    for q in range(intervals):
        lead = first if q % 2 == 0 else 1 - first
        cross = {lead: (nsteps - 3.7) * dur / nsteps, 1 - lead: (nsteps - 3.3) * dur / nsteps}
        for j in (lead, 1 - lead):
            thr = -LINE_ETA * out[j]
            values[j].append((thr - z[j]) / (SPEED[out[j]] * cross[j]))
            z[j] = thr + values[j][-1] * SPEED[-out[j]] * (dur - cross[j])
            out[j] = -out[j]
            expected.append((grid[-1] + cross[j], f"axis{j + 1}", out[j]))
        grid.append(grid[-1] + dur)

    def field(j, c):
        def g(z):
            calls[0] += 1
            return (c, 0.0) if j == 0 else (0.0, c)
        return g

    table = {(w1, w2): FieldSet(2, 2, (field(0, SPEED[w1]), field(1, SPEED[w2])))
             for w1 in (1, -1) for w2 in (1, -1)}
    spec = SwitchingSpec(xi=((1.0, 0.0), (0.0, 1.0)), eta=LINE_ETA, field_table=table)
    g = TimeGrid(tuple(grid))
    return spec, tuple(StepSignal(g, tuple(v)) for v in values), expected


@pytest.mark.parametrize("first", [0, 1])
def test_event_location_cost_when_two_axes_cross_in_one_step(first):
    # two fields, so every row costs one RK4 step of 8 evaluations.  A step
    # that crosses both axes is cut at the earlier crossing and the next one
    # at the later: with k1 shared by every RK4 step from the step's start,
    # a locator step costs 6 evaluations, and a crossing is located only if
    # it is past its threshold at the earliest event located so far.  So the
    # first cut locates one axis when the lower axis leads and two when the
    # higher one does, the second cut one: 17 evaluations per event with the
    # new fields' checks (26 if every crossing were located with 8 a step).
    # Every interval is shorter than _EXACT_STEPS, so no closed form is
    # tested and the count is the row loop's alone, pinned exactly: a change
    # to how the loop steps must evaluate the same fields at the same states
    calls = [0]
    spec, controls, expected = two_line_system(50, first, calls)
    traj = integrate_switching(spec, controls, (0.5, 0.5), (1, 1), step=0.04)
    assert [(e.operator, e.new) for e in traj.events] == [(op, new) for _, op, new in expected]
    assert all(abs(e.time - t) <= TOL for e, (t, _, _) in zip(traj.events, expected))
    stepping = 8 * (len(traj.times) - 1)
    assert (calls[0] - stepping) / len(traj.events) <= 20
    assert (len(traj.times), len(traj.events), calls[0]) == (851, 100, 8502)


@pytest.mark.parametrize("k", [1, 3])
def test_identical_axes_switch_lower_axis_first(k):
    # both axes carry the same bank and move identically, so each pair of
    # relays crosses at the same float time: both are located, the tie goes
    # to the lower axis, and the higher one's event follows on its row,
    # whose log entry takes both
    spec = BankSpec(xi=((1.0, 0.0), (0.0, 1.0)), k=k,
                    fields=(lambda w, z: (1.0 + 0.25 * w, 0.0),
                            lambda w, z: (0.0, 1.0 + 0.25 * w)))
    sweep = StepSignal(TimeGrid((0.0, 1.7, 3.9)), (1.0, -1.0))
    bank = RelayBank.staircase(k, 0)
    traj = integrate_bank(spec, (sweep, sweep), (-0.2, -0.2), (bank, bank), step=0.03)
    assert len(traj.events) == 4 * k  # k up and k down on each axis
    for a, b in zip(traj.events[::2], traj.events[1::2]):
        assert (a.operator, b.operator) == (f"axis1.relay{a.index}", f"axis2.relay{a.index}")
        assert (a.time, a.new) == (b.time, b.new)
    check_log_replays_events(traj, [bank.outs] * 2)


# order across events: with fields that rotate the plane at a rate the relays
# choose, z stays on its circle and every event is at a closed-form angle

def rate(w):
    return 1.5 - 0.5 * w  # 1 with every relay at +1, 2 with every one at -1


def rotation(w, z):
    return (-rate(w) * z[1], rate(w) * z[0])


def circle_events(lo, hi, r, T):
    """Event times and final state of z' = rotation(w, z) from z = (r, 0) at
    time 0 to T, for a bank of relays (lo[i], hi[i]) on z1, all inside
    (-r, r) and so all at +1 at the start, whose mean output is w.

    z = r (cos a, sin a): each falling half-turn switches every relay down,
    the highest lo first, and each rising half-turn every relay up, the
    lowest hi first."""
    k = len(lo)
    fall = [math.acos(c / r) for c in reversed(lo)]
    rise = [2.0 * math.pi - math.acos(c / r) for c in hi]
    times, a, t, ups = [], 0.0, 0.0, k
    for turn in itertools.count():
        for i, angle in enumerate(fall + rise):
            omega, angle = rate(2.0 * ups / k - 1.0), 2.0 * math.pi * turn + angle
            if t + (angle - a) / omega > T:
                a += omega * (T - t)
                return times, r * np.array([math.cos(a), math.sin(a)])
            t, a = t + (angle - a) / omega, angle
            ups += 1 if i >= k else -1
            times.append(t)


UNIT = StepSignal(TimeGrid((0.0, 12.0)), (1.0,))


def relay_run(h):
    table = {(s,): FieldSet(2, 1, (lambda z, w=float(s): rotation(w, z),)) for s in (-1, 1)}
    spec = SwitchingSpec(xi=((1.0, 0.0),), eta=0.3, field_table=table)
    return integrate_switching(spec, (UNIT,), (0.5, 0.0), (1,), step=h), (-0.3,), (0.3,)


def bank_run(h):
    lo, hi = (-0.4, -0.3, -0.2, -0.1), (0.1, 0.2, 0.3, 0.4)
    spec = BankSpec(xi=((1.0, 0.0),), k=4, fields=(rotation,))
    return integrate_bank(spec, (UNIT,), (0.5, 0.0), (RelayBank(lo, hi, (1,) * 4),), step=h), lo, hi


@pytest.mark.parametrize("run", [relay_run, bank_run], ids=["relay", "bank"])
def test_rk4_keeps_order_four_across_events(run):
    # each halving of the step divides the worst event-time error and the
    # final-state error by about 2^4 (15.7-16.1 measured), the window
    # test_rk4_order_four uses: each located state is an RK4 step, not an
    # interpolation between the ends of the step (a first-order error)
    time_errs, state_errs = [], []
    for h in (0.04, 0.02, 0.01):
        traj, lo, hi = run(h)
        times, final = circle_events(lo, hi, 0.5, 12.0)
        assert len(traj.events) == len(times)
        time_errs.append(max(abs(e.time - t) for e, t in zip(traj.events, times)))
        state_errs.append(float(np.linalg.norm(traj.final_state - final)))
    for errs in (time_errs, state_errs):
        for a, b in zip(errs, errs[1:]):
            assert 8.0 < a / b < 32.0, errs


# steering to a target: in demo_switching_spec, control i at u = +-1 moves
# z_i at unit speed whatever its relay reads, and the other coordinate at u / 2
# while relay i reads -1; both relays have the thresholds +-ETA

ETA = 0.3
LIFT = 3.0  # leg 1 lifts z2 here, past +ETA by more than leg 2 can drift it
points = st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


def relay_after(s, c):
    """A relay's output after its coordinate moves monotonically to c."""
    return 1 if c > ETA else -1 if c < -ETA else s


def time_at_minus(s, c, u, d):
    """Time at -1 of a relay at s whose coordinate moves from c at speed u for d."""
    if u > 0:
        return min(max(ETA - c, 0.0), d) if s == -1 else 0.0
    return d if s == -1 else d - min(max(c + ETA, 0.0), d)


def plan_steering(a, string, b):
    """Legs (control, u, duration), one control each, that steer the demo
    system from a with its relays at string to b, in closed form: leg 1
    lifts z2 to LIFT (relay 2 then reads +1), leg 2 takes z1 to b1 less the
    drift of leg 3, and leg 3 takes z2 down to b2, which drifts z1 by -1/2
    per unit time once z2 passes -ETA.  Also returns the planned end."""
    z, s, legs = list(a), list(string), []
    for i, target in ((1, LIFT), (0, b[0] - 0.5 * min(0.0, b[1] + ETA)), (1, b[1])):
        u, d = math.copysign(1.0, target - z[i]), abs(target - z[i])
        z[1 - i] += 0.5 * u * time_at_minus(s[i], z[i], u, d)
        z[i] = target
        s = [relay_after(sj, zj) for sj, zj in zip(s, z)]
        legs.append((i, u, d))
    return legs, z


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(a=points, string=st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1])), b=points,
       h=st.sampled_from([0.1, 0.05, 0.02]))
# three starts inside the dead band of both axes with targets past a threshold
# of each, below and above, and a start past one threshold of each axis
@example(a=(0.1, -0.2), string=(-1, -1), b=(-0.9, -0.8), h=0.05)
@example(a=(-0.25, 0.25), string=(1, -1), b=(0.8, 0.9), h=0.05)
@example(a=(0.2, 0.1), string=(-1, 1), b=(0.7, -0.6), h=0.1)
@example(a=(-0.9, 0.8), string=(1, 1), b=(-0.5, 0.2), h=0.02)
def test_switching_steers_to_a_planned_target(a, string, b, h):
    spec = demo_switching_spec()
    assert spec.thresholds == ((-ETA, ETA),) * 2
    string = tuple(relay_after(s, c) for s, c in zip(string, a))  # inside the band as drawn
    legs, end = plan_steering(a, string, b)
    assert end == pytest.approx(b, abs=1e-12)
    assume(all(d > MIN_GAP for _, _, d in legs))
    grid = np.concatenate([[0.0], np.cumsum([d for _, _, d in legs])])
    values = [[u if i == j else 0.0 for i, u, _ in legs] for j in range(2)]
    controls = tuple(StepSignal(TimeGrid(tuple(grid)), tuple(v)) for v in values)
    pieces = [(t0, t1, [v[q] for v in values]) for q, (t0, t1) in enumerate(zip(grid, grid[1:]))]

    def velocity(outs, u):
        fields = spec.field_table[tuple(o[0] for o in outs)].fields
        return sum(ui * np.asarray(g(None)) for ui, g in zip(u, fields))

    expected = clear_events(velocity, spec.xi, [[(-ETA, ETA, s)] for s in string], a, pieces, h)
    traj = integrate_switching(spec, controls, a, string, step=h)
    assert [(e.operator, e.new) for e in traj.events] == [(f"axis{j + 1}", s) for _, j, _, s in expected]
    assert all(abs(e.time - t) <= EVENT_TOL for e, (t, *_) in zip(traj.events, expected))
    # RK4 is exact on these constant fields, so the end is off b by rounding
    # alone, which grows with the rows (0.13 ulps of LIFT per row at worst here)
    assert np.abs(traj.final_state - b).max() <= 2.0 * sys.float_info.epsilon * LIFT * len(traj.times)
