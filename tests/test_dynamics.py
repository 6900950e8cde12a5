"""Integrators: plain RK4, play-in-controls, play-in-state, switching, banks."""

import csv
import dataclasses
import itertools
import math
import sys
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hystctl import dynamics
from hystctl.cli import main
from hystctl.dynamics import (
    EVENT_TOL,
    BankSpec,
    DivergenceError,
    FieldSet,
    SwitchingSpec,
    TriangularSpec,
    _integrate,
    gronwall_bound,
    heisenberg_fields,
    integrate_bank,
    integrate_plain,
    integrate_play_controls,
    integrate_play_state,
    integrate_switching,
)
from hystctl.hysteresis import RelayBank, SwitchEvent, bank_trace, play_apply
from hystctl.signals import (
    DomainError, PolylineSignal, StepSignal, TimeGrid, antiderivative, merge_times, sample,
)


def const(duration, value):
    return StepSignal(TimeGrid((0.0, duration)), (value,))


def step(points, values):
    return StepSignal(TimeGrid(tuple(points)), tuple(values))


EXP_FIELD = FieldSet(1, 1, (lambda z: (z[0],),))


# ---------------------------------------------------------------------------
# plain integration

def test_rk4_order_four():
    # z' = z, z(0) = 1 -> e; halving the step cuts the error by ~2^4
    errs = []
    for h in (0.05, 0.025, 0.0125):
        traj = integrate_plain(EXP_FIELD, (const(1.0, 1.0),), (1.0,), step=h)
        errs.append(abs(traj.final_state[0] - math.e))
    for a, b in zip(errs, errs[1:]):
        assert 8.0 < a / b < 32.0


def test_zero_control_is_constant():
    traj = integrate_plain(heisenberg_fields(), (const(2.0, 0.0), const(2.0, 0.0)),
                           (0.3, -0.1, 0.7), step=1e-2)
    assert np.abs(traj.states - traj.states[0]).max() == 0.0


def test_constant_controls_heisenberg():
    # u = (1, 1): x=t, y=t, z = t^2/2 (polynomial degree <= 4: RK4 exact)
    traj = integrate_plain(heisenberg_fields(), (const(1.0, 1.0), const(1.0, 1.0)),
                           (0.0, 0.0, 0.0), step=1e-2)
    assert traj.final_state == pytest.approx([1.0, 1.0, 0.5], abs=1e-12)


def _one_sector_switching(fields, controls, z0, step):
    # every string carries the same fields and no relay can switch
    table = {(s1, s2): fields for s1 in (-1, 1) for s2 in (-1, 1)}
    spec = SwitchingSpec(xi=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), eta=10.0, field_table=table)
    return integrate_switching(spec, controls, z0, (1, 1), step=step)


@pytest.mark.parametrize("integrator", [integrate_plain, _one_sector_switching],
                         ids=["integrate_plain", "integrate_switching"])
def test_breakpoints_pinned_under_halving(integrator):
    u1 = step([0.0, 0.37, 1.13, 2.0], [1.0, -0.5, 0.25])
    u2 = step([0.0, 0.71, 2.0], [0.5, -1.0])
    t_a = integrator(heisenberg_fields(), (u1, u2), (0.0, 0.0, 0.0), step=1e-2)
    t_b = integrator(heisenberg_fields(), (u1, u2), (0.0, 0.0, 0.0), step=5e-3)
    for traj in (t_a, t_b):
        times = traj.times.tolist()
        for brk in (0.37, 0.71, 1.13, 2.0):  # every breakpoint and the horizon
            assert brk in times
        # the nominal grid leaves no sliver step before a breakpoint
        event_times = {e.time for e in traj.events}
        assert all(b - a >= 1e-9 or b in event_times for a, b in zip(times, times[1:]))
    assert np.abs(t_a.final_state - t_b.final_state).max() < 1e-10


def test_divergence_cap():
    blowup = FieldSet(1, 1, (lambda z: (z[0] ** 2,),))
    with pytest.raises(DivergenceError):
        integrate_plain(blowup, (const(2.0, 1.0),), (1.0,), step=1e-3)


def test_divergence_cap_catches_nan():
    nan_field = FieldSet(1, 1, (lambda z: (math.nan,),))
    with pytest.raises(DivergenceError):
        integrate_plain(nan_field, (const(1.0, 1.0),), (1.0,), step=0.25)


@pytest.mark.parametrize("fourth", [lambda x: x ** 4, lambda x: x * x * x * x])
def test_divergence_cap_when_the_exactness_test_overflows(fourth):
    # one RK4 step over the whole piece overflows (x ** 4 raises
    # OverflowError, x * x * x * x gives inf) where the first nominal step
    # only leaves the cap; that is no exact piece, and the blow-up is left to
    # the nominal steps
    blowup = FieldSet(1, 1, (lambda z: (fourth(z[0]),),))
    with pytest.raises(DivergenceError):
        integrate_plain(blowup, (const(1.0, 1e4),), (1.0,), step=1e-3)


@pytest.mark.parametrize("root", [math.sqrt, np.sqrt])
def test_exactness_test_off_the_fields_domain(root):
    # z' = -1.9 sqrt(z) from 1 has the solution (1 - 0.95 t)^2 > 0 on [0, 1];
    # one RK4 step over the whole piece takes sqrt of a negative number (a
    # ValueError, or a NaN and a numpy warning), which is no exact piece and
    # raises nothing, while the nominal steps stay in the domain
    root_field = FieldSet(1, 1, (lambda z: (-root(z[0]),),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate_plain(root_field, (const(1.0, 1.9),), (1.0,), step=1e-3)
    assert len(traj.times) == 1001
    assert traj.final_state[0] == pytest.approx(0.05 ** 2, rel=1e-6)


def test_exactness_test_needs_finite_states():
    # the field is huge only off the times one RK4 step over [0, 1] samples
    # (0, 1/2 and 1): that step stays at 0 while the quarter steps overflow
    # to inf, which agrees with 0 to any tolerance relative to an inf scale;
    # only the rule that all six states be finite refuses the stretch
    from hystctl.dynamics import _exact_rows

    def rhs(t, z):
        return [0.0 if t in (0.0, 0.5, 1.0) else 1e308]

    ts, rows = _exact_rows(rhs, 0.0, (0.0,), (0.0, 1.0, 1.0 / 32, 32), 1, (), [])
    assert ts.shape == (0,) and rows.shape == (0, 1)


def test_closed_form_stretch_stops_at_its_first_crossing(monkeypatch):
    # one axis at speed 1.2 through a staircase bank of 256 relays, 128 of
    # them pending: after each event the rest of the piece is tested again,
    # and a test evaluates its rows in chunks that double from _EXACT_STEPS
    # up to the first chunk with a crossing, so at most twice the rows it
    # keeps plus _EXACT_STEPS (evaluating the whole rest of the piece at
    # each test took 4,879,229 rows for these 100,126)
    quartic, exact_rows, tests = dynamics._quartic, dynamics._exact_rows, []

    def counted_quartic(coefs, t, quarter, ts):
        tests[-1][0] += len(ts)
        return quartic(coefs, t, quarter, ts)

    def counted_exact_rows(*args):
        tests.append([0, 0])
        ts, rows = exact_rows(*args)
        tests[-1][1] = len(ts)
        return ts, rows

    monkeypatch.setattr(dynamics, "_quartic", counted_quartic)
    monkeypatch.setattr(dynamics, "_exact_rows", counted_exact_rows)
    spec = BankSpec(xi=((1.0,),), k=256, fields=(lambda w, z: (1.2,),))
    traj = integrate_bank(spec, (const(1.0, 1.0),), (0.0,), (RelayBank.staircase(256, 128),),
                          step=1e-5)
    assert len(traj.events) == 128 and len(traj.times) == 100126
    assert len(tests) > 128 and sum(kept for _, kept in tests) > 0.99 * len(traj.times)
    assert all(evaluated <= 2 * kept + dynamics._EXACT_STEPS for evaluated, kept in tests), tests


@pytest.mark.parametrize("nsteps", [256, 225])
@pytest.mark.parametrize("first", [0, 31, 32, 95, 96, 223, 224, None])
def test_closed_form_chunks_cut_at_the_first_row_past_a_threshold(monkeypatch, nsteps, first):
    # z' = (1, 2) on [0, 4] from 0, seen on the axis (0.6, 0.8): with a rise
    # between rows first - 1 and first, the first and last rows of the
    # chunks of 32, 64 and 128 rows, the stretch keeps the rows before first,
    # bit for bit those of one evaluation of the whole piece; and no chunk is
    # one row, whose product numpy rounds its own way (225 steps leave one)
    rhs = dynamics._affine_rhs([lambda z: (1.0, 2.0)], [1.0], [0.0], 0.0, 2)
    piece, xi = (0.0, 4.0, 4.0 / nsteps, nsteps), ((0.6, 0.8),)
    whole_ts, whole = dynamics._exact_rows(rhs, 0.0, (0.0, 0.0), piece, 1, (), [])
    assert len(whole_ts) == nsteps and whole_ts[-1] == 4.0
    proj = whole @ np.array(xi).T[:, 0]
    rise = 9.0 if first is None else 0.5 * (proj[first] + (proj[first - 1] if first else 0.0))
    quartic, chunks = dynamics._quartic, []
    monkeypatch.setattr(dynamics, "_quartic", lambda *args: chunks.append(len(args[3])) or quartic(*args))
    walk = SimpleNamespace(rise=rise, fall=-9.0)
    ts, rows = dynamics._exact_rows(rhs, 0.0, (0.0, 0.0), piece, 1, xi, [walk])
    kept = nsteps if first is None else first
    assert ts.tobytes() == whole_ts[:kept].tobytes() and rows.tobytes() == whole[:kept].tobytes()
    assert chunks[:2] == [32, 64][: len(chunks)] and min(chunks) >= 2
    assert sum(chunks[:-1]) <= kept <= sum(chunks) <= 2 * kept + dynamics._EXACT_STEPS


def test_closed_form_rows_past_the_cap_diverge():
    # an exact piece whose rows z = 1e7 t leave the cap at t = 0.1
    with pytest.raises(DivergenceError):
        integrate_plain(FieldSet(1, 1, (lambda z: (1.0,),)), (const(1.0, 1e7),), (0.0,),
                        step=1e-3)


def test_polyline_controls_integrated_exactly():
    # a control is affine on each piece, so a ramp is not held at its
    # midpoint value: Heisenberg with u1 = t, u2 = 1 gives z = t^3/6, which
    # RK4 reproduces to rounding
    ramp = PolylineSignal(((0.0, 0.0), (1.0, 1.0)))
    traj = integrate_plain(heisenberg_fields(), (ramp, const(1.0, 1.0)), (0.0, 0.0, 0.0),
                           step=0.1)
    t = traj.times
    assert np.abs(traj.states - np.column_stack([t**2 / 2, t, t**3 / 6])).max() < 1e-12
    # z = t^2/2 under a ramp passes the his 1/2 and 1 of a 2-relay bank
    spec = BankSpec(xi=((1.0,),), k=2, fields=(lambda w, z: (1.0,),))
    ramp2 = PolylineSignal(((0.0, 0.0), (2.0, 2.0)))
    traj = integrate_bank(spec, (ramp2,), (0.0,), (RelayBank.staircase(2, 0),), step=0.25)
    assert [e.operator for e in traj.events] == ["axis1.relay1", "axis1.relay2"]
    for ev, thr in zip(traj.events, (0.5, 1.0)):
        assert abs(ev.time - math.sqrt(2.0 * thr)) < 1e-9
    # play in the state integrates its controls in closed form: steps only
    tri = TriangularSpec((lambda x: x,), 0.2, (0.0,))
    with pytest.raises(DomainError):
        integrate_play_state(tri, (ramp, ramp), (0.0, 0.0, 0.0))


def heisenberg_exact(controls, z0, ts):
    """The Heisenberg flow (dx = u1, dy = u2, dz = x u2) at the sorted times
    ts in closed form: on each piece between the controls' merged knots the
    controls are p + s (t - a), x and y are quadratics and z a quartic."""
    ts, out = np.asarray(ts), np.empty((len(ts), 3))
    x, y, z = z0
    times = merge_times(*(c.affine_view()[0] for c in controls)).tolist()
    for a, b in zip(times, times[1:]):
        p1, p2 = [c(a) for c in controls]
        s1, s2 = [slope[np.searchsorted(breaks, 0.5 * (a + b)) - 1]
                  for breaks, _, slope in (c.affine_view() for c in controls)]

        def flow(tau, x=x, y=y, z=z):
            return (x + p1 * tau + s1 * tau**2 / 2, y + p2 * tau + s2 * tau**2 / 2,
                    z + x * (p2 * tau + s2 * tau**2 / 2) + p1 * p2 * tau**2 / 2
                    + (p1 * s2 / 3 + s1 * p2 / 6) * tau**3 + s1 * s2 * tau**4 / 8)

        on = (a <= ts) & (ts <= b)
        out[on] = np.column_stack(flow(ts[on] - a))
        x, y, z = flow(b - a)
    return out


def assert_closed_form(traj, controls, z0):
    exact = heisenberg_exact(controls, z0, traj.times)
    assert np.all(np.abs(traj.states - exact) <= 1e-12 * np.maximum(1.0, np.abs(exact)))


@st.composite
def heisenberg_cases(draw, kind):
    """Two step signals or polylines (kind) on one [0, T], knots on a 1/16
    lattice and values in [-2, 2], a z0 and a step in [1e-3, 0.1]."""
    values = st.floats(-2.0, 2.0)
    n = draw(st.integers(4, 32))
    signals = []
    for _ in range(2):
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=6)))
        times = [0.0, *(c / 16 for c in cuts), n / 16]
        vals = draw(st.lists(values, min_size=len(times), max_size=len(times)))
        signals.append(step(times, vals[1:]) if kind == "step"
                       else PolylineSignal(tuple(zip(times, vals))))
    return signals, draw(st.tuples(values, values, values)), draw(st.floats(1e-3, 0.1))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(case=heisenberg_cases("step"))
def test_plain_rows_match_the_closed_form(case):
    controls, z0, h = case
    assert_closed_form(integrate_plain(heisenberg_fields(), controls, z0, step=h), controls, z0)


def nominal_grid(grid, h):
    """Row times of the relay core for the pieces between the grid points:
    a + q * (b - a) / n on each, its last exactly b."""
    times = [grid[0]]
    for a, b in zip(grid, grid[1:]):
        n = round((b - a) / h)
        times += [a + q * ((b - a) / n) for q in range(1, n)] + [b]
    return np.array(times)


def test_exact_pieces_cost_one_test_each():
    # Heisenberg with step controls has quadratic and cubic solutions, so
    # each of the four pieces costs one RK4 step and four quarter steps (40
    # evaluations of each field) in place of 1000 nominal steps (8000), and
    # keeps its 1000 rows on the nominal grid
    calls = [0]

    def counted(g):
        def field(z):
            calls[0] += 1
            return g(z)
        return field

    sysf = FieldSet(3, 2, tuple(map(counted, heisenberg_fields().fields)))
    grid = (0.0, 1.0, 2.0, 3.0, 4.0)
    controls = (step(grid, (1.0, -1.0, 0.5, 2.0)), step(grid, (-1.0, 0.5, 2.0, 1.0)))
    traj = integrate_plain(sysf, controls, (0.1, -0.2, 0.3), step=1e-3)
    assert calls[0] <= 200
    assert np.array_equal(traj.times, nominal_grid(grid, 1e-3))
    assert_closed_form(traj, controls, (0.1, -0.2, 0.3))


def test_inexact_field_steps_the_nominal_grid():
    # a rotation is not polynomial in t: one RK4 step over a piece and four
    # quarter steps disagree, so the rows are those of a plain RK4 loop on the
    # nominal grid, bit for bit
    grid, values = (0.0, 0.5, 1.5), (1.0, -0.5)
    traj = integrate_plain(FieldSet(2, 1, (lambda z: (-z[1], z[0]),)), (step(grid, values),),
                           (1.0, 0.0), step=1e-3)
    z, rows = (1.0, 0.0), [(1.0, 0.0)]
    for a, b, c in zip(grid, grid[1:], values):
        h = (b - a) / round((b - a) / 1e-3)
        for _ in range(round((b - a) / 1e-3)):
            k1 = (c * -z[1], c * z[0])
            k2 = (c * -(z[1] + 0.5 * h * k1[1]), c * (z[0] + 0.5 * h * k1[0]))
            k3 = (c * -(z[1] + 0.5 * h * k2[1]), c * (z[0] + 0.5 * h * k2[0]))
            k4 = (c * -(z[1] + h * k3[1]), c * (z[0] + h * k3[0]))
            z = tuple(zi + h / 6.0 * (p + 2.0 * q + 2.0 * r + s)
                      for zi, p, q, r, s in zip(z, k1, k2, k3, k4))
            rows.append(z)
    assert np.array_equal(traj.times, nominal_grid(grid, 1e-3))
    assert np.array_equal(traj.states, np.array(rows))


def test_control_count_mismatch():
    with pytest.raises(DomainError):
        integrate_plain(heisenberg_fields(), (const(1.0, 1.0),), (0.0, 0.0, 0.0))


def test_controls_must_share_the_horizon():
    with pytest.raises(DomainError, match="share the horizon"):
        integrate_plain(heisenberg_fields(), (const(1.0, 1.0), const(2.0, 1.0)), (0.0, 0.0, 0.0))


@pytest.mark.parametrize("controls", [
    (const(1.0, 1.0), const(1.0 + 1e-10, 1.0)),  # a sliver past KNOT_TOL: no extra row
    (const(4.0, 1.0), step([1.0, 4.0], [1.0])),   # same end, later start: no extrapolation
], ids=["sliver-past-end", "late-start"])
def test_controls_must_share_both_ends(controls):
    for pair in (controls, controls[::-1]):
        with pytest.raises(DomainError, match="share the horizon"):
            integrate_plain(heisenberg_fields(), pair, (0.0, 0.0, 0.0))


@pytest.mark.parametrize("integrator", ["play_controls", "switching", "bank"])
def test_relay_core_checks_control_count(integrator):
    # one control per field, checked once in the relay core for every front end
    c, z0 = const(1.0, 1.0), (0.0, 0.0, 0.0)
    with pytest.raises(DomainError, match="one control per field"):
        if integrator == "play_controls":
            v = PolylineSignal(((0.0, 0.0), (1.0, 1.0)))
            integrate_play_controls(heisenberg_fields(), (v,), (0.0,), 0.2, z0, step=0.25)
        elif integrator == "switching":
            integrate_switching(_heisenberg_switching(), (c,), z0, (1, 1), step=0.25)
        else:
            spec, banks = _bank_heisenberg()
            integrate_bank(spec, (c, c, c), z0, banks, step=0.25)


def test_field_set_needs_one_field_per_control():
    # a missing field used to drop its control: this ended at (0.5, 0)
    with pytest.raises(DomainError, match="one field per control"):
        FieldSet(2, 2, (lambda z: (1.0, 0.0),))


def test_bank_spec_shape():
    # one field on two axes used to drop u2; xi of two lengths has no one R^n
    with pytest.raises(DomainError, match="one field per axis"):
        BankSpec(xi=((1.0, 0.0), (0.0, 1.0)), k=2, fields=(lambda w, z: (1.0, 0.0),))
    with pytest.raises(DomainError, match="one length"):
        BankSpec(xi=((1.0, 0.0), (0.0, 1.0, 0.0)), k=2,
                 fields=(lambda w, z: (1.0, 0.0), lambda w, z: (0.0, 1.0)))
    # and integrate_bank needs one bank of k relays per axis
    spec, banks = _bank_heisenberg()
    c = const(1.0, 1.0)
    for wrong in (banks[:1], (RelayBank.staircase(3, 1),) * 2):
        with pytest.raises(DomainError, match="one k-relay bank per axis"):
            integrate_bank(spec, (c, c), (0.0, 0.0, 0.0), wrong, step=0.25)


@pytest.mark.parametrize("case", ["long", "short", "grows", "shrinks", "after-switch",
                                  "bank-after-switch"])
def test_field_vector_length_checked(case):
    # a long vector was cut to n components (the long case ended at (1, 0),
    # dropping the 5.0) and a short one raised IndexError; a field whose
    # length changes along the run did the same (grows ended at (1, 0), and
    # shrinks raised IndexError), so every vector is checked where the relay
    # core sums it, and so is the field set chosen at a switch once summed
    with pytest.raises(DomainError, match="components"):
        if case == "after-switch":
            table = dict(demo_spec().field_table)
            table[(-1, 1)] = FieldSet(2, 2, (lambda z: (1.0, 0.0, 5.0), lambda z: (0.0, 1.0)))
            spec = SwitchingSpec(xi=((1.0, 0.0), (0.0, 1.0)), eta=0.3, field_table=table)
            integrate_switching(spec, (const(1.0, -1.0), const(1.0, 0.0)), (0.5, 0.5), (1, 1),
                                step=0.25)
        elif case == "bank-after-switch":  # the first event makes w = 1 and the vector long
            spec = BankSpec(xi=((1.0, 0.0), (0.0, 1.0)), k=2,
                            fields=(lambda w, z: (1.0, 0.0) if w < 1.0 else (1.0, 0.0, 5.0),
                                    lambda w, z: (0.0, 1.0)))
            integrate_bank(spec, (const(2.0, 1.0), const(2.0, 0.0)), (0.0, 0.0),
                           (RelayBank.staircase(2, 1),) * 2, step=0.25)
        else:
            n, vec = {"long": (2, (1.0, 0.0, 5.0)), "short": (3, (1.0, 0.0)),
                      "grows": (2, (1.0, 0.0)), "shrinks": (3, (1.0, 0.0, 0.0))}[case]
            other = {"grows": (1.0, 0.0, 5.0), "shrinks": (1.0, 0.0)}.get(case, vec)
            field = FieldSet(n, 1, (lambda z: vec if z[0] < 0.5 else other,))
            integrate_plain(field, (const(1.0, 1.0),), (0.0,) * n)


def test_field_with_zero_control_is_never_summed():
    # the relay core checks a vector where it sums it: a wrong-length field
    # whose control is zero on every piece is never evaluated, so it raises nothing
    traj = integrate_plain(FieldSet(2, 2, (lambda z: (1.0, 0.0), lambda z: (1.0, 0.0, 5.0))),
                           (const(1.0, 1.0), const(1.0, 0.0)), (0.0, 0.0), step=0.25)
    assert traj.final_state.tolist() == [1.0, 0.0]


@pytest.mark.parametrize("h", [0.0, math.nan, math.inf], ids=["zero", "nan", "inf"])
def test_step_must_be_positive_and_finite(h):
    # NaN failed in math.ceil with a bare ValueError; inf gave one RK4 step per piece
    with pytest.raises(DomainError, match="step"):
        integrate_plain(EXP_FIELD, (const(1.0, 1.0),), (1.0,), step=h)
    spec = TriangularSpec((lambda x: x,), 0.2, (0.0,))
    with pytest.raises(DomainError, match="step"):
        integrate_play_state(spec, (const(1.0, 1.0),) * 2, (0.0, 0.0, 0.0), step=h)


@pytest.mark.parametrize("h", [1e-300, 1e-10, 5e-324, np.float64(5e-324)],
                         ids=["1e-300", "1e-10", "5e-324", "numpy-5e-324"])
def test_step_past_the_row_cap_is_refused_up_front(h):
    # without the cap the nominal grid came first: numpy's ValueError at 1e-300,
    # a MemoryError for tens of GiB at 1e-10 and an OverflowError from math.ceil
    # at 5e-324; the cap refuses each with a DomainError before any such array
    spec = TriangularSpec((lambda x: x,), 0.2, (0.0,))
    runs = (lambda: integrate_plain(heisenberg_fields(), (const(1.0, 1.0),) * 2, (0.0,) * 3, step=h),
            lambda: integrate_play_state(spec, (const(1.0, 1.0),) * 2, (0.0,) * 3, step=h))
    for run in runs:
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="rows"):
                run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


def test_row_cap_refuses_only_more_rows(monkeypatch):
    # (T - t0) / step at the cap runs and one step shorter is refused; a small
    # cap stands in for _ROW_CAP, whose own boundary is a 1e7-row run
    monkeypatch.setattr(dynamics, "_ROW_CAP", 100)
    assert len(integrate_plain(EXP_FIELD, (const(2.0, 1.0),), (1.0,), step=0.02).times) == 101
    with pytest.raises(DomainError, match="more than 100 rows"):
        integrate_plain(EXP_FIELD, (const(2.0, 1.0),), (1.0,), step=math.nextafter(0.02, 0.0))


def test_switching_thresholds_past_the_floats_are_refused():
    # an int threshold past the floats is refused when the spec is built, not
    # by a bare OverflowError when the walk converts it in the relay core
    table = {s: FieldSet(1, 1, (lambda z: (1.0,),)) for s in ((-1,), (1,))}
    with pytest.raises(DomainError, match="within the floats"):
        SwitchingSpec(xi=((1.0,),), eta=0.3, field_table=table, thresholds=((0, 10**400),))


def test_trajectory_sample_rejects_times_outside_horizon():
    traj = integrate_plain(EXP_FIELD, (const(1.0, 1.0),), (1.0,), step=0.25)
    for t in (5.0, -3.0, 1.0 + 1e-9, float("nan")):
        with pytest.raises(DomainError):
            traj.sample([0.5, t])
    assert traj.sample([1.0 + 1e-14])[0] == pytest.approx(traj.final_state)


def _heisenberg_switching():
    table = {(s1, s2): heisenberg_fields() for s1 in (-1, 1) for s2 in (-1, 1)}
    return SwitchingSpec(xi=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), eta=0.3, field_table=table)


def _bank_heisenberg():
    spec = BankSpec(xi=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), k=2,
                    fields=(lambda w, z: (1.0, 0.0, 0.0), lambda w, z: (0.0, 1.0, z[0])))
    return spec, (RelayBank.staircase(2, 1),) * 2


@pytest.mark.parametrize("integrator", ["plain", "play_controls", "switching", "bank"])
def test_state_dimension_mismatch(integrator):
    # Heisenberg fields act on R^3; a 2-coordinate z0 must not be truncated
    c, z0 = const(1.0, 1.0), (0.0, 0.0)
    heis = heisenberg_fields()
    with pytest.raises(DomainError):
        if integrator == "plain":
            integrate_plain(heis, (c, c), z0, step=0.25)
        elif integrator == "play_controls":
            v = PolylineSignal(((0.0, 0.0), (1.0, 1.0)))
            integrate_play_controls(heis, (v, v), (0.0, 0.0), 0.2, z0, step=0.25)
        elif integrator == "switching":
            integrate_switching(_heisenberg_switching(), (c, c), z0, (1, 1), step=0.25)
        else:
            spec, banks = _bank_heisenberg()
            integrate_bank(spec, (c, c), z0, banks, step=0.25)


@pytest.mark.parametrize("integrator",
                         ["plain", "play_controls", "play_state", "switching", "bank"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, "x"], ids=["nan", "inf", "text"])
def test_z0_needs_finite_numeric_coordinates(integrator, bad):
    # a bad z0 is a DomainError before the first step, not a DivergenceError after it
    c, z0 = const(1.0, 1.0), (0.0, 0.0, bad)
    heis = heisenberg_fields()
    with pytest.raises(DomainError, match="finite numeric coordinates"):
        if integrator == "plain":
            integrate_plain(heis, (c, c), z0, step=0.25)
        elif integrator == "play_controls":
            v = PolylineSignal(((0.0, 0.0), (1.0, 1.0)))
            integrate_play_controls(heis, (v, v), (0.0, 0.0), 0.2, z0, step=0.25)
        elif integrator == "play_state":
            integrate_play_state(TriangularSpec((lambda x: x,), 0.2, (0.0,)), (c, c), z0)
        elif integrator == "switching":
            integrate_switching(_heisenberg_switching(), (c, c), z0, (1, 1), step=0.25)
        else:
            spec, banks = _bank_heisenberg()
            integrate_bank(spec, (c, c), z0, banks, step=0.25)


def test_trajectory_csv(tmp_path):
    traj = integrate_plain(EXP_FIELD, (const(1.0, 1.0),), (1.0,), step=0.25)
    path = tmp_path / "traj.csv"
    traj.to_csv(str(path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "z1"]
    assert len(rows) == 1 + len(traj.times)

    # a bank system: z1 = t passes relay 2's hi 1 on axis 1, z2 = -t relay
    # 1's lo -1/2 on axis 2; each axis is one +/- string, joined by '|'
    spec, banks = _bank_heisenberg()
    traj = integrate_bank(spec, (const(1.5, 1.0), const(1.5, -1.0)), (0.0, 0.0, 0.0), banks,
                          step=0.25)
    traj.to_csv(str(path))
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "z1", "z2", "z3", "strings"]
    strings = [r[4] for r in rows[1:]]
    assert len(strings) == len(traj.times)
    assert (strings[0], strings[-1]) == ("+-|+-", "++|--")
    assert set(strings) == {"+-|+-", "+-|--", "++|--"}


@pytest.mark.parametrize("integrator", ["switching", "bank"])
def test_trajectory_csv_formats_each_relay_entry_once(tmp_path, monkeypatch, integrator):
    # the rows between two events share one log entry, formatted once: at
    # most one _signs call per event, plus one for the rows before the
    # first, where formatting every row made one per row
    u = step([0, 1, 2, 3, 4, 5, 6], [1.5, -1.5, -1.5, 1.5, 1.5, -1.5])
    if integrator == "switching":
        traj = integrate_switching(_heisenberg_switching(), (u, u), (0.0, 0.0, 0.0), (-1, -1),
                                   step=0.01)
    else:
        spec, banks = _bank_heisenberg()
        traj = integrate_bank(spec, (u, u), (0.0, 0.0, 0.0), banks, step=0.01)
    (log,) = traj.hysteresis_log.values()
    calls, signs = [], dynamics._signs
    monkeypatch.setattr(dynamics, "_signs",
                        lambda outs, text: calls.append(outs) or signs(outs, text))
    path = tmp_path / "traj.csv"
    traj.to_csv(str(path))
    entries = [c for c in calls if c in log]  # a bank entry's axes are formatted by a call each
    assert len(traj.events) >= 6 and len(traj.times) > 50 * (len(traj.events) + 1)
    assert 0 < len(entries) <= len(traj.events) + 1

    def text(entry):
        if isinstance(entry[0], tuple):
            return "|".join(map(text, entry))
        return "".join("+" if o > 0 else "-" for o in entry)

    with open(path) as fh:
        assert [row[-1] for row in list(csv.reader(fh))[1:]] == [text(e) for e in log]


def test_plain_runs_build_no_log():
    # the relay core replays a log from its events only for relay runs: a
    # plain run has none, and a play-in-controls run only its play samples
    heis, controls, z0 = heisenberg_fields(), (const(1.0, 1.0), const(1.0, -1.0)), (0.0, 0.0, 0.0)
    traj = integrate_plain(heis, controls, z0, step=0.25)
    assert traj.hysteresis_log == {} and len(traj.events) == 0
    assert _integrate(controls, z0, 0.25, lambda walks: heis.fields, 3)[2] is None
    v = PolylineSignal(((0.0, 0.0), (1.0, 1.0)))
    traj = integrate_play_controls(heis, (v, v), (0.0, 0.0), 0.2, z0, step=0.25)
    assert sorted(traj.hysteresis_log) == ["play1", "play2"]


# ---------------------------------------------------------------------------
# play in the controls

def test_play_controls_constant_inputs_reduce_to_plain():
    T, rho = 2.0, 0.3
    v = (PolylineSignal(((0.0, 1.0), (T, 1.0))), PolylineSignal(((0.0, -0.5), (T, -0.5))))
    w0 = (0.8, -0.4)
    traj = integrate_play_controls(heisenberg_fields(), v, w0, rho, (0.0, 0.0, 0.0))
    ref = integrate_plain(heisenberg_fields(), (const(T, w0[0]), const(T, w0[1])),
                          (0.0, 0.0, 0.0))
    assert np.abs(traj.final_state - ref.final_state).max() < 1e-12
    assert np.abs(traj.hysteresis_log["play1"] - w0[0]).max() == 0.0


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(case=heisenberg_cases("polyline"), rho=st.floats(0.0, 1.0),
       fracs=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
def test_play_control_rows_match_the_closed_form(case, rho, fracs):
    # the rows against the closed form driven by the play outputs (polylines)
    v, z0, h = case
    w0 = [vi.knots[0][1] + (2.0 * f - 1.0) * rho for vi, f in zip(v, fracs)]
    traj = integrate_play_controls(heisenberg_fields(), v, w0, rho, z0, step=h)
    assert_closed_form(traj, [play_apply(vi, wi, rho) for vi, wi in zip(v, w0)], z0)


def test_play_controls_seed_validation():
    v = (PolylineSignal(((0.0, 1.0), (1.0, 1.0))),) * 2
    with pytest.raises(DomainError):
        integrate_play_controls(heisenberg_fields(), v, (0.0, 1.0), 0.2, (0.0, 0.0, 0.0))
    with pytest.raises(DomainError, match="one seed per input"):
        integrate_play_controls(heisenberg_fields(), v, (1.0,), 0.2, (0.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# play in the state

def test_play_state_zero_controls():
    spec = TriangularSpec((lambda x: x,), 0.2, (0.1,))
    traj = integrate_play_state(spec, (const(1.0, 0.0), const(1.0, 0.0)),
                                (0.1, 0.0, 0.5))
    assert np.abs(traj.states - traj.states[0]).max() == 0.0


def test_play_state_closed_form():
    # x1 = t, play(rho=0.2, w0=0) = max(t - 0.2, 0); y = integral = 0.32 at t=1
    spec = TriangularSpec((lambda x: x,), 0.2, (0.0,))
    traj = integrate_play_state(spec, (const(1.0, 1.0), const(1.0, 1.0)),
                                (0.0, 0.0, 0.0))
    assert traj.final_state == pytest.approx([1.0, 1.0, 0.32], abs=1e-12)
    # the play path is logged and exact
    idx = np.searchsorted(traj.times, 0.6)
    assert traj.hysteresis_log["play1"][idx] == pytest.approx(0.4, abs=1e-12)


def _play_square_integral(play, u, ts):
    """Closed-form integral of f(play) u from 0 to each t in ts, for f(p) = p^2,
    on the merged grid of the play's knots and u's breaks (ts among them)."""
    grid = merge_times(play.times, u.grid.points)
    acc = [0.0]
    for t0, t1 in zip(grid, grid[1:]):
        p0, p1 = play(t0), play(t1)
        acc.append(acc[-1] + u(0.5 * (t0 + t1)) * (t1 - t0) * (p0 * p0 + p0 * p1 + p1 * p1) / 3.0)
    return np.interp(ts, grid, acc)


def test_play_state_simpson_exact_for_quadratic_f():
    # pieces of different lengths get different panel counts; the play is
    # affine on each panel, so Simpson is exact for f(p) = p^2
    spec = TriangularSpec((lambda p: p * p,), 0.15, (0.05,))
    u1 = step((0.0, 0.3, 1.0, 1.7, 2.0), (1.0, -0.5, 0.8, -1.2))
    u2 = step((0.0, 0.45, 1.3, 2.0), (0.7, -1.1, 2.0))
    traj = integrate_play_state(spec, (u1, u2), (0.0, 0.3, -0.2), step=0.1)
    assert len(set(np.round(np.diff(traj.times), 12))) > 2
    play = play_apply(antiderivative(u1), 0.05, 0.15)
    ts = merge_times(play.times, u1.grid.points, u2.grid.points)
    y = traj.sample(ts)[:, 2]
    assert np.abs(y - (-0.2 + _play_square_integral(play, u2, ts))).max() <= 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_play_state_zero_control_ignores_f(bad):
    # f is bad where the play exceeds 1.2, which happens only while u2 = 0
    u1 = step((0.0, 1.0, 2.0, 3.0, 4.0), (1.0, 1.0, -1.0, -1.0))
    u2 = step((0.0, 1.0, 3.0, 4.0), (1.0, 0.0, 1.0))
    good = TriangularSpec((lambda p: p,), 0.1, (-0.1,))
    spec = TriangularSpec((lambda p: np.where(p > 1.2, bad, p),), 0.1, (-0.1,))
    ref = integrate_play_state(good, (u1, u2), (0.0, 0.0, 0.0), step=0.1)
    traj = integrate_play_state(spec, (u1, u2), (0.0, 0.0, 0.0), step=0.1)
    assert np.array_equal(traj.states, ref.states)


def test_play_state_constant_f_integrates_the_control():
    u = (step((0.0, 0.4, 1.0), (1.0, -1.0)), step((0.0, 0.7, 1.0), (0.5, -2.0)),
         step((0.0, 0.2, 1.0), (0.0, 3.0)))
    spec = TriangularSpec((lambda *x: 1.0, lambda *x: 1.0), 0.2, (0.0, 0.0))
    traj = integrate_play_state(spec, u, (0.0, 0.0, 0.0, 0.5, -0.5), step=0.05)
    for i, y0 in ((1, 0.5), (2, -0.5)):
        exact = sample(antiderivative(u[i], y0), traj.times)
        assert np.abs(traj.states[:, 2 + i] - exact).max() <= 1e-12


def test_play_state_cap_catches_nan():
    spec = TriangularSpec((lambda x: math.nan,), 0.2, (0.0,))
    with pytest.raises(DivergenceError):
        integrate_play_state(spec, (const(1.0, 1.0), const(1.0, 1.0)), (0.0, 0.0, 0.0))


def test_play_state_f_of_wrong_shape_is_a_domain_error():
    # f must give one number or one per node; two numbers is neither
    spec = TriangularSpec((lambda p: np.ones(2),), 0.2, (0.0,))
    with pytest.raises(DomainError, match=r"shape \(2,\)"):
        integrate_play_state(spec, (const(1.0, 1.0), const(1.0, 1.0)), (0.0, 0.0, 0.0))


def test_play_state_dimension_checks():
    spec = TriangularSpec((lambda x: x,), 0.2, (0.0,))
    assert spec.m == 2  # one more control than output functions
    with pytest.raises(DomainError):
        integrate_play_state(spec, (const(1.0, 1.0),), (0.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        TriangularSpec((), 0.2, ())
    with pytest.raises(DomainError):
        TriangularSpec((lambda x: x,), 0.2, (0.0, 0.0))


# ---------------------------------------------------------------------------
# switching systems

def demo_spec(thresholds=None):
    def g1(s):
        return (lambda z: (1.0, 0.0)) if s == 1 else (lambda z: (1.0, 0.5))

    def g2(s):
        return (lambda z: (0.0, 1.0)) if s == 1 else (lambda z: (0.5, 1.0))

    table = {(s1, s2): FieldSet(2, 2, (g1(s1), g2(s2)))
             for s1 in (-1, 1) for s2 in (-1, 1)}
    return SwitchingSpec(xi=((1.0, 0.0), (0.0, 1.0)), eta=0.3,
                         field_table=table, thresholds=thresholds)


def test_switching_one_sector_equals_plain():
    spec = demo_spec()
    controls = (const(1.0, 1.0), const(1.0, 1.0))
    traj = integrate_switching(spec, controls, (0.5, 0.5), (1, 1), step=1e-2)
    ref = integrate_plain(spec.field_table[(1, 1)], controls, (0.5, 0.5), step=1e-2)
    assert not traj.events
    assert np.array_equal(traj.times, ref.times)
    assert np.array_equal(traj.states, ref.states)


def test_switching_single_crossing():
    spec = demo_spec()
    controls = (const(1.0, -1.0), const(1.0, 0.0))
    traj = integrate_switching(spec, controls, (0.5, 0.5), (1, 1), step=1e-3)
    assert len(traj.events) == 1
    ev = traj.events[0]
    # a switching axis is a one-relay bank, so its events switch relay 1
    assert ev.operator == "axis1" and (ev.index, ev.old, ev.new) == (1, 1, -1)
    assert abs(ev.time - 0.8) < 1e-9  # z1 = 0.5 - t crosses -0.3 at t = 0.8
    assert traj.hysteresis_log["string"][-1] == (-1, 1)


def test_switching_oscillation_no_events():
    spec = demo_spec()
    grid = (0.0, 1.0, 2.0, 3.0, 4.0)
    osc = (step(grid, (0.25, -0.25, 0.25, -0.25)), step(grid, (0.0,) * 4))
    traj = integrate_switching(spec, osc, (0.0, 0.0), (1, 1), step=1e-3)
    assert not traj.events


def test_switching_event_time_stable_under_halving():
    spec = demo_spec()
    controls = (const(1.0, -1.0), const(1.0, 0.0))
    t1 = integrate_switching(spec, controls, (0.5, 0.5), (1, 1), step=1e-3)
    t2 = integrate_switching(spec, controls, (0.5, 0.5), (1, 1), step=5e-4)
    assert abs(t1.events[0].time - t2.events[0].time) < 1e-9


def test_event_on_grid_point_leaves_no_resume_step():
    # the switching_demo script: events at 0.8, 1.7 and 2.95, grid points of
    # step 1e-3; one located within EVENT_TOL of its step's grid point
    # ends the step there instead of leaving a rounding-sized step to it
    grid = (0.0, 1.0, 2.0, 4.0)
    controls = (step(grid, (-1.0, 0.0, 1.0)), step(grid, (0.0, -1.0, 0.0)))
    traj = integrate_switching(demo_spec(), controls, (0.5, 0.5), (1, 1), step=1e-3)
    assert [e.time for e in traj.events] == pytest.approx([0.8, 1.7, 2.95], abs=1e-9)
    assert np.diff(traj.times).min() >= EVENT_TOL
    assert len(traj.times) == 4001


def test_event_at_the_start_keeps_the_first_row():
    # z0 on the threshold its relay waits for, moving past it: the event is
    # located within EVENT_TOL after t0, but the first row keeps z0 and the
    # initial outputs, so the event gets a row of its own
    controls = (const(1.0, 1.0), const(1.0, 0.0))
    traj = integrate_switching(demo_spec(), controls, (0.3, 0.0), (-1, 1), step=1e-2)
    first = traj.events[0]
    assert (first.operator, first.new) == ("axis1", 1) and 0.0 < first.time <= EVENT_TOL
    assert tuple(traj.states[0]) == (0.3, 0.0) and traj.hysteresis_log["string"][0] == (-1, 1)
    assert traj.times[1] == first.time and traj.hysteresis_log["string"][1] == (1, 1)


def test_event_after_a_closed_form_stretch_keeps_its_last_row():
    # z = (t, t/2) is closed form; axis 1's relay waits for 0.625 + 1e-14,
    # just past the row at t = 0.625, which ends a stretch of 40 closed-form
    # rows.  The event is located within EVENT_TOL after that row and lands
    # on it: the row keeps its time and state and takes the new log entry,
    # and there is no extra row
    spec = demo_spec(thresholds=((-1.0, 0.625 + 1e-14), (-1.0, 1.0)))
    controls = (const(1.0, 1.0), const(1.0, 0.0))
    traj = integrate_switching(spec, controls, (0.0, 0.0), (-1, 1), step=1 / 64)
    ref = integrate_plain(spec.field_table[(-1, 1)], controls, (0.0, 0.0), step=1 / 64)
    assert traj.times.dtype == traj.states.dtype == np.float64
    assert traj.times.shape == (65,) and traj.states.shape == (65, 2)
    assert np.array_equal(traj.times, ref.times)
    assert np.array_equal(traj.states[:41], ref.states[:41])
    event, = traj.events
    assert (event.time, event.operator, event.new) == (0.625, "axis1", 1)
    log = traj.hysteresis_log["string"]
    assert log[39] == (-1, 1) and log[40] == log[-1] == (1, 1)
    assert traj.final_state[1] == traj.states[40][1]  # the new field is (1, 0)


def test_exact_pieces_are_tested_again_after_an_event():
    # the switching_demo script with counted fields: each piece is tested at
    # its start and again after its event, which switches the fields, so the
    # run costs six tests (20 evaluations each with one active field) and a
    # few steps around each event, where nominal steps cost 16,000
    calls = [0]

    def counted(g):
        def field(z):
            calls[0] += 1
            return g(z)
        return field

    spec = demo_spec()
    table = {s: FieldSet(2, 2, tuple(map(counted, fs.fields)))
             for s, fs in spec.field_table.items()}
    spec = SwitchingSpec(spec.xi, spec.eta, table)
    grid = (0.0, 1.0, 2.0, 4.0)
    controls = (step(grid, (-1.0, 0.0, 1.0)), step(grid, (0.0, -1.0, 0.0)))
    traj = integrate_switching(spec, controls, (0.5, 0.5), (1, 1), step=1e-3)
    assert [e.time for e in traj.events] == pytest.approx([0.8, 1.7, 2.95], abs=1e-9)
    assert np.array_equal(traj.times, nominal_grid(grid, 1e-3))
    assert calls[0] <= 300


def test_chattering_relay_exceeds_event_budget():
    # opposing fields: output +1 pushes z down to -eta, -1 pushes it back up
    # to eta, so the relay switches every 2 eta: 5000 events on [0, 1], past
    # the budget of 4 per nominal step and relay (404)
    table = {(1,): FieldSet(1, 1, (lambda z: (-1.0,),)),
             (-1,): FieldSet(1, 1, (lambda z: (1.0,),))}
    spec = SwitchingSpec(xi=((1.0,),), eta=1e-4, field_table=table)
    with pytest.raises(DivergenceError, match="axis 1"):
        integrate_switching(spec, (const(1.0, 1.0),), (0.0,), (1,), step=1e-2)


def test_events_of_a_nonlinear_field_lie_on_their_thresholds():
    # z turns about 0 at a rate set by the bank's output: z.xi is not affine
    # in the step, so the locator iterates; it closes in a few RK4 steps
    # per event (bisection takes about 35)
    calls = [0]

    def rotate(w, z):
        calls[0] += 1
        c = 1.0 + 0.25 * w
        return (-c * z[1], c * z[0])

    bank = RelayBank.staircase(16, 16)
    spec = BankSpec(xi=((1.0, 0.0),), k=16, fields=(rotate,))
    traj = integrate_bank(spec, (const(8 * math.pi, 1.0),), (1.2, 0.0), (bank,), step=0.04)
    assert len(traj.events) == 112
    log = traj.hysteresis_log["strings"]
    rows = [r for r in range(1, len(log)) if log[r] != log[r - 1]]
    assert len(rows) == len(traj.events)
    for r, ev in zip(rows, traj.events):
        relay = bank.relays[ev.index - 1]
        gap = traj.states[r][0] - (relay.hi if ev.new == 1 else relay.lo)
        assert abs(gap) <= 1e-9 and ev.new * gap > 0.0
    assert (calls[0] - 4 * (len(traj.times) - 1)) / len(traj.events) <= 40


def test_relay_core_and_bank_trace_share_one_events_type():
    # one read-only sequence of SwitchEvent rows; the relay core's rows name
    # their axis (and relay, in a bank system), bank_trace's have no name
    _, traced, _ = bank_trace(RelayBank.staircase(2, 0), PolylineSignal(((0.0, 0.0), (2.0, 2.0))))
    spec = BankSpec(xi=((1.0,),), k=2, fields=(lambda w, z: (1.0,),))
    bank = integrate_bank(spec, (const(2.0, 1.0),), (0.0,), (RelayBank.staircase(2, 0),), step=0.1)
    controls = (const(2.0, -1.0), const(2.0, -1.0))
    switching = integrate_switching(demo_spec(), controls, (0.5, 0.5), (1, 1), step=0.1)
    for events in (traced, bank.events, switching.events):
        assert type(events) is type(traced) and len(events) == 2
        assert all(type(e) is SwitchEvent for e in [*events, events[0], events[-1]])
        assert [column.typecode for column in events._columns[1:3]] == ["i", "b"]
        assert list(events) == [events[0], events[1]]
        head = events[:1]
        assert type(head) is type(traced) and list(head) == [events[0]]
    assert [(e.index, e.old, e.new, e.operator) for e in traced] == [(1, -1, 1, ""), (2, -1, 1, "")]
    assert [(e.index, e.new, e.operator) for e in bank.events] == [
        (1, 1, "axis1.relay1"), (2, 1, "axis1.relay2")]
    assert [e.time for e in bank.events] == pytest.approx([e.time for e in traced], abs=1e-12)
    assert sorted(e.operator for e in switching.events) == ["axis1", "axis2"]
    assert len(dataclasses.replace(bank, events=bank.events[:-1]).events) == 1


def test_event_located_where_floats_are_coarser_than_event_tol():
    # past 8192 neighbouring floats are 1.8e-12 apart, more than EVENT_TOL:
    # the locator stops at neighbouring floats instead of halving forever
    table = {(w,): FieldSet(1, 1, (lambda z: (1.0,),)) for w in (1, -1)}
    spec = SwitchingSpec(xi=((1.0,),), eta=9000.0, field_table=table)
    traj = integrate_switching(spec, (const(1e4, 1.0),), (0.0,), (-1,), step=1e4)
    assert [e.time for e in traj.events] == pytest.approx([9000.0], abs=1e-11)


def test_switching_spec_table_shape():
    table = demo_spec().field_table
    one_field = FieldSet(2, 1, (lambda z: (1.0, 0.0),))
    # the (-1, .) strings hold one field: u2 used to be dropped after the first switch
    mixed = {s: (one_field if s[0] == -1 else fs) for s, fs in table.items()}
    bad_key = {**{s: fs for s, fs in table.items() if s != (-1, -1)}, (7, 7): table[(1, 1)]}
    extra_key = {**table, (1, 0): table[(1, 1)]}
    for bad, match in ((mixed, "one m"), (bad_key, "keys"), (extra_key, "keys")):
        with pytest.raises(DomainError, match=match):
            SwitchingSpec(xi=((1.0, 0.0), (0.0, 1.0)), eta=0.3, field_table=bad)
    # every xi has the field sets' n coordinates
    with pytest.raises(DomainError, match="one n"):
        SwitchingSpec(xi=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), eta=0.3, field_table=table)


@pytest.mark.parametrize("string", [(1, 7), (1,), (1, 1, 1), (1.5, 1), (math.nan, 1)],
                         ids=["not-a-sign", "short", "long", "fraction", "nan"])
def test_switching_initial_string_is_a_table_key(string):
    with pytest.raises(DomainError, match="initial string"):
        integrate_switching(demo_spec(), (const(1.0, 0.0), const(1.0, 0.0)), (0.0, 0.0), string)


def test_switching_incompatible_string():
    spec = demo_spec()
    with pytest.raises(DomainError):
        integrate_switching(spec, (const(1.0, 0.0), const(1.0, 0.0)),
                            (-1.0, 0.0), (1, 1))


def test_switching_spec_threshold_validation():
    for eta in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(DomainError):
            SwitchingSpec(xi=((1.0, 0.0), (0.0, 1.0)), eta=eta,
                          field_table=demo_spec().field_table)
    for thresholds in (((0.2, -0.2), (-0.3, 0.3)), ((-0.3, 0.3),), ((-0.3,), (-0.3, 0.3))):
        with pytest.raises(DomainError):
            demo_spec(thresholds)
    assert demo_spec(((-0.1, 0.4), (0.0, 0.2))).thresholds[1] == (0.0, 0.2)
    assert demo_spec().thresholds == ((-0.3, 0.3),) * 2


@pytest.mark.parametrize("c", [math.nan, math.inf, 2.0], ids=["nan", "inf", "long"])
def test_specs_need_unit_xi(c):
    # a NaN projection never crosses a threshold, so its relay would never switch
    xi = ((c, 0.0), (0.0, 1.0))
    with pytest.raises(DomainError, match="unit"):
        SwitchingSpec(xi=xi, eta=0.3, field_table=demo_spec().field_table)
    with pytest.raises(DomainError, match="unit"):
        BankSpec(xi=xi, k=2, fields=(lambda w, z: (1.0, 0.0), lambda w, z: (0.0, 1.0)))


# ---------------------------------------------------------------------------
# bank systems

def test_bank_k1_reduces_to_switching():
    # a 1-relay bank per axis has thresholds (0, 1); mirror that in a
    # switching spec with overridden thresholds and w-dependent fields
    def g(j):
        return lambda w, z: tuple(
            (1.0 + 0.3 * w) if q == j else 0.0 for q in range(2))

    bank_spec = BankSpec(xi=((1.0, 0.0), (0.0, 1.0)), k=1, fields=(g(0), g(1)))
    table = {(s1, s2): FieldSet(2, 2, (lambda z, s=s1: (1.0 + 0.3 * s, 0.0),
                                       lambda z, s=s2: (0.0, 1.0 + 0.3 * s)))
             for s1 in (-1, 1) for s2 in (-1, 1)}
    sw_spec = SwitchingSpec(xi=((1.0, 0.0), (0.0, 1.0)), eta=0.5,
                            field_table=table,
                            thresholds=((0.0, 1.0), (0.0, 1.0)))
    controls = (step([0.0, 1.0, 2.0], [1.0, -1.0]), const(2.0, 0.5))
    z0 = (0.5, -0.2)
    banks = (RelayBank.staircase(1, 1), RelayBank.staircase(1, 0))
    tb = integrate_bank(bank_spec, controls, z0, banks, step=1e-3)
    ts = integrate_switching(sw_spec, controls, z0, (1, -1), step=1e-3)
    assert len(tb.events) == len(ts.events)
    for eb, es in zip(tb.events, ts.events):
        assert abs(eb.time - es.time) < 1e-9
        assert (eb.old, eb.new) == (es.old, es.new)
    assert np.abs(tb.final_state - ts.final_state).max() < 1e-9


def test_bank_five_segment_scenario():
    # m=2, k=4, start z1 < -3/4 and 1/4 < z2 < 3/4 with bank strings all-(-1)
    # on axis 1 and (1,1,-1,-1) on axis 2; the scripted controls walk the
    # trajectory through five segments whose string pairs are, in order:
    #   ((-1,-1,-1,-1),(1,1,-1,-1)) -> ((-1,-1,-1,-1),(1,1,1,-1))
    #   -> ((-1,-1,-1,-1),(1,1,-1,-1)) -> ((1,-1,-1,-1),(1,1,-1,-1))
    #   -> ((1,1,-1,-1),(1,1,-1,-1))
    spec = BankSpec(
        xi=((1.0, 0.0), (0.0, 1.0)), k=4,
        fields=(lambda w, z: (1.0, 0.0), lambda w, z: (0.0, 1.0)),
    )
    grid = (0.0, 1.0, 2.0, 3.0, 4.0)
    controls = (step(grid, (0.0, 0.0, 1.2, 0.3)), step(grid, (0.4, -1.2, 0.0, 0.0)))
    z0 = (-0.9, 0.5)
    banks = (RelayBank.staircase(4, 0), RelayBank.staircase(4, 2))
    traj = integrate_bank(spec, controls, z0, banks, step=1e-3)

    expected = (
        (0.625, "axis2.relay3", -1, 1),       # z2 rises past 3/4
        (1.0 + 1.15 / 1.2, "axis2.relay3", 1, -1),  # z2 falls past -1/4
        (2.0 + 1.15 / 1.2, "axis1.relay1", -1, 1),  # z1 rises past 1/4
        (3.0 + 0.2 / 0.3, "axis1.relay2", -1, 1),   # z1 rises past 1/2
    )
    assert len(traj.events) == 4
    for ev, (t_exp, op, old, new) in zip(traj.events, expected):
        assert ev.operator == op and (ev.old, ev.new) == (old, new)
        assert abs(ev.time - t_exp) < 1e-9

    segments = [traj.hysteresis_log["strings"][0]]
    for s in traj.hysteresis_log["strings"]:
        if s != segments[-1]:
            segments.append(s)
    assert segments == [
        ((-1, -1, -1, -1), (1, 1, -1, -1)),
        ((-1, -1, -1, -1), (1, 1, 1, -1)),
        ((-1, -1, -1, -1), (1, 1, -1, -1)),
        ((1, -1, -1, -1), (1, 1, -1, -1)),
        ((1, 1, -1, -1), (1, 1, -1, -1)),
    ]


def test_bank_staircase_preserved_along_trajectory():
    spec = BankSpec(
        xi=((1.0, 0.0), (0.0, 1.0)), k=4,
        fields=(lambda w, z: (1.0, 0.1 * w), lambda w, z: (0.1 * w, 1.0)),
    )
    grid = (0.0, 1.0, 2.0, 3.0)
    controls = (step(grid, (1.0, -1.5, 1.0)), step(grid, (-1.0, 1.5, -0.5)))
    banks = (RelayBank.staircase(4, 2), RelayBank.staircase(4, 2))
    traj = integrate_bank(spec, controls, (0.0, 0.0), banks, step=1e-3)
    for pair in traj.hysteresis_log["strings"]:
        for s in pair:
            assert all(a >= b for a, b in zip(s, s[1:]))


@pytest.mark.parametrize("direction", [1, -1])
def test_bank_several_crossings_in_one_step(direction):
    # z = -1.1 + t sweeps the whole 8-relay bank up (z = 1.1 - t down);
    # relay i has thresholds (-1 + i/8, i/8), so with step 0.5 one step
    # crosses up to four relays, which must still switch one by one, each
    # at the time z passes its own threshold
    spec = BankSpec(xi=((1.0,),), k=8, fields=(lambda w, z: (1.0,),))
    bank = RelayBank.staircase(8, 0 if direction == 1 else 8)
    z0 = -1.1 * direction
    traj = integrate_bank(spec, (const(2.2, float(direction)),), (z0,), (bank,), step=0.5)
    order = range(1, 9) if direction == 1 else range(8, 0, -1)
    assert [e.operator for e in traj.events] == [f"axis1.relay{i}" for i in order]
    for i, ev in zip(order, traj.events):
        assert (ev.index, ev.old, ev.new) == (i, -direction, direction)
        thr = i / 8 if direction == 1 else -1.0 + i / 8
        assert abs(ev.time - abs(thr - z0)) < 1e-9
    assert traj.hysteresis_log["strings"][-1] == ((direction,) * 8,)


@pytest.mark.parametrize("h", [0.03, 0.01, 0.003])
@pytest.mark.parametrize("direction", [1, -1])
def test_relays_within_the_overshoot_switch_at_one_event(direction, h):
    # two relays on one axis whose thresholds at -+0.5 are 4 ulps apart, well
    # within the located state's overshoot (about 9 ulps here): the walk
    # switches both at the one event, in the order z meets their thresholds,
    # on one row at its time bit for bit, so the rows are those of a run with
    # the nearer relay alone (closed-form re-test after the event included)
    gap = 4 * math.ulp(0.5)
    near, far = 0.5 * direction, 0.5 * direction + direction * gap
    if direction == 1:
        bank = RelayBank((-1.0, -1.0 + gap), (near, far), (-1, -1))
    else:
        bank = RelayBank((far, near), (1.0, 1.0 + gap), (1, 1))
    spec = BankSpec(xi=((1.0,),), k=2, fields=(lambda w, z: (1.0,),))
    controls = (const(1.0, float(direction)),)
    order = (1, 2) if direction == 1 else (2, 1)
    first = order[0] - 1
    alone = RelayBank((bank.lo[first],), (bank.hi[first],), (-direction,))
    traj = integrate_bank(spec, controls, (0.0,), (bank,), step=h)
    one = integrate_bank(dataclasses.replace(spec, k=1), controls, (0.0,), (alone,), step=h)
    assert [(e.index, e.new) for e in traj.events] == [(i, direction) for i in order]
    assert traj.events[0].time == traj.events[1].time == one.events[0].time
    assert np.array_equal(traj.times, one.times) and np.array_equal(traj.states, one.states)
    row, = np.flatnonzero(traj.times == one.events[0].time)
    strings = traj.hysteresis_log["strings"]
    assert strings[row - 1] == ((-direction,) * 2,) and strings[row] == ((direction,) * 2,)


def test_events_of_identical_axes_share_their_rows():
    # both axes carry the same bank and move identically, so each relay
    # switches on both axes at once: the second event of a pair is located
    # within EVENT_TOL after the first's row and lands on that row
    spec = BankSpec(xi=((1.0, 0.0), (0.0, 1.0)), k=8,
                    fields=(lambda w, z: (1.0 + 0.25 * w, 0.0),
                            lambda w, z: (0.0, 1.0 + 0.25 * w)))
    sweep = step((0.0, 1.2, 3.4), (1.0, -1.0))
    bank = RelayBank.staircase(8, 4)
    traj = integrate_bank(spec, (sweep, sweep), (0.0, 0.0), (bank, bank), step=1e-2)
    events = traj.events
    assert len(events) == 24  # 4 up and 8 down on each axis
    for a, b in zip(events[::2], events[1::2]):
        assert {a.operator, b.operator} == {f"axis1.relay{a.index}", f"axis2.relay{a.index}"}
        assert (a.time, a.new) == (b.time, b.new)
    assert np.diff(traj.times).min() >= EVENT_TOL
    for e in events:
        row = np.flatnonzero(traj.times == e.time)
        thr = bank.hi[e.index - 1] if e.new == 1 else bank.lo[e.index - 1]
        assert len(row) == 1
        assert abs(traj.states[row[0], int(e.operator[4]) - 1] - thr) <= 1e-9


def _swept_bank_run(k, sweeps):
    """Two axes through staircase banks of k relays, z = the controls'
    integral: axis 1 rises from 0 to 1.2, axis 2 falls to -1.2, then each
    sweeps 2.4 the other way sweeps - 1 times, so every sweep past the first
    switches the whole bank."""
    spec = BankSpec(xi=((1.0, 0.0), (0.0, 1.0)), k=k,
                    fields=(lambda w, z: (1.0, 0.0), lambda w, z: (0.0, 1.0)))
    points = np.concatenate([[0.0], 1.2 + 2.4 * np.arange(sweeps)])
    up = [(-1.0) ** q for q in range(sweeps)]
    bank = RelayBank.staircase(k, k // 2)
    return integrate_bank(spec, (step(points, up), step(points, [-u for u in up])), (0.0, 0.0),
                          (bank, bank), step=1e-2)


def test_bank_log_holds_one_tuple_per_axis_state():
    # wiping-out keeps a staircase bank a staircase, so an axis passes through
    # at most k + 1 states, and the log holds one tuple per state however
    # often the sweeps revisit it; by value, each row's entry is the initial
    # outputs with the events up to its time replayed one by one
    k = 16
    traj = _swept_bank_run(k, 6)
    log, events = traj.hysteresis_log["strings"], traj.events
    assert len(events) > 2 * 5 * k
    assert len({id(axis) for entry in log for axis in entry}) <= 2 * (k + 1)
    outs, n = [[1] * (k // 2) + [-1] * (k - k // 2) for _ in range(2)], 0
    for t, entry in zip(traj.times, log):
        while n < len(events) and events[n].time <= t:
            outs[int(events[n].operator[4]) - 1][events[n].index - 1] = events[n].new
            n += 1
        assert entry == tuple(map(tuple, outs))
    assert n == len(events)


def _log_size(log):
    """Bytes of a relay log's own objects: the list, and each distinct entry
    and axis tuple in it (the ints in them are the interpreter's)."""
    entries = {id(e): e for e in log}.values()
    axes = {id(a): a for e in entries for a in e}.values()
    return sys.getsizeof(log) + sum(map(sys.getsizeof, [*entries, *axes]))


def test_bank_log_grows_with_its_events_not_with_their_outputs():
    # 8 sweeps make 5 times the events of 2; a log of one k-tuple per axis and
    # event grows as fast, one of one tuple per axis state only by its rows
    # and by one m-tuple per event
    short, long = _swept_bank_run(128, 2), _swept_bank_run(128, 8)
    assert len(long.events) == 5 * len(short.events)
    size = [_log_size(traj.hysteresis_log["strings"]) for traj in (short, long)]
    assert size[1] < 2.5 * size[0]


def test_relay_core_formats_each_label_once():
    # the two-axis input of the CI's k = 1024 memory check (axis 2 at 0.9
    # times axis 1's speed, so the axes switch apart): its 7168 events name
    # 2048 relays, and hold one label string per relay, formatted at its
    # first event, not one per event
    k, sweeps = 1024, 4
    spec = BankSpec(xi=((1.0, 0.0), (0.0, 1.0)), k=k,
                    fields=(lambda w, z: (1.0, 0.0), lambda w, z: (0.0, 0.9)))
    points = [0.0, *(1.2 + 2.4 * q for q in range(sweeps))]
    up = [(-1.0) ** q for q in range(sweeps)]
    bank = RelayBank.staircase(k, k // 2)
    traj = integrate_bank(spec, (step(points, up), step(points, [-u for u in up])), (0.0, 0.0),
                          (bank, bank), step=0.01)
    labels = [e.operator for e in traj.events]
    assert len(labels) == 7 * k and len(set(labels)) == 2 * k
    assert len({id(label) for label in labels}) <= 2 * k


def test_trajectory_csv_formats_each_axis_state_once(tmp_path, monkeypatch):
    # a bank entry's axes are formatted once per distinct axis state, one
    # tuple each, and the bytes are those of formatting every row anew
    k = 8
    traj = _swept_bank_run(k, 4)
    log = traj.hysteresis_log["strings"]
    calls, signs = [], dynamics._signs
    monkeypatch.setattr(dynamics, "_signs",
                        lambda outs, text: calls.append(outs) or signs(outs, text))
    path = tmp_path / "bank.csv"
    traj.to_csv(str(path))
    axes = [c for c in calls if not isinstance(c[0], tuple)]
    assert len(axes) == len({id(a) for e in log for a in e}) <= 2 * (k + 1) < len(traj.events)
    with open(tmp_path / "want.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([["t", "z1", "z2", "strings"]] + [
            [t, *z, "|".join("".join("+" if o > 0 else "-" for o in axis) for axis in entry)]
            for t, z, entry in zip(traj.times, traj.states, log)])
    assert path.read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("before", [0.5e-12, 1.5e-12, 3e-12])
def test_event_on_a_row_leaves_the_row_alone(before):
    # both axes pass their one relay's threshold `before` short of the grid
    # point 0.5.  Axis 1's event lands on the grid point (within EVENT_TOL of
    # it) or gets its own row; axis 2's follows within EVENT_TOL after that
    # row and lands on it, even when the step from the row to the grid point
    # is within 2 EVENT_TOL: the row keeps its time and state, only its log
    # entry changes, and every grid point keeps its row
    spec = BankSpec(xi=((1.0, 0.0), (0.0, 1.0)), k=1,
                    fields=(lambda w, z: (1.0, 0.0), lambda w, z: (0.0, 1.0)))
    controls = (const(1.0, 1.0), const(1.0, 1.0))
    bank = RelayBank((-1.0,), (0.5 - before,), (-1,))
    both = integrate_bank(spec, controls, (0.0, 0.0), (bank, bank), step=0.25)
    one = integrate_bank(spec, controls, (0.0, 0.0), (bank, RelayBank((-1.0,), (9.0,), (-1,))),
                         step=0.25)
    assert np.array_equal(both.times, one.times)
    assert np.array_equal(both.states, one.states)
    assert set(both.times) >= {0.0, 0.25, 0.5, 0.75, 1.0}
    assert np.diff(both.times).min() >= EVENT_TOL
    first, second = both.events
    assert first.time == second.time == one.events[0].time
    row = np.flatnonzero(both.times == first.time)[0]
    assert both.hysteresis_log["strings"][row] == ((1,), (1,))
    assert one.hysteresis_log["strings"][row] == ((1,), (-1,))


def test_locator_starting_past_the_threshold_takes_no_step():
    # after a tie the step can start strictly past a pending threshold: the
    # crossing is at the start, found without a bisection down to EVENT_TOL
    from hystctl.dynamics import _locate_event

    calls = []

    def rhs(t, z):
        calls.append(t)
        return [1.0]

    located = _locate_event(rhs, 0.0, (0.5,), [1.0], 0.1, (0.6,), (1.0,), 0.5 - 1e-15, 1)
    assert located == (0.0, (0.5,))
    assert calls == []


@pytest.mark.parametrize("t", [0.0, 10.0, 1000.0])
def test_locator_starting_on_the_threshold_takes_one_step(t):
    # g(0) = 0: the secant iterate would be the step's start itself, so it is
    # held above it, by one ulp of t at least, and one RK4 step (3 fresh
    # evaluations) closes the bracket instead of a bisection down to EVENT_TOL
    from hystctl.dynamics import _locate_event

    calls = []

    def rhs(t, z):
        calls.append(t)
        return [1.0]

    s, z_s = _locate_event(rhs, t, (0.5,), [1.0], 0.1, (0.6,), (1.0,), 0.5, 1)
    assert 0.0 < s <= EVENT_TOL and t + s > t and z_s[0] > 0.5
    assert len(calls) == 3


def test_locator_work_is_bounded_on_curved_crossings():
    # z' = p t^(p - 1), so z = t^p, curved for p != 1: a crossing at a
    # fraction of the step's rise from 1e-9 (next to the start) to 0.3, up
    # or down, from starts up to 1e5.  The bisection after each round that
    # does not halve the bracket bounds a call at about 2 log2(h / EVENT_TOL)
    # rounds of two RK4 steps of 3 fresh evaluations each
    from hystctl.dynamics import _locate_event, _rk4

    h, calls = 1.0, [0]
    bound = 3 * 2 * (2 * math.log2(h / EVENT_TOL) + 2)
    for p, t0, frac, d in itertools.product((0.5, 2.0, 3.0, 4.0), (1e-3, 1.0, 1e3, 1e5),
                                            (1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.3), (1, -1)):
        def rhs(t, z, p=p):
            calls[0] += 1
            return [p * t ** (p - 1)]

        z = (t0 ** p,)
        k1 = rhs(t0, z)
        z_hi = _rk4(rhs, t0, z, k1, h)
        thr = d * (z[0] + frac * (z_hi[0] - z[0]))
        calls[0] = 0
        s, z_s = _locate_event(rhs, t0, z, k1, h, z_hi, (float(d),), thr, d)
        assert 0.0 < s < h and d * (d * z_s[0] - thr) > 0.0
        assert calls[0] <= bound, (p, t0, frac, d, calls[0])


@pytest.mark.parametrize("run", ["bank_trace", "integrate_switching", "integrate_bank", "cli-relay"])
def test_bank_inconsistent_seed(run, tmp_path, capsys):
    # each entry starts a relay at +1 with its input at -2, past its lo: the
    # walk refuses it, naming the start value, and hystctl relay exits 1
    spec = BankSpec(xi=((1.0, 0.0), (0.0, 1.0)), k=4,
                    fields=(lambda w, z: (1.0, 0.0), lambda w, z: (0.0, 1.0)))
    controls = (const(1.0, 1.0), const(1.0, 0.0))
    runs = {
        "bank_trace": lambda: bank_trace(RelayBank.staircase(4, 4),
                                         PolylineSignal(((0.0, -2.0), (1.0, 0.0)))),
        "integrate_switching": lambda: integrate_switching(demo_spec(), controls, (-2.0, 0.0), (1, 1)),
        "integrate_bank": lambda: integrate_bank(spec, controls, (-2.0, 0.0),
                                                 (RelayBank.staircase(4, 4), RelayBank.staircase(4, 0))),
    }
    if run in runs:
        with pytest.raises(DomainError, match=r"start value -2\.0"):
            runs[run]()
    else:
        path = tmp_path / "zeta.json"
        path.write_text('{"knots": [[0.0, -2.0], [1.0, 0.0]]}')
        assert main(["relay", "--input", str(path), "--lo=-0.5", "--hi=0.5", "--out0", "1"]) == 1
        assert capsys.readouterr().err.startswith("domain error: relay outputs inconsistent")


# ---------------------------------------------------------------------------
# Gronwall arithmetic

def test_gronwall_values():
    assert gronwall_bound(0.0, 2.0, 1.0, 1.0, 4.0) == 0.0
    # exactly 0 for C_k = 0, however far the exponential overflows the floats
    assert gronwall_bound(0.0, 1e3, 1e3, 1.0, 1.0) == 0.0
    assert gronwall_bound(0.0, 1e200, 1e200, 1.0, 1.0) == 0.0
    assert gronwall_bound(1.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(math.e)
    with pytest.raises(DomainError):
        gronwall_bound(-1.0, 1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("args", [(1.0, 1e3, 1e3, 1.0, 1.0), (1e308, 1.0, 1.0, 1.0, 10.0),
                                  (1.0, 1e200, 1e200, 1.0, 1.0)])
def test_gronwall_overflow_is_a_domain_error(args):
    # an exponent past the floats raised a bare OverflowError, and a bound
    # past them returned inf
    with pytest.raises(DomainError, match="overflows the floats"):
        gronwall_bound(*args)


@pytest.mark.parametrize("position", range(5))
def test_gronwall_rejects_nan(position):
    # NaN, and inf (0 * inf is nan), are refused at every position
    for bad in (math.nan, math.inf):
        args = [1.0] * 5
        args[position] = bad
        with pytest.raises(DomainError, match="nonnegative"):
            gronwall_bound(*args)
