"""Integrators: plain RK4, play-in-controls, play-in-state, switching, banks."""

import csv
import math

import numpy as np
import pytest

from hystctl.dynamics import (
    EVENT_TOL,
    BankSpec,
    DivergenceError,
    FieldSet,
    SwitchingSpec,
    TriangularSpec,
    gronwall_bound,
    heisenberg_fields,
    integrate_bank,
    integrate_plain,
    integrate_play_controls,
    integrate_play_state,
    integrate_switching,
    sector_index,
)
from hystctl.hysteresis import RelayBank, play_apply
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


@pytest.mark.parametrize("case", ["long", "short", "after-switch"])
def test_field_vector_length_checked(case):
    # a long vector was cut to n components (the long case ended at (1, 0),
    # dropping the 5.0) and a short one raised IndexError; the field set
    # chosen at a switch is checked at the switch
    with pytest.raises(DomainError, match="components"):
        if case == "after-switch":
            table = dict(demo_spec().field_table)
            table[(-1, 1)] = FieldSet(2, 2, (lambda z: (1.0, 0.0, 5.0), lambda z: (0.0, 1.0)))
            spec = SwitchingSpec(xi=((1.0, 0.0), (0.0, 1.0)), eta=0.3, field_table=table)
            integrate_switching(spec, (const(1.0, -1.0), const(1.0, 0.0)), (0.5, 0.5), (1, 1),
                                step=0.25)
        else:
            n, vec = (2, (1.0, 0.0, 5.0)) if case == "long" else (3, (1.0, 0.0))
            integrate_plain(FieldSet(n, 1, (lambda z: vec,)), (const(1.0, 1.0),), (0.0,) * n)


@pytest.mark.parametrize("h", [0.0, math.nan, math.inf], ids=["zero", "nan", "inf"])
def test_step_must_be_positive_and_finite(h):
    # NaN failed in math.ceil with a bare ValueError; inf gave one RK4 step per piece
    with pytest.raises(DomainError, match="step"):
        integrate_plain(EXP_FIELD, (const(1.0, 1.0),), (1.0,), step=h)
    spec = TriangularSpec((lambda x: x,), 0.2, (0.0,))
    with pytest.raises(DomainError, match="step"):
        integrate_play_state(spec, (const(1.0, 1.0),) * 2, (0.0, 0.0, 0.0), step=h)


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


def test_sector_index_interior():
    spec = demo_spec()
    assert sector_index((1.0, 1.0), spec) == {(1, 1)}
    assert sector_index((0.0, 1.0), spec) == {(1, 1), (-1, 1)}


def test_sector_index_paper_sector():
    # the sector indexed by (1, -1) is [-eta, inf) x (-inf, eta]
    spec = demo_spec()
    assert (1, -1) in sector_index((-0.3, 0.3), spec)
    assert (1, -1) not in sector_index((-0.31, 0.0), spec)
    assert (1, -1) not in sector_index((0.0, 0.31), spec)


def test_sector_index_nan_is_in_no_sector():
    assert sector_index((math.nan, 0.0), demo_spec()) == set()


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


def test_bank_inconsistent_seed():
    spec = BankSpec(xi=((1.0, 0.0), (0.0, 1.0)), k=4,
                    fields=(lambda w, z: (1.0, 0.0), lambda w, z: (0.0, 1.0)))
    banks = (RelayBank.staircase(4, 4), RelayBank.staircase(4, 0))
    with pytest.raises(DomainError):
        integrate_bank(spec, (const(1.0, 1.0), const(1.0, 0.0)),
                       (-2.0, 0.0), banks)


# ---------------------------------------------------------------------------
# Gronwall arithmetic

def test_gronwall_values():
    assert gronwall_bound(0.0, 2.0, 1.0, 1.0, 4.0) == 0.0
    assert gronwall_bound(1.0, 1.0, 1.0, 1.0, 1.0) == pytest.approx(math.e)
    with pytest.raises(DomainError):
        gronwall_bound(-1.0, 1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("position", range(5))
def test_gronwall_rejects_nan(position):
    args = [1.0] * 5
    args[position] = float("nan")
    with pytest.raises(DomainError, match="nonnegative"):
        gronwall_bound(*args)
