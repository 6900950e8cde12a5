"""Signal arithmetic: evaluation, calculus, merged-grid combination, metrics."""

import bisect
import copy
import json
import math
import pickle
import random
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hystctl.dynamics import Trajectory
from hystctl.hysteresis import play_apply
from hystctl.signals import (
    KNOT_TOL,
    DomainError,
    PiecewiseAffine,
    PolylineSignal,
    StepSignal,
    TimeGrid,
    _built,
    antiderivative,
    combine,
    derivative,
    l1_distance,
    merge_times,
    sample,
    signal_from_json,
    sup_distance,
)


def step(points, values):
    return StepSignal(TimeGrid(tuple(points)), tuple(values))


def random_step(rng, max_knots=20):
    n = rng.integers(1, max_knots)
    pts = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n))])
    pts *= 4.0 / pts[-1]
    return step(pts, rng.uniform(-3.0, 3.0, n))


def random_polyline(rng, max_knots=20):
    n = rng.integers(2, max_knots)
    pts = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n - 1))])
    pts *= 4.0 / pts[-1]
    return PolylineSignal(tuple(zip(pts, rng.uniform(-3.0, 3.0, n))))


def dense_metrics(a, b, dt=1e-5):
    # midpoint rule on the breakpoint-refined dense grid (exact on affine
    # pieces, so the only error source is sign changes of the difference)
    breaks = np.concatenate([a.affine_view()[0], b.affine_view()[0]])
    ts = np.unique(np.concatenate([np.arange(0.0, a.horizon, dt), [a.horizon], breaks]))
    mids = 0.5 * (ts[:-1] + ts[1:])
    diff_mid = np.abs(sample(a, mids) - sample(b, mids))
    l1 = float(np.sum(diff_mid * np.diff(ts)))
    # sup attained at breakpoints (one-sided); sample both sides of each break
    side = np.clip(np.concatenate([breaks, breaks - 1e-12]), 0.0, a.horizon)
    probe = np.concatenate([ts, side])
    sup = float(np.abs(sample(a, probe) - sample(b, probe)).max())
    return l1, sup


# ---------------------------------------------------------------------------
# construction and evaluation

def test_grid_validation():
    with pytest.raises(DomainError):
        TimeGrid((0.0,))
    with pytest.raises(DomainError):
        TimeGrid((0.0, 1.0, 1.0))
    with pytest.raises(DomainError):
        TimeGrid((0.0, float("inf")))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_polyline_rejects_nonfinite_knots(bad):
    for knots in (((0.0, 0.0), (bad, 1.0)), ((0.0, bad), (1.0, 1.0))):
        with pytest.raises(DomainError):
            PolylineSignal(knots)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_step_rejects_nonfinite_values(bad):
    with pytest.raises(DomainError, match="finite"):
        step([0.0, 1.0, 2.0], [1.0, bad])


@pytest.mark.parametrize("knots", [
    ((0.0, 0.0), (5e-324, 1.0), (1.0, 1.0)),  # the slope overflows
    ((-1e308, 0.0), (1e308, 1.0)),  # the duration overflows
    ((0.0, -1e308), (1.0, 1e308)),  # the rise overflows
])
def test_polyline_segments_without_a_finite_slope_are_refused(knots):
    # such a slope would give left + inf * 0 = NaN at the segment's start;
    # every read of the signal builds its view first, and that refuses it
    # with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        poly = PolylineSignal(knots)
        for read in (lambda: poly(0.0), lambda: poly.horizon, lambda: sample(poly, [0.0]),
                     lambda: combine(poly, poly)):
            with pytest.raises(DomainError, match="finite durations and slopes"):
                read()


def test_ulp_wide_segments_with_finite_slopes_build():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flat = PolylineSignal(((0.0, 0.0), (5e-324, 0.0), (1.0, 1.0)))
        assert (flat(0.0), flat(5e-324), flat(0.5)) == (0.0, 0.0, 0.5)
        # a play keeps the input's one-ulp segment at t = 1 in its output
        t1 = math.nextafter(1.0, 2.0)
        zeta = PolylineSignal(((0.0, 0.0), (1.0, 1.0), (t1, t1), (2.0, 0.0)))
        out = play_apply(zeta, 0.0, 0.2)
        assert 1.0 in out.times and t1 in out.times
        assert np.isfinite(out.slopes()).all()
        assert np.isfinite(sample(out, np.linspace(0.0, 2.0, 9))).all()


def test_polyline_needs_two_knots():
    with pytest.raises(DomainError, match="2 knots"):
        PolylineSignal(((0.0, 1.0),))


@pytest.mark.parametrize("knot", [(1.0, 1.0, 5.0), (1.0,), 1.0, (1.0, "one"), (None, 1.0)])
def test_polyline_knots_must_be_number_pairs(knot):
    with pytest.raises(DomainError, match="pairs"):
        PolylineSignal(((0.0, 0.0), knot))


def test_step_evaluation_convention():
    s = step([0.0, 1.0, 2.0], [1.0, -1.0])
    assert s(0.5) == 1.0
    assert s(1.0) == -1.0  # half-open: knot belongs to the right interval
    assert s(2.0) == -1.0  # last interval closed
    with pytest.raises(DomainError):
        s(2.5)


def test_polyline_interpolation():
    p = PolylineSignal(((0.0, 0.0), (1.0, 1.0)))
    assert p(0.5) == 0.5
    assert p(1.0) == 1.0
    with pytest.raises(DomainError):
        p(-0.1)


def test_scalar_evaluation_rejects_times_outside_horizon():
    # one rule for all three kinds, NaN included
    poly = PolylineSignal(((0.0, 0.0), (2.0, 1.0)))
    st = step([0.0, 1.0, 2.0], [1.0, 2.0])
    mixed = combine(poly, st, 1.0, -1.0)
    for s in (poly, st, mixed):
        for t in (-0.5, 2.5, float("nan")):
            with pytest.raises(DomainError):
                s(t)


def test_reference_step_control():
    ubar = step([0.0, 1.0, 2.0, 3.0, 4.0], [1.0, -1.0, 0.5, 2.0])
    assert ubar(2.5) == 0.5


def test_step_value_count_mismatch():
    with pytest.raises(DomainError):
        step([0.0, 1.0, 2.0], [1.0])


def test_sample_matches_scalar_evaluation():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = random_step(rng) if rng.random() < 0.5 else random_polyline(rng)
        ts = np.sort(rng.uniform(0.0, s.horizon, 50))
        vals = sample(s, ts)
        assert max(abs(v - s(t)) for t, v in zip(ts, vals)) < 1e-12


def test_affine_view_is_built_once_and_read_only():
    poly = PolylineSignal(((0.0, 0.0), (2.0, 1.0)))
    steps = step([0.0, 1.0, 2.0], [1.0, 2.0])
    for s in (poly, steps, combine(poly, steps, 1.0, -1.0)):
        view = s.affine_view()
        assert all(x is y for x, y in zip(view, s.affine_view()))
        with pytest.raises(ValueError):
            view[1][0] = 5.0
        # the kept view is no field: equality and hashing see the fields only
        assert s == replace(s) and hash(s) == hash(replace(s))


def test_sample_rejects_times_outside_horizon():
    # all three kinds: a time beyond [0, 1] is a DomainError, as for scalar
    # evaluation, except for a KNOT_TOL-sized stray, which takes the end piece
    poly = PolylineSignal(((0.0, 0.0), (1.0, 1.0)))
    st = step([0.0, 0.5, 1.0], [1.0, 2.0])
    mixed = combine(poly, st, 1.0, -1.0)
    for s in (poly, st, mixed):
        for t in (2.0, -0.5, 1.0 + 1e-9, float("nan")):
            with pytest.raises(DomainError):
                sample(s, [0.5, t])
        assert sample(s, [1.0 + 1e-14])[0] == pytest.approx(s(1.0))
    assert sample(poly, []).shape == (0,)


def test_scalar_call_takes_the_sample_rule_for_strays():
    # one range rule: a stray within KNOT_TOL of an end is evaluated on the
    # end piece by s(t) as by sample, and a time past it is refused by both
    poly = PolylineSignal(((0.0, 0.0), (1.0, 1.0)))
    late = PolylineSignal(((1.0, 2.0), (3.0, -1.0)))
    for p, t0, T in ((poly, 0.0, 1.0), (late, 1.0, 3.0)):
        for t in (T + 5e-13, t0 - 5e-13):
            assert p(t) == sample(p, [t])[0]
        for t in (T + 1e-11, t0 - 1e-11):
            with pytest.raises(DomainError):
                p(t)
            with pytest.raises(DomainError):
                sample(p, [t])


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.floats(-1e6, 1e6), st.floats(1e-3, 1e3),
       st.sampled_from([math.inf, -math.inf, math.nan]) | st.floats())
def test_infinite_and_nan_times_are_refused_at_every_entry(t0, duration, t):
    # an infinite time passed the end rule, whose bound KNOT_TOL * |t| was inf:
    # p(inf) gave inf, a step signal nan with a RuntimeWarning, sample and
    # Trajectory.sample the end values; a finite time keeps the rule it had
    T = t0 + duration
    poly = PolylineSignal(((t0, 0.0), (T, 1.0)))
    steps = step([t0, t0 + 0.5 * duration, T], [1.0, 2.0])
    traj = Trajectory(np.array([t0, T]), np.array([[0.0], [1.0]]))
    entries = (poly, steps, lambda t: sample(poly, [t0, t])[1], lambda t: traj.sample([t])[0, 0])
    slack = 1e-9 * max(1.0, abs(t0), abs(T), abs(t)) if math.isfinite(t) else 0.0
    for call in entries:
        if t0 <= t <= T:
            assert math.isfinite(call(t))
        elif not t0 - slack <= t <= T + slack:  # also NaN and +-inf
            with pytest.raises(DomainError, match="outside"):
                call(t)


def test_time_grid_and_polyline_share_the_break_checks():
    bad = {"2 knots": (0.0,), "finite": (0.0, float("nan")), "increasing": (1.0, 0.5)}
    for match, times in bad.items():
        with pytest.raises(DomainError, match=match):
            TimeGrid(times)
        with pytest.raises(DomainError, match=match):
            PolylineSignal(tuple((t, 0.0) for t in times))
    # a signal may start after 0
    assert step([1.0, 2.0], [3.0]).affine_view()[0][0] == 1.0


# ---------------------------------------------------------------------------
# calculus

def test_antiderivative_simple():
    p = antiderivative(step([0.0, 1.0], [1.0]), 0.0)
    assert p.knots == ((0.0, 0.0), (1.0, 1.0))


def test_antiderivative_telescoping():
    p = antiderivative(step([0.0, 1.0, 2.0], [1.0, -1.0]), 2.0)
    assert p.knots == ((0.0, 2.0), (1.0, 3.0), (2.0, 2.0))


def test_antiderivative_loop_control_is_tent():
    alpha, T = 1.5, 0.7
    u1 = step([0.0, T, 2 * T, 3 * T, 4 * T], [alpha, 0.0, -alpha, 0.0])
    x = antiderivative(u1, 0.0)
    assert abs(x(T) - alpha * T) < 1e-15
    assert abs(x(2 * T) - alpha * T) < 1e-15
    assert abs(x(4 * T)) < 1e-15


def test_derivative_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(20):
        s = random_step(rng)
        p = antiderivative(s, rng.uniform(-1, 1))
        assert derivative(p).values == pytest.approx(s.values, abs=1e-12)
        q = antiderivative(derivative(p), p.knots[0][1])
        assert all(abs(a[1] - b[1]) < 1e-12 for a, b in zip(p.knots, q.knots))


# ---------------------------------------------------------------------------
# combination on merged grids

def test_combine_pointwise_property():
    rng = np.random.default_rng(2)
    for _ in range(30):
        kind = rng.integers(0, 3)
        a = random_step(rng) if kind != 1 else random_polyline(rng)
        b = random_polyline(rng) if kind != 0 else random_step(rng)
        c = combine(a, b, 2.0, -0.5)
        for t in rng.uniform(0.0, 4.0, 1000):
            assert abs(c(t) - (2.0 * a(t) - 0.5 * b(t))) < 1e-12


def test_add_subtract_same_kind_closure():
    a = step([0.0, 1.0, 2.0], [1.0, 2.0])
    b = step([0.0, 0.5, 2.0], [3.0, 4.0])
    s = combine(a, b)
    assert isinstance(s, StepSignal)
    assert s(0.25) == 4.0 and s(0.75) == 5.0 and s(1.5) == 6.0
    pa = PolylineSignal(((0.0, 0.0), (2.0, 2.0)))
    pb = PolylineSignal(((0.0, 1.0), (1.0, 0.0), (2.0, 1.0)))
    d = combine(pa, pb, 1.0, -1.0)
    assert isinstance(d, PolylineSignal)
    assert d(1.0) == pytest.approx(1.0)


def test_combine_horizon_mismatch():
    with pytest.raises(DomainError):
        combine(step([0.0, 1.0], [1.0]), step([0.0, 2.0], [1.0]))


@pytest.mark.parametrize("op", [combine, l1_distance, sup_distance])
def test_operands_must_share_the_start_time(op):
    # same end time, different start: no operand is extrapolated back to 0
    for a, b in ((step([0.0, 4.0], [1.0]), step([1.0, 4.0], [1.0])),
                 (PolylineSignal(((0.0, 0.0), (4.0, 1.0))), PolylineSignal(((1.0, 0.0), (4.0, 1.0))))):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(DomainError, match="share the horizon"):
                op(x, y)


A_RISE = PolylineSignal(((0.0, 0.0), (1.0, 1e308)))
A_FALL = PolylineSignal(((0.0, 0.0), (1.0, -1e308)))
A_STEP = StepSignal(TimeGrid((0.0, 1.0)), (1e308,))


@pytest.mark.parametrize("op, a, b, coefficients", [
    (combine, A_RISE, A_FALL, (1.0, -1.0)),
    (combine, A_STEP, A_STEP, (1e308, 1e308)),
    (combine, A_STEP, A_RISE, (1e308, 1e308)),
    (combine, A_RISE, A_STEP, (1.0, 1.0)),
    (l1_distance, A_RISE, A_FALL, ()),
    (sup_distance, A_RISE, A_FALL, ()),
    (antiderivative, StepSignal(TimeGrid((0.0, 2.0)), (1e308,)), 0.0, ()),
    (antiderivative, StepSignal(TimeGrid((0.0, 1.0, 2.0)), (1e308, 1e308)), 0.0, ()),
    (antiderivative, A_STEP, 1e308, ()),
], ids=["polyline", "step", "mixed-scaled", "mixed", "l1", "sup", "antiderivative-wide",
        "antiderivative-sum", "antiderivative-x0"])
def test_results_past_the_floats_raise_without_a_warning(op, a, b, coefficients):
    # finite operands whose difference, scaled sum or integral is past 1.8e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            op(a, b, *coefficients)


def test_combine_refuses_a_slope_past_the_floats_with_finite_knots():
    # each operand rises 1e298 in 1e-10 (slope 1e308); their difference has
    # finite knots but a slope of 2e308, which combine refuses when it builds
    # the result, not at its first read
    a = PolylineSignal(((0.0, 0.0), (1e-10, 1e298), (1.0, 1e298)))
    b = PolylineSignal(((0.0, 0.0), (1e-10, -1e298), (1.0, -1e298)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isfinite(a.slopes() + b.slopes()).all()
        with pytest.raises(DomainError, match="finite durations and slopes"):
            combine(a, b, 1.0, -1.0)


# ---------------------------------------------------------------------------
# metrics

def test_l1_trivial_cases():
    a = step([0.0, 1.0], [1.0])
    b = step([0.0, 1.0], [0.0])
    assert l1_distance(a, a) == 0.0
    assert l1_distance(a, b) == 1.0


def test_sup_trivial_cases():
    p = PolylineSignal(((0.0, 0.0), (1.0, 1.0)))
    z = step([0.0, 1.0], [0.0])
    assert sup_distance(p, p) == 0.0
    assert sup_distance(p, z) == 1.0  # attained at t=1


def test_metrics_against_dense_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = random_step(rng) if rng.random() < 0.5 else random_polyline(rng)
        b = random_step(rng) if rng.random() < 0.5 else random_polyline(rng)
        l1_ref, sup_ref = dense_metrics(a, b)
        assert abs(l1_distance(a, b) - l1_ref) < 1e-6
        assert abs(sup_distance(a, b) - sup_ref) < 1e-6


def test_metric_axioms():
    rng = np.random.default_rng(4)
    for _ in range(10):
        sigs = [random_polyline(rng) for _ in range(3)]
        a, b, c = sigs
        for dist in (l1_distance, sup_distance):
            assert abs(dist(a, b) - dist(b, a)) < 1e-12
            assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-12


def test_sign_change_split_in_l1():
    # difference crosses zero mid-interval; closed form must split there
    a = PolylineSignal(((0.0, -1.0), (1.0, 1.0)))
    b = step([0.0, 1.0], [0.0])
    assert l1_distance(a, b) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# serialization

def test_json_roundtrip():
    s = step([0.0, 1.0, 2.0], [1.0, -1.0])
    p = PolylineSignal(((0.0, 0.5), (2.0, -1.5)))
    for sig in (s, p):
        blob = json.dumps(sig.to_json())
        back = signal_from_json(json.loads(blob))
        assert back == sig


@pytest.mark.parametrize("data", [
    {"knots": [[0, True], [1, 2]]},
    {"grid": [0, 1], "values": [False]},
], ids=["polyline", "step"])
def test_signal_from_json_rejects_bools(data):
    with pytest.raises(DomainError):
        signal_from_json(data)


def test_csv_rows():
    s = step([0.0, 1.0, 2.0], [1.0, -1.0])
    assert s.csv_rows() == [(0.0, 1.0), (1.0, -1.0), (2.0, -1.0)]
    p = PolylineSignal(((0.0, 0.0), (1.0, 1.0)))
    assert p.csv_rows() == [(0.0, 0.0), (1.0, 1.0)]


def test_step_csv_rows_are_the_values_held():
    # the values themselves, not evaluated again: a -0.0 level stays -0.0
    rows = step([0.0, 1.0, 2.0], [-0.0, 1.0]).csv_rows()
    assert rows == [(0.0, 0.0), (1.0, 1.0), (2.0, 1.0)]
    assert math.copysign(1.0, rows[0][1]) == -1.0
    rows = step([0.0, 1.0], [-0.0]).csv_rows()
    assert [math.copysign(1.0, v) for _, v in rows] == [-1.0, -1.0]


@pytest.mark.parametrize("lists, merged", [
    (((1.0, 1.0 + 0.9e-12, 1.0 + 1.8e-12, 2.0),), (1.0, 2.0)),
    (((1.0, 2.0), (1.0 + 1.8e-12, 1.0 + 0.9e-12)), (1.0, 2.0)),
    (((0.0, 1.0, 2.0), (1.0, 2.0)), (0.0, 1.0, 2.0)),
    (((1.0, 2.0), (1.0 + 1.01e-12,)), (1.0, 1.0 + 1.01e-12, 2.0)),
], ids=["run", "run-across-lists", "duplicates", "pair-beyond-tol"])
def test_merge_times_merges_a_run_into_its_first_time(lists, merged):
    # each time within KNOT_TOL of the one before joins its run, even when
    # the run spans more than KNOT_TOL
    assert list(merge_times(*lists)) == list(merged)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.lists(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=8),
                min_size=1, max_size=3))
def test_merge_times_matches_the_loop_rule(lists):
    # times k + 0.6e-12 i: runs from exact duplicates to 1.8e-12 long; the
    # reference loop keeps a time unless it is within KNOT_TOL of the
    # sorted time just before it
    lists = [[k + 0.6 * KNOT_TOL * i for k, i in pairs] for pairs in lists]
    ts = sorted(t for times in lists for t in times)
    ref = ts[:1] + [t for prev, t in zip(ts, ts[1:])
                    if abs(t - prev) > KNOT_TOL * max(1.0, abs(t), abs(prev))]
    assert list(merge_times(*lists)) == ref


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.lists(st.lists(st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 1.0, 5e-324]),
                         min_size=1, max_size=8), min_size=1, max_size=3))
def test_exact_merge_compares_neighbours(lists):
    # tol 0 keeps a sorted time unless it equals the one before: the same
    # array, bit for bit, as the relative bound's rule with tol 0
    t = np.sort(np.concatenate(lists))
    bound = 0.0 * np.maximum(1.0, np.maximum(np.abs(t[:-1]), np.abs(t[1:])))
    want = t[np.concatenate(([True], np.diff(t) > bound))]
    assert merge_times(*lists, tol=0.0).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# randomized properties of the merged-grid core

HORIZON = 4.0
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)
values = st.floats(-3.0, 3.0)


@st.composite
def signals(draw):
    """A step signal or a polyline on [0, HORIZON] with 1 to 12 pieces."""
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=12))
    pts = np.cumsum([0.0] + gaps) * (HORIZON / sum(gaps))
    pts[-1] = HORIZON
    if draw(st.booleans()):
        return step(pts, draw(st.lists(values, min_size=len(gaps), max_size=len(gaps))))
    vals = draw(st.lists(values, min_size=len(pts), max_size=len(pts)))
    return PolylineSignal(tuple(zip(pts, vals)))


def merged_grid(a, b):
    """The grid of combine and the metrics: the exact union of the breaks."""
    return np.union1d(a.affine_view()[0], b.affine_view()[0])


def interior_probes(a, b, theta):
    """One time inside each merged interval, at the fraction theta of it."""
    grid = merged_grid(a, b)
    return grid[:-1] + theta * np.diff(grid)


def float_fields(s):
    if isinstance(s, StepSignal):
        return [*s.grid.points, *s.values]
    if isinstance(s, PolylineSignal):
        return [x for knot in s.knots for x in knot]
    assert isinstance(s, PiecewiseAffine)
    return [*s.breaks, *(x for piece in s.pieces for x in piece)]


def shifted(s, eps, vals=None):
    """s with every knot time t moved to t*(1 + eps), optionally new values."""
    if isinstance(s, StepSignal):
        vals = s.values if vals is None else vals[: len(s.values)]
        return step([t * (1.0 + eps) for t in s.grid.points], vals)
    vals = [v for _, v in s.knots] if vals is None else vals[: len(s.knots)]
    return PolylineSignal(tuple((t * (1.0 + eps), v) for t, v in zip(s.times, vals)))


@PROPERTY
@given(signals(), signals(), st.floats(0.0, HORIZON))
def test_scalar_call_is_sample_bit_for_bit(a, b, t):
    # one evaluation rule for every kind (a mixed sum is a PiecewiseAffine),
    # at t and at every break, T included
    for s in (a, combine(a, b, 1.5, -0.5)):
        ts = [t, *s.affine_view()[0]]
        assert [s(x).hex() for x in ts] == [v.hex() for v in sample(s, ts).tolist()]


@PROPERTY
@given(signals(), signals(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.01, 0.99))
def test_combine_pointwise_randomized(a, b, ca, cb, theta):
    c = combine(a, b, ca, cb)
    for t in [0.0, HORIZON, *interior_probes(a, b, theta)]:
        assert abs(c(t) - (ca * a(t) + cb * b(t))) < 1e-12
    # numpy scalars leaking into a signal slow every later scalar evaluation
    assert all(type(x) is float for x in [*c.affine_view()[0].tolist(), *float_fields(c)])


@PROPERTY
@given(signals(), signals(), st.floats(0.01, 0.99))
def test_sup_distance_attained_at_a_merged_break(a, b, theta):
    sup = sup_distance(a, b)
    for t in [0.0, HORIZON, *interior_probes(a, b, theta)]:
        assert abs(a(t) - b(t)) <= sup + 1e-12
    # a - b is affine inside each merged interval, so two interior values
    # give its one-sided limits at both ends of the interval
    limits = []
    grid = merged_grid(a, b)
    for lo, hi in zip(grid, grid[1:]):
        p = a(lo + (hi - lo) / 3) - b(lo + (hi - lo) / 3)
        q = a(lo + 2 * (hi - lo) / 3) - b(lo + 2 * (hi - lo) / 3)
        limits += [abs(2 * p - q), abs(2 * q - p)]
    assert sup == pytest.approx(max(limits), abs=1e-12)


@PROPERTY
@given(signals(), signals(), signals())
def test_l1_distance_symmetric_and_triangle(a, b, c):
    ab = l1_distance(a, b)
    assert abs(ab - l1_distance(b, a)) <= 1e-12 * max(1.0, ab)
    assert l1_distance(a, c) <= ab + l1_distance(b, c) + 1e-12


@PROPERTY
@given(signals(), st.floats(1e-14, 0.2 * KNOT_TOL), st.lists(values, min_size=13, max_size=13),
       st.floats(0.01, 0.99))
def test_knots_closer_than_knot_tol_stay_apart(a, eps, vals, theta):
    # every knot of b but t = 0 differs from a's by a few ulps to KNOT_TOL/4;
    # the merged grid is the exact union of both breaks, so every interval,
    # the slivers between a knot and its shifted twin too, lies in one piece
    # of each operand and carries the exact difference
    b = shifted(a, eps, vals)
    c = combine(a, b, 1.0, -1.0)
    assert c.affine_view()[0].tolist() == merged_grid(a, b).tolist()
    for t in interior_probes(a, b, theta):
        assert abs(c(t) - (a(t) - b(t))) < 1e-12
    # so a step signal and its shifted twin are apart by the largest jump,
    # on the sliver after it, and a polyline and its twin hardly at all
    twin = shifted(a, eps)
    if isinstance(a, StepSignal):
        assert sup_distance(a, twin) == max(map(abs, np.diff(a.values)), default=0.0)
    else:
        assert sup_distance(a, twin) < 1e-9
    assert l1_distance(a, twin) < 1e-9


@st.composite
def polylines_with_runs(draw):
    """A polyline on [0, HORIZON] whose knots come in runs, each knot of a run
    4 ulps to KNOT_TOL/2 after the one before: spikes and steps narrower than
    KNOT_TOL, with values of up to 3."""
    gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=8))
    starts = np.cumsum([0.0] + gaps) * (HORIZON / sum(gaps))
    times = []
    for t in starts[:-1].tolist():
        times.append(t)
        for d in draw(st.lists(st.floats(4 * math.ulp(HORIZON), 0.5 * KNOT_TOL), max_size=3)):
            times.append(times[-1] + d)
    times.append(HORIZON)
    vals = draw(st.lists(values, min_size=len(times), max_size=len(times)))
    return PolylineSignal(tuple(zip(times, vals)))


@PROPERTY
@given(polylines_with_runs())
def test_features_narrower_than_knot_tol_are_kept(a):
    # the metrics and combine see every knot: a + 0 is a knot for knot (the
    # last value comes from the last piece's slope, so to rounding), and the
    # sup distance to 0 is the largest knot value, however narrow its spike
    zero = PolylineSignal(((0.0, 0.0), (HORIZON, 0.0)))
    c = combine(a, zero)
    assert c.knots[:-1] == a.knots[:-1] and c.knots[-1][0] == HORIZON
    assert c.knots[-1][1] == pytest.approx(a.knots[-1][1], abs=1e-14)
    assert sup_distance(a, zero) == pytest.approx(max(abs(v) for _, v in a.knots), abs=1e-14)


def test_a_spike_narrower_than_knot_tol_is_kept():
    # 450 ulps wide at t = 1, 1e-7 wide at t = 1e6: merged away by the
    # KNOT_TOL rule, which read 0 for the sup and combined it into 0
    for c in (1.0, 1e3, 1e6):
        spike = PolylineSignal(((0, 0), (c, 0), (c * (1 + 1e-13), 1), (c * (1 + 2e-13), 0), (2 * c, 0)))
        zero = PolylineSignal(((0, 0), (2 * c, 0)))
        assert sup_distance(spike, zero) == 1.0
        assert combine(spike, zero) == spike
        assert sup_distance(play_apply(spike, 0.0, 0.1), zero) == pytest.approx(0.9, abs=1e-15)



# ---------------------------------------------------------------------------
# exact-rational oracle: combine and the metrics against the exact rational
# results of the same float inputs, across magnitudes

ORACLE_C = 4  # the bound's factor; the worst case measured is under 2


def times_with_runs(rng, t0, n):
    """n + 1 increasing times from t0, 0.05 to 1 apart or, in runs, 4 ulps
    to KNOT_TOL/2 (relative) apart."""
    times = [t0]
    for _ in range(n):
        t = times[-1]
        tiny = rng.random() < 0.3
        times.append(t + (rng.uniform(4 * math.ulp(t), 0.5 * KNOT_TOL * max(1.0, abs(t))) if tiny
                          else rng.uniform(0.05, 1.0)))
    return times


def random_signal(rng, times, kind, size):
    """A step signal ("s") or a polyline ("p") on the times, with values of
    random sign and 0.1 to 1 times size."""
    vals = [rng.choice([-1.0, 1.0]) * size * rng.uniform(0.1, 1.0) for _ in times]
    return step(times, vals[:-1]) if kind == "s" else PolylineSignal(tuple(zip(times, vals)))


def knot_values(s):
    return s.values if isinstance(s, StepSignal) else tuple(v for _, v in s.knots)


def exact_ends(s, grid):
    """The exact one-sided values of s at both ends of each interval of grid,
    as Fractions of its float times and values."""
    if isinstance(s, StepSignal):
        pts, vals = s.grid.points, s.values
        return [(Fraction(vals[bisect.bisect_right(pts, a) - 1]),) * 2 for a in grid[:-1]]
    ts, vs = zip(*s.knots)

    def at(t):
        i = min(bisect.bisect_right(ts, t), len(ts) - 1) - 1
        f = (Fraction(t) - Fraction(ts[i])) / (Fraction(ts[i + 1]) - Fraction(ts[i]))
        return Fraction(vs[i]) + f * (Fraction(vs[i + 1]) - Fraction(vs[i]))

    return [(at(a), at(b)) for a, b in zip(grid, grid[1:])]


def exact_abs_integral(d0, d1, tau):
    """The integral of |d| over [0, tau], d affine from d0 to d1."""
    if d0 * d1 >= 0:
        return (abs(d0) + abs(d1)) / 2 * tau
    return (d0 * d0 + d1 * d1) / (2 * (abs(d0) + abs(d1))) * tau


def test_combine_and_metrics_match_exact_rationals():
    # values up to 1e15, time offsets up to 1e12 and runs of knots closer
    # than KNOT_TOL, for all four pairs of kinds.  With V, S and T the
    # operands' largest value, slope and time, every value of combine (V and
    # S times the largest coefficient) and the sup distance lie within
    # C (ulp(V) + S ulp(T)) of the exact result; the l1 distance, the
    # integral of such values over the horizon H, within C ulp(l1) plus H
    # times that bound.  (C ulp(l1) alone fails where a and b nearly cancel:
    # then the values' own rounding is many ulps of the small result.)
    rng = random.Random(20261019)
    for _ in range(300):
        t0 = rng.choice([0.0, rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0, 12)])
        ta = times_with_runs(rng, t0, rng.randint(1, 6))
        tb = [t for t in times_with_runs(rng, t0, 6)[1:] if t < ta[-1]]
        tb = [t0, *sorted(rng.sample(tb, min(len(tb), rng.randint(0, 4)))), ta[-1]]
        size = 10.0 ** rng.uniform(-3, 15)
        a, b = (random_signal(rng, ts, kind, size)
                for ts, kind in zip((ta, tb), rng.choice(["pp", "ss", "ps", "sp"])))
        grid = sorted(set(ta) | set(tb))
        taus = [Fraction(t1) - Fraction(t0) for t0, t1 in zip(grid, grid[1:])]
        ea, eb = exact_ends(a, grid), exact_ends(b, grid)
        V = max(map(abs, knot_values(a) + knot_values(b)))
        S = float(max(abs(e1 - e0) / tau for ends in (ea, eb) for (e0, e1), tau in zip(ends, taus)))
        ulp_t = math.ulp(max(abs(grid[0]), abs(grid[-1])))
        ca, cb = rng.choice([(1.0, 1.0), (1.0, -1.0), (rng.uniform(-3, 3), rng.uniform(-3, 3))])
        c = max(1.0, abs(ca), abs(cb))
        bound = ORACLE_C * (math.ulp(c * V) + c * S * ulp_t)
        breaks, left, slope = combine(a, b, ca, cb).affine_view()
        assert breaks.tolist() == grid, (a, b)
        fa, fb = Fraction(ca), Fraction(cb)
        for (a0, a1), (b0, b1), lv, sl, tau in zip(ea, eb, left.tolist(), slope.tolist(), taus):
            for got, want in ((Fraction(lv), fa * a0 + fb * b0),
                              (Fraction(lv) + Fraction(sl) * tau, fa * a1 + fb * b1)):
                assert abs(got - want) <= bound, (a, b, ca, cb)
        d = [(a0 - b0, a1 - b1) for (a0, a1), (b0, b1) in zip(ea, eb)]
        bound = ORACLE_C * (math.ulp(V) + S * ulp_t)
        assert abs(Fraction(sup_distance(a, b)) - max(abs(x) for pair in d for x in pair)) <= bound
        l1 = sum(exact_abs_integral(d0, d1, tau) for (d0, d1), tau in zip(d, taus))
        l1_bound = ORACLE_C * math.ulp(float(l1)) + (grid[-1] - grid[0]) * bound
        assert abs(Fraction(l1_distance(a, b)) - l1) <= l1_bound, (a, b)


# ---------------------------------------------------------------------------
# operator outputs: combine, antiderivative and derivative hand over the view
# they computed; it must be the view the output's fields give.  The output
# keeps only that view and makes each tuple field from it at first read; the
# field must be the one set eagerly from the same arrays

MAGNITUDE = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)


@st.composite
def operand_pairs(draw):
    """Two signals of drawn kinds on one [t0, T], t0 up to 1e12 and T - t0
    from 1e-3 to 1e6, with values from 0 (either sign) and subnormals to 1e300."""
    t0 = draw(st.sampled_from((0.0, -7.5, 1e6, 1e12)))
    T = t0 + draw(st.sampled_from((1e-3, 4.0, 1e6)))

    def one():
        gaps = draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=8))
        pts = np.unique(np.append(t0 + (T - t0) * np.cumsum([0.0] + gaps[:-1]) / sum(gaps), T))
        vals = draw(st.lists(MAGNITUDE, min_size=len(pts), max_size=len(pts)))
        return step(pts, vals[:-1]) if draw(st.booleans()) else PolylineSignal(tuple(zip(pts, vals)))

    return one(), one()


def public_twin(s):
    """s rebuilt from its fields by its public constructor."""
    if isinstance(s, StepSignal):
        return StepSignal(TimeGrid(s.grid.points), s.values)
    if isinstance(s, PolylineSignal):
        return PolylineSignal(s.knots)
    return PiecewiseAffine(s.breaks, s.pieces)


TUPLE_FIELDS = {StepSignal: ("grid", "values"), PolylineSignal: ("times", "knots"),
                PiecewiseAffine: ("breaks", "pieces")}


def eager_twin(out):
    """out with every tuple field set at once from its arrays, as bank_trace sets its output's."""
    t, left, slope = (x.tolist() for x in out.affine_view())
    if isinstance(out, StepSignal):
        return _built(StepSignal, grid=_built(TimeGrid, points=tuple(t)), values=tuple(left))
    if isinstance(out, PolylineSignal):
        return _built(PolylineSignal, knots=tuple(zip(t, out._knot_values.tolist())), times=tuple(t))
    return _built(PiecewiseAffine, breaks=tuple(t), pieces=tuple(zip(left, slope)))


def field_hexes(s):
    times = s.times if isinstance(s, PolylineSignal) else ()
    return [x.hex() for x in (*float_fields(s), *times)]


def operator_thunks(a, b, ca, cb):
    """combine(a, b, ca, cb), and antiderivative or derivative of each operand."""
    return [lambda: combine(a, b, ca, cb)] + [
        lambda s=s: antiderivative(s, ca) if isinstance(s, StepSignal) else derivative(s)
        for s in (a, b)]


def check_lazy_output(op):
    """op()'s fields, read in any order, equal the eager ones, and so do its copies'."""
    first, second = TUPLE_FIELDS[type(op())]
    fresh = [copy.deepcopy(op()), pickle.loads(pickle.dumps(op()))]  # copied before any read
    for order in (("_arrays", first, second), (first, second), (second, first)):
        out = op()
        for name in order:
            getattr(out, name)
        eager, twin = eager_twin(out), public_twin(out)
        assert field_hexes(out) == field_hexes(eager) == field_hexes(twin)
        assert all(type(x) is float for x in float_fields(out))
        assert out == twin and hash(out) == hash(twin) and repr(out) == repr(twin)
        assert replace(out) == out
        for other in (*fresh, copy.deepcopy(out), pickle.loads(pickle.dumps(out))):
            assert other == out and field_hexes(other) == field_hexes(out)
        if not isinstance(out, PiecewiseAffine):
            assert json.dumps(out.to_json()) == json.dumps(eager.to_json())
            assert repr(out.csv_rows()) == repr(eager.csv_rows())


@settings(PROPERTY, max_examples=150)
@given(operand_pairs(), MAGNITUDE, MAGNITUDE)
def test_a_seeded_view_is_the_view(pair, ca, cb):
    for op in operator_thunks(*pair, ca, cb):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = op()
            except DomainError:  # the result or an operand's slope leaves the floats
                continue
        check_lazy_output(op)  # the fields, their copies, JSON and CSV
        view, rebuilt = out.affine_view(), type(out)._view(out)
        assert len(view) == len(rebuilt) == 3
        for x, y in zip(view, rebuilt):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
            assert not x.flags.writeable


def test_operator_outputs_equal_their_eager_twins_seeded():
    rng = np.random.default_rng(39)
    for _ in range(20):
        p, q, s, u = (random_polyline(rng), random_polyline(rng), random_step(rng), random_step(rng))
        ca, cb = rng.uniform(-3.0, 3.0, 2)
        for a, b in ((p, q), (s, u), (s, p), (p, s)):
            for op in operator_thunks(a, b, ca, cb):
                check_lazy_output(op)


def polyline_of(rng, n):
    pts = np.cumsum(np.concatenate([[0.0], rng.uniform(0.05, 1.0, n - 1)]))
    return PolylineSignal(tuple(zip(pts * (4.0 / pts[-1]), rng.uniform(-3.0, 3.0, n))))


def test_operator_outputs_make_their_fields_at_first_read(monkeypatch):
    rng = np.random.default_rng(800)
    a, b = polyline_of(rng, 800), polyline_of(rng, 800)
    s = step(a.times, rng.uniform(-2.0, 2.0, 799))
    outs = [combine(a, b, 1.0, -0.5), combine(s, s, 2.0), combine(s, a), antiderivative(s), derivative(a)]
    assert len(outs[0].affine_view()[0]) > 800
    for out in outs:
        assert not set(vars(out)) & {name for names in TUPLE_FIELDS.values() for name in names}
    calls = []
    for cls, names in TUPLE_FIELDS.items():
        for name in names:
            prop = vars(cls)[name]
            monkeypatch.setattr(prop, "func", lambda s, f=prop.func, n=name: calls.append(n) or f(s))
    for out in outs:
        for name in TUPLE_FIELDS[type(out)]:
            got = getattr(out, name)
            assert vars(out)[name] is got and getattr(out, name) is got
    assert sorted(calls) == sorted(name for out in outs for name in TUPLE_FIELDS[type(out)])
    # a constructed signal holds its own fields, which hide the descriptors
    calls.clear()
    for sig in (a, s, PiecewiseAffine((0.0, 1.0, 2.0), ((1.0, 0.5), (-1.0, 0.0)))):
        for name in TUPLE_FIELDS[type(sig)]:
            getattr(sig, name)
        assert replace(sig) == sig and hash(sig) == hash(public_twin(sig))
        repr(sig), sig.affine_view(), sig(1.0)
        if not isinstance(sig, PiecewiseAffine):
            sig.to_json(), sig.csv_rows()
    assert calls == []
