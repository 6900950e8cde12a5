"""Signal arithmetic: evaluation, calculus, merged-grid combination, metrics."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hystctl.signals import (
    KNOT_TOL,
    DomainError,
    PiecewiseAffine,
    PolylineSignal,
    StepSignal,
    TimeGrid,
    antiderivative,
    breakpoints,
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
    breaks = np.concatenate([breakpoints(a), breakpoints(b)])
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


def test_polyline_needs_two_knots():
    with pytest.raises(DomainError, match="2 knots"):
        PolylineSignal(((0.0, 1.0),))


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
    return np.asarray(merge_times(breakpoints(a), breakpoints(b)))


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
        ts = [t, *breakpoints(s)]
        assert [s(x).hex() for x in ts] == [v.hex() for v in sample(s, ts).tolist()]


@PROPERTY
@given(signals(), signals(), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.01, 0.99))
def test_combine_pointwise_randomized(a, b, ca, cb, theta):
    c = combine(a, b, ca, cb)
    for t in [0.0, HORIZON, *interior_probes(a, b, theta)]:
        assert abs(c(t) - (ca * a(t) + cb * b(t))) < 1e-12
    # numpy scalars leaking into a signal slow every later scalar evaluation
    assert all(type(x) is float for x in [*breakpoints(c), *float_fields(c)])


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
def test_knots_closer_than_knot_tol_merge(a, eps, vals, theta):
    # every knot of b but t = 0 differs from a's by a few ulps to KNOT_TOL/4;
    # the merged grid keeps a's knots and extends b's pieces over the gaps,
    # which moves a value by at most the steepest slope times the shift
    b = shifted(a, eps, vals)
    c = combine(a, b, 1.0, -1.0)
    assert len(breakpoints(c)) == len(breakpoints(a))
    steepest = max(map(abs, b.slopes())) if isinstance(b, PolylineSignal) else 0.0
    for t in interior_probes(a, b, theta):
        assert abs(c(t) - (a(t) - b(t))) < 1e-12 + steepest * eps * HORIZON
    twin = shifted(a, eps)
    assert sup_distance(a, twin) < 1e-9
    assert l1_distance(a, twin) < 1e-9
