"""Control/input builders: staircase approximants, play inverses, schedules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hystctl.constructions import (
    align_schedule,
    build_uk,
    build_vj,
    build_vk,
    chain_schedule,
    heis_exact_schedule,
    heisenberg_loop,
    plan_triangular,
    play_inverse_exact,
    reversal_sup_error,
    thm3_schedule,
)
from hystctl.dynamics import TriangularSpec
from hystctl.hysteresis import play_apply
from hystctl.signals import (
    DomainError,
    PolylineSignal,
    StepSignal,
    TimeGrid,
    antiderivative,
    l1_distance,
    sample,
    signal_from_json,
    sup_distance,
)

GRID = (0.0, 1.0, 2.0, 3.0, 4.0)
ALPHA = (1.0, -1.0, 0.5, 2.0)
W0 = 0.5
RHO = 0.2


def ubar_ref():
    return StepSignal(TimeGrid(GRID), ALPHA)


def random_ubar(rng, n=5):
    pts = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, n))])
    return StepSignal(TimeGrid(pts), rng.uniform(-2.0, 2.0, n))


# ---------------------------------------------------------------------------
# u^k

def test_build_uk_reference_values():
    uk = build_uk(ubar_ref(), W0, 10)
    assert uk(0.0) == 0.5
    assert uk(0.1) == pytest.approx(1.0)
    assert uk(1.1) == pytest.approx(-1.0)
    assert uk(2.5) == pytest.approx(0.5)  # plateau of the third level


def test_build_uk_constant_ubar():
    ubar = StepSignal(TimeGrid((0.0, 1.0, 2.0)), (0.7, 0.7))
    for k in (5, 50):
        uk = build_uk(ubar, 0.7, k)
        assert all(v == 0.7 for _, v in uk.knots)


def test_build_uk_l1_rate():
    prev = None
    for k in (10, 20, 40, 80):
        d = l1_distance(build_uk(ubar_ref(), W0, k), ubar_ref())
        if prev is not None:
            assert 0.8 * prev / 2 <= d <= 1.2 * prev / 2  # halves within 20%
        prev = d


def test_build_uk_k_too_small():
    with pytest.raises(DomainError):
        build_uk(ubar_ref(), W0, 2)  # needs 2/k < min gap = 1


# ---------------------------------------------------------------------------
# v^k and play inversion

def test_build_vk_reference_surjectivity():
    for k in (10, 20, 40):
        uk = build_uk(ubar_ref(), W0, k)
        vk = build_vk(ubar_ref(), W0, RHO, k)
        assert vk(0.0) == pytest.approx(W0 + np.sign(ALPHA[0] - W0) * RHO)
        assert sup_distance(play_apply(vk, W0, RHO), uk) < 1e-10
        assert sup_distance(vk, uk) == pytest.approx(RHO)  # rides at distance rho


def test_build_vk_constant_ubar():
    ubar = StepSignal(TimeGrid((0.0, 1.0, 2.0)), (0.3, 0.3))
    vk = build_vk(ubar, 0.3, RHO, 10)
    out = play_apply(vk, 0.3, RHO)
    assert all(abs(v - 0.3) < 1e-15 for _, v in out.knots)


def test_build_vk_rho_to_zero():
    for rho in (0.2, 0.05, 0.01):
        vk = build_vk(ubar_ref(), W0, rho, 10)
        assert sup_distance(vk, build_uk(ubar_ref(), W0, 10)) == pytest.approx(rho)


def test_build_vk_randomized_surjectivity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        ubar = random_ubar(rng)
        w0 = float(rng.uniform(-2, 2))
        rho = float(rng.uniform(0.01, 0.5))
        k = int(rng.integers(8, 40))
        uk = build_uk(ubar, w0, k)
        vk = build_vk(ubar, w0, rho, k)
        assert sup_distance(play_apply(vk, w0, rho), uk) < 1e-10


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    gaps=st.lists(st.sampled_from([0.25, 0.5, 1.0]), min_size=1, max_size=6),
    levels=st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=6, max_size=6),
    w0=st.sampled_from([-1.0, 0.0, 0.5, 1.0]),
    rho=st.sampled_from([0.0, 0.1, 0.3]),
    k=st.integers(3, 30),
)
def test_build_vk_repeated_levels(gaps, levels, w0, rho, k):
    # repeated levels (and w0 on the first level) make plateaus of several
    # flat segments of u^k; the swing rides at the end of the whole plateau
    ubar = StepSignal(TimeGrid(np.concatenate([[0.0], np.cumsum(gaps)])), levels[: len(gaps)])
    try:
        vk = build_vk(ubar, w0, rho, k)
    except DomainError:
        assert min(gaps) <= 3.0 / k  # a plateau longer than 1/k is always accepted
        return
    assert sup_distance(play_apply(vk, w0, rho), build_uk(ubar, w0, k)) <= 1e-12


def test_build_vk_swings_at_end_of_whole_plateau():
    # the 0-plateau of u^10 is [1.1, 1.15], the flat ramp [1.15, 1.35] and
    # [1.35, 2.9]: its first segment is shorter than the ramp width 0.1, the
    # whole plateau is not, and the swing takes the plateau's last 0.1
    ubar = StepSignal(TimeGrid((0.0, 1.0, 1.25, 3.0, 4.0)), (1.0, 0.0, 0.0, 1.0))
    vk = build_vk(ubar, 0.0, RHO, 10)
    assert (2.8, -RHO) in vk.knots and (2.9, RHO) in vk.knots
    assert sup_distance(play_apply(vk, 0.0, RHO), build_uk(ubar, 0.0, 10)) == 0.0


def test_play_inverse_exact_flat_target():
    flat = PolylineSignal(((0.0, 0.3), (1.0, 0.3), (2.0, 0.3)))
    v = play_inverse_exact(flat, RHO, 0.25)
    assert v.knots == ((0.0, 0.3 + RHO), (2.0, 0.3 + RHO))
    assert sup_distance(play_apply(v, 0.3, RHO), flat) == 0.0


def test_play_inverse_exact_needs_plateau():
    zigzag = PolylineSignal(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0)))
    with pytest.raises(DomainError):
        play_inverse_exact(zigzag, 0.3, 0.25)


# ---------------------------------------------------------------------------
# v^j density construction

def test_build_vj_reference_identity():
    x = PolylineSignal(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 0.5), (4.0, 2.5)))
    for j in (10, 20, 40):
        v = build_vj(x, RHO, j)
        sup = sup_distance(play_apply(v, 0.0, RHO), x)
        assert abs(sup - reversal_sup_error(x, j)) < 1e-10
        assert reversal_sup_error(x, j) == pytest.approx(1.0 / j)


def test_build_vj_affine_is_exact():
    x = PolylineSignal(((0.0, -1.0), (3.0, 2.0)))
    for j in (3, 11):
        v = build_vj(x, RHO, j)
        assert sup_distance(play_apply(v, -1.0, RHO), x) < 1e-14


def test_build_vj_halving():
    x = PolylineSignal(((0.0, 0.0), (1.0, 1.5), (2.0, -0.5), (3.0, 1.0)))
    errs = [sup_distance(play_apply(build_vj(x, RHO, j), 0.0, RHO), x)
            for j in (10, 20, 40)]
    assert errs[1] == pytest.approx(errs[0] / 2)
    assert errs[2] == pytest.approx(errs[1] / 2)


def test_build_vj_randomized_identity():
    # the closed-form reversal error governs the sup when slope magnitudes are
    # comparable (outgoing at most ~2x incoming); the generator enforces that
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(4, 8))
        gaps = rng.uniform(0.5, 1.2, n - 1)
        slopes = rng.uniform(0.8, 1.2, n - 1) * rng.choice([-1.0, 1.0], n - 1)
        ts = np.concatenate([[0.0], np.cumsum(gaps)])
        vals = np.concatenate([[0.0], np.cumsum(slopes * gaps)])
        x = PolylineSignal(tuple(zip(ts, vals)))
        j = int(rng.integers(10, 30))
        rho = float(rng.uniform(0.5, 1.0))
        v = build_vj(x, rho, j)
        sup = sup_distance(play_apply(v, float(vals[0]), rho), x)
        assert abs(sup - reversal_sup_error(x, j)) < 1e-10


def test_build_vj_j_too_small():
    x = PolylineSignal(((0.0, 0.0), (0.5, 1.0), (1.0, 0.0)))
    with pytest.raises(DomainError):
        build_vj(x, RHO, 3)


@pytest.mark.parametrize("rho", [math.nan, math.inf, 0.0, -0.2], ids=["nan", "inf", "zero", "neg"])
def test_build_vj_rejects_bad_rho(rho):
    # the play's own rho rule, plus rho > 0: a NaN or infinite rho is named
    # as such, not as a non-finite knot of the built polyline
    x = PolylineSignal(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0)))
    with pytest.raises(DomainError, match="rho"):
        build_vj(x, rho, 10)


# ---------------------------------------------------------------------------
# loop and alignment schedules

def test_heisenberg_loop_shape():
    sched = heisenberg_loop(1.5, -0.5, 0.7)
    assert isinstance(sched, tuple) and len(sched) == 2
    u1, u2 = sched
    assert u1.grid.points == u2.grid.points == pytest.approx((0.0, 0.7, 1.4, 2.1, 2.8))
    assert u1.values == (1.5, 0.0, -1.5, 0.0)
    assert u2.values == (0.0, -0.5, 0.0, 0.5)


def test_align_schedule_cases():
    # final pair is (xA + dir*rho, xA) from any admissible seed
    for xA, w0 in ((0.0, 0.0), (0.3, 0.3 + RHO / 2), (-1.0, -1.0 - RHO)):
        for direction in (1, -1):
            sched = align_schedule(xA, w0, RHO, direction)
            x = antiderivative(sched[0], xA)
            w = play_apply(x, w0, RHO)
            assert x.final_value() == pytest.approx(xA + direction * RHO, abs=1e-14)
            assert w.final_value() == pytest.approx(xA, abs=1e-14)
            assert [u.grid.points for u in sched] == [(0.0, 0.5, 1.0)] * 2


def test_align_schedule_seed_validation():
    with pytest.raises(DomainError):
        align_schedule(0.0, 2 * RHO, RHO, 1)
    with pytest.raises(DomainError, match="direction"):
        align_schedule(0.0, 0.0, RHO, 0)


# ---------------------------------------------------------------------------
# schedules as step controls

def test_schedule_json():
    # a schedule is plain step controls, so each control round-trips as JSON
    sched = heisenberg_loop(1.0, 2.0, 0.5)
    assert all(signal_from_json(u.to_json()) == u for u in sched)
    assert sched[0].grid.points == (0.0, 0.5, 1.0, 1.5, 2.0)
    assert sched[1].values == (0.0, 2.0, 0.0, -2.0)


def test_heis_exact_schedule_legs():
    # ymove [0, 1], align [1, 2] in two halves, loop [2, 6], adjust [6, 7]
    u1, u2 = heis_exact_schedule((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 0.2, 0.0)
    assert u1.grid.points == (0.0, 1.0, 1.5, 2.0, 3.0, 3.5, 4.0, 5.0, 6.0, 7.0)
    assert u2.grid.points == (0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
    # with no z gap left after the y move: ymove then adjust
    flat = heis_exact_schedule((0.0, 0.0, 0.0), (0.3, 0.5, 0.0), 0.2, 0.0)
    assert [u.grid.points for u in flat] == [(0.0, 1.0, 2.0)] * 2
    assert flat[0].values == (0.0, 0.3) and flat[1].values == (0.5, 0.0)


def test_chain_schedule_slots():
    spec = TriangularSpec((lambda x: x, lambda x1, w: x1 + w), RHO, (0.0, 0.0))
    A, B = (0.0,) * 5, (0.5, -0.3, 0.4, 0.7, -0.6)
    u1, u2, u3 = chain_schedule(spec, A, B, 20)
    # stage A (align 1, reference 3, adjust 1) moves (x1, x3) with u2 off,
    # then stage B moves (x1, x2) with u3 off
    assert u1.horizon == u2.horizon == u3.horizon == 10.0
    ts = np.linspace(0.0, 10.0, 401)
    assert not np.any(sample(u2, ts[ts < 5.0])) and np.any(sample(u2, ts))
    assert not np.any(sample(u3, ts[ts > 5.0])) and np.any(sample(u3, ts))
    assert antiderivative(u2).final_value() == pytest.approx(B[1], abs=1e-12)
    assert antiderivative(u3).final_value() == pytest.approx(B[2], abs=1e-12)


def test_chain_schedule_outside_three_controls():
    # m = 2 is the triangular schedule; m = 4 is not supported
    f, A, B = (lambda x: x), (0.0, 0.0, 0.0), (0.4, -0.2, 0.3)
    two = TriangularSpec((f,), RHO, (0.1,))
    assert chain_schedule(two, A, B, 20) == thm3_schedule(plan_triangular(f, A, B), A, RHO, 0.1, 20)
    four = TriangularSpec((f, lambda x1, w: x1, lambda x1, w1, w2: x1), RHO, (0.0,) * 3)
    with pytest.raises(DomainError, match="m in"):
        chain_schedule(four, (0.0,) * 7, (0.0,) * 7, 20)


@pytest.mark.parametrize("build", [
    lambda: heis_exact_schedule((0.0, 0.0), (0.0, 0.0, 1.0), 0.2, 0.0),
    lambda: heis_exact_schedule((0.0, 0.0, 0.0), 1.0, 0.2, 0.0),
    lambda: plan_triangular(lambda x: x, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 0.0)),
    lambda: chain_schedule(TriangularSpec((lambda x: x, lambda x1, w: x1), RHO, (0.0, 0.0)),
                           (0.0, 0.0, 0.0), (0.5, -0.3, 0.4, 0.7, -0.6), 20),
    lambda: thm3_schedule(plan_triangular(lambda x: x, (0.0,) * 3, (0.4, -0.2, 0.3)),
                          (0.0,), RHO, 0.0, 20),
], ids=["heis-short-A", "heis-scalar-B", "plan-long-B", "chain-short-A", "thm3-short-A"])
def test_schedule_rejects_points_of_wrong_length(build):
    with pytest.raises(DomainError, match="coordinates"):
        build()


@pytest.mark.parametrize("build", [
    lambda: heis_exact_schedule((0.0, math.nan, 0.0), (0.0, 0.0, 1.0), 0.2, 0.0),
    lambda: plan_triangular(lambda x: x, (0.0, 0.0, 0.0), (0.0, math.inf, 0.0)),
    lambda: chain_schedule(TriangularSpec((lambda x: x, lambda x1, w: x1), RHO, (0.0, 0.0)),
                           (0.0,) * 5, (0.5, -0.3, 0.4, 0.7, math.nan), 20),
], ids=["heis-nan-A", "plan-inf-B", "chain-nan-B"])
def test_schedule_rejects_nonfinite_points(build):
    with pytest.raises(DomainError, match="finite numeric coordinates"):
        build()


def test_heis_exact_schedule_takes_a_numpy_seed():
    A, B = (0.0, 0.0, 0.0), (0.1, 0.4, 1.0)
    want = heis_exact_schedule(A, B, 0.2, 0.05)
    assert heis_exact_schedule(A, B, 0.2, np.float64(0.05)) == want


# ---------------------------------------------------------------------------
# planners

def test_plan_triangular_identity_f():
    rng = np.random.default_rng(2)
    for _ in range(30):
        A = rng.uniform(-1, 1, 3)
        B = rng.uniform(-1, 1, 3)
        u1, u2 = plan_triangular(lambda x: x, A, B)
        # closed-form endpoint of the hysteresis-free triangular flow
        x = antiderivative(u1, float(A[0]))
        assert x.final_value() == pytest.approx(float(B[0]), abs=1e-9)
        y = float(A[1])
        z = float(A[2])
        pts = u1.grid.points
        for (t0, t1), a in zip(zip(pts, pts[1:]), u2.values):
            y += a * (t1 - t0)
            z += a * 0.5 * (x(t0) + x(t1)) * (t1 - t0)  # trapezoid exact: x affine
        assert y == pytest.approx(float(B[1]), abs=1e-9)
        assert z == pytest.approx(float(B[2]), abs=1e-9)


def test_plan_triangular_constant_f():
    # f = 1 forces dz = dy; consistent targets plan, inconsistent ones fail
    u1, u2 = plan_triangular(lambda x: 1.0, (0.0, 0.0, 0.0), (0.5, 0.8, 0.8))
    assert u2.values[0] == u2.values[1]
    with pytest.raises(DomainError):
        plan_triangular(lambda x: 1.0, (0.0, 0.0, 0.0), (0.5, 0.8, 0.2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_plan_triangular_f_without_finite_leg_integrals_is_a_domain_error(bad):
    # a NaN integral fails every det test and the consistency test alike, so
    # the planner fell back to u2 = dy/2 on both legs and returned that plan
    with pytest.raises(DomainError, match="finite integral"):
        plan_triangular(lambda x: np.full_like(x, bad), (0.0, 0.0, 0.0), (0.5, 0.3, 0.2))
    # f not finite below x = -0.5: the first three (p, q) reach there, and
    # the plan takes the fourth, 1 and -0.5, where it is
    u1, u2 = plan_triangular(lambda x: np.where(x < -0.5, bad, 1.0 + x), (0.0, 0.0, 0.0),
                             (0.5, 0.3, 0.2))
    assert u1.values == (1.0, -1.5, 1.0) and all(map(math.isfinite, u2.values))


def test_plan_triangular_f_of_wrong_shape_is_a_domain_error():
    with pytest.raises(DomainError, match=r"shape \(2,\)"):
        plan_triangular(lambda x: (1.0, 2.0), (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))


def test_plan_triangular_reversal_structure():
    # three legs, both interior knots genuine slope reversals
    u1, _ = plan_triangular(np.sin, (0.2, 0.0, 0.0), (0.2, 0.3, -0.1))
    s = u1.values
    assert s[0] > 0 > s[1] and s[2] > 0


# ---------------------------------------------------------------------------
# thm3 schedule structure (its endpoint behavior is covered in dynamics tests)

def test_thm3_schedule_phases():
    ubar = plan_triangular(lambda x: x, (0.0, 0.0, 0.0), (0.4, -0.2, 0.3))
    sched = thm3_schedule(ubar, (0.0, 0.0, 0.0), RHO, 0.1, 20)
    T = ubar[0].horizon
    u1, u2 = sched
    # align [0, 1] in two halves, replay [1, 1 + T], adjust [1 + T, 2 + T]
    assert u1.horizon == u2.horizon == pytest.approx(1.0 + T + 1.0)
    assert u2.grid.points == (0.0, 0.5, 1.0) + tuple(1.0 + t for t in ubar[1].grid.points[1:]) + (u2.horizon,)
    assert {0.5, 1.0, 1.0 + T} <= set(u1.grid.points)
    # u2 is silent outside the replay leg, and replays ubar's u2 on it
    assert u2.values == (0.0, 0.0) + ubar[1].values + (0.0,)


@pytest.mark.parametrize("u2b", [
    StepSignal(TimeGrid((0.0, 2.0)), (1.0,)),       # ends before the reference u1
    StepSignal(TimeGrid((0.5, 3.0)), (1.0,)),       # does not start at 0
    StepSignal(TimeGrid((0.0, 3.0 + 1e-10)), (1.0,)),  # ends a sliver past KNOT_TOL
], ids=["other-horizon", "late-start", "sliver-past-end"])
def test_thm3_schedule_rejects_reference_off_its_leg(u2b):
    u1b, _ = plan_triangular(lambda x: x, (0.0, 0.0, 0.0), (0.4, -0.2, 0.3))
    with pytest.raises(DomainError, match=r"on \[0, d"):
        thm3_schedule((u1b, u2b), (0.0, 0.0, 0.0), RHO, 0.1, 20)
