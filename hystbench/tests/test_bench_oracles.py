"""The benchmark's independent checks, on cases small enough to work by hand."""

from types import SimpleNamespace

import numpy as np
import pytest

import oracles


def step(points, values):
    return SimpleNamespace(grid=SimpleNamespace(points=tuple(points)), values=tuple(values))


def poly(knots):
    return SimpleNamespace(knots=tuple(knots))


def dense(s, ts):
    """Brute-force evaluation (half-open pieces) for comparison."""
    b, left, slope = oracles.pa_arrays(s)
    j = np.clip(np.searchsorted(b, ts, side="right") - 1, 0, len(left) - 1)
    return left[j] + slope[j] * (ts - b[j])


def test_hand_computed_step_minus_polyline():
    a = step((0.0, 1.0, 2.0), (0.0, 2.0))
    b = poly(((0.0, 0.0), (2.0, 2.0)))
    assert oracles.l1_distance(a, b) == pytest.approx(1.0, abs=1e-15)
    # sup is the one-sided limit at t=1-: |0 - 1|
    assert oracles.sup_distance(a, b) == pytest.approx(1.0, abs=1e-15)


def test_l1_splits_at_the_sign_change():
    a = poly(((0.0, -1.0), (2.0, 1.0)))
    zero = step((0.0, 2.0), (0.0,))
    assert oracles.l1_distance(a, zero) == pytest.approx(1.0, abs=1e-15)
    assert oracles.sup_distance(a, zero) == pytest.approx(1.0, abs=1e-15)


def test_closed_forms_agree_with_dense_sampling():
    rng = np.random.default_rng(5)
    t1 = np.concatenate([[0.0], np.sort(rng.uniform(0, 3, 7)), [3.0]])
    t2 = np.concatenate([[0.0], np.sort(rng.uniform(0, 3, 5)), [3.0]])
    a = poly(zip(t1, rng.normal(size=len(t1))))
    b = step(t2, rng.normal(size=len(t2) - 1))
    ts = np.linspace(0.0, 3.0, 300001)
    d = np.abs(dense(a, ts) - dense(b, ts))
    assert oracles.l1_distance(a, b) == pytest.approx(np.trapezoid(d, ts), abs=1e-4)
    assert oracles.sup_distance(a, b) >= d.max() - 1e-12
    assert oracles.sup_distance(a, b) == pytest.approx(d.max(), abs=1e-4)


def test_difference_carries_coefficients_and_slopes():
    a = poly(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0)))
    b = step((0.0, 0.5, 2.0), (1.0, 3.0))
    grid, left, slope = oracles.difference(a, b, 2.0, 0.5)
    assert grid.tolist() == [0.0, 0.5, 1.0, 2.0]
    assert left.tolist() == [0.5, 2.5, 3.5]
    assert slope.tolist() == [2.0, 2.0, -2.0]


def test_reversal_error_of_the_fig5_polyline():
    knots = ((0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 0.5), (4.0, 2.5))
    # reversals at t=1 (slope 1 -> -1) and t=2 (-1 -> 0.5); none at t=3
    assert oracles.reversal_error(knots, 10) == pytest.approx(0.1)
    assert oracles.reversal_error(((0.0, 0.0), (1.0, 1.0), (2.0, 3.0)), 4) == 0.0


def test_play_properties():
    u = poly(((0.0, 0.0), (1.0, 1.0), (2.0, 0.5)))
    good = poly(((0.0, 0.0), (0.2, 0.0), (1.0, 0.8), (1.8, 0.8), (2.0, 0.7)))
    assert oracles.play_properties_hold(u, good, 0.0, 0.2)
    # leaves the strip
    assert not oracles.play_properties_hold(u, poly(((0.0, 0.0), (2.0, 0.0))), 0.0, 0.2)
    # moves while strictly inside the strip
    drift = poly(((0.0, 0.0), (0.2, 0.05), (1.0, 0.8), (1.8, 0.8), (2.0, 0.7)))
    assert not oracles.play_properties_hold(u, drift, 0.0, 0.2)


def test_bank_thresholds_and_staircase():
    lo, hi = oracles.bank_thresholds(4)
    assert lo.tolist() == [-0.75, -0.5, -0.25, 0.0]
    assert hi.tolist() == [0.25, 0.5, 0.75, 1.0]
    assert oracles.is_staircase([1, 1, -1, -1])
    assert not oracles.is_staircase([1, -1, 1, -1])


def test_bank_events_on_thresholds():
    zeta = poly(((0.0, -1.25), (1.0, 1.25)))
    ev = [SimpleNamespace(time=(0.25 * i + 1.25) / 2.5, index=i, new=1) for i in range(1, 5)]
    assert oracles.bank_events_on_thresholds(zeta, ev, 4)
    ev[2] = SimpleNamespace(time=0.6, index=3, new=1)
    assert not oracles.bank_events_on_thresholds(zeta, ev, 4)


def test_switching_interval_reproduces_the_hand_computed_demo():
    fields = ({1: (1.0, 0.0), -1: (1.0, 0.5)}, {1: (0.0, 1.0), -1: (0.5, 1.0)})
    xi = ((1.0, 0.0), (0.0, 1.0))
    thr = ((-0.3, 0.3), (-0.3, 0.3))
    z, s, events = (0.5, 0.5), (1, 1), []
    for (a, b), u in zip(((0.0, 1.0), (1.0, 2.0), (2.0, 4.0)), ((-1, 0), (0, -1), (1, 0))):
        ev, z, s = oracles.switching_interval(fields, xi, thr, u, z, s, a, b)
        events += ev
    assert [(i, old, new) for _, i, old, new in events] == [(0, 1, -1), (1, 1, -1), (0, -1, 1)]
    assert [t for t, *_ in events] == pytest.approx([0.8, 1.7, 2.95], abs=1e-12)


def test_bank_walk_changes_speed_at_each_switch():
    outs = [1, -1, -1, -1]  # w = -0.5
    dur, ev = oracles.bank_walk(0.0, outs, lambda w: 2.0 + w, 0.6)
    # relay 2 (hi = 0.5) switches at t = 0.5 / 1.5; then w = 0, speed 2
    assert ev == [(pytest.approx(1 / 3), 2, 1)]
    assert dur == pytest.approx(1 / 3 + 0.05)
    assert outs == [1, 1, -1, -1]
    dur, ev = oracles.bank_walk(0.6, outs, lambda w: 1.0, -0.9)
    assert [(i, new) for _, i, new in ev] == [(2, -1), (1, -1)]
    assert [t for t, *_ in ev] == pytest.approx([1.1, 1.35])
    assert dur == pytest.approx(1.5)
