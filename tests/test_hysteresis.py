"""Play, relay, bank and truncated-play operator semantics."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hystctl.hysteresis import (
    _SEED_SLACK,
    PlayState,
    RelayBank,
    RelayState,
    bank_trace,
    play_apply,
    play_update,
    saturation_prefix,
    truncated_play_apply,
)
from hystctl.signals import DomainError, PolylineSignal, sample, sup_distance


def random_polyline(rng, n_knots=8, lo=-2.0, hi=2.0):
    ts = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, n_knots - 1))])
    return PolylineSignal(tuple(zip(ts, rng.uniform(lo, hi, n_knots))))


def play_bounds(rho):
    return (lambda x: x - rho), (lambda x: x + rho)


def truncated_bounds(_rho=None):
    return (lambda x: np.clip(2.0 * x - 1.0, -1.0, 1.0),
            lambda x: np.clip(2.0 * x + 1.0, -1.0, 1.0))


def dense_oracle(u, w0, lower, upper, dt=1e-4):
    """Brute-force clamp recursion w <- min(upper(u), max(lower(u), w)) on a
    dense sampling of u that includes its knots.  u is monotone between
    samples, so the recursion is exact at every sample up to rounding."""
    ts = np.union1d(np.arange(0.0, u.horizon, dt), [t for t, _ in u.knots])
    us = sample(u, ts)
    lo, hi = lower(us), upper(us)
    w = float(w0)
    out = []
    for a, b in zip(lo, hi):
        w = min(b, max(a, w))
        out.append(w)
    return ts, np.array(out)


# ---------------------------------------------------------------------------
# play_update

def test_play_update_cases():
    assert play_update(PlayState(0.2, 0.5), 1.0).w == pytest.approx(0.8)
    assert play_update(PlayState(0.2, 0.5), 0.6).w == 0.5
    assert play_update(PlayState(1.0, 0.0), -3.0).w == pytest.approx(-2.0)


def test_play_update_confinement():
    rng = np.random.default_rng(0)
    for _ in range(200):
        rho = rng.uniform(0.0, 1.0)
        state = PlayState(rho, rng.uniform(-1, 1))
        for u in rng.uniform(-3, 3, 20):
            state = play_update(state, u)
            assert abs(u - state.w) <= rho + 1e-12


def test_play_negative_rho_rejected():
    with pytest.raises(DomainError):
        PlayState(-0.1, 0.0)


@pytest.mark.parametrize("rho", [math.nan, math.inf], ids=["nan", "inf"])
def test_play_nonfinite_rho_rejected(rho):
    with pytest.raises(DomainError):
        PlayState(rho, 0.0)
    with pytest.raises(DomainError):
        play_apply(PolylineSignal(((0.0, 0.0), (1.0, 1.0))), 0.0, rho)


@pytest.mark.parametrize("w", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_play_nonfinite_output_rejected(w):
    # play_update would carry a NaN output on unchanged
    with pytest.raises(DomainError, match="finite"):
        PlayState(0.2, w)


# ---------------------------------------------------------------------------
# play_apply

def test_play_apply_constant_input():
    u = PolylineSignal(((0.0, 1.0), (2.0, 1.0)))
    out = play_apply(u, 0.8, 0.5)
    assert all(v == 0.8 for _, v in out.knots)


def test_play_apply_sawtooth():
    # 0 -> 2 -> 0 -> 2, rho = 1: output rises to 1, stays, and closes the loop
    u = PolylineSignal(((0.0, 0.0), (1.0, 2.0), (2.0, 0.0), (3.0, 2.0)))
    w = play_apply(u, 0.0, 1.0)
    assert w(1.0) == pytest.approx(1.0)
    assert w(2.0) == pytest.approx(1.0)
    assert w(3.0) == pytest.approx(1.0)
    assert w(1.5) == pytest.approx(1.0)  # frozen inside the band


def test_play_apply_inserts_regime_knots():
    # rising from inside the band: frozen until u = w0 + rho, then dragged
    u = PolylineSignal(((0.0, 0.0), (1.0, 2.0)))
    w = play_apply(u, 0.5, 0.5)
    assert (0.5, 0.5) in w.knots  # crossing at u = 1, i.e. t = 0.5
    assert w(1.0) == pytest.approx(1.5)


def test_play_apply_seed_validation():
    u = PolylineSignal(((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(DomainError):
        play_apply(u, 1.0, 0.5)


def test_play_apply_matches_dense_oracle():
    rng = np.random.default_rng(1)
    for _ in range(15):
        rho = rng.uniform(0.05, 0.8)
        u = random_polyline(rng)
        w0 = float(u.knots[0][1] + rng.uniform(-rho, rho))
        w = play_apply(u, w0, rho)
        ts, ref = dense_oracle(u, w0, *play_bounds(rho))
        assert np.abs(sample(w, ts) - ref).max() < 5e-4


# properties a-d on random polylines

def test_play_causality():
    rng = np.random.default_rng(2)
    for _ in range(50):
        rho = rng.uniform(0.1, 0.5)
        u = random_polyline(rng, n_knots=6)
        w0 = float(u.knots[0][1])
        cut = u.knots[3][0]
        head = PolylineSignal(u.knots[:4])
        tail_mod = u.knots[:4] + ((u.horizon, u.knots[-1][1] + 1.0),)
        full = play_apply(PolylineSignal(tail_mod), w0, rho)
        part = play_apply(head, w0, rho)
        ts = np.linspace(0.0, cut, 50)
        assert np.abs(sample(full, ts) - sample(part, ts)).max() < 1e-12


def test_play_rate_independence():
    rng = np.random.default_rng(3)
    for _ in range(50):
        rho = rng.uniform(0.1, 0.5)
        u = random_polyline(rng, n_knots=6)
        w0 = float(u.knots[0][1])
        # strictly increasing reparametrization of the knot times
        warp = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 2.0, len(u.knots) - 1))])
        u2 = PolylineSignal(tuple((t, v) for t, (_, v) in zip(warp, u.knots)))
        w1 = play_apply(u, w0, rho)
        w2 = play_apply(u2, w0, rho)
        for (t1, _), (t2, _) in zip(u.knots, u2.knots):
            assert abs(w1(t1) - w2(t2)) < 1e-12


def test_play_semigroup():
    rng = np.random.default_rng(4)
    for _ in range(50):
        rho = rng.uniform(0.1, 0.5)
        u = random_polyline(rng, n_knots=7)
        w0 = float(u.knots[0][1])
        w = play_apply(u, w0, rho)
        tau = u.knots[3][0]
        tail = PolylineSignal(u.knots[3:])
        w_tail = play_apply(tail, w(tau), rho)
        for t, _ in u.knots[3:]:
            assert abs(w(t) - w_tail(t)) < 1e-12


def test_play_nonexpansiveness():
    rng = np.random.default_rng(5)
    for _ in range(50):
        rho = rng.uniform(0.1, 0.5)
        ts = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, 6))])
        u = PolylineSignal(tuple(zip(ts, rng.uniform(-2, 2, 7))))
        v = PolylineSignal(tuple(zip(ts, rng.uniform(-2, 2, 7))))
        w0u = float(u.knots[0][1] + rng.uniform(-rho, rho))
        w0v = float(v.knots[0][1] + rng.uniform(-rho, rho))
        gap = sup_distance(play_apply(u, w0u, rho), play_apply(v, w0v, rho))
        assert gap <= max(sup_distance(u, v), abs(w0u - w0v)) + 1e-12


# ---------------------------------------------------------------------------
# relays

def relay_trace(lo, hi, out, *knots):
    """bank_trace of the one-relay bank along the polyline through knots."""
    return bank_trace(RelayBank((RelayState(lo, hi, out),)), PolylineSignal(knots))


def test_relay_switch_down():
    _, events, final = relay_trace(-0.5, 0.5, 1, (0.0, 0.0), (1.0, -0.6))
    assert final.relays[0].out == -1
    assert [(e.index, e.old, e.new) for e in events] == [(1, 1, -1)]
    assert abs(events[0].time - 0.5 / 0.6) < 1e-15


def test_relay_no_switch_up_direction():
    _, events, final = relay_trace(-0.5, 0.5, 1, (0.0, 0.0), (1.0, 0.9))
    assert final.relays[0].out == 1 and not events


def test_relay_strict_threshold():
    _, events, final = relay_trace(-0.5, 0.5, -1, (0.0, 0.4), (1.0, 0.5))
    assert final.relays[0].out == -1 and not events  # touching is not crossing


def test_relay_inconsistent_start():
    with pytest.raises(DomainError):
        relay_trace(-0.5, 0.5, 1, (0.0, -0.9), (1.0, 0.0))


def test_relay_switch_count_bound():
    rng = np.random.default_rng(6)
    for _ in range(30):
        lo, width = rng.uniform(-1, 0), rng.uniform(0.2, 1.0)
        z = random_polyline(rng, n_knots=10)
        relay = RelayState(lo, lo + width, 1 if z.knots[0][1] >= lo else -1)
        _, events, _ = bank_trace(RelayBank((relay,)), z)
        tv = sum(abs(b[1] - a[1]) for a, b in zip(z.knots, z.knots[1:]))
        assert len(events) <= math.ceil(tv / width) + 1


@pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (0.0, math.nan),
                                    (-math.inf, 0.0), (0.0, math.inf)])
def test_relay_nonfinite_thresholds_rejected(lo, hi):
    with pytest.raises(DomainError):
        RelayState(lo, hi, 1)


def test_relay_output_must_be_a_sign():
    with pytest.raises(DomainError, match="output"):
        RelayState(-1.0, 1.0, 0)


# ---------------------------------------------------------------------------
# relay banks

def test_bank_validation():
    with pytest.raises(DomainError):
        RelayBank(())
    for lows, highs in (((0.0, -0.5), (1.0, 1.5)), ((0.0, 0.5), (1.0, 0.8)),
                        ((0.0, 0.0), (1.0, 1.5))):
        relays = tuple(RelayState(lo, hi, 1) for lo, hi in zip(lows, highs))
        with pytest.raises(DomainError):
            RelayBank(relays)


def test_bank_thresholds():
    bank = RelayBank.staircase(4, 0)
    assert [(r.lo, r.hi) for r in bank.relays] == [
        (-0.75, 0.25), (-0.5, 0.5), (-0.25, 0.75), (0.0, 1.0)]


def test_bank_rising_sweep():
    bank = RelayBank.staircase(4, 0)
    zeta = PolylineSignal(((0.0, -1.0), (1.0, 1.0)))
    out, events, final = bank_trace(bank, zeta)
    # w_4 steps -1 -> -1/2 -> 0 -> 1/2 at crossings of 1/4, 1/2, 3/4; the
    # sweep only touches the last threshold 1 (strict), so 3 switches
    crossings = [zeta(e.time) for e in events]
    assert crossings == pytest.approx([0.25, 0.5, 0.75])
    assert out(0.0) == -1.0 and out(1.0) == 0.5
    assert final.is_staircase()


def test_bank_constant_input():
    bank = RelayBank.staircase(4, 2)
    zeta = PolylineSignal(((0.0, 0.1), (1.0, 0.1)))
    out, events, _ = bank_trace(bank, zeta)
    assert not events and out(0.5) == bank.output


def test_bank_staircase_persistence():
    rng = np.random.default_rng(7)
    for _ in range(100):
        k = int(rng.integers(1, 9))
        zeta = random_polyline(rng, n_knots=8, lo=-1.3, hi=1.3)
        z0 = zeta.knots[0][1]
        n_plus = max(0, min(k, math.ceil(k * z0)))
        _, _, final = bank_trace(RelayBank.staircase(k, n_plus), zeta)
        assert final.is_staircase()


def test_bank_oscillation_keeps_staircase():
    bank = RelayBank.make((1, -1, -1, -1))
    zeta = PolylineSignal(
        ((0.0, 0.0), (1.0, -0.7), (2.0, 0.45), (3.0, -0.7), (4.0, 0.45)))
    _, _, final = bank_trace(bank, zeta)
    assert final.is_staircase()


def test_bank_update_order_independence():
    # same-segment switch times are processed chronologically, so a shuffled
    # relay order cannot change the macroscopic output
    rng = np.random.default_rng(8)
    for _ in range(20):
        k = 6
        zeta = random_polyline(rng, n_knots=6, lo=-1.2, hi=1.2)
        n_plus = max(0, min(k, math.ceil(k * zeta.knots[0][1])))
        out, events, _ = bank_trace(RelayBank.staircase(k, n_plus), zeta)
        order = list(range(len(events)))
        random.Random(0).shuffle(order)
        times = [events[i].time for i in order]
        assert sorted(times) == [e.time for e in events]
        ts = np.linspace(0.0, zeta.horizon, 200)
        again = bank_trace(RelayBank.staircase(k, n_plus), zeta)[0]
        assert np.abs(sample(out, ts) - sample(again, ts)).max() == 0.0


def test_bank_inconsistent_seed():
    with pytest.raises(DomainError):
        bank_trace(RelayBank.staircase(4, 4), PolylineSignal(((0.0, -2.0), (1.0, 0.0))))


def test_bank_consistency_rejects_nan():
    # a NaN input is consistent with no relay output, in a bank as for one relay
    assert not RelayBank((RelayState(-1.0, 1.0, 1),)).consistent_with(math.nan)
    assert not RelayBank.staircase(4, 2).consistent_with(math.nan)
    assert RelayBank((RelayState(-1.0, 1.0, 1),)).consistent_with(0.0)


def test_bank_event_at_the_horizon():
    # the last segment ends a hair past the relay's hi = 1, so the crossing
    # time 3 + 1/(1 + eps) rounds to the horizon 4: the relay is at -1 on all
    # of [0, 4) and switches at 4, which is listed and in the final bank
    zeta = PolylineSignal(((0.0, 0.0), (3.0, 0.0), (4.0, math.nextafter(1.0, 2.0))))
    out, events, final = bank_trace(RelayBank.staircase(1, 0), zeta)
    assert [(e.time, e.index, e.old, e.new) for e in events] == [(4.0, 1, -1, 1)]
    assert final.relays[0].out == 1
    assert out.grid.points == (0.0, 4.0) and out.values == (-1.0,)


def test_saturation_prefix_enters_staircase():
    # a non-staircase state becomes a staircase after the there-and-back ramp
    bank = RelayBank.make((-1, -1, 1, -1))
    zeta = PolylineSignal(((0.0, 0.1), (1.0, -0.4), (2.0, 0.3)))
    assert bank.consistent_with(zeta.knots[0][1])
    _, _, final = bank_trace(bank, saturation_prefix(zeta, lead=1.0, direction=1))
    assert final.is_staircase()


@pytest.mark.parametrize("lead", [0.0, -1.0, float("nan"), float("inf")])
def test_saturation_prefix_needs_a_positive_lead(lead):
    zeta = PolylineSignal(((0.0, 0.1), (1.0, -0.4)))
    with pytest.raises(DomainError, match="lead"):
        saturation_prefix(zeta, lead=lead)


@pytest.mark.parametrize("direction", [0, 3, -2])
def test_saturation_prefix_direction_is_a_sign(direction):
    # the ramp goes to +-1; any other peak would not saturate the bank
    zeta = PolylineSignal(((0.0, 0.1), (1.0, -0.4)))
    with pytest.raises(DomainError, match="direction"):
        saturation_prefix(zeta, direction=direction)


def test_bank_serialization():
    bank = RelayBank.staircase(2, 1)
    assert [(r.lo, r.hi, r.out) for r in bank.relays] == [(-0.5, 0.5, 1), (0.0, 1.0, -1)]


def test_bank_make_has_one_relay_per_output():
    bank = RelayBank.make((1, -1, -1))
    assert bank.k == 3
    assert [(r.lo, r.hi, r.out) for r in bank.relays] == [
        (-1.0 + i / 3, i / 3, out) for i, out in zip((1, 2, 3), (1, -1, -1))]
    with pytest.raises(DomainError):
        RelayBank.make(())


def relay_alone(relay, zeta):
    """(segment, time, new output) of every switch of one relay stepped alone
    along zeta with the strict rule, and its final output."""
    out, switches = relay.out, []
    for seg, ((t0, z0), (t1, z1)) in enumerate(zip(zeta.knots, zeta.knots[1:])):
        if out == 1 and z1 < relay.lo:
            thr = relay.lo
        elif out == -1 and z1 > relay.hi:
            thr = relay.hi
        else:
            continue
        out = -out
        switches.append((seg, t0 + ((thr - z0) / (z1 - z0)) * (t1 - t0), out))
    return switches, out


@st.composite
def banks_and_inputs(draw):
    """A bank of k <= 12 relays with consistent, not necessarily staircase,
    outputs, and an input whose knots often lie exactly on thresholds."""
    k = draw(st.integers(1, 12))
    thresholds = [-1.0 + i / k for i in range(1, k + 1)] + [i / k for i in range(1, k + 1)]
    n = draw(st.integers(2, 10))
    value = st.one_of(st.floats(-1.3, 1.3), st.sampled_from(thresholds))
    values = draw(st.lists(value, min_size=n, max_size=n))
    gaps = draw(st.lists(st.floats(0.1, 1.0), min_size=n - 1, max_size=n - 1))
    zeta = PolylineSignal(tuple(zip(np.concatenate([[0.0], np.cumsum(gaps)]), values)))
    z0 = values[0]
    ups = draw(st.lists(st.booleans(), min_size=k, max_size=k))  # inside the dead band
    outs = [1 if z0 > i / k or (z0 >= -1.0 + i / k and up) else -1
            for i, up in zip(range(1, k + 1), ups)]
    return RelayBank.make(outs), zeta


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=banks_and_inputs())
def test_bank_trace_matches_relays_stepped_alone(case):
    bank, zeta = case
    alone = [relay_alone(r, zeta) for r in bank.relays]
    # in time order within a segment; at a bit-equal time a rise lists the
    # lower index first and a fall the higher
    want = sorted((seg, t, new * i, i, new)
                  for i, (switches, _) in enumerate(alone, 1) for seg, t, new in switches)
    out, events, final = bank_trace(bank, zeta)
    assert [(e.time, e.index, e.old, e.new) for e in events] == [
        (t, i, -new, new) for _, t, _, i, new in want]
    assert [r.out for r in final.relays] == [o for _, o in alone]
    t0, T = zeta.knots[0][0], zeta.horizon
    assert out.grid.points == (t0, *sorted({t for _, t, _, _, _ in want if t0 < t < T}), T)
    total = sum(r.out for r in bank.relays)
    levels = [(total + 2 * sum(new for _, s, _, _, new in want if s <= t)) / bank.k
              for t in out.grid.points[:-2]]
    assert list(out.values) == levels + [final.output]


# ---------------------------------------------------------------------------
# truncated play

def test_truncated_state_bounds():
    zeta = PolylineSignal(((0.0, 0.0), (1.0, 0.9)))
    with pytest.raises(DomainError):
        truncated_play_apply(zeta, 1.5)  # outside [-1, 1]
    w = truncated_play_apply(zeta, 0.0)
    assert w.final_value() == pytest.approx(0.8)  # dragged by the lower branch 2*zeta - 1


def test_truncated_ascending_branch():
    zeta = PolylineSignal(((0.0, -2.0), (1.0, 2.0)))
    w = truncated_play_apply(zeta, -1.0)
    assert w(zeta(0.0) and 0.0) == -1.0
    # rides 2*zeta - 1 for zeta in [0, 1]: zeta = 0.75 at t = 0.6875
    assert w(0.6875) == pytest.approx(0.5)
    assert w(1.0) == 1.0  # saturated


def test_truncated_constant_input():
    zeta = PolylineSignal(((0.0, 0.2), (1.0, 0.2)))
    w = truncated_play_apply(zeta, 0.1)
    assert all(v == 0.1 for _, v in w.knots)


def test_truncated_seed_validation():
    zeta = PolylineSignal(((0.0, 0.9), (1.0, 0.0)))
    with pytest.raises(DomainError):
        truncated_play_apply(zeta, 0.0)  # needs w0 >= 2*0.9 - 1 = 0.8


def test_bank_approximates_truncated_play():
    rng = np.random.default_rng(9)
    for k in (4, 16, 64):
        for _ in range(25):
            zeta = random_polyline(rng, n_knots=6, lo=-1.2, hi=1.2)
            z0 = zeta.knots[0][1]
            n_plus = max(0, min(k, math.ceil(k * z0)))
            wk = bank_trace(RelayBank.staircase(k, n_plus), zeta)[0]
            tr = truncated_play_apply(zeta, 2.0 * n_plus / k - 1.0)
            assert sup_distance(wk, tr) <= 2.0 / k + 1e-12


# ---------------------------------------------------------------------------
# both front ends of the one generalized-play kernel

OPERATORS = {
    "play": (play_apply, play_bounds),
    "truncated": (lambda u, w0, rho: truncated_play_apply(u, w0), truncated_bounds),
}


@st.composite
def polylines(draw):
    n = draw(st.integers(2, 12))
    gaps = draw(st.lists(st.floats(0.1, 1.0), min_size=n - 1, max_size=n - 1))
    values = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    return PolylineSignal(tuple(zip(np.concatenate([[0.0], np.cumsum(gaps)]), values)))


@pytest.mark.parametrize("name", OPERATORS)
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(u=polylines(), frac=st.floats(0.0, 1.0), rho=st.floats(0.0, 1.0))
def test_generalized_play_properties(name, u, frac, rho):
    apply, bounds = OPERATORS[name]
    lower, upper = bounds(rho)
    u0 = u.knots[0][1]
    w0 = float(lower(u0) + frac * (upper(u0) - lower(u0)))
    w = apply(u, w0, rho)
    # matches the clamp recursion at the knots of u and dense samples between them
    ts, ref = dense_oracle(u, w0, lower, upper, dt=1e-2)
    assert np.abs(sample(w, ts) - ref).max() < 1e-9
    # every knot lies within the strip / band; consecutive knots strictly
    # inside it carry the frozen value exactly
    times, vals = np.array(w.knots).T
    lo, hi = lower(sample(u, times)), upper(sample(u, times))
    assert np.all(lo - 1e-12 <= vals) and np.all(vals <= hi + 1e-12)
    inside = (lo + 1e-9 < vals) & (vals < hi - 1e-9)
    pairs = inside[:-1] & inside[1:]
    assert np.all(vals[:-1][pairs] == vals[1:][pairs])


def shifted(zeta, c):
    return PolylineSignal(tuple((t, v + c) for t, v in zeta.knots))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(u=polylines(), frac=st.floats(0.0, 1.0), rho=st.floats(0.0, 1.0), c=st.floats(-1e3, 1e3))
def test_play_commutes_with_a_shift(u, frac, rho, c):
    # the play sees only u - w: shifting input and seed by c shifts the output
    u0 = u.knots[0][1]
    w0 = u0 - rho + frac * 2.0 * rho
    moved = play_apply(shifted(u, c), w0 + c, rho)
    assert sup_distance(moved, shifted(play_apply(u, w0, rho), c)) <= 16 * math.ulp(abs(c) + 4.0)


MARGIN = 1e-3  # least distance from an input knot to a threshold


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data(), c=st.floats(-1e3, 1e3))
def test_bank_trace_commutes_with_a_shift(data, c):
    # thresholds and input shifted by c: the same switches, at times that
    # move only by the rounding of the shifted values, about ulp(c) / MARGIN
    k = data.draw(st.integers(1, 12))
    thresholds = [-1.0 + i / k for i in range(1, k + 1)] + [i / k for i in range(1, k + 1)]
    value = st.floats(-1.3, 1.3).filter(lambda v: min(abs(v - x) for x in thresholds) > MARGIN)
    n = data.draw(st.integers(2, 10))
    values = data.draw(st.lists(value, min_size=n, max_size=n))
    gaps = data.draw(st.lists(st.floats(0.1, 1.0), min_size=n - 1, max_size=n - 1))
    zeta = PolylineSignal(tuple(zip(np.concatenate([[0.0], np.cumsum(gaps)]), values)))
    outs = [1 if values[0] > i / k or (values[0] >= -1.0 + i / k and up) else -1
            for i, up in zip(range(1, k + 1), data.draw(st.lists(st.booleans(), min_size=k, max_size=k)))]
    bank = RelayBank.make(outs)
    moved = RelayBank(tuple(RelayState(r.lo + c, r.hi + c, r.out) for r in bank.relays))
    out, events, final = bank_trace(bank, zeta)
    out_c, events_c, final_c = bank_trace(moved, shifted(zeta, c))
    assert [(e.index, e.new) for e in events_c] == [(e.index, e.new) for e in events]
    bound = 4 * math.ulp(abs(c) + 2.0) / MARGIN
    assert all(abs(ec.time - e.time) <= bound for ec, e in zip(events_c, events))
    assert out_c.values == out.values
    assert [r.out for r in final_c.relays] == [r.out for r in final.relays]


def test_truncated_crossing_knot_carries_frozen_value():
    # frozen at 0.1 until 2*zeta - 1 reaches it at zeta = 0.55
    w = truncated_play_apply(PolylineSignal(((0.0, 0.0), (1.0, 1.0))), 0.1)
    assert (0.55, 0.1) in w.knots


def test_play_segment_starting_on_boundary_adds_no_crossing_knot():
    # (u0 - rho) + rho rounds above u0 here, so a crossing test in input space
    # (u0 < w + rho) would add a knot just after t = 0
    u0, rho = 0.9, 0.3
    assert (u0 - rho) + rho > u0
    w = play_apply(PolylineSignal(((0.0, u0), (1.0, 2.0))), u0 - rho, rho)
    assert w.knots == ((0.0, u0 - rho), (1.0, 2.0 - rho))


@pytest.mark.parametrize("name", OPERATORS)
def test_seed_slack_snaps_and_far_seed_raises(name):
    apply, bounds = OPERATORS[name]
    rho = 0.2
    u = PolylineSignal(((0.0, 0.9), (1.0, 0.0)))
    lo = float(bounds(rho)[0](0.9))
    w = apply(u, lo - 0.5 * _SEED_SLACK, rho)
    assert w.knots[0][1] == lo  # snapped into the strip / band
    with pytest.raises(DomainError):
        apply(u, lo - 1e-9, rho)
