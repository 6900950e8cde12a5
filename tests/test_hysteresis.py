"""Play, relay, bank and truncated-play operator semantics."""

import dataclasses
import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hystctl.hysteresis import (
    _RELAY_CAP,
    _SEED_SLACK,
    PlayState,
    RelayBank,
    RelayState,
    SwitchEvent,
    _play,
    bank_trace,
    play_apply,
    play_update,
    truncated_play_apply,
)
from hystctl.signals import (
    DomainError,
    PolylineSignal,
    StepSignal,
    TimeGrid,
    sample,
    sup_distance,
)


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
    return bank_trace(RelayBank((lo,), (hi,), (out,)), PolylineSignal(knots))


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
        relay = RelayBank((lo,), (lo + width,), (1 if z.knots[0][1] >= lo else -1,))
        _, events, _ = bank_trace(relay, z)
        tv = sum(abs(b[1] - a[1]) for a, b in zip(z.knots, z.knots[1:]))
        assert len(events) <= math.ceil(tv / width) + 1


@pytest.mark.parametrize("lo, hi", [(math.nan, 1.0), (0.0, math.nan),
                                    (-math.inf, 0.0), (0.0, math.inf),
                                    # ints past the floats, compared unconverted (converting
                                    # them is a bare OverflowError)
                                    pytest.param(0, 10**400, id="hi-int-1e400"),
                                    pytest.param(-10**400, 0, id="lo-int-minus-1e400")])
def test_relay_nonfinite_thresholds_rejected(lo, hi):
    with pytest.raises(DomainError):
        RelayBank((lo,), (hi,), (1,))


def test_relay_output_must_be_a_sign():
    with pytest.raises(DomainError, match="output"):
        RelayBank((-1.0,), (1.0,), (0,))


# ---------------------------------------------------------------------------
# relay banks

def test_bank_validation():
    with pytest.raises(DomainError):
        RelayBank((), (), ())
    for lows, highs in (((0.0, -0.5), (1.0, 1.5)), ((0.0, 0.5), (1.0, 0.8)),
                        ((0.0, 0.0), (1.0, 1.5))):
        with pytest.raises(DomainError):
            RelayBank(lows, highs, (1, 1))
    # one lo, one hi and one output per relay
    for lows, highs, outs in (((0.0,), (1.0, 1.5), (1, 1)), ((0.0, 0.5), (1.0,), (1, 1)),
                              ((0.0, 0.5), (1.0, 1.5), (1,)), ((0.0,), (1.0,), ())):
        with pytest.raises(DomainError, match="one lo, hi and output per relay"):
            RelayBank(lows, highs, outs)


def test_staircase_refuses_a_k_past_the_relay_cap():
    # refused before any tuple is built, so only the value just past the cap is tried
    with pytest.raises(DomainError, match=f"k <= {_RELAY_CAP}"):
        RelayBank.staircase(_RELAY_CAP + 1, 0)


@pytest.mark.parametrize("k,n_plus", [(4.0, 2), (4, 1.5), (4.5, 0), (np.float64(4.0), 2), ("4", 2)],
                         ids=["float-k", "float-n_plus", "fraction", "numpy-float", "str"])
def test_staircase_refuses_a_size_that_is_not_an_integer(k, n_plus):
    # a float within the range used to pass the range check and fail building (1,) * n_plus
    with pytest.raises(DomainError, match="integers"):
        RelayBank.staircase(k, n_plus)


def test_staircase_takes_numpy_integers():
    assert RelayBank.staircase(np.int64(4), np.int64(1)) == RelayBank.staircase(4, 1)


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
    assert not events and out(0.5) == sum(bank.outs) / bank.k


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


def test_bank_event_at_the_horizon():
    # the last segment ends a hair past the relay's hi = 1, so the crossing
    # time 3 + 1/(1 + eps) rounds to the horizon 4: the relay is at -1 on all
    # of [0, 4) and switches at 4, which is listed and in the final bank
    zeta = PolylineSignal(((0.0, 0.0), (3.0, 0.0), (4.0, math.nextafter(1.0, 2.0))))
    out, events, final = bank_trace(RelayBank.staircase(1, 0), zeta)
    assert [(e.time, e.index, e.old, e.new) for e in events] == [(4.0, 1, -1, 1)]
    assert final.relays[0].out == 1
    assert out.grid.points == (0.0, 4.0) and out.values == (-1.0,)


def test_bank_events_are_a_read_only_sequence_of_rows():
    # a rising sweep of the k=4 bank switches relays 1-3 at 1/4, 1/2, 3/4
    out, events, _ = bank_trace(RelayBank.staircase(4, 0), PolylineSignal(((0.0, -1.0), (1.0, 1.0))))
    rows = [(e.time, e.index, e.new) for e in events]
    assert len(events) == 3 and [(i, new) for _, i, new in rows] == [(1, 1), (2, 1), (3, 1)]
    assert events[-1] == events[2] == SwitchEvent(*rows[2]) and events[-1].old == -1
    with pytest.raises(IndexError):
        events[3]
    assert list(events[1:]) == list(events)[1:] and len(events[:0]) == 0
    assert [dataclasses.astuple(e)[:3] for e in events[::-1]] == rows[::-1]
    assert all(type(t) is float and type(i) is int and type(n) is int for t, i, n in rows)
    moved = dataclasses.replace(events[0], time=events[0].time + 1e-3)
    assert type(moved) is SwitchEvent and moved.time == rows[0][0] + 1e-3
    with pytest.raises(dataclasses.FrozenInstanceError):
        events[0].time = 0.0
    with pytest.raises(TypeError):
        events[0] = moved
    # the output is made of Python floats as well
    assert all(type(v) is float for v in out.grid.points + out.values)


def test_bank_trace_keeps_a_compact_record_per_event():
    # an event is its time, a float in a list whose floats the output's
    # breakpoints share, a 4-byte relay index and a 1-byte new output, so no
    # index past 256 is an int object of its own: a zigzag through a bank of
    # 1024 relays holds 54 bytes per event (90 when both were lists of ints)
    k = 1024
    zeta = PolylineSignal(((0.0, 0.0),) + tuple((float(q), (-1.0) ** (q + 1) * 1.1) for q in range(1, 30)))
    tracemalloc.start()
    out, events, final = bank_trace(RelayBank.staircase(k, k // 2), zeta)
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    assert len(events) == k // 2 + 28 * k and final.outs == (1,) * k
    assert held / len(events) <= 60, held / len(events)
    assert [column.typecode for column in events._columns[1:]] == ["i", "b"]
    assert [(e.index, e.new) for e in events[k // 2 - 1:k // 2 + 1]] == [(k, 1), (k, -1)]
    assert {id(t) for t in out.grid.points[1:-1]} <= {id(t) for t in events._columns[0]}


def test_bank_switches_at_a_bit_equal_time_merge():
    # a rise and a fall, each over two ulps of time: both relays switch at
    # one float time in each, so one breakpoint carries the later level
    t_up = math.nextafter(math.nextafter(1.0, 2.0), 2.0)
    t_down = math.nextafter(math.nextafter(2.0, 3.0), 3.0)
    zeta = PolylineSignal(((0.0, 0.0), (1.0, 0.0), (t_up, 1.5), (2.0, 1.5), (t_down, -1.5), (3.0, -1.5)))
    out, events, final = bank_trace(RelayBank.staircase(2, 0), zeta)
    up, down = math.nextafter(1.0, 2.0), math.nextafter(2.0, 3.0)
    assert [(e.time, e.index, e.new) for e in events] == [
        (up, 1, 1), (up, 2, 1), (down, 2, -1), (down, 1, -1)]  # walk order
    assert out.grid.points == (0.0, up, down, 3.0) and out.values == (-1.0, 1.0, -1.0)
    assert final.outs == (-1, -1)


def test_bank_switches_merge_across_a_knot():
    # the first segment ends one ulp past relay 1's hi, so its crossing rounds
    # onto the knot 1001, and the second starts one ulp below relay 2's hi,
    # so its crossing rounds onto the knot too: one breakpoint at 1001
    h = 0.5
    bank = RelayBank((-1.0, -0.9), (h, math.nextafter(math.nextafter(h, 1.0), 1.0)), (-1, -1))
    zeta = PolylineSignal(((1000.0, 0.0), (1001.0, math.nextafter(h, 1.0)), (1002.0, 1.0)))
    out, events, final = bank_trace(bank, zeta)
    assert [(e.time, e.index, e.new) for e in events] == [(1001.0, 1, 1), (1001.0, 2, 1)]
    assert out.grid.points == (1000.0, 1001.0, 1002.0) and out.values == (-1.0, 1.0)
    assert final.outs == (1, 1)


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
def banks_and_inputs(draw, max_k=12, max_knots=10):
    """A bank of k <= max_k relays with consistent, not necessarily
    staircase, outputs, and an input of at most max_knots knots that often
    lie exactly on thresholds."""
    k = draw(st.integers(1, max_k))
    thresholds = [-1.0 + i / k for i in range(1, k + 1)] + [i / k for i in range(1, k + 1)]
    n = draw(st.integers(2, max_knots))
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
    assert_matches_relays_stepped_alone(*case)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=banks_and_inputs(max_k=64, max_knots=40))
def test_large_bank_trace_matches_relays_stepped_alone(case):
    # large enough that a segment passes many relays, some of them already
    # at its end state, so the pointers scan past several indices
    assert_matches_relays_stepped_alone(*case)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=banks_and_inputs(max_k=64, max_knots=40))
@example(case=(RelayBank(np.array([-0.5, 0.0]), np.array([0.5, 1.0]), np.array([1, -1])),
               PolylineSignal(((0.0, 0.0), (1.0, 1.5), (2.0, -1.0)))))
def test_bank_trace_output_is_the_checked_step_signal(case):
    # bank_trace builds its output without StepSignal's checks, which its
    # replay makes hold: the checked build of its points and values is equal,
    # and holds Python floats, numpy scalars in the bank or not
    out, _, _ = bank_trace(*case)
    checked = StepSignal(TimeGrid(out.grid.points), out.values)
    assert out == checked
    assert {type(x) for x in out.grid.points + out.values} == {float}


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=banks_and_inputs(max_k=64, max_knots=40))
def test_bank_trace_final_bank_is_the_checked_bank(case):
    # the final bank is built without RelayBank's checks, which the walk makes
    # hold (its outputs are -1 or +1): the checked bank of its outputs is equal
    bank, zeta = case
    _, _, final = bank_trace(bank, zeta)
    assert type(final.outs) is tuple and final == RelayBank(bank.lo, bank.hi, final.outs)
    with pytest.raises(DomainError, match="-1 or \\+1"):
        RelayBank(bank.lo, bank.hi, (0,) + final.outs[1:])


def test_bank_trace_holds_one_float_per_level():
    # an input swinging back and forth revisits the bank's levels: each level
    # (total + 2c) / k is one float, shared by every piece at that level
    k = 8
    bank = RelayBank.staircase(k, 4)
    zeta = PolylineSignal(tuple((float(i), (-1.0) ** i * (0.3 + 0.1 * (i % 5))) for i in range(40)))
    out, _, _ = bank_trace(bank, zeta)
    levels = set(out.values)
    assert len(out.values) > 3 * len(levels)
    assert levels <= {(sum(bank.outs) + 2 * c) / k for c in range(-k, k + 1)}
    assert len({id(v) for v in out.values}) == len(levels)


def assert_matches_relays_stepped_alone(bank, zeta):
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
    assert list(out.values) == levels + [sum(final.outs) / final.k]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=banks_and_inputs())
def test_bank_is_its_thresholds_and_outputs(case):
    bank, zeta = case
    again = RelayBank(bank.lo, bank.hi, bank.outs)
    assert again == bank and hash(again) == hash(bank)
    assert bank.relays == tuple(RelayState(*r) for r in zip(bank.lo, bank.hi, bank.outs))
    # the final bank shares the thresholds: nothing is rebuilt per relay
    _, _, final = bank_trace(bank, zeta)
    assert final.lo is bank.lo and final.hi is bank.hi


def test_bank_fields_are_tuples():
    bank = RelayBank([-0.5, 0.0], np.array([0.5, 1.0]), [1, -1])
    assert bank == RelayBank.staircase(2, 1)
    assert all(type(v) is tuple for v in (bank.lo, bank.hi, bank.outs))


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
# the play and the truncated play, which is the play of half-width 1 driven
# by 2*zeta and clipped to [-1, 1]; the dense oracle clamps between the
# truncated band's own edges clip(2*zeta -+ 1) instead

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
    moved = RelayBank(tuple(lo + c for lo in bank.lo), tuple(hi + c for hi in bank.hi), bank.outs)
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


def test_truncated_output_has_no_knot_inside_a_run_at_a_bound():
    # the output reaches 1 at t = 2/3 and stays there: two knots, not six
    zeta = PolylineSignal(((0.0, 0.0), (1.0, 1.5), (2.0, 2.0), (3.0, 1.2), (4.0, 0.0)))
    assert truncated_play_apply(zeta, 0.0).knots == (
        (0.0, 0.0), (0.3333333333333333, 0.0), (0.6666666666666667, 1.0), (4.0, 1.0))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(u=polylines(), frac=st.floats(0.0, 1.0))
def test_truncated_play_is_the_clipped_play_without_knots_inside_runs(u, frac):
    # at every knot of the underlying play the output is clip(2 p), exactly
    # where that is -1 or +1 (a run whose inner knots are gone), and no
    # three neighbouring knots share a bound
    lower, upper = truncated_bounds()
    u0 = u.knots[0][1]
    w0 = float(lower(u0) + frac * (upper(u0) - lower(u0)))
    w = truncated_play_apply(u, w0)
    vals = [v for _, v in w.knots]
    assert not any(a == b == c in (-1.0, 1.0) for a, b, c in zip(vals, vals[1:], vals[2:]))
    times, p = np.array(play_apply(u, min(max(0.5 * w0, u0 - 0.5), u0 + 0.5), 0.5).knots).T
    ref, got = np.clip(2.0 * p, -1.0, 1.0), sample(w, times)
    assert np.array_equal(got[np.abs(ref) == 1.0], ref[np.abs(ref) == 1.0])
    assert np.abs(got - ref).max() <= 4 * math.ulp(1.0)


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


def test_end_knot_survives_a_crossing_rounded_onto_it():
    # the clip reaches -1 at zeta = 0, a time that rounds to 1.0: that knot
    # moves back one ulp, and the end knot keeps its value 2 * 0.75 - 1
    w = truncated_play_apply(PolylineSignal(((0.0, -5e16), (1.0, 0.75))), -1.0)
    assert w.knots == ((0.0, -1.0), (math.nextafter(1.0, 0.0), -1.0), (1.0, 0.5))
    # the play's edge u - rho reaches w = rho at u = 2e17, which rounds to t = 1
    w = play_apply(PolylineSignal(((0.0, 0.0), (1.0, 2e17 + 32.0))), 1e17, 1e17)
    assert w.knots == ((0.0, 1e17), (math.nextafter(1.0, 0.0), 1e17), (1.0, 1e17 + 32.0))


def test_truncated_play_near_the_float_limit():
    # 2 * zeta would overflow here; the clip meets 1 within one ulp after
    # t = 1, onto the knot there, so it moves one ulp on, as the crossing
    # before t = 1 moves one ulp back
    zeta = PolylineSignal(((0.0, 1e308), (1.0, -1.0), (2.0, 1e308)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = truncated_play_apply(zeta, 1.0)
    assert w.knots == ((0.0, 1.0), (math.nextafter(1.0, 0.0), 1.0), (1.0, -1.0),
                       (math.nextafter(1.0, 2.0), 1.0), (2.0, 1.0))


def knots_in_band(u, w, lower, upper):
    """Every knot of w within [lower, upper] of u at its time, up to the
    rounding of the values and, inside a segment of u, of the time."""
    times = u.times
    for t, v in w.knots:
        j = min(max(np.searchsorted(times, t, side="right") - 1, 0), len(times) - 2)
        (t0, u0), (t1, u1) = u.knots[j], u.knots[j + 1]
        if t in (t0, t1):
            ut, du = (u0 if t == t0 else u1), 0.0
        else:  # u at t in exact arithmetic, and how far u moves over a few ulps of t
            ut = float(Fraction(u0) + (Fraction(u1) - Fraction(u0)) * (Fraction(t) - Fraction(t0))
                       / (Fraction(t1) - Fraction(t0)))
            du = 8 * abs(u1 - u0) / (t1 - t0) * math.ulp(t1)
        eps = 4 * math.ulp(1.0 + abs(v) + abs(ut))
        assert lower(ut - du) - eps <= v <= upper(ut + du) + eps, (t, v, ut)


@st.composite
def large_start_polylines(draw):
    n = draw(st.integers(2, 8))
    gaps = draw(st.lists(st.floats(0.1, 1.0), min_size=n - 1, max_size=n - 1))
    values = [draw(st.floats(-1e17, 1e17))] + draw(st.lists(st.floats(-2.0, 2.0), min_size=n - 1, max_size=n - 1))
    return PolylineSignal(tuple(zip(np.concatenate([[0.0], np.cumsum(gaps)]), values)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(u=large_start_polylines(), frac=st.floats(0.0, 1.0), rho=st.floats(0.0, 1.0), c=st.floats(-1e3, 1e3))
@example(u=PolylineSignal(((0.0, -5e16), (1.0, 0.75))), frac=0.0, rho=1.0, c=1.0)
def test_play_operators_across_magnitudes(u, frac, rho, c):
    # a first value up to 1e17 drags the output across many ulps of [-2, 2]
    # in one segment: every knot stays in its strip or band, with no warning,
    # and the play still commutes with a shift
    u0 = u.knots[0][1]
    lower, upper = truncated_bounds()
    lo, hi = float(lower(u0)), float(upper(u0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = play_apply(u, u0 - rho + frac * 2.0 * rho, rho)
        moved = play_apply(shifted(u, c), u0 - rho + frac * 2.0 * rho + c, rho)
        tr = truncated_play_apply(u, lo + frac * (hi - lo))
    knots_in_band(u, w, *play_bounds(rho))
    knots_in_band(u, tr, lambda x: min(1.0, max(-1.0, 2.0 * x - 1.0)),
                  lambda x: min(1.0, max(-1.0, 2.0 * x + 1.0)))
    scale = max(abs(v) for _, v in u.knots) + abs(c) + 4.0
    assert sup_distance(moved, shifted(w, c)) <= 16 * math.ulp(scale)


@pytest.mark.parametrize("T", [2.0, 200.0])
def test_a_rise_that_overflows_gives_exact_outputs(T):
    # zeta's rise u1 - u0 = 2e308 overflows, so each crossing takes its
    # fraction on halved values; evaluating zeta itself is still refused
    zeta = PolylineSignal(((0.0, -1e308), (T, 1e308)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, events, _ = bank_trace(RelayBank.staircase(4, 0), zeta)
        w = truncated_play_apply(zeta, -1.0)
        p = play_apply(zeta, -9e307, 1e307)
    assert [(e.time, e.index, e.new) for e in events] == [(T / 2, i, 1) for i in (1, 2, 3, 4)]
    assert (out(T / 4), out(3 * T / 4)) == (-1.0, 1.0)
    assert w.knots == ((0.0, -1.0), (T / 2, -1.0), (math.nextafter(T / 2, T), 1.0), (T, 1.0))
    assert w(T / 4) == -1.0
    # the play starts to move where zeta - rho meets -9e307, at about T / 10
    exact = Fraction(T) * (Fraction(-9e307) + Fraction(1e307) + Fraction(1e308)) / (2 * Fraction(1e308))
    assert len(p.knots) == 3 and p.knots[1][1] == -9e307
    assert abs(p.knots[1][0] - exact) <= 4 * math.ulp(T)
    with pytest.raises(DomainError):
        zeta(0.5)


def exact_crossing(t0, v0, t1, v1, level):
    """The time an affine segment meets level, in exact rationals."""
    f = (Fraction(level) - Fraction(v0)) / (Fraction(v1) - Fraction(v0))
    return Fraction(t0) + f * (Fraction(t1) - Fraction(t0))


def huge_segment(rng):
    """(t0, t1, v0, v1): a time offset up to 1e12 and a duration from 1e-3 to
    1e3, and values from 1e-3 to 1.58e308 in size, half of them above 3e307,
    so that many rises overflow."""
    t0 = rng.choice([0.0, rng.uniform(-1e12, 1e12)])
    t1 = t0 + 10.0 ** rng.uniform(-3, 3)
    v0, v1 = (rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(rng.choice([-3, 307.5]), 308.2)
              for _ in "ab")
    return t0, t1, v0, v1


def test_crossing_times_match_exact_rationals():
    # every crossing of the play, the truncated play and bank_trace lies
    # within 4 ulps of the segment's times of the exact crossing of the same
    # float inputs; one more than that from the segment's ends is never dropped
    rng = random.Random(20261019)
    for _ in range(400):
        t0, t1, u0, u1 = huge_segment(rng)
        tol = 4 * math.ulp(max(abs(t0), abs(t1)))
        u = PolylineSignal(((t0, u0), (t1, u1)))
        # play: w frozen until the edge u + a that drags it meets it
        rho = 10.0 ** rng.uniform(-3, 307)
        w = u0 + rng.uniform(-1.0, 1.0) * rho
        a = -rho if u1 > u0 else rho
        inner = play_apply(u, w, rho).knots[1:-1]
        # the level w - a rounds like any value; halved, as the play forms it, it cannot overflow
        t = exact_crossing(t0, u0, t1, u1, 2 * Fraction(0.5 * w - 0.5 * a))
        assert all(abs(knot - t) <= tol for knot, _ in inner), (u, w, rho)
        assert len(inner) == 1 or not t0 + tol < t < t1 - tol, (u, w, rho)
        # truncated play: the clip of 2p meets -+1 where its play p meets -+0.5
        lo, hi = (min(1.0, max(-1.0, 2.0 * u0 + s)) for s in (-1.0, 1.0))
        w0 = lo + rng.uniform(0.0, 1.0) * (hi - lo)
        p = _play(u.knots, min(u0 + 0.5, max(u0 - 0.5, 0.5 * w0)), 0.5)
        crossings = [exact_crossing(pt0, p0, pt1, p1, c) for (pt0, p0), (pt1, p1) in zip(p, p[1:])
                     for c in (-0.5, 0.5) if min(p0, p1) < c < max(p0, p1)]
        p_times = {pt for pt, _ in p}
        out = [knot for knot, _ in truncated_play_apply(u, w0).knots[1:-1] if knot not in p_times]
        assert all(min((abs(knot - t) for t in crossings), default=math.inf) <= tol
                   for knot in out), (u, w0)
        assert all(min((abs(knot - t) for knot in out), default=math.inf) <= tol
                   for t in crossings if t0 + tol < t < t1 - tol), (u, w0)
        # bank: all -1 below a rise, all +1 above a fall, so each relay switches
        k = rng.choice([1, 3, 16])
        bank = RelayBank.staircase(k, 0 if u1 > u0 else k)
        thresholds = bank.hi if u1 > u0 else bank.lo
        if not (u0 <= bank.hi[0] if u1 > u0 else u0 >= bank.lo[-1]):
            continue
        _, events, _ = bank_trace(bank, u)
        crossed = [thr for thr in thresholds if min(u0, u1) < thr < max(u0, u1)]
        assert len(events) == len(crossed)
        for e in events:
            t = exact_crossing(t0, u0, t1, u1, thresholds[e.index - 1])
            assert abs(e.time - t) <= tol, (u, k)


# ---------------------------------------------------------------------------
# exact-rational references for bank_trace, the play and the truncated play

def exact_bank_events(bank, zeta):
    """bank_trace's events and final outputs in exact rationals of the same
    float inputs: on each segment every relay at -new that its end is
    strictly past switches, in the order the segment meets the thresholds.
    An event is (exact time, index, new, bound), bound being round_bound of
    its segment over the slope, in time."""
    outs, events = list(bank.outs), []
    for (t0, z0), (t1, z1) in zip(zeta.knots, zeta.knots[1:]):
        s, thr = (1, bank.hi) if z1 > z0 else (-1, bank.lo)
        slope = (Fraction(z1) - Fraction(z0)) / (Fraction(t1) - Fraction(t0))
        for i in (range(bank.k) if s == 1 else reversed(range(bank.k))):
            if outs[i] == -s and s * (z1 - thr[i]) > 0:
                outs[i] = s
                bound = round_bound(max(abs(z0), abs(z1), abs(thr[i])), slope, max(abs(t0), abs(t1)))
                events.append((exact_crossing(t0, z0, t1, z1, thr[i]), i + 1, s, bound / abs(slope)))
    return events, tuple(outs)


def exact_play_knots(u, w0, rho):
    """Knots of the play of half-width rho driven by the polyline through the
    knots u, seeded at w0 clamped into [u_0 - rho, u_0 + rho], in exact
    rationals; the truncated play is the clip to [-1, 1] of (2 zeta, w0, 1)."""
    v, rho = [(Fraction(t), Fraction(x)) for t, x in u], Fraction(rho)
    w = min(v[0][1] + rho, max(v[0][1] - rho, Fraction(w0)))
    knots = [(v[0][0], w)]
    for (ta, va), (tb, vb) in zip(v, v[1:]):
        a = -rho if vb > va else rho  # the edge V + a drags w
        if min(va, vb) + a < w < max(va, vb) + a:
            knots.append((ta + (w - a - va) / (vb - va) * (tb - ta), w))
        w = min(vb + rho, max(vb - rho, w))
        knots.append((tb, w))
    return knots


def interp(knots, t):
    """The polyline through knots at the time t, in exact rationals."""
    knots = [(Fraction(a), Fraction(b)) for a, b in knots]
    for (t0, v0), (t1, v1) in zip(knots, knots[1:]):
        if t0 <= t <= t1:
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    raise ValueError(t)


def round_bound(scale, slope, t):
    """4 (ulp(value scale) + |slope| ulp(t)), in exact rationals."""
    return 4 * (Fraction(math.ulp(scale)) + abs(slope) * Fraction(math.ulp(float(t))))


def local_slope(knots, t):
    """The steepest |slope| of the polyline through knots on a segment within
    8 ulp(t) of the time t, in exact rationals."""
    pad = 8 * Fraction(math.ulp(float(t)))
    return max(abs(Fraction(v1) - Fraction(v0)) / (Fraction(t1) - Fraction(t0))
               for (t0, v0), (t1, v1) in zip(knots, knots[1:]) if t0 - pad <= t <= t1 + pad)


@st.composite
def far_polylines(draw, offsets):
    """(zeta, offset): 2 to 6 knots from a start time up to 1e15 in size,
    1e-3 to 1e3 apart, with values within 1.6 of an offset drawn from offsets."""
    offset, t = draw(offsets), draw(st.sampled_from([0.0]) | st.floats(-1e15, 1e15))
    knots = []
    for x in draw(st.lists(st.floats(-1.6, 1.6), min_size=2, max_size=6)):
        knots.append((t, offset + x))
        t = max(t + draw(st.floats(1e-3, 1e3)), math.nextafter(t, math.inf))
    return PolylineSignal(tuple(knots)), offset


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=far_polylines(st.sampled_from([0.0]) | st.floats(-1e12, 1e12)),
       k=st.sampled_from([1, 3, 16]), free=st.lists(st.booleans(), min_size=16))
def test_bank_trace_matches_exact_rationals(case, k, free):
    # relay i has thresholds offset + (-1 + i/k, i/k) and starts consistent
    # with zeta(0) (either output inside its band): every event lies within
    # the rounding bound of its exact crossing, and every level of the step
    # output away from an event is the exact mean of the replayed outputs
    zeta, offset = case
    lo = tuple(offset + (-1.0 + i / k) for i in range(1, k + 1))
    hi = tuple(offset + i / k for i in range(1, k + 1))
    z0 = zeta.knots[0][1]
    outs = tuple(1 if z0 > h or (z0 >= low and f) else -1 for low, h, f in zip(lo, hi, free))
    bank = RelayBank(lo, hi, outs)
    out, events, final = bank_trace(bank, zeta)
    exact, outs_exact = exact_bank_events(bank, zeta)
    assert [(e.index, e.new) for e in events] == [(i, new) for _, i, new, _ in exact]
    assert final.outs == outs_exact
    for e, (t, _, _, bound) in zip(events, exact):
        assert abs(Fraction(e.time) - t) <= bound, (e, float(t))
    for a, b, level in zip(out.grid.points, out.grid.points[1:], out.values):
        mid = (Fraction(a) + Fraction(b)) / 2
        if all(abs(t - mid) > bound for t, _, _, bound in exact):
            c = sum(new for t, _, new, _ in exact if t < mid)
            assert level == float(Fraction(sum(outs) + 2 * c, k)), (a, b, level)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(case=far_polylines(st.just(0.0)), frac=st.floats(0.0, 1.0))
def test_truncated_play_matches_exact_rationals(case, frac):
    # the output and the exact clip(P_1[2 zeta]) agree within the rounding
    # bound at every knot of either, and so everywhere: both are polylines
    zeta = case[0]
    z0 = zeta.knots[0][1]
    low, high = (min(1.0, max(-1.0, 2.0 * z0 + s)) for s in (-1.0, 1.0))
    w0 = low + frac * (high - low)
    knots = truncated_play_apply(zeta, w0).knots
    play = exact_play_knots([(t, 2 * Fraction(z)) for t, z in zeta.knots], w0, 1)
    crossings = [ta + (c - va) / (vb - va) * (tb - ta) for (ta, va), (tb, vb) in zip(play, play[1:])
                 for c in (-1, 1) if min(va, vb) < c < max(va, vb)]
    scale = 2 * max(abs(v) for _, v in zeta.knots) + 1.0
    for t in [Fraction(t) for t, _ in knots] + [t for t, _ in play] + crossings:
        want = min(1, max(-1, interp(play, t)))
        bound = round_bound(scale, 2 * local_slope(zeta.knots, t), t)
        assert abs(interp(knots, t) - want) <= bound, float(t)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=far_polylines(st.sampled_from([0.0]) | st.floats(-1e12, 1e12)),
       rho=st.sampled_from([0.0]) | st.floats(0.0, 2.0) | st.floats(0.0, 1e3),
       frac=st.floats(0.0, 1.0))
def test_play_apply_matches_exact_rationals(case, rho, frac):
    # seeded anywhere in the strip, the output and the exact play of the same
    # float inputs agree within the rounding bound at every knot of either,
    # and so everywhere: both are polylines
    zeta, _ = case
    z0 = zeta.knots[0][1]
    w0 = z0 - rho + frac * (2.0 * rho)
    knots = play_apply(zeta, w0, rho).knots
    play = exact_play_knots(zeta.knots, w0, rho)
    scale = max(abs(v) for _, v in zeta.knots) + rho
    for t in [Fraction(t) for t, _ in knots] + [t for t, _ in play]:
        bound = round_bound(scale, local_slope(zeta.knots, t), t)
        assert abs(interp(knots, t) - interp(play, t)) <= bound, (float(t), zeta, w0, rho)
