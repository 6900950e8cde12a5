"""Acceptance gate: nine quantitative criteria, one pass/fail line each.

Run with `pytest -v tests/test_acceptance.py`; each criterion is a single
test, so the verbose listing is the acceptance report.  Budgets are wall-clock
seconds on commodity hardware.
"""

import math
import time

import numpy as np
import pytest

from hystctl.constructions import (
    build_uk,
    build_vj,
    build_vk,
    heisenberg_loop,
    reversal_sup_error,
)
from hystctl.dynamics import heisenberg_fields, integrate_plain
from hystctl.experiments import run_experiment
from hystctl.hysteresis import PlayState, play_apply, play_update
from hystctl.signals import (
    PolylineSignal,
    StepSignal,
    TimeGrid,
    sup_distance,
)

GRID = (0.0, 1.0, 2.0, 3.0, 4.0)
ALPHA = (1.0, -1.0, 0.5, 2.0)
W0 = 0.5
RHO = 0.2


def report(name, ok, detail, elapsed, budget):
    verdict = "pass" if ok and elapsed < budget else "fail"
    print(f"criterion {name}: {verdict} ({detail}; {elapsed:.2f}s / budget {budget}s)")
    assert ok, detail
    assert elapsed < budget, f"runtime {elapsed:.2f}s over budget {budget}s"


def test_criterion_1_surjectivity_identity():
    start = time.perf_counter()
    ubar = StepSignal(TimeGrid(GRID), ALPHA)
    worst = 0.0
    for k in (10, 20, 40):
        uk = build_uk(ubar, W0, k)
        vk = build_vk(ubar, W0, RHO, k)
        worst = max(worst, sup_distance(play_apply(vk, W0, RHO), uk))
    report("1 surjectivity identity", worst < 1e-10,
           f"max knot gap {worst:.2e} < 1e-10", time.perf_counter() - start, 1.0)


def test_criterion_2_bracket_displacement():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_xy = worst_z = 0.0
    for _ in range(100):
        alpha, beta = rng.uniform(-2.0, 2.0, 2)
        T = float(rng.uniform(0.1, 1.0))
        z0 = tuple(rng.uniform(-1.0, 1.0, 3))
        sched = heisenberg_loop(float(alpha), float(beta), T)
        traj = integrate_plain(heisenberg_fields(), sched, z0, step=1e-3)
        end = traj.final_state
        worst_xy = max(worst_xy, abs(end[0] - z0[0]), abs(end[1] - z0[1]))
        worst_z = max(worst_z, abs(end[2] - z0[2] - T * T * alpha * beta))
    report("2 bracket displacement", worst_xy < 1e-9 and worst_z < 1e-8,
           f"xy return {worst_xy:.2e} < 1e-9, dz defect {worst_z:.2e} < 1e-8",
           time.perf_counter() - start, 5.0)


def test_criterion_3_play_controls_convergence():
    start = time.perf_counter()
    rep = run_experiment("thm2_convergence", {"k": [10, 20, 40, 80], "step": 1e-3})
    gaps = [r["sup_gap"] for r in rep.rows]
    report("3 play-in-controls convergence", rep.verdict,
           f"sup gaps {['%.3e' % g for g in gaps]} strictly decreasing, "
           f"final <= 1/4 first, all <= Gronwall",
           time.perf_counter() - start, 10.0)


def test_criterion_4_density_identity():
    # the sup error equals |incoming slope at a reversal| / j; for this knot
    # set both reversals have incoming slope 1, so the values are exactly
    # 0.1, 0.05, 0.025 (the steeper non-reversal slope 2 plays no role)
    start = time.perf_counter()
    x = PolylineSignal(((0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 0.5), (4.0, 2.5)))
    sups = []
    ok = True
    for j in (10, 20, 40):
        v = build_vj(x, RHO, j)
        sup = sup_distance(play_apply(v, 0.0, RHO), x)
        sups.append(sup)
        ok &= abs(sup - reversal_sup_error(x, j)) < 1e-10
        ok &= abs(sup - 1.0 / j) < 1e-10
    report("4 density identity", ok,
           f"sup errors {['%.4f' % s for s in sups]} == 1/j",
           time.perf_counter() - start, 1.0)


def test_criterion_5_triangular_endpoints():
    start = time.perf_counter()
    rep = run_experiment("thm3_convergence", {"j": [10, 20, 40], "step": 1e-3})
    ez = {f: [r["ez"] for r in rep.rows if r["f"] == f] for f in ("id", "sin")}
    report("5 triangular endpoints", rep.verdict,
           f"x,y errors < 1e-8; z errors id={['%.2e' % e for e in ez['id']]}, "
           f"sin={['%.2e' % e for e in ez['sin']]} decreasing and within bound",
           time.perf_counter() - start, 10.0)


def test_criterion_6_exact_hysteretic_heisenberg():
    start = time.perf_counter()
    rep = run_experiment("heis_exact", {"cases": 20, "rho": 0.2, "step": 1e-3})
    worst = max(r["endpoint_error"] for r in rep.rows)
    report("6 exact hysteretic steering", rep.verdict,
           f"20 random A,B,w0: max endpoint error {worst:.2e} < 1e-8",
           time.perf_counter() - start, 10.0)


def _random_play_case(rng, n_knots=5):
    ts = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, n_knots - 1))])
    vals = rng.uniform(-2.0, 2.0, n_knots)
    rho = float(rng.uniform(0.05, 0.8))
    u = PolylineSignal(tuple(zip(ts, vals)))
    w0 = float(vals[0] + rng.uniform(-rho, rho))
    return u, w0, rho


def test_criterion_7_operator_axioms():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    failures = []

    for case in range(1000):  # confinement
        rho = float(rng.uniform(0.0, 1.0))
        state = PlayState(rho, float(rng.uniform(-1, 1)))
        for u in rng.uniform(-3, 3, 8):
            state = play_update(state, float(u))
            if abs(u - state.w) > rho + 1e-12:
                failures.append(("confinement", case))

    for case in range(1000):  # causality
        u, w0, rho = _random_play_case(rng)
        head = PolylineSignal(u.knots[:3])
        cont = PolylineSignal(u.knots[:3] + ((u.horizon, float(rng.uniform(-2, 2))),))
        wa, wb = play_apply(head, w0, rho), play_apply(cont, w0, rho)
        tcut = u.knots[2][0]
        if any(abs(wa(t) - wb(t)) > 1e-12 for t in np.linspace(0.0, tcut, 7)):
            failures.append(("causality", case))

    for case in range(1000):  # rate independence
        u, w0, rho = _random_play_case(rng)
        warp = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 2.0, len(u.knots) - 1))])
        u2 = PolylineSignal(tuple((t, v) for t, (_, v) in zip(warp, u.knots)))
        wa, wb = play_apply(u, w0, rho), play_apply(u2, w0, rho)
        if any(abs(wa(t1) - wb(t2)) > 1e-12
               for (t1, _), (t2, _) in zip(u.knots, u2.knots)):
            failures.append(("rate independence", case))

    for case in range(1000):  # semigroup
        u, w0, rho = _random_play_case(rng)
        w = play_apply(u, w0, rho)
        tau = u.knots[2][0]
        w_tail = play_apply(PolylineSignal(u.knots[2:]), w(tau), rho)
        if any(abs(w(t) - w_tail(t)) > 1e-12 for t, _ in u.knots[2:]):
            failures.append(("semigroup", case))

    for case in range(1000):  # nonexpansiveness (L = 1)
        u, w0u, rho = _random_play_case(rng)
        vals = rng.uniform(-2.0, 2.0, len(u.knots))
        v = PolylineSignal(tuple((t, x) for (t, _), x in zip(u.knots, vals)))
        w0v = float(vals[0] + rng.uniform(-rho, rho))
        gap = sup_distance(play_apply(u, w0u, rho), play_apply(v, w0v, rho))
        if gap > max(sup_distance(u, v), abs(w0u - w0v)) + 1e-12:
            failures.append(("nonexpansiveness", case))

    report("7 operator axioms", not failures,
           f"5 x 1000 randomized cases, {len(failures)} failures",
           time.perf_counter() - start, 30.0)


def test_criterion_8_bank_approximation():
    start = time.perf_counter()
    rep = run_experiment("bank_vs_truncated", {"k": [4, 16, 64], "cases": 100})
    gaps = {r["k"]: r["max_gap"] for r in rep.rows[:3]}
    report("8 bank approximation", rep.verdict,
           f"sup|w_k - truncated play| <= 2/k for k in (4,16,64): "
           f"{['%.4f' % gaps[k] for k in (4, 16, 64)]}; "
           f"rising-sweep crossings at 1/4, 1/2, 3/4, 1",
           time.perf_counter() - start, 5.0)


def test_criterion_9_switching_semantics():
    start = time.perf_counter()
    rep = run_experiment("switching_demo", {"step": 1e-3})
    times = [r["time"] for r in rep.rows if isinstance(r["event"], int)]
    report("9 switching semantics", rep.verdict,
           f"events at {['%.4f' % t for t in times]} (expected 0.8, 1.7, 2.95), "
           f"halving shifts < 1e-9, dead-band oscillation silent",
           time.perf_counter() - start, 2.0)
