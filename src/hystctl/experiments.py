"""Named, reproducible scenario runners.

Each experiment binds constructions + dynamics into a pass/fail check with a
metric table; verdicts depend only on the declared tolerances, and runs are
deterministic given the same params (randomized ones take explicit seeds).

EXPERIMENTS is the registry: an experiment's parameters are the keyword
defaults of its `_exp_*` function, and every value, from the API or the CLI,
goes through parse_param (one rule per name).
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .constructions import (
    build_uk,
    build_vj,
    build_vk,
    chain_schedule,
    heis_exact_schedule,
    plan_triangular,
    reversal_sup_error,
    thm3_schedule,
)
from .dynamics import (
    FieldSet,
    SwitchingSpec,
    TriangularSpec,
    gronwall_bound,
    heisenberg_fields,
    integrate_plain,
    integrate_play_controls,
    integrate_play_state,
    integrate_switching,
)
from .hysteresis import RelayBank, bank_trace, truncated_play_apply, play_apply
from .signals import (
    DomainError,
    PolylineSignal,
    StepSignal,
    TimeGrid,
    l1_distance,
    sup_distance,
)

# default scenario constants, shared by the table experiments
FIG3_GRID = (0.0, 1.0, 2.0, 3.0, 4.0)
FIG3_ALPHA = (1.0, -1.0, 0.5, 2.0)
FIG3_W0 = 0.5
DEFAULT_RHO = 0.2
FIG5_KNOTS = ((0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 0.5), (4.0, 2.5))
HEIS_LIPSCHITZ = 1.0  # of the Heisenberg fields g1 = d/dx, g2 = d/dy + x d/dz


@dataclass(frozen=True)
class ExperimentReport:
    id: str
    params: dict
    rows: list
    verdict: bool
    runtime: float

    def manifest(self) -> dict:
        return {
            "id": self.id,
            "version": __version__,
            "params": self.params,
            "verdict": "pass" if self.verdict else "fail",
            "runtime_seconds": self.runtime,
        }

    def to_manifest(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.manifest(), fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# parameters: one rule per name, read by run_experiment and by the CLI

def _number(value, kind, name):
    """value (a string, or a JSON or Python number) as a finite `kind`;
    DomainError for a bool, an unparsable string, a non-finite number or, for
    an int, a non-integral one."""
    try:
        if isinstance(value, (str, numbers.Real)) and not isinstance(value, bool):
            x = kind(value)
            if math.isfinite(x) and (isinstance(value, str) or x == value):
                return x
    except (ValueError, OverflowError):
        pass
    raise DomainError(f"{name} must be a finite {kind.__name__}, got {value!r}")


# name -> rule (type, bound, list?): an int must be >= its bound, a float > it
PARAMS = {
    "k": (int, 1, True),
    "j": (int, 1, True),
    "rho": (float, 0.0, False),
    "step": (float, 0.0, False),
    "w0": (float, -math.inf, False),
    "seed": (int, 0, False),
    "cases": (int, 1, False),
}


def parse_param(name: str, value, rule=None):
    """value of the experiment parameter `name` under its PARAMS rule (or under
    `rule`, for a value of that form), from a flag string ("10,20,40" for a
    list), a JSON value or a Python value.  Idempotent; DomainError otherwise."""
    kind, bound, is_list = rule or PARAMS[name]
    items = [value]
    if is_list:
        items = [s for s in value.split(",") if s.strip()] if isinstance(value, str) else value
        if not isinstance(items, (list, tuple)) or not items:
            raise DomainError(f"{name} must be a non-empty list, got {value!r}")
    xs = [_number(v, kind, name) for v in items]
    for x in xs:
        if not (x >= bound if kind is int else x > bound):
            raise DomainError(f"{name} must be {'>=' if kind is int else '>'} {bound}, got {x}")
    return xs if is_list else xs[0]


def _fig3_ubar():
    return StepSignal(TimeGrid(FIG3_GRID), FIG3_ALPHA)


# ---------------------------------------------------------------------------
# experiments

def _exp_fig3_surjectivity(*, k=(10, 20, 40), rho=DEFAULT_RHO, w0=FIG3_W0):
    ubar = _fig3_ubar()
    rows = []
    for ki in k:
        uk = build_uk(ubar, w0, ki)
        vk = build_vk(ubar, w0, rho, ki)
        gap = sup_distance(play_apply(vk, w0, rho), uk)
        rows.append({"k": ki, "knot_gap": gap, "l1_uk_ubar": l1_distance(uk, ubar)})
    verdict = all(r["knot_gap"] < 1e-10 for r in rows)
    return rows, verdict


def _exp_thm2_convergence(*, k=(10, 20, 40, 80), rho=DEFAULT_RHO, step=1e-3):
    u1bar = _fig3_ubar()
    u2bar = StepSignal(TimeGrid(FIG3_GRID), (-1.0, 0.5, 2.0, 1.0))
    w0s = (FIG3_W0, -1.0)
    sysf = heisenberg_fields()
    z0 = (0.0, 0.0, 0.0)
    T = u1bar.horizon
    ref = integrate_plain(sysf, (u1bar, u2bar), z0, step=step)
    ts = np.linspace(0.0, T, int(round(T / step)) + 1)
    ref_s = ref.sample(ts)
    rows = []
    hull_x = [np.abs(ref.states[:, 0]).max()]
    trajs = []
    for ki in k:
        v1 = build_vk(u1bar, w0s[0], rho, ki)
        v2 = build_vk(u2bar, w0s[1], rho, ki)
        traj = integrate_play_controls(sysf, (v1, v2), w0s, rho, z0, step=step)
        trajs.append((ki, traj))
        hull_x.append(np.abs(traj.states[:, 0]).max())
    # field bound on the (inflated) hull of all sampled states
    M_prime = 1.1 * math.sqrt(1.0 + max(hull_x) ** 2)
    M = max(
        max(abs(v) for v in u1bar.values),
        max(abs(v) for v in u2bar.values),
        abs(w0s[0]),
        abs(w0s[1]),
    )
    for ki, traj in trajs:
        gap = float(np.linalg.norm(traj.sample(ts) - ref_s, axis=1).max())
        C_k = M_prime * (
            l1_distance(build_uk(u1bar, w0s[0], ki), u1bar)
            + l1_distance(build_uk(u2bar, w0s[1], ki), u2bar)
        )
        bound = gronwall_bound(C_k, 2.0, M, HEIS_LIPSCHITZ, T)
        rows.append({"k": ki, "sup_gap": gap, "C_k": C_k, "gronwall_bound": bound})
    gaps = [r["sup_gap"] for r in rows]
    verdict = (
        all(a > b for a, b in zip(gaps, gaps[1:]))
        and gaps[-1] <= 0.25 * gaps[0]
        and all(r["sup_gap"] <= r["gronwall_bound"] for r in rows)
    )
    return rows, verdict


def _exp_fig5_density(*, j=(10, 20, 40), rho=DEFAULT_RHO):
    x = PolylineSignal(FIG5_KNOTS)
    rows = []
    for ji in j:
        v = build_vj(x, rho, ji)
        sup = sup_distance(play_apply(v, x.knots[0][1], rho), x)
        expected = reversal_sup_error(x, ji)
        rows.append({"j": ji, "sup_error": sup, "expected": expected})
    verdict = all(abs(r["sup_error"] - r["expected"]) < 1e-10 for r in rows)
    return rows, verdict


def _thm3_bound(u2bar, xbar_slopes, L, T, j):
    return L * T * max(abs(v) for v in u2bar.values) * max(abs(s) for s in xbar_slopes) / j


def _exp_thm3_convergence(*, j=(10, 20, 40), rho=DEFAULT_RHO, step=1e-3, seed=7):
    rng = np.random.default_rng(seed)
    cases = {"id": (lambda x: x, 1.0), "sin": (np.sin, 1.0)}
    rows = []
    verdict = True
    for name, (f, L) in cases.items():
        A = rng.uniform(-1.0, 1.0, 3)
        B = rng.uniform(-1.0, 1.0, 3)
        w0 = float(A[0] + rng.uniform(-rho, rho))
        ubar = plan_triangular(f, A, B)
        spec = TriangularSpec((f,), rho, (w0,))
        xbar_slopes = ubar[0].values
        T = ubar[0].horizon
        ez_prev = None
        for ji in j:
            sched = thm3_schedule(ubar, tuple(A), rho, w0, ji)
            traj = integrate_play_state(spec, sched, tuple(A), step=step)
            ex, ey, ez = (abs(float(c)) for c in traj.final_state - B)
            bound = _thm3_bound(ubar[1], xbar_slopes, L, T, ji)
            rows.append({"f": name, "j": ji, "ex": ex, "ey": ey, "ez": ez, "bound": bound})
            verdict &= ex < 1e-8 and ey < 1e-8 and ez <= bound
            if ez_prev is not None:
                verdict &= ez < ez_prev
            ez_prev = ez
    return rows, verdict


def _exp_heis_exact(*, cases=20, rho=DEFAULT_RHO, step=1e-3, seed=11):
    rng = np.random.default_rng(seed)
    rows = []
    for c in range(cases):
        A = rng.uniform(-1.0, 1.0, 3)
        B = rng.uniform(-1.0, 1.0, 3)
        w0 = float(A[0] + rng.uniform(-rho, rho))
        sched = heis_exact_schedule(tuple(A), tuple(B), rho, w0)
        spec = TriangularSpec((lambda x: x,), rho, (w0,))
        traj = integrate_play_state(spec, sched, tuple(A), step=step)
        err = float(np.abs(traj.final_state - B).max())
        rows.append({"case": c, "endpoint_error": err})
    verdict = all(r["endpoint_error"] < 1e-8 for r in rows)
    return rows, verdict


def demo_switching_spec() -> SwitchingSpec:
    """Planar two-axis scenario with per-axis field switching."""

    def g1(s):
        return (lambda z: (1.0, 0.0)) if s == 1 else (lambda z: (1.0, 0.5))

    def g2(s):
        return (lambda z: (0.0, 1.0)) if s == 1 else (lambda z: (0.5, 1.0))

    table = {
        (s1, s2): FieldSet(2, 2, (g1(s1), g2(s2)))
        for s1 in (-1, 1)
        for s2 in (-1, 1)
    }
    return SwitchingSpec(xi=((1.0, 0.0), (0.0, 1.0)), eta=0.3, field_table=table)


# hand-computed event script for the demo scenario (constant fields, affine legs)
SWITCHING_EXPECTED = (
    (0.8, "axis1", 1, -1),
    (1.7, "axis2", 1, -1),
    (2.95, "axis1", -1, 1),
)


def _switching_controls():
    grid = TimeGrid((0.0, 1.0, 2.0, 4.0))
    return (StepSignal(grid, (-1.0, 0.0, 1.0)), StepSignal(grid, (0.0, -1.0, 0.0)))


def _exp_switching_demo(*, step=1e-3):
    spec = demo_switching_spec()
    controls = _switching_controls()
    z0 = (0.5, 0.5)
    traj = integrate_switching(spec, controls, z0, (1, 1), step=step)
    traj_half = integrate_switching(spec, controls, z0, (1, 1), step=step / 2.0)
    rows = []
    ok = len(traj.events) == len(SWITCHING_EXPECTED)
    for idx, (t_exp, op, old, new) in enumerate(SWITCHING_EXPECTED):
        if idx >= len(traj.events):
            rows.append({"event": idx, "time": float("nan"), "operator": "missing",
                         "expected_time": t_exp, "halving_shift": float("nan")})
            continue
        ev = traj.events[idx]
        shift = abs(ev.time - traj_half.events[idx].time) if idx < len(traj_half.events) else float("nan")
        rows.append({
            "event": idx,
            "time": ev.time,
            "operator": ev.operator,
            "expected_time": t_exp,
            "halving_shift": shift,
        })
        ok &= (
            ev.operator == op
            and ev.old == old
            and ev.new == new
            and abs(ev.time - t_exp) < 1e-9
            and shift < 1e-9
        )
    # oscillation confined to the dead band produces no events
    grid = TimeGrid((0.0, 1.0, 2.0, 3.0, 4.0))
    osc = (StepSignal(grid, (0.25, -0.25, 0.25, -0.25)), StepSignal(grid, (0.0,) * 4))
    quiet = integrate_switching(spec, osc, (0.0, 0.0), (1, 1), step=step)
    ok &= len(quiet.events) == 0
    rows.append({"event": "oscillation", "time": float(len(quiet.events)),
                 "operator": "count", "expected_time": 0.0, "halving_shift": 0.0})
    return rows, ok


def _random_zeta(rng, n_knots=6):
    ts = np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 1.0, n_knots - 1))])
    vs = rng.uniform(-1.2, 1.2, n_knots)
    return PolylineSignal(tuple(zip(ts, vs)))


def _staircase_seed(zeta0: float, k: int) -> int:
    """n_plus making the staircase bank and the truncated play co-seeded."""
    return max(0, min(k, math.ceil(k * zeta0)))


def _exp_bank_vs_truncated(*, k=(4, 16, 64), cases=100, seed=3):
    rows = []
    verdict = True
    for ki in k:
        rng = np.random.default_rng(seed + ki)
        worst = 0.0
        for _ in range(cases):
            zeta = _random_zeta(rng)
            zeta0 = zeta.knots[0][1]
            n_plus = _staircase_seed(zeta0, ki)
            bank = RelayBank.staircase(ki, n_plus)
            w0 = 2.0 * n_plus / ki - 1.0
            wk, _, final = bank_trace(bank, zeta)
            tr = truncated_play_apply(zeta, w0)
            worst = max(worst, sup_distance(wk, tr))
            verdict &= final.is_staircase()
        rows.append({"k": ki, "max_gap": worst, "budget": 2.0 / ki})
        verdict &= worst <= 2.0 / ki + 1e-12
    # rising sweep past all upper thresholds of the k=4 bank
    sweep = PolylineSignal(((0.0, -1.25), (1.0, 1.25)))
    _, events, _ = bank_trace(RelayBank.staircase(4, 0), sweep)
    crossings = [sweep(e.time) for e in events]
    expected = [0.25, 0.5, 0.75, 1.0]
    verdict &= len(crossings) == 4 and all(
        abs(c - e) < 1e-12 for c, e in zip(crossings, expected)
    )
    rows.append({"k": 4, "max_gap": float(len(events)), "budget": 4.0})
    return rows, verdict


def _exp_chain_demo(*, j=(10, 20, 40), rho=DEFAULT_RHO, step=1e-3):
    f2 = lambda x1: x1
    f3 = lambda x1, x2: x1 + x2
    A = (0.0, 0.0, 0.0, 0.0, 0.0)
    B = (0.5, -0.3, 0.4, 0.7, -0.6)
    spec = TriangularSpec((f2, f3), rho, (A[0], A[1]))
    rows = []
    verdict = True
    prev4 = prev5 = None
    for ji in j:
        sched = chain_schedule(spec, A, B, ji)
        traj = integrate_play_state(spec, sched, A, step=step)
        err = np.abs(traj.final_state - np.asarray(B))
        rows.append({
            "j": ji,
            "ex1": float(err[0]), "ex2": float(err[1]), "ex3": float(err[2]),
            "ey4": float(err[3]), "ey5": float(err[4]),
        })
        verdict &= bool(err[:3].max() < 1e-8)
        if prev5 is not None:
            verdict &= err[4] < prev5 and err[3] < prev4
        prev4, prev5 = float(err[3]), float(err[4])
    return rows, verdict


EXPERIMENTS = {
    "fig3_surjectivity": _exp_fig3_surjectivity,
    "thm2_convergence": _exp_thm2_convergence,
    "fig5_density": _exp_fig5_density,
    "thm3_convergence": _exp_thm3_convergence,
    "heis_exact": _exp_heis_exact,
    "switching_demo": _exp_switching_demo,
    "bank_vs_truncated": _exp_bank_vs_truncated,
    "chain_demo": _exp_chain_demo,
}


def experiment_params(id: str) -> dict:
    """The parameters of experiment `id`, each with its (parsed) default."""
    if id not in EXPERIMENTS:
        raise DomainError(f"unknown experiment id: {id!r}")
    return {name: parse_param(name, d) for name, d in EXPERIMENTS[id].__kwdefaults__.items()}


def parse_params(id: str, params: dict) -> dict:
    """params of experiment `id`, each parsed by parse_param; DomainError for
    an unknown id or key, or a value parse_param rejects."""
    unknown = sorted(set(params) - set(experiment_params(id)))
    if unknown:
        raise DomainError(f"unknown params for {id}: {unknown}")
    return {name: parse_param(name, value) for name, value in params.items()}


def run_experiment(id: str, params: dict | None = None) -> ExperimentReport:
    """Run experiment `id` with `params` over its defaults; the report records
    every effective value."""
    resolved = {**experiment_params(id), **parse_params(id, params or {})}
    start = time.perf_counter()
    rows, verdict = EXPERIMENTS[id](**resolved)
    runtime = time.perf_counter() - start
    return ExperimentReport(id, resolved, rows, bool(verdict), runtime)
