"""Named, reproducible scenario runners.

Each experiment binds constructions + dynamics into a pass/fail check with a
metric table; verdicts depend only on the declared tolerances, and runs are
deterministic given the same params.  The randomized ones take explicit seeds
and draw from random.Random(seed): their rows differ from those of earlier
commits (numpy's default_rng), their verdicts do not.

EXPERIMENTS is the registry: an experiment's parameters are the keyword
defaults of its `_exp_*` function, and every value, from the API or the CLI,
goes through parse_param (one rule per name).
"""

from __future__ import annotations

import json
import math
import numbers
import platform
import random
import time
from dataclasses import dataclass
from itertools import accumulate

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
_ZETA_KNOTS = 6  # of each random input of bank_vs_truncated


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
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
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


def _decreasing(rows, key, by) -> bool:
    """Whether row[key] strictly falls as row[by] grows: the rows are read in
    increasing order of `by`, whatever order the sweep was listed in."""
    errs = [r[key] for r in sorted(rows, key=lambda r: r[by])]
    return all(a > b for a, b in zip(errs, errs[1:]))


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
    ubars = (_fig3_ubar(), StepSignal(TimeGrid(FIG3_GRID), (-1.0, 0.5, 2.0, 1.0)))
    w0s = (FIG3_W0, -1.0)
    sysf = heisenberg_fields()
    z0 = (0.0, 0.0, 0.0)
    T = ubars[0].horizon
    ref = integrate_plain(sysf, ubars, z0, step=step)
    ts = np.linspace(0.0, T, int(round(T / step)) + 1)
    ref_s = ref.sample(ts)
    trajs = [integrate_play_controls(sysf, [build_vk(u, w0, rho, ki) for u, w0 in zip(ubars, w0s)],
                                     w0s, rho, z0, step=step) for ki in k]
    # field bound on the (inflated) hull of all sampled states
    M_prime = 1.1 * math.sqrt(1.0 + max(np.abs(tr.states[:, 0]).max() for tr in [ref, *trajs]) ** 2)
    M = max(abs(v) for u, w0 in zip(ubars, w0s) for v in (*u.values, w0))
    rows = []
    for ki, traj in zip(k, trajs):
        gap = float(np.linalg.norm(traj.sample(ts) - ref_s, axis=1).max())
        C_k = M_prime * sum(l1_distance(build_uk(u, w0, ki), u) for u, w0 in zip(ubars, w0s))
        bound = gronwall_bound(C_k, 2.0, M, HEIS_LIPSCHITZ, T)
        rows.append({"k": ki, "sup_gap": gap, "C_k": C_k, "gronwall_bound": bound})
    gaps = [r["sup_gap"] for r in sorted(rows, key=lambda r: r["k"])]
    verdict = (
        _decreasing(rows, "sup_gap", "k")
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


def _exp_thm3_convergence(*, j=(10, 20, 40), rho=DEFAULT_RHO, step=1e-3, seed=7):
    rng = random.Random(seed)
    cases = {"id": (lambda x: x, 1.0), "sin": (np.sin, 1.0)}
    rows = []
    for name, (f, L) in cases.items():
        A = tuple([rng.uniform(-1.0, 1.0) for _ in range(3)])
        B = tuple([rng.uniform(-1.0, 1.0) for _ in range(3)])
        w0 = A[0] + rng.uniform(-rho, rho)
        ubar = plan_triangular(f, A, B)
        spec = TriangularSpec((f,), rho, (w0,))
        # Theorem 3 bounds ez by L * T * max|u2bar| * max|xbar'| / j
        scale = L * ubar[0].horizon * max(map(abs, ubar[1].values)) * max(map(abs, ubar[0].values))
        for ji in j:
            sched = thm3_schedule(ubar, A, rho, w0, ji)
            traj = integrate_play_state(spec, sched, A, step=step)
            ex, ey, ez = (abs(float(c)) for c in traj.final_state - B)
            rows.append({"f": name, "j": ji, "ex": ex, "ey": ey, "ez": ez, "bound": scale / ji})
    within = all(r["ex"] < 1e-8 and r["ey"] < 1e-8 and r["ez"] <= r["bound"] for r in rows)
    falls = all(_decreasing([r for r in rows if r["f"] == name], "ez", "j") for name in cases)
    return rows, within and falls


def _exp_heis_exact(*, cases=20, rho=DEFAULT_RHO, step=1e-3, seed=11):
    rng = random.Random(seed)
    rows = []
    for c in range(cases):
        A = tuple([rng.uniform(-1.0, 1.0) for _ in range(3)])
        B = tuple([rng.uniform(-1.0, 1.0) for _ in range(3)])
        w0 = A[0] + rng.uniform(-rho, rho)
        sched = heis_exact_schedule(A, B, rho, w0)
        spec = TriangularSpec((lambda x: x,), rho, (w0,))
        traj = integrate_play_state(spec, sched, A, step=step)
        err = float(np.abs(traj.final_state - B).max())
        rows.append({"case": c, "endpoint_error": err})
    verdict = all(r["endpoint_error"] < 1e-8 for r in rows)
    return rows, verdict


def demo_switching_spec() -> SwitchingSpec:
    """Planar two-axis scenario with per-axis field switching: field i is the
    constant that the relay on axis i picks by its output, +1 or -1."""
    fields = ({1: (1.0, 0.0), -1: (1.0, 0.5)}, {1: (0.0, 1.0), -1: (0.5, 1.0)})
    table = {(s1, s2): FieldSet(2, 2, tuple((lambda z, v=g[s]: v) for g, s in zip(fields, (s1, s2))))
             for s1 in (-1, 1) for s2 in (-1, 1)}
    return SwitchingSpec(xi=((1.0, 0.0), (0.0, 1.0)), eta=0.3, field_table=table)


# hand-computed event script for the demo scenario (constant fields, affine legs)
SWITCHING_EXPECTED = (
    (0.8, "axis1", 1, -1),
    (1.7, "axis2", 1, -1),
    (2.95, "axis1", -1, 1),
)


def _exp_switching_demo(*, step=1e-3):
    spec = demo_switching_spec()
    grid = TimeGrid((0.0, 1.0, 2.0, 4.0))
    controls = (StepSignal(grid, (-1.0, 0.0, 1.0)), StepSignal(grid, (0.0, -1.0, 0.0)))
    runs = [integrate_switching(spec, controls, (0.5, 0.5), (1, 1), step=h).events
            for h in (step, step / 2.0)]
    rows = [{"event": idx, "time": ev.time, "operator": ev.operator, "expected_time": t_exp,
             "halving_shift": abs(ev.time - ev_half.time)}
            for idx, (ev, ev_half, (t_exp, *_)) in enumerate(zip(*runs, SWITCHING_EXPECTED))]
    # both runs switch as scripted, and an oscillation confined to the dead band switches nothing
    script = [e[1:] for e in SWITCHING_EXPECTED]
    scripted = all([(ev.operator, ev.old, ev.new) for ev in run] == script for run in runs)
    grid = TimeGrid((0.0, 1.0, 2.0, 3.0, 4.0))
    osc = (StepSignal(grid, (0.25, -0.25, 0.25, -0.25)), StepSignal(grid, (0.0,) * 4))
    quiet = not integrate_switching(spec, osc, (0.0, 0.0), (1, 1), step=step).events
    timed = all(abs(r["time"] - r["expected_time"]) < 1e-9 and r["halving_shift"] < 1e-9 for r in rows)
    return rows, timed and scripted and quiet


def _random_zeta(rng):
    ts = accumulate([rng.uniform(0.3, 1.0) for _ in range(_ZETA_KNOTS - 1)], initial=0.0)
    vs = [rng.uniform(-1.2, 1.2) for _ in range(_ZETA_KNOTS)]
    return PolylineSignal(tuple(zip(ts, vs)))


def _exp_bank_vs_truncated(*, k=(4, 16, 64), cases=100, seed=3):
    rows, staircase = [], []
    for ki in k:
        rng = random.Random(seed + ki)
        gaps = []
        for zeta in (_random_zeta(rng) for _ in range(cases)):
            # the staircase bank co-seeded with the truncated play
            n_plus = max(0, min(ki, math.ceil(ki * zeta.knots[0][1])))
            wk, _, final = bank_trace(RelayBank.staircase(ki, n_plus), zeta)
            gaps.append(sup_distance(wk, truncated_play_apply(zeta, 2.0 * n_plus / ki - 1.0)))
            staircase.append(final.is_staircase())
        rows.append({"k": ki, "max_gap": max(gaps), "budget": 2.0 / ki})
    # a rising sweep past all upper thresholds of the k=4 bank crosses them in order
    sweep = PolylineSignal(((0.0, -1.25), (1.0, 1.25)))
    _, events, _ = bank_trace(RelayBank.staircase(4, 0), sweep)
    rises = len(events) == 4 and all(
        abs(sweep(e.time) - c) < 1e-12 for e, c in zip(events, (0.25, 0.5, 0.75, 1.0)))
    within = all(r["max_gap"] <= r["budget"] + 1e-12 for r in rows)
    return rows, within and all(staircase) and rises


def _exp_chain_demo(*, j=(10, 20, 40), rho=DEFAULT_RHO, step=1e-3):
    f2 = lambda x1: x1
    f3 = lambda x1, x2: x1 + x2
    A = (0.0, 0.0, 0.0, 0.0, 0.0)
    B = (0.5, -0.3, 0.4, 0.7, -0.6)
    spec = TriangularSpec((f2, f3), rho, (A[0], A[1]))
    rows = []
    for ji in j:
        sched = chain_schedule(spec, A, B, ji)
        traj = integrate_play_state(spec, sched, A, step=step)
        err = np.abs(traj.final_state - np.asarray(B))
        rows.append({"j": ji, **dict(zip(("ex1", "ex2", "ex3", "ey4", "ey5"), err.tolist()))})
    exact = all(r[key] < 1e-8 for r in rows for key in ("ex1", "ex2", "ex3"))
    return rows, exact and _decreasing(rows, "ey4", "j") and _decreasing(rows, "ey5", "j")


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
