"""The three workloads: seeded inputs, the operations of one pass, and the
independent check of every operation's result.

Inputs are made once per process from the seed (that is the timed set-up);
a pass runs the same operations on them every time, so every pass attempts
the same number of operations.  The program is reached only through the
`api` table, looked up at call time, so a traced run can wrap its entries.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import types

import numpy as np

import oracles


def program_api():
    """The program calls the benchmark makes, plus the types it builds inputs from."""
    from hystctl import cli, dynamics, experiments, hysteresis, signals

    return types.SimpleNamespace(
        combine=signals.combine,
        l1_distance=signals.l1_distance,
        sup_distance=signals.sup_distance,
        sample=signals.sample,
        antiderivative=signals.antiderivative,
        derivative=signals.derivative,
        play_apply=hysteresis.play_apply,
        truncated_play_apply=hysteresis.truncated_play_apply,
        bank_trace=hysteresis.bank_trace,
        integrate_switching=dynamics.integrate_switching,
        integrate_bank=dynamics.integrate_bank,
        run_experiment=experiments.run_experiment,
        cli_main=cli.main,
        StepSignal=signals.StepSignal,
        PolylineSignal=signals.PolylineSignal,
        TimeGrid=signals.TimeGrid,
        RelayBank=hysteresis.RelayBank,
        FieldSet=dynamics.FieldSet,
        SwitchingSpec=dynamics.SwitchingSpec,
        BankSpec=dynamics.BankSpec,
    )


def _counted(fn, counter):
    if counter is None:
        return fn

    def field(*args):
        counter[0] += 1
        return fn(*args)

    return field


class Workload:
    name = ""
    field_evals = None  # [count] when the workload supplies counted fields

    def ops(self):
        """[(label, thunk)] of one pass, in order."""
        raise NotImplementedError

    def check(self, results) -> list:
        """One failure message (or None) per operation of the last ops()
        list; results hold each operation's return value, or the exception
        it raised."""
        raise NotImplementedError


def _failures(results, checks):
    out = []
    for res, chk in zip(results, checks):
        if isinstance(res, Exception):
            out.append(f"raised {type(res).__name__}: {res}")
            continue
        try:
            msg = chk(res)
        except Exception as exc:  # a malformed result fails its check
            msg = f"check raised {type(exc).__name__}: {exc}"
        out.append(msg)
    return out


# ---------------------------------------------------------------------------
# paper_suite

EXPERIMENT_IDS = (
    "fig3_surjectivity",
    "thm2_convergence",
    "fig5_density",
    "thm3_convergence",
    "heis_exact",
    "switching_demo",
    "bank_vs_truncated",
    "chain_demo",
)
# the paper's Fig. 5 polyline and the demo's hand-computed switching times
FIG5_KNOTS = ((0.0, 0.0), (1.0, 1.0), (2.0, 0.0), (3.0, 0.5), (4.0, 2.5))
SWITCHING_TIMES = (0.8, 1.7, 2.95)
CLI_EXPERIMENT = "fig3_surjectivity"


class PaperSuite(Workload):
    """All eight experiments at default params plus one CLI experiment run.

    The inputs are the paper's fixed scenarios, so the seed changes nothing.
    """

    name = "paper_suite"

    def __init__(self, seed, api, out_dir, count_fields=False):
        self.api = api
        self.csv_path = os.path.join(out_dir, "cli_rows.csv")
        self.manifest_path = os.path.join(out_dir, "cli_manifest.json")
        self.argv = [CLI_EXPERIMENT, "--k", "10,20,40", "--out", self.csv_path,
                     "--manifest", self.manifest_path]

    def _cli(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.api.cli_main(self.argv)

    def ops(self):
        api = self.api
        ops = [(f"experiments.{e}", lambda e=e: api.run_experiment(e)) for e in EXPERIMENT_IDS]
        ops.append(("cli.main", self._cli))
        return ops

    def check(self, results):
        reports = dict(zip(EXPERIMENT_IDS, results))

        def verdict(extra=None):
            def chk(rep):
                if not rep.verdict:
                    return f"{rep.id} verdict fails"
                return extra(rep.rows) if extra else None
            return chk

        def fig5(rows):
            for r in rows:
                want = oracles.reversal_error(FIG5_KNOTS, r["j"])
                if abs(r["sup_error"] - want) > 1e-10:
                    return f"fig5 j={r['j']}: error {r['sup_error']} != {want}"
            return None

        def thm2(rows):
            gaps = [r["sup_gap"] for r in rows]
            if not all(a > b for a, b in zip(gaps, gaps[1:])):
                return f"thm2 gaps do not decrease: {gaps}"
            if any(r["sup_gap"] > r["gronwall_bound"] for r in rows):
                return "thm2 gap above its Gronwall bound"
            return None

        def switching(rows):
            times = [r["time"] for r in rows[: len(SWITCHING_TIMES)]]
            if len(times) != len(SWITCHING_TIMES) or any(
                abs(t - want) > 1e-9 for t, want in zip(times, SWITCHING_TIMES)
            ):
                return f"switching_demo event times {times}"
            return None

        def cli_run(code):
            if code != 0:
                return f"cli exit code {code}"
            ref = reports[CLI_EXPERIMENT]
            with open(self.csv_path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            if isinstance(ref, Exception) or len(rows) != len(ref.rows) or any(
                set(r) != set(q) or any(float(r[key]) != float(q[key]) for key in q)
                for r, q in zip(rows, ref.rows)
            ):
                return "cli CSV differs from the report rows"
            with open(self.manifest_path) as fh:
                man = json.load(fh)
            if man.get("id") != CLI_EXPERIMENT or man.get("verdict") != "pass":
                return f"cli manifest {man}"
            return None

        extras = {"fig5_density": fig5, "thm2_convergence": thm2, "switching_demo": switching}
        checks = [verdict(extras.get(e)) for e in EXPERIMENT_IDS] + [cli_run]
        return _failures(results, checks)


# ---------------------------------------------------------------------------
# long_signals

LONG_SIZES = (200, 400, 800)
LONG_T = 10.0
LONG_RHO = 0.2
LONG_SAMPLES = 200


def _times(rng, n_intervals, T):
    """n_intervals+1 increasing times from 0 to T with gaps within 3x of each other."""
    t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, n_intervals))])
    t *= T / t[-1]
    t[-1] = T
    return t


class LongSignals(Workload):
    """Random polylines and step signals of 200 to 800 knots (merged grids
    up to 1600): the signals layer and the play operators, no integrator."""

    name = "long_signals"

    def __init__(self, seed, api, out_dir=None, count_fields=False):
        self.api = api
        rng = np.random.default_rng(seed)
        self.sizes = []
        for n in LONG_SIZES:
            def poly():
                v = np.clip(np.cumsum(rng.normal(0.0, 0.3, n)), -1.5, 1.5)
                return api.PolylineSignal(tuple(zip(_times(rng, n - 1, LONG_T), v)))

            def step():
                grid = api.TimeGrid(tuple(_times(rng, n, LONG_T)))
                return api.StepSignal(grid, tuple(rng.uniform(-2.0, 2.0, n)))

            p1, p2, s1, s2 = poly(), poly(), step(), step()
            z0 = p2.knots[0][1]
            self.sizes.append(types.SimpleNamespace(
                n=n, p1=p1, p2=p2, s1=s1, s2=s2,
                ts=np.sort(rng.uniform(0.0, LONG_T, LONG_SAMPLES)),
                w0=p1.knots[0][1] - 0.5 * LONG_RHO,
                wt0=0.5 * (np.clip(2 * z0 - 1, -1, 1) + np.clip(2 * z0 + 1, -1, 1)),
                x0=0.3,
            ))

    def _size_ops(self, d):
        api, box = self.api, {}
        ca, cb = 1.0, -0.5

        def keep(key, fn):
            def op():
                box[key] = fn()
                return box[key]
            return op

        pairs = (("pp", d.p1, d.p2), ("ss", d.s1, d.s2), ("sp", d.s1, d.p1))
        ops, checks = [], []
        for tag, a, b in pairs:
            ops += [
                (f"combine_{tag}", keep(tag, lambda a=a, b=b: api.combine(a, b, ca, cb))),
                (f"l1_{tag}", lambda a=a, b=b: api.l1_distance(a, b)),
                (f"sup_{tag}", lambda a=a, b=b: api.sup_distance(a, b)),
            ]
            checks += [
                lambda r, a=a, b=b: None if oracles.combine_matches(r, a, b, ca, cb)
                else "combine differs from the merged-grid closed form",
                lambda r, a=a, b=b: None if oracles.close(r, oracles.l1_distance(a, b))
                else f"l1 {r} != {oracles.l1_distance(a, b)}",
                lambda r, a=a, b=b: None if oracles.close(r, oracles.sup_distance(a, b))
                else f"sup {r} != {oracles.sup_distance(a, b)}",
            ]
        for tag, get in (("p", lambda: d.p1), ("s", lambda: d.s1), ("pa", lambda: box["sp"])):
            ops.append((f"sample_{tag}", lambda get=get: api.sample(get(), d.ts)))
            checks.append(lambda r, get=get: None if oracles.sample_matches(get(), d.ts, r)
                          else "sample disagrees with scalar calls")
        ops += [
            ("play_apply", lambda: api.play_apply(d.p1, d.w0, LONG_RHO)),
            ("truncated_play_apply", lambda: api.truncated_play_apply(d.p2, d.wt0)),
            ("antiderivative", keep("x", lambda: api.antiderivative(d.s1, d.x0))),
            ("derivative", lambda: api.derivative(box["x"])),
        ]
        checks += [
            lambda r: None if oracles.play_properties_hold(d.p1, r, d.w0, LONG_RHO)
            else "play output leaves the strip or moves inside it",
            lambda r: None if oracles.truncated_band_holds(d.p2, r, d.wt0)
            else "truncated play output leaves its band",
            lambda r: None if oracles.cumulative_matches(r, d.s1, d.x0)
            else "antiderivative differs from the cumulative sum",
            lambda r: None if oracles.steps_equal(r, d.s1)
            else "derivative(antiderivative(s)) != s",
        ]
        return [(f"n{d.n}.{label}", fn) for label, fn in ops], checks

    def ops(self):
        self._checks = []
        ops = []
        for d in self.sizes:
            o, c = self._size_ops(d)
            ops += o
            self._checks += c
        return ops

    def check(self, results):
        return _failures(results, self._checks)


# ---------------------------------------------------------------------------
# relay_events

BANK_KS = (64, 128, 256)
ZETA_KNOTS = 400
# relay-switched plane: field i while relay i outputs +1 / -1, thresholds +-eta
SW_FIELDS = ({1: (1.0, 0.0), -1: (1.0, 0.4)}, {1: (0.0, 1.0), -1: (0.3, 1.0)})
SW_XI = ((1.0, 0.0), (0.0, 1.0))
SW_ETA = 0.25
SW_INTERVALS = 300
SW_STEP = 0.04
# relay-bank plane: axis j moves at speed 1 + w_j / 4, w_j its bank's output
IB_K = 128
IB_SWEEPS = 4
IB_STEP = 0.01
EVENT_GUARD = 1e-6


def _ib_speed(w):
    return 1.0 + 0.25 * w


class RelayEvents(Workload):
    """A long input through staircase relay banks at large k, and the two
    event-driven integrators with controls that cross thresholds often."""

    name = "relay_events"

    def __init__(self, seed, api, out_dir=None, count_fields=False):
        self.api = api
        rng = np.random.default_rng(seed)
        self.field_evals = [0] if count_fields else None
        counter = self.field_evals

        # zeta swings between alternating signs, |zeta| in [0.55, 0.85] at its
        # knots: every segment is wider than a relay's dead band (1), so it
        # switches a similar share of each bank and the event count hardly
        # depends on the seed
        t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, ZETA_KNOTS - 1))])
        swing = np.where(np.arange(ZETA_KNOTS) % 2 == 0, 1.0, -1.0)
        self.zeta = api.PolylineSignal(tuple(zip(t, swing * rng.uniform(0.55, 0.85, ZETA_KNOTS))))
        z0 = self.zeta.knots[0][1]
        self.banks = []
        for k in BANK_KS:
            n_plus = max(0, min(k, math.ceil(k * z0)))
            self.banks.append((k, api.RelayBank.staircase(k, n_plus), 2.0 * n_plus / k - 1.0))

        # switching system: every interval pushes each coordinate across the
        # threshold its relay is waiting for, and is redrawn unless each relay
        # switches exactly once, away from breakpoints and from each other;
        # so a pass has 2 * SW_INTERVALS well-separated events for any seed
        thr = ((-SW_ETA, SW_ETA),) * 2
        z, s = np.array([0.5, 0.5]), (1, 1)
        self.sw_z0, self.sw_s0 = tuple(z), s
        grid, u1, u2, self.sw_events = [0.0], [], [], []
        for _ in range(100 * SW_INTERVALS):
            if len(u1) == SW_INTERVALS:
                break
            a = grid[-1]
            b = a + rng.uniform(0.5, 0.8)
            # aim 0.1-0.4 past the awaited threshold (the fields' coupling
            # moves the end point a little; the redraw catches a miss)
            target = -np.array(s) * (SW_ETA + rng.uniform(0.1, 0.4, 2))
            u = (target - z) / (b - a)
            ev, z_b, s_b = oracles.switching_interval(SW_FIELDS, SW_XI, thr, u, z, s, a, b)
            times = [a] + [e[0] for e in ev] + [b]
            active = [thr[i][0] if s_b[i] == 1 else thr[i][1] for i in range(2)]
            if (sorted(e[1] for e in ev) != [0, 1] or min(np.diff(times)) < EVENT_GUARD
                    or min(abs(z_b - active)) < EVENT_GUARD):
                continue
            grid.append(b)
            u1.append(float(u[0]))
            u2.append(float(u[1]))
            self.sw_events += ev
            z, s = z_b, s_b
        if len(u1) < SW_INTERVALS:
            raise RuntimeError("no switching controls found for this seed")
        g = api.TimeGrid(tuple(grid))
        self.sw_controls = (api.StepSignal(g, tuple(u1)), api.StepSignal(g, tuple(u2)))

        def const(vec):
            return _counted(lambda zz: vec, counter)

        table = {
            (s1, s2): api.FieldSet(2, 2, (const(SW_FIELDS[0][s1]), const(SW_FIELDS[1][s2])))
            for s1 in (-1, 1) for s2 in (-1, 1)
        }
        self.sw_spec = api.SwitchingSpec(xi=SW_XI, eta=SW_ETA, field_table=table)

        # bank system: each axis sweeps past +-1 and back, so every sweep
        # switches the whole bank, the event count does not depend on the
        # seed and no turning point sits on a threshold; the walk is exact,
        # so it also gives the event times
        axes = []
        for _ in range(2):
            outs = [1] * (IB_K // 2) + [-1] * (IB_K - IB_K // 2)
            zj, t0, pieces, events = 0.0, 0.0, [], []
            for q in range(IB_SWEEPS):
                target = (1 if q % 2 == 0 else -1) * rng.uniform(1.02, 1.15)
                dur, ev = oracles.bank_walk(zj, outs, _ib_speed, target)
                events += [(t0 + dt, idx, new) for dt, idx, new in ev]
                pieces.append((dur, 1.0 if target > zj else -1.0))
                zj, t0 = target, t0 + dur
            axes.append((pieces, events))
        T = max(sum(d for d, _ in p) for p, _ in axes) + 0.5
        self.ib_controls, self.ib_events = [], []
        for pieces, events in axes:
            ts = np.concatenate([[0.0], np.cumsum([d for d, _ in pieces])])
            ts = np.append(ts, T)
            self.ib_controls.append(
                api.StepSignal(api.TimeGrid(tuple(ts)), tuple(u for _, u in pieces) + (0.0,))
            )
            self.ib_events.append(events)
        self.ib_controls = tuple(self.ib_controls)
        fields = (
            _counted(lambda w, zz: (_ib_speed(w), 0.0), counter),
            _counted(lambda w, zz: (0.0, _ib_speed(w)), counter),
        )
        self.ib_spec = api.BankSpec(xi=SW_XI, k=IB_K, fields=fields)
        self.ib_banks = (api.RelayBank.staircase(IB_K, IB_K // 2),) * 2

    def ops(self):
        api, ops = self.api, []
        for k, bank, _ in self.banks:
            ops.append((f"k{k}.bank_trace", lambda bank=bank: api.bank_trace(bank, self.zeta)))
        for k, _, w0 in self.banks:
            ops.append((f"k{k}.truncated_play_apply",
                        lambda w0=w0: api.truncated_play_apply(self.zeta, w0)))
        ops.append(("integrate_switching", lambda: api.integrate_switching(
            self.sw_spec, self.sw_controls, self.sw_z0, self.sw_s0, step=SW_STEP)))
        ops.append(("integrate_bank", lambda: api.integrate_bank(
            self.ib_spec, self.ib_controls, (0.0, 0.0), self.ib_banks, step=IB_STEP)))
        return ops

    def check(self, results):
        nk = len(self.banks)
        truncs = results[nk: 2 * nk]

        def bank(k, trunc):
            def chk(res):
                out, events, final = res
                if not oracles.bank_events_on_thresholds(self.zeta, events, k):
                    return f"k={k}: an event is off its relay's threshold"
                if not oracles.is_staircase([r.out for r in final.relays]):
                    return f"k={k}: final bank is not a staircase"
                if isinstance(trunc, Exception):
                    return f"k={k}: no truncated play to compare with"
                gap = oracles.sup_distance(out, trunc)
                if gap > 2.0 / k + 1e-12:
                    return f"k={k}: bank is {gap} from the truncated play (> 2/k)"
                return None
            return chk

        def trunc(w0):
            return lambda r: None if oracles.truncated_band_holds(self.zeta, r, w0) \
                else "truncated play output leaves its band"

        def switching(traj):
            got = [(e.time, e.operator, e.old, e.new) for e in traj.events]
            want = [(t, f"axis{i + 1}", old, new) for t, i, old, new in self.sw_events]
            if len(got) != len(want):
                return f"{len(got)} switching events, closed form has {len(want)}"
            for g, w in zip(got, want):
                if abs(g[0] - w[0]) > 1e-9 or g[1:] != w[1:]:
                    return f"switching event {g} != closed form {w}"
            return None

        def bank_system(traj):
            lo, hi = oracles.bank_thresholds(IB_K)
            per_axis = ([], [])
            for e in traj.events:
                axis, relay = e.operator.split(".")
                j, idx = int(axis[4:]) - 1, int(relay[5:])
                row = int(np.searchsorted(traj.times, e.time))
                thr = hi[idx - 1] if e.new == 1 else lo[idx - 1]
                if traj.times[row] != e.time or abs(traj.states[row][j] - thr) > 1e-9:
                    return f"state at {e.operator} t={e.time} is off its threshold"
                per_axis[j].append((e.time, idx, e.new))
            for j in range(2):
                want = self.ib_events[j]
                if len(per_axis[j]) != len(want) or any(
                    abs(g[0] - w[0]) > 1e-9 or g[1:] != w[1:] for g, w in zip(per_axis[j], want)
                ):
                    return f"axis {j + 1}: bank events differ from the exact walk"
            return None

        checks = [bank(k, tr) for (k, _, _), tr in zip(self.banks, truncs)]
        checks += [trunc(w0) for _, _, w0 in self.banks]
        checks += [switching, bank_system]
        return _failures(results, checks)


WORKLOADS = {w.name: w for w in (PaperSuite, LongSignals, RelayEvents)}
