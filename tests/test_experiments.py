"""Experiment harness: ids, verdicts, reproducibility, artifacts."""

import dataclasses
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hystctl import experiments
from hystctl.constructions import heis_exact_schedule
from hystctl.experiments import EXPERIMENTS, SWITCHING_EXPECTED, run_experiment
from hystctl.hysteresis import RelayBank, SwitchEvent
from hystctl.signals import DomainError

ALL_IDS = (
    "fig3_surjectivity",
    "thm2_convergence",
    "fig5_density",
    "thm3_convergence",
    "heis_exact",
    "switching_demo",
    "bank_vs_truncated",
    "chain_demo",
)

# small parameter overrides so the whole file runs in a few seconds; the
# full-size defaults are exercised by the acceptance suite
FAST_PARAMS = {
    "fig3_surjectivity": {"k": [10, 20]},
    "thm2_convergence": {"k": [10, 20, 40, 80], "step": 5e-3},
    "fig5_density": {},
    "thm3_convergence": {"j": [10, 20], "step": 5e-3},
    "heis_exact": {"cases": 5, "step": 2e-3},
    "switching_demo": {"step": 2e-3},
    "bank_vs_truncated": {"cases": 20},
    "chain_demo": {"j": [10, 20], "step": 5e-3},
}


def test_registry_matches_contract():
    assert tuple(EXPERIMENTS) == ALL_IDS


@pytest.mark.parametrize("exp_id", ALL_IDS)
def test_experiment_passes(exp_id):
    report = run_experiment(exp_id, FAST_PARAMS[exp_id])
    assert report.id == exp_id
    assert report.verdict, report.rows
    assert report.rows and report.runtime >= 0.0


def test_unknown_id():
    with pytest.raises(ValueError):
        run_experiment("nope")


def test_unknown_param_rejected():
    with pytest.raises(DomainError):
        run_experiment("fig5_density", {"k": [10]})


@pytest.mark.parametrize("exp_id,params", [
    ("heis_exact", {"cases": 0}),
    ("heis_exact", {"cases": 2.5}),
    ("fig3_surjectivity", {"rho": 0.0}),
    ("fig3_surjectivity", {"k": []}),
    ("thm3_convergence", {"seed": True}),
    ("switching_demo", {"step": float("inf")}),
], ids=["cases-0", "cases-fraction", "rho-zero", "k-empty", "seed-bool", "step-inf"])
def test_bad_param_value_rejected(exp_id, params):
    with pytest.raises(DomainError):
        run_experiment(exp_id, params)


def test_manifest_records_effective_params():
    assert run_experiment("fig5_density").manifest()["params"] == {
        "j": [10, 20, 40], "rho": 0.2}
    # flag strings parse like the values they spell
    assert run_experiment("fig5_density", {"j": "10,20"}).params == {
        "j": [10, 20], "rho": 0.2}


def test_manifest_records_where_it_ran():
    manifest = run_experiment("fig5_density").manifest()
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    assert manifest["platform"] == platform.platform()


@pytest.mark.parametrize("exp_id,key", [
    ("thm2_convergence", "k"), ("thm3_convergence", "j"), ("chain_demo", "j")])
def test_sweep_order_does_not_change_the_verdict(exp_id, key):
    # the error must fall as k or j grows, in whatever order the sweep is listed
    params = FAST_PARAMS[exp_id]
    up = run_experiment(exp_id, params)
    down = run_experiment(exp_id, {**params, key: params[key][::-1]})
    assert up.verdict and down.verdict
    for f in {r.get("f") for r in up.rows}:  # thm3's rows come in one sweep per f
        assert [r for r in down.rows if r.get("f") == f] == \
            [r for r in up.rows if r.get("f") == f][::-1]
    # the fall is strict, so a repeated value fails
    assert not run_experiment(exp_id, {**params, key: [params[key][0]] * 2}).verdict


@pytest.mark.parametrize("params", [{}, FAST_PARAMS["bank_vs_truncated"], {"k": [64, 4], "cases": 5}],
                         ids=["defaults", "fast", "reversed"])
def test_bank_vs_truncated_has_one_row_per_k(params):
    report = run_experiment("bank_vs_truncated", params)
    assert [r["k"] for r in report.rows] == report.params["k"]


@pytest.mark.parametrize("params", [{}, FAST_PARAMS["switching_demo"]], ids=["defaults", "fast"])
def test_switching_demo_has_one_row_per_scripted_event(params):
    rows = run_experiment("switching_demo", params).rows
    assert [r["event"] for r in rows] == list(range(len(SWITCHING_EXPECTED)))
    assert all(type(r["event"]) is int for r in rows)
    assert [r["expected_time"] for r in rows] == [e[0] for e in SWITCHING_EXPECTED]


# the side checks that have no row are verdict terms: each fault below fails the verdict

def test_switching_verdict_fails_on_an_event_in_the_dead_band(monkeypatch):
    real = experiments.integrate_switching

    def noisy(spec, controls, z0, w0_string, step):
        traj = real(spec, controls, z0, w0_string, step=step)
        if tuple(z0) == (0.0, 0.0):  # the dead-band run
            traj = dataclasses.replace(traj, events=(SwitchEvent(1.0, 1, -1, "axis1"),))
        return traj

    monkeypatch.setattr(experiments, "integrate_switching", noisy)
    assert not run_experiment("switching_demo", FAST_PARAMS["switching_demo"]).verdict


def test_bank_verdict_fails_on_a_moved_sweep_crossing(monkeypatch):
    real = experiments.bank_trace

    def late(bank, zeta):
        out, events, final = real(bank, zeta)
        if zeta(0.0) == -1.25:  # the rising sweep, of slope 2.5: its first crossing moves by 1e-11
            events = [dataclasses.replace(events[0], time=events[0].time + 1e-11 / 2.5), *events[1:]]
        return out, events, final

    monkeypatch.setattr(experiments, "bank_trace", late)
    assert not run_experiment("bank_vs_truncated", FAST_PARAMS["bank_vs_truncated"]).verdict


def test_bank_verdict_fails_on_a_final_bank_off_the_staircase(monkeypatch):
    real, calls = experiments.bank_trace, []

    def scrambled(bank, zeta):
        out, events, final = real(bank, zeta)
        calls.append(zeta)
        if len(calls) == 1:  # the first random case ends with its +1 relay above its -1s
            final = RelayBank.make((-1, 1) + (-1,) * (final.k - 2))
        return out, events, final

    monkeypatch.setattr(experiments, "bank_trace", scrambled)
    report = run_experiment("bank_vs_truncated", FAST_PARAMS["bank_vs_truncated"])
    assert len(calls) > 1 and not report.verdict


def test_reproducibility():
    a = run_experiment("bank_vs_truncated", {"cases": 10, "seed": 5})
    b = run_experiment("bank_vs_truncated", {"cases": 10, "seed": 5})
    assert a.rows == b.rows and a.verdict == b.verdict


def test_seeded_draws_are_pinned(monkeypatch):
    # random.Random's stream for an int seed is the same on every Python
    # version, so heis_exact's first case at the default seed is fixed
    seen = []
    monkeypatch.setattr("hystctl.experiments.heis_exact_schedule",
                        lambda *args: seen.append(args) or heis_exact_schedule(*args))
    assert run_experiment("heis_exact", {"cases": 1, "step": 1e-2}).verdict
    assert seen == [(
        (-0.09524089298036276, 0.11954477216099191, 0.8484211680474587),
        (-0.06869985980045334, 0.01568254612454223, 0.1747696576997939),
        0.2,
        -0.22137675543841212,
    )]


@pytest.mark.parametrize("exp_id", ["thm3_convergence", "heis_exact"])
def test_seed_fixes_the_rows(exp_id):
    params = {**FAST_PARAMS[exp_id], "seed": 5}
    rows = run_experiment(exp_id, params).rows
    assert run_experiment(exp_id, params).rows == rows
    assert run_experiment(exp_id, {**params, "seed": 6}).rows != rows


def test_no_run_loads_numpy_random():
    # every experiment and a CLI run in a fresh interpreter: the seeded ones
    # draw from random.Random, so numpy.random is never imported
    code = f"""
import contextlib, io, sys
import numpy
if "numpy.random" in sys.modules:
    sys.exit(3)
from hystctl.cli import main
from hystctl.experiments import run_experiment
for exp_id, params in {FAST_PARAMS!r}.items():
    assert run_experiment(exp_id, params).verdict, exp_id
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["heis_exact", "--cases", "2"]) == 0
loaded = sorted(m for m in sys.modules if m.startswith("numpy.random"))
assert not loaded, loaded
"""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=300)
    if proc.returncode == 3:
        pytest.skip("import numpy alone loads numpy.random (numpy 1.x)")
    assert proc.returncode == 0, proc.stderr


def test_report_artifacts(tmp_path):
    report = run_experiment("fig3_surjectivity", {"k": [10]})
    man_path = tmp_path / "manifest.json"
    report.to_manifest(str(man_path))
    with open(man_path) as fh:
        manifest = json.load(fh)
    assert manifest["id"] == "fig3_surjectivity"
    assert manifest["verdict"] == "pass"
    assert "version" in manifest and "params" in manifest
