"""Experiment harness: ids, verdicts, reproducibility, artifacts."""

import json

import pytest

from hystctl.experiments import EXPERIMENTS, run_experiment
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


def test_reproducibility():
    a = run_experiment("bank_vs_truncated", {"cases": 10, "seed": 5})
    b = run_experiment("bank_vs_truncated", {"cases": 10, "seed": 5})
    assert a.rows == b.rows and a.verdict == b.verdict


def test_report_artifacts(tmp_path):
    report = run_experiment("fig3_surjectivity", {"k": [10]})
    man_path = tmp_path / "manifest.json"
    report.to_manifest(str(man_path))
    with open(man_path) as fh:
        manifest = json.load(fh)
    assert manifest["id"] == "fig3_surjectivity"
    assert manifest["verdict"] == "pass"
    assert "version" in manifest and "params" in manifest
