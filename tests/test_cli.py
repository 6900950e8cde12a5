"""CLI: parsing, config files, exit codes, artifacts."""

import csv
import json

import pytest

from hystctl.cli import main, parse_config
from hystctl.hysteresis import _RELAY_CAP


def write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


# ---------------------------------------------------------------------------
# parsing

def test_parse_experiment_flags():
    cfg = parse_config(["sim", "thm2_convergence", "--k", "10,20,40",
                        "--rho", "0.2", "--step", "1e-3"])
    assert cfg.experiment == "thm2_convergence"
    assert cfg.params == {"k": [10, 20, 40], "rho": 0.2, "step": 1e-3}


def test_parse_unique_prefix():
    cfg = parse_config(["sim", "thm2"])
    assert cfg.experiment == "thm2_convergence"


def test_parse_config_file(tmp_path):
    path = write_json(tmp_path / "cfg.json",
                      {"experiment": "fig5_density", "j": [10, 20, 40]})
    cfg = parse_config(["sim", "--config", path])
    assert cfg.experiment == "fig5_density"
    assert cfg.params == {"j": [10, 20, 40]}


def test_flags_override_config(tmp_path):
    path = write_json(tmp_path / "cfg.json",
                      {"experiment": "fig5_density", "j": [10], "rho": 0.1})
    cfg = parse_config(["sim", "--config", path, "--rho", "0.3"])
    assert cfg.params == {"j": [10], "rho": 0.3}


# ---------------------------------------------------------------------------
# exit codes

def test_usage_error_negative_rho(capsys):
    assert main(["fig5_density", "--rho", "-1"]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("rho", ["nan", "inf"])
def test_usage_error_play_nonfinite_rho(tmp_path, rho, capsys):
    sig = write_json(tmp_path / "u.json", {"knots": [[0.0, 0.0], [1.0, 1.0]]})
    assert main(["play", "--input", sig, "--w0", "0.0", "--rho", rho]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("w0", ["nan", "inf"])
def test_usage_error_play_nonfinite_w0(tmp_path, w0, capsys):
    sig = write_json(tmp_path / "u.json", {"knots": [[0.0, 0.0], [1.0, 1.0]]})
    assert main(["play", "--input", sig, "--w0", w0, "--rho", "0.5"]) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("lo, hi", [("nan", "0.5"), ("-inf", "0.5"), ("-0.5", "inf")])
def test_usage_error_relay_nonfinite_threshold(tmp_path, lo, hi, capsys):
    sig = write_json(tmp_path / "z.json", {"knots": [[0.0, 0.0], [1.0, 1.0]]})
    assert main(["relay", "--input", sig, f"--lo={lo}", f"--hi={hi}", "--out0", "1"]) == 2
    assert "usage error" in capsys.readouterr().err


def test_usage_error_unknown_experiment(capsys):
    assert main(["sim", "not_an_experiment"]) == 2


def test_usage_error_config_names_another_experiment(tmp_path, capsys):
    # the subcommand names one experiment and the config another: neither
    # silently wins; a config naming the same one (a unique prefix too) is fine
    path = write_json(tmp_path / "cfg.json", {"experiment": "thm2_convergence", "rho": 0.3})
    assert main(["fig5_density", "--config", path]) == 2
    assert main(["sim", "fig5_density", "--config", path]) == 2
    assert capsys.readouterr().err.count("usage error") == 2
    path = write_json(tmp_path / "cfg.json", {"experiment": "fig5", "rho": 0.3})
    assert parse_config(["fig5_density", "--config", path]).experiment == "fig5_density"


def test_usage_error_unknown_config_key(tmp_path, capsys):
    path = write_json(tmp_path / "cfg.json",
                      {"experiment": "fig5_density", "banana": 1})
    assert main(["sim", "--config", path]) == 2


def test_usage_error_flag_not_allowed(capsys):
    # fig5_density takes no seed
    assert main(["sim", "fig5_density", "--seed", "3"]) == 2


@pytest.mark.parametrize("argv", [
    ["fig3_surjectivity", "--k", ""],  # no cases: an empty table
    ["heis_exact", "--cases", "0"],
    ["sim", "heis", "--seed", "-1"],
    ["fig3_surjectivity", "--w0", "nan"],
    ["relay", "--input", "z.json", "--lo", "-inf", "--hi", "0.5", "--out0", "1"],
    ["relay", "--input", "z.json", "--lo", "0.5", "--hi", "0.5", "--out0", "1"],
    ["bank", "--input", "z.json", "--k", "0"],
    ["bank", "--input", "z.json", "--k", "4", "--nplus", "9"],
    ["bank", "--input", "z.json", "--k", str(_RELAY_CAP + 1)],  # refused before a tuple is built
], ids=["k-empty", "cases-0", "seed-negative", "w0-nan", "relay-lo-minus-inf", "relay-lo-at-hi",
        "bank-k-0", "bank-nplus-past-k", "bank-k-past-cap"])
def test_usage_error_flag_value(argv, capsys):
    # a usage error from parse_config, not from argparse
    assert main(argv) == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("body", [
    {"experiment": "fig3_surjectivity", "k": 10},
    {"experiment": "fig5_density", "rho": "abc"},
    {"experiment": "fig5_density", "rho": True},
    {"experiment": "fig5_density", "rho": 0.0},
    {"experiment": "heis_exact", "cases": 2.5},
    {"experiment": "fig5_density", "out": 5},
    [{"experiment": "fig5_density"}],
    {"system": "heisenberg", "z0": [0.0, 0.0, 0.0],
     "controls": [{"grid": [0.0, 1.0], "values": [1.0]}] * 2},
], ids=["k-int", "rho-text", "rho-bool", "rho-zero", "cases-fraction", "out-int", "list",
        "sim-without-out"])
def test_usage_error_config_value(tmp_path, body, capsys):
    path = write_json(tmp_path / "cfg.json", body)
    assert main(["sim", "--config", path]) == 2
    assert "usage error" in capsys.readouterr().err


def test_config_values_use_the_flag_parsers(tmp_path):
    path = write_json(tmp_path / "cfg.json",
                      {"experiment": "fig5_density", "j": "10,20", "rho": "0.3"})
    assert parse_config(["sim", "--config", path]).params == {"j": [10, 20], "rho": 0.3}


def test_domain_error_exit_1(tmp_path, capsys):
    sig = write_json(tmp_path / "u.json", {"knots": [[0.0, 0.0], [1.0, 1.0]]})
    # seed outside the admissible strip
    assert main(["play", "--input", sig, "--w0", "5.0", "--rho", "0.2"]) == 1
    assert "domain error" in capsys.readouterr().err


def test_step_past_the_row_cap_exit_1(capsys):
    # its grid would be a 7.45 GiB array: refused up front, with no traceback
    assert main(["thm2_convergence", "--step", "1e-9"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("domain error:") and "rows" in err


def test_missing_file_exit_1(capsys):
    assert main(["play", "--input", "/nonexistent.json",
                 "--w0", "0.0", "--rho", "0.2"]) == 1


@pytest.mark.parametrize("command,data", [
    (["play", "--w0", "0.0", "--rho", "0.2"], {"foo": 1}),
    (["bank", "--k", "4"], [1, 2]),
    (["relay", "--lo", "-0.5", "--hi", "0.5", "--out0", "1"], {"knots": 5}),
    (["play", "--w0", "0.0", "--rho", "0.2"], {"knots": [[0.0, "a"], [1.0, 1.0]]}),
    (["play", "--w0", "0.0", "--rho", "0.2"], {"knots": [[0.0], [1.0, 1.0]]}),
    (["bank", "--k", "4"], {"grid": [0.0, 1.0]}),
    (["play", "--w0", "1.0", "--rho", "0.2"], {"knots": [["0", "1"], ["1", "2"]]}),
    (["bank", "--k", "4"], {"knots": [[0.0, 10**400], [1.0, 1.0]]}),
    (["play", "--w0", "1.0", "--rho", "0.2"], {"knots": [[0, True], [1, 2]]}),
    (["bank", "--k", "4"], {"grid": [0, 1], "values": [False]}),
    (["play", "--w0", "0.0", "--rho", "0.2"], {"grid": [0.0, 1.0], "values": [1.0]}),
], ids=["play-dict", "bank-list", "relay-knots-int", "play-knot-text",
        "play-knot-short", "bank-no-values", "play-knot-numeric-text", "bank-knot-huge-int",
        "play-knot-bool", "bank-values-bool", "play-step-signal"])
def test_malformed_signal_exit_1(tmp_path, command, data, capsys):
    sig = write_json(tmp_path / "u.json", data)
    assert main(command + ["--input", sig]) == 1
    assert "domain error" in capsys.readouterr().err


@pytest.mark.parametrize("text", [None, "{not json"], ids=["missing", "invalid"])
def test_config_file_error_exit_1(tmp_path, text, capsys):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert main(["sim", "--config", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_experiment_pass_exit_0(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    man = tmp_path / "man.json"
    code = main(["fig3_surjectivity", "--k", "10",
                 "--out", str(out), "--manifest", str(man)])
    assert code == 0
    assert "fig3_surjectivity: pass" in capsys.readouterr().out
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert float(rows[0]["knot_gap"]) < 1e-10
    with open(man) as fh:
        assert json.load(fh)["verdict"] == "pass"


# ---------------------------------------------------------------------------
# operator subcommands

def test_play_subcommand(tmp_path):
    sig = write_json(tmp_path / "u.json",
                     {"knots": [[0.0, 0.0], [1.0, 2.0], [2.0, 0.0]]})
    out = tmp_path / "w.csv"
    assert main(["play", "--input", sig, "--w0", "0.0", "--rho", "1.0",
                 "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "w"]
    assert float(rows[-1][1]) == pytest.approx(1.0)


def test_negative_values_in_exponent_notation(tmp_path, capsys):
    # argparse alone reads "-1e-3" as an unknown option
    sig = write_json(tmp_path / "u.json", {"knots": [[0.0, 0.0], [1.0, 2.0], [2.0, 0.0]]})
    assert main(["play", "--input", sig, "--w0", "-1e-3", "--rho", "1.0"]) == 0
    spaced = capsys.readouterr().out
    assert main(["play", "--input", sig, "--w0=-1e-3", "--rho", "1.0"]) == 0
    assert capsys.readouterr().out == spaced
    cfg = parse_config(["relay", "--input", sig, "--lo", "-1e-1", "--hi", "1", "--out0", "1"])
    assert cfg.extra["lo"] == -0.1
    assert parse_config(["fig3_surjectivity", "--w0", "-1e-1"]).params == {"w0": -0.1}


def test_relay_subcommand(tmp_path, capsys):
    sig = write_json(tmp_path / "z.json", {"knots": [[0.0, 0.0], [1.0, -1.0]]})
    assert main(["relay", "--input", sig, "--lo", "-0.5", "--hi", "0.5",
                 "--out0", "1"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "time,old,new"
    assert float(out[1].split(",")[0]) == pytest.approx(0.5)


def test_bank_subcommand(tmp_path):
    sig = write_json(tmp_path / "z.json", {"knots": [[0.0, -1.0], [1.0, 1.0]]})
    out = tmp_path / "wk.csv"
    ev = tmp_path / "events.csv"
    assert main(["bank", "--input", sig, "--k", "4", "--nplus", "0",
                 "--out", str(out), "--events", str(ev)]) == 0
    with open(ev) as fh:
        events = list(csv.reader(fh))[1:]
    assert len(events) == 3  # crossings of 1/4, 1/2, 3/4 (1.0 only touched)


@pytest.mark.parametrize("argv", [
    ["play", "--w0", "0.0", "--rho", "0.2"],
    ["relay", "--lo=-0.5", "--hi", "0.5", "--out0", "1"],
    ["bank", "--k", "4", "--events", "events.csv"],
    ["fig5_density"],
], ids=["play", "relay", "bank", "fig5_density"])
def test_stdout_and_out_file_carry_the_same_rows(argv, tmp_path, monkeypatch, capsys):
    # one writer: stdout gets \n line ends, a file csv's \r\n
    monkeypatch.chdir(tmp_path)
    if argv[0] != "fig5_density":
        argv = argv + ["--input", write_json("z.json", {"knots": [[0, 0], [1, 0.9], [2, -0.7], [3, 0.45]]})]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert main(argv + ["--out", "out.csv"]) == 0
    # the rows went to the file; an experiment prints its verdict line either way
    verdict = capsys.readouterr().out
    assert verdict.startswith("fig5_density: pass") if argv[0] == "fig5_density" else not verdict
    rows = printed[:printed.index("fig5_density: pass")] if verdict else printed
    assert (tmp_path / "out.csv").read_bytes().decode().replace("\r\n", "\n") == rows
    for path in tmp_path.glob("*.csv"):  # out.csv, and bank's events.csv
        text = path.read_bytes().decode()
        assert text.count("\n") == text.count("\r\n") > 1


def test_config_driven_sim(tmp_path):
    out = tmp_path / "traj.csv"
    path = write_json(tmp_path / "sim.json", {
        "system": "heisenberg",
        "controls": [{"grid": [0.0, 1.0], "values": [1.0]},
                     {"grid": [0.0, 1.0], "values": [1.0]}],
        "z0": [0.0, 0.0, 0.0],
        "step": 1e-2,
    })
    assert main(["sim", "--config", path, "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "z1", "z2", "z3"]
    assert float(rows[-1][3]) == pytest.approx(0.5, abs=1e-9)


HEIS_SIM = {
    "system": "heisenberg",
    "controls": [{"grid": [0.0, 1.0], "values": [1.0]},
                 {"grid": [0.0, 1.0], "values": [1.0]}],
    "z0": [0.0, 0.0, 0.0],
    "step": 1e-2,
}


@pytest.mark.parametrize("edit,flags", [
    ({"banana": 3}, []),
    ({"controls": None}, []),
    ({"z0": None}, []),
    ({}, ["--rho", "7"]),
    ({"z0": 0.0}, []),
    ({"z0": [0.0, "a", 0.0]}, []),
    ({"step": "abc"}, []),
    ({"T": "x"}, []),
    ({"controls": {"grid": [0.0, 1.0], "values": [1.0]}}, []),
], ids=["unknown-key", "no-controls", "no-z0", "experiment-flag", "z0-scalar",
        "z0-text", "step-text", "T-text", "controls-not-list"])
def test_config_driven_sim_usage_error(tmp_path, edit, flags, capsys):
    body = {k: v for k, v in {**HEIS_SIM, **edit}.items() if v is not None}
    path = write_json(tmp_path / "sim.json", body)
    out = str(tmp_path / "traj.csv")
    assert main(["sim", "--config", path, "--out", out] + flags) == 2
    assert "usage error" in capsys.readouterr().err


def test_usage_error_config_driven_sim_manifest(tmp_path, capsys):
    # a config-driven sim writes no manifest: asking for one is an error,
    # not a silent no-op
    path = write_json(tmp_path / "sim.json", HEIS_SIM)
    argv = ["sim", "--config", path, "--out", str(tmp_path / "t.csv"),
            "--manifest", str(tmp_path / "m.json")]
    assert main(argv) == 2
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("edit", [
    {"T": 5.0},  # the controls end at 1.0
    {"T": 0.5},
    {"T": 1.0 + 1e-10},  # T matches the horizon only to KNOT_TOL
    {"T": -1.0},  # a finite T, but not the controls' horizon
    {"controls": [{"foo": 1}, {"grid": [0.0, 1.0], "values": [1.0]}]},
    {"system": "dubins"},
], ids=["T-past-horizon", "T-before-horizon", "T-sliver-past-horizon", "T-negative", "bad-control",
        "system-not-heisenberg"])
def test_config_driven_sim_domain_error(tmp_path, edit, capsys):
    path = write_json(tmp_path / "sim.json", {**HEIS_SIM, **edit})
    assert main(["sim", "--config", path, "--out", str(tmp_path / "t.csv")]) == 1
    assert "domain error" in capsys.readouterr().err


def test_config_driven_sim_T_at_horizon(tmp_path):
    # a signal may start anywhere, so T is any finite number: the controls' horizon
    out = tmp_path / "traj.csv"
    for t0, T in [(0.0, 1.0), (-2.0, -1.0), (-1.0, 0.0)]:
        controls = [{"grid": [t0, T], "values": [1.0]}] * 2
        path = write_json(tmp_path / "sim.json", {**HEIS_SIM, "controls": controls, "T": T})
        assert main(["sim", "--config", path, "--out", str(out)]) == 0
        with open(out) as fh:
            last = list(csv.reader(fh))[-1]
        assert float(last[0]) == T
        assert float(last[3]) == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("argv", [
    ["heis_exact", "--rho", "1e7", "--cases", "2"],
    ["sim", "--config", "{config}", "--out", "{out}"],
], ids=["heis-exact-huge-rho", "sim-huge-control"])
def test_divergence_error_exits_one(tmp_path, argv, capsys):
    # a run whose state leaves NORM_CAP is reported, not a traceback
    control = {"grid": [0.0, 1.0], "values": [1e7]}
    config = write_json(tmp_path / "sim.json", {**HEIS_SIM, "controls": [control] * 2})
    argv = [a.format(config=config, out=tmp_path / "traj.csv") for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "divergence error" in err and "Traceback" not in err


def test_help_exits_zero():
    with pytest.raises(SystemExit):
        parse_config(["--help"])
    assert main(["--help"]) == 0
