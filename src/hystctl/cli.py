"""Command-line front end.

One subcommand per experiment, small operator utilities (play / relay / bank),
and a free-form `sim` runner driven by a JSON config.  Experiment flags come
from the registry in experiments.py, and flag strings and config values go
through its parse_param, so a value it rejects is a usage error; so is an
operator flag that the operator's own type rejects: PlayState, the one-relay
RelayBank of `relay`, or RelayBank.staircase.  Exit codes:
0 all verdicts pass, 1 domain or divergence error or failed verdict, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, field
from functools import cache

from .dynamics import DivergenceError, _write_csv, heisenberg_fields, integrate_plain
from .experiments import (
    EXPERIMENTS,
    PARAMS,
    experiment_params,
    parse_param,
    parse_params,
    run_experiment,
)
from .hysteresis import PlayState, RelayBank, bank_trace, play_apply
from .signals import DomainError, PolylineSignal, _times_equal, signal_from_json

@dataclass
class RunConfig:
    command: str
    experiment: str | None = None
    params: dict = field(default_factory=dict)
    out: str | None = None
    manifest: str | None = None
    extra: dict = field(default_factory=dict)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument that reads as a negative float (-1e-3, -.5, -inf) is a
    value, as in `--w0 -1e-3`, not an unknown option; argparse's own pattern
    takes only plain decimals.  Subparsers are of the parser's class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


@cache  # built on the first call, not at import; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="hystctl",
        description="Simulation toolkit for driftless control-affine systems "
        "with rate-independent hysteresis.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("play", help="apply the play operator to a polyline input")
    sp.add_argument("--input", required=True, help="JSON signal file (polyline)")
    sp.add_argument("--w0", type=float, required=True)
    sp.add_argument("--rho", type=float, required=True)
    sp.add_argument("--out", help="CSV of output knots")

    sp = sub.add_parser("relay", help="run a delayed relay along a polyline input")
    sp.add_argument("--input", required=True)
    sp.add_argument("--lo", type=float, required=True)
    sp.add_argument("--hi", type=float, required=True)
    sp.add_argument("--out0", type=int, choices=(-1, 1), required=True)
    sp.add_argument("--out", help="CSV of switch events")

    sp = sub.add_parser("bank", help="run a staircase relay bank along a polyline input")
    sp.add_argument("--input", required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--nplus", type=int, default=0)
    sp.add_argument("--out", help="CSV of the macroscopic output")
    sp.add_argument("--events", help="CSV of relay switch events")

    def add_exp_flags(parser, defaults):
        for name, default in defaults.items():
            parser.add_argument(f"--{name}", help=f"default: {default}")
        parser.add_argument("--out", help="CSV table path")
        parser.add_argument("--manifest", help="JSON manifest path")
        parser.add_argument("--config", help="JSON config file (flags override it)")

    sp = sub.add_parser("sim", help="run an experiment or a config-driven simulation")
    sp.add_argument("experiment", nargs="?", help="experiment id (unique prefix ok)")
    add_exp_flags(sp, dict.fromkeys(sorted(PARAMS), "the experiment's"))

    for exp_id in EXPERIMENTS:
        sp = sub.add_parser(exp_id, help=f"run the {exp_id} experiment")
        add_exp_flags(sp, experiment_params(exp_id))
    return p


def _resolve_experiment(name: str) -> str:
    if name in EXPERIMENTS:
        return name
    matches = [e for e in EXPERIMENTS if e.startswith(name)]
    if len(matches) != 1:
        raise _UsageError(f"unknown experiment id: {name!r}")
    return matches[0]


# the operator subcommands: each builds its operator's state from the flags
_OPERATORS = {
    "play": lambda a: PlayState(a["rho"], a["w0"]),
    "relay": lambda a: RelayBank((a["lo"],), (a["hi"],), (a["out0"],)),
    "bank": lambda a: RelayBank.staircase(a["k"], a["nplus"]),
}


def parse_config(argv) -> RunConfig:
    """Parse argv (+ optional JSON config file) into a validated RunConfig."""
    args = vars(_build_parser().parse_args(argv))
    try:  # what the parsers or an operator's own type reject is a usage error here
        return _config(args.pop("command"), args)
    except DomainError as exc:
        raise _UsageError(str(exc)) from None


def _config(command: str, args: dict) -> RunConfig:
    cfg = RunConfig(command=command)
    if command in _OPERATORS:
        cfg.extra = {**args, "state": _OPERATORS[command](args)}
        return cfg

    # experiment-style commands: the flags given override the config's values
    config_path = args.pop("config")
    raw: dict = {}
    if config_path:
        with open(config_path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise _UsageError("config file must hold a JSON object")
    given = {**raw, **{key: val for key, val in args.items() if val is not None}}
    exp = given.pop("experiment", None)
    exp = command if command in EXPERIMENTS else exp
    cfg.out, cfg.manifest = given.pop("out", None), given.pop("manifest", None)
    if not all(path is None or isinstance(path, str) for path in (cfg.out, cfg.manifest)):
        raise _UsageError("out and manifest must be path strings")

    if exp is not None:
        cfg.experiment = _resolve_experiment(str(exp))
        named = raw.get("experiment")  # the config's, which the command line overrides
        if named is not None and _resolve_experiment(str(named)) != cfg.experiment:
            raise _UsageError(f"the config names experiment {named!r}, not {cfg.experiment}")
        cfg.params = parse_params(cfg.experiment, given)
        return cfg
    cfg.extra = _sim_extra(given)
    if not cfg.out or cfg.manifest:
        raise _UsageError("config-driven sim needs an --out path and writes no manifest")
    return cfg


def _sim_extra(raw: dict) -> dict:
    """The parsed inputs of a config-driven sim (a config with no experiment)."""
    if not {"system", "controls", "z0"} <= set(raw) <= {"system", "controls", "z0", "step", "T"}:
        raise DomainError(f"sim needs an experiment id, or a config with the keys "
                          f"system, controls, z0 and optional step, T (got {sorted(raw)})")
    if not isinstance(raw["controls"], list):
        raise DomainError("config controls must be a JSON list of signals")
    return {
        **raw,
        "z0": tuple(parse_param("z0", raw["z0"], (float, -math.inf, True))),
        "step": parse_param("step", raw.get("step", 1e-3)),
        "T": None if raw.get("T") is None else parse_param("T", raw["T"], PARAMS["w0"]),
    }


def dispatch(cfg: RunConfig) -> int:
    a = cfg.extra
    if cfg.command in _OPERATORS:
        with open(a["input"]) as fh:
            zeta = signal_from_json(json.load(fh))
        if not isinstance(zeta, PolylineSignal):
            raise DomainError("expected a polyline signal ({'knots': ...})")
        if cfg.command == "play":
            output = play_apply(zeta, a["state"].w, a["state"].rho)
            _write_csv(["t", "w"], output.csv_rows(), a["out"])
            return 0
        output, events, _ = bank_trace(a["state"], zeta)
        if cfg.command == "relay":
            _write_csv(["time", "old", "new"], [(e.time, e.old, e.new) for e in events], a["out"])
            return 0
        _write_csv(["t", "w_k"], output.csv_rows(), a["out"])
        if a["events"]:
            rows = [(e.time, e.index, e.new) for e in events]
            _write_csv(["time", "relay", "new"], rows, a["events"])
        return 0

    if cfg.command == "sim" and cfg.experiment is None:
        if a["system"] != "heisenberg":
            raise DomainError("config-driven sim supports system 'heisenberg'")
        controls = tuple(signal_from_json(c) for c in a["controls"])
        if a["T"] is not None and any(not _times_equal(c.horizon, a["T"]) for c in controls):
            raise DomainError(f"T={a['T']} is not the horizon of the controls")
        traj = integrate_plain(heisenberg_fields(), controls, a["z0"], step=a["step"])
        traj.to_csv(cfg.out)
        return 0

    report = run_experiment(cfg.experiment, cfg.params)
    _write_csv(list(report.rows[0]), [r.values() for r in report.rows], cfg.out)
    if cfg.manifest:
        report.to_manifest(cfg.manifest)
    print(f"{report.id}: {'pass' if report.verdict else 'fail'} ({report.runtime:.3f}s)")
    return 0 if report.verdict else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return dispatch(parse_config(argv))
    except SystemExit as exc:  # argparse already printed usage
        return int(exc.code or 0)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"divergence error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:  # ValueError includes JSONDecodeError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
