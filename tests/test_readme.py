"""Every python example and every CLI example in README.md runs as written."""

import json
import re
import shlex
from pathlib import Path

import pytest

from hystctl.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"```python\n(.*?)```", TEXT, re.S)
# the hystctl lines of the sh block under "## CLI", as argument lists
CLI_BLOCK = re.search(r"^## CLI\n+```sh\n(.*?)```", TEXT, re.S | re.M).group(1)
COMMANDS = [shlex.split(line)[1:] for line in CLI_BLOCK.splitlines() if line.startswith("hystctl ")]


def test_readme_has_examples():
    assert BLOCKS
    assert COMMANDS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(code):
    exec(compile(code, str(README), "exec"), {})


@pytest.mark.parametrize("argv", COMMANDS, ids=[f"cli{i}" for i in range(len(COMMANDS))])
def test_readme_cli_example_runs(argv, tmp_path, monkeypatch):
    # the input files the examples name, in a scratch working directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "u.json").write_text(json.dumps({"knots": [[0.0, 0.0], [1.0, 1.0], [2.0, -0.5]]}))
    (tmp_path / "zeta.json").write_text(json.dumps({"knots": [[0.0, 0.0], [1.0, 1.2], [2.0, -1.2]]}))
    assert main(argv) == 0
