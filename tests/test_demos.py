"""Every demo script, and the README's Python quick start, runs to completion
against the source tree, the README's breakdown example is what the CLI prints,
and every command of the README's CLI block parses."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from sierpindex import cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


def run_python(*args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    run_python(str(demo))


def test_readme_quick_start_runs():
    (block,) = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M)
    run_python("-c", block)


def test_readme_breakdown_example_is_the_cli_output(tmp_path, monkeypatch, capsys):
    ((command, shown),) = re.findall(r"^\$ sierpindex (closed .*--breakdown)\n(.*?)^```$",
                                     (ROOT / "README.md").read_text(), re.S | re.M)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gen", "complete", "3", "--out", "k3.txt"]) == 0
    capsys.readouterr()
    assert cli.main(command.split()) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(shown)


def test_readme_cli_commands_parse():
    (block,) = re.findall(r"^## CLI\n\n```\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M)
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.strip()]
    assert commands and all(argv[0] == "sierpindex" for argv in commands)
    parser = cli._build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])  # an unknown option or a bad value exits 2
