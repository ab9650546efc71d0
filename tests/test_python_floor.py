"""The package parses at the Python floor that ``pyproject.toml`` declares.

The interpreter that runs the tests may be newer than that floor, so a module
that uses newer syntax would pass every other test and still fail to import
for a user on the floor; ``ast.parse`` with ``feature_version`` catches it.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "sierpindex").glob("*.py"))


def python_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


def test_the_floor_is_the_one_the_readme_names():
    assert python_floor() == (3, 10)
    assert "Python 3.10+" in (ROOT / "README.md").read_text(encoding="utf-8")


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=python_floor())


def test_the_check_rejects_syntax_above_the_floor():
    with pytest.raises(SyntaxError):  # except* is Python 3.11
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=python_floor())
