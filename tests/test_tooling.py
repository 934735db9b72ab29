"""Checks on the package source itself."""

import ast
from pathlib import Path

import qtr

SOURCES = sorted(Path(qtr.__file__).parent.glob("*.py"))


def test_sources_found():
    assert {path.name for path in SOURCES} >= {"__init__.py", "cli.py", "rank.py"}


def test_no_assert_statements():
    # python -O strips assert, so every invariant in the package must raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
