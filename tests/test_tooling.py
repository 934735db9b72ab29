"""Checks on the package source itself."""

import ast
import importlib
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


def test_traced_names_resolve():
    # perfbench/spans.py wraps these names with getattr when --trace 1 runs;
    # it is read here, not imported, so the test runs without the benchmark
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    tuples = {
        target.id: ast.literal_eval(node.value)
        for node in ast.parse(spans.read_text()).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED")
    }
    assert set(tuples) == {"SPANNED", "COUNTED"}
    names = [*tuples["SPANNED"], *tuples["COUNTED"], "qtr.cli.build_parser", "qtr.cli._scan_chunk"]
    missing = []
    for name in names:
        module, attr = name.rsplit(".", 1)
        if not hasattr(importlib.import_module(module), attr):
            missing.append(name)
    assert missing == []
