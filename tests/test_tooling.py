"""Checks on the package source itself."""

import ast
import hashlib
import importlib
import subprocess
import sys
from pathlib import Path

import qtr

from .test_scan_gate import SCAN_37_3000_SHA256

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


def test_invariants_hold_under_python_O():
    # -O strips asserts, and the package has none: the census bytes and a
    # failing check's exit code are the same with it
    argv = ["scan", "--ell", "37", "--n-max", "3000", "--format", "csv"]
    proc = subprocess.run([sys.executable, "-O", "-m", "qtr.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == SCAN_37_3000_SHA256
    script = "\n".join([
        "import sys",
        "from qtr import rank",
        "from qtr.cli import main",
        "if not sys.flags.optimize:",
        "    sys.exit(5)",
        "rank._CLOSED_RANK['p-only:split'] = lambda t1, t2, s1, s2: 2 * (t1 + t2) + 1",
        "sys.exit(main(['scan', '--ell', '37', '--n-max', '100', '--format', 'csv']))",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 3
    assert "ell=37 n=41 check=cross_path" in proc.stderr


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
