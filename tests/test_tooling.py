"""Checks on the package source itself."""

import ast
import hashlib
import importlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import qtr

from .test_scan_gate import SCAN_37_3000_SHA256, SCAN_37_30000_SHA256, SCAN_JSON_37_3000_SHA256
from .test_single_field_gate import SINGLE_FIELD_SHA256, requests

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


# The number theory is exact: these modules never divide with `/`, write or
# make a float, or call math's float functions.
EXACT_MODULES = ("ntheory", "quad", "quartic", "rank", "classify")
FLOAT_MATH = re.compile(r"log\w*|sqrt|exp")


def float_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each `/`, float literal, `float(` and math.log*,
    math.sqrt or math.exp, as an attribute or imported from math."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "/"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, repr(node.value)))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float("))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and FLOAT_MATH.fullmatch(node.attr)):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{alias.name}") for alias in node.names
                      if FLOAT_MATH.fullmatch(alias.name)]
    return found


def test_float_uses_are_found():
    code = "\n".join(["import math", "from math import log2, isqrt", "a = 1 / 2",
                      "a /= 2", "b = 0.5", "c = float(3)", "d = math.sqrt(2)",
                      "e = math.exp(1) + math.log10(2)", "f = 7 // 2 + isqrt(9)"])
    assert sorted(float_uses(ast.parse(code))) == [
        (2, "math.log2"), (3, "/"), (4, "/"), (5, "0.5"), (6, "float("), (7, "math.sqrt"),
        (8, "math.exp"), (8, "math.log10")]


def test_number_theory_makes_no_floats():
    root = Path(qtr.__file__).parent
    found = [f"{name}.py:{line}: {what}" for name in EXACT_MODULES
             for line, what in float_uses(ast.parse((root / f"{name}.py").read_text()))]
    assert found == []


# The package's modules in layer order: each may import only from the ones
# before it, so no rule can move to a module that would close an import cycle.
LAYERS = ("errors", "ntheory", "quad", "quartic", "rank", "classify", "cli")


def test_each_module_imports_only_earlier_layers():
    found = []
    for index, name in enumerate(LAYERS):
        path = Path(qtr.__file__).parent / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                targets = [node.module] if node.module else [alias.name for alias in node.names]
            elif (node.module or "").startswith("qtr."):
                targets = [node.module.split(".", 1)[1]]
            else:
                continue
            found += [f"{name} imports {target}" for target in targets
                      if target not in LAYERS[:index]]
    assert found == []


def test_every_top_level_name_is_read():
    # each module-level function, class and constant is loaded by code in its
    # module or imported by another (an import into qtr/__init__ makes it
    # public API), so public API that nothing calls cannot stay unnoticed
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    read = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((module, node.id))
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                read |= {(node.module, alias.name) for alias in node.names}
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                names = [target.id for target in ast.walk(node)
                         if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store)]
            else:
                continue
            defined += [(module, name) for name in names if not name.startswith("__")]
    assert len(defined) > 100
    assert [f"{module}.{name}" for module, name in defined if (module, name) not in read] == []


# What argparse loads: main builds its parser only for a command line that
# it leaves to argparse.
PARSER_MODULES = {"argparse", "gettext", "locale"}


def test_import_leaves_out_the_pool_and_dataclass_machinery():
    # every qtr process pays for what `import qtr.cli` loads; the pool forks
    # its workers itself, the records are NamedTuples, and a well-formed
    # command line needs no argparse.  Modules that the interpreter loaded
    # before the import do not count.
    script = "\n".join([
        "import sys",
        "before = set(sys.modules)",
        "import qtr.cli",
        "print(*sorted(set(sys.modules) - before))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True)
    added = set(proc.stdout.split())
    assert "qtr.cli" in added
    assert added & {"concurrent.futures", "multiprocessing", "dataclasses", "inspect",
                    *PARSER_MODULES} == set()


def command_line_imports(*argv: str) -> tuple[int, set[str], str]:
    """`python -m qtr.cli *argv` in a fresh interpreter, so main(argv=None)
    reads sys.argv: its exit code, every module it imported (-X importtime)
    and the rest of its stderr."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "qtr.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    timed = [line for line in proc.stderr.splitlines(True) if line.startswith("import time:")]
    return (proc.returncode, {line.rsplit("|", 1)[1].strip() for line in timed},
            "".join(line for line in proc.stderr.splitlines(True) if line not in timed))


@pytest.mark.parametrize("argv", [("rank", "--ell", "37", "--n", "13"),
                                  ("scan", "--ell", "37", "--n-max", "300", "--format", "csv")])
def test_well_formed_command_line_loads_no_parser(argv):
    code, modules, err = command_line_imports(*argv)
    assert (code, err) == (0, "")
    assert "qtr.rank" in modules
    assert modules & PARSER_MODULES == set()


def test_malformed_command_line_loads_argparse_for_its_message():
    code, modules, err = command_line_imports("rank", "--ell", "37", "--n", "x")
    assert code == 2
    assert err.endswith("qtr rank: error: argument --n: invalid int value: 'x'\n")
    assert modules >= PARSER_MODULES


POOL_IMPORT_SCRIPT = """
import contextlib, io, os, sys
from qtr import cli
real_fork, seen = os.fork, []
def fork():
    seen.append("pickle" in sys.modules)
    return real_fork()
os.fork = fork
cli._usable_cpus = lambda: 2
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["scan", "--ell", "37", "--n-max", "10000", "--format", "csv",
                     "--jobs", sys.argv[1]])
print(code, "pickle" in sys.modules, seen)
"""


@pytest.mark.parametrize("jobs, expected", [("1", "0 False []"), ("2", "0 True [True]")])
def test_only_a_pool_imports_pickle_and_before_its_fork(jobs, expected):
    # a --jobs 1 scan in a fresh interpreter never loads pickle; a pool, over
    # the 3 windows of N = 1e4, loads it once, before its one fork, so its
    # child does not load it again
    proc = subprocess.run([sys.executable, "-c", POOL_IMPORT_SCRIPT, jobs], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected


STAGE_2_SCRIPT = """
import contextlib, io, sys
from qtr import cli, ntheory
built = [ntheory._pm1_plan.cache_info().currsize]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["rank", "--ell", "37", "--n", sys.argv[1]])
built.append(ntheory._pm1_plan.cache_info().currsize)
print(code, built)
"""


@pytest.mark.parametrize("n, expected", [("41", "0 [0, 0]"), (str(9999739 * 10000079), "0 [0, 1]")])
def test_p_minus_1_stage_2_data_is_built_at_first_use(n, expected):
    # import qtr.cli in a fresh interpreter builds no stage-2 plan, nor does
    # a rank whose n trial division factors; an n that reaches stage 2
    # builds it
    proc = subprocess.run([sys.executable, "-c", STAGE_2_SCRIPT, n], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == expected


BROKEN_ENTRY = "rank._CLOSED_RANK['p-only:split'] = lambda t1, t2, s1, s2: 2 * (t1 + t2) + 1"


def main_script(argv, patch="", optimize=1) -> str:
    """A fresh interpreter's script: qtr's main(argv) after the patch line,
    exiting with main's code, and with 5 if sys.flags.optimize is not the
    given level."""
    return "\n".join([
        "import sys",
        "from qtr import rank",
        "from qtr.cli import main",
        f"if sys.flags.optimize != {optimize}:",
        "    sys.exit(5)",
        patch,
        f"sys.exit(main({argv!r}))",
    ])


def test_invariants_hold_under_python_O():
    # -O strips asserts, and the package has none: the census bytes and a
    # failing check's exit code are the same with it, in the pool's workers
    # too, and verify writes the same bytes, failures and stderr lines
    for jobs in ("1", "2"):
        argv = ["scan", "--ell", "37", "--n-max", "30000", "--format", "csv", "--jobs", jobs]
        proc = subprocess.run([sys.executable, "-O", "-m", "qtr.cli", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0, jobs
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == SCAN_37_30000_SHA256, jobs
        proc = subprocess.run([sys.executable, "-O", "-c", main_script(argv, BROKEN_ENTRY)],
                              capture_output=True, text=True)
        assert proc.returncode == 3, jobs
        assert "ell=37 n=41 check=cross_path" in proc.stderr, jobs
    argv = ["verify", "--ell", "37", "--n-max", "3000", "--format", "json"]
    for patch, code in (("", 0), (BROKEN_ENTRY, 3)):
        runs = [subprocess.run([sys.executable, *flags, "-c", main_script(argv, patch, len(flags))],
                               capture_output=True, text=True) for flags in ([], ["-O"])]
        plain, optimized = [(run.returncode, run.stdout, run.stderr) for run in runs]
        assert plain == optimized and plain[0] == code, patch
    assert '"n": 41,\n      "check": "cross_path"' in plain[1]
    assert plain[2].startswith("ell=37 n=41 check=cross_path")


# Checks made at the first field of a shape class: a case-table entry off by
# one fails cross_path, and a conductor off its class's f/n fails conductor;
# and at a prime's first lookup: a split prime with (ell/p) = -1 fails the
# reciprocity check.  Each maps to its patch and the error it names.
CLASS_CHECK_PATCHES = {
    "cross_path": (BROKEN_ENTRY, "ell=37 n=41 check=cross_path"),
    "conductor": ("\n".join([
        "real = cli.conductor_parts",
        "def conductor_parts(a, b, ell):",
        "    e, f = real(a, b, ell)",
        "    return e, f + (a == 41)",
        "cli.conductor_parts = conductor_parts",
    ]), "ell=37 n=41 check=conductor"),
    "reciprocity": ("\n".join([
        "real = cli.splitting_type",
        "cli.splitting_type = lambda r, ell: cli.SplittingType.SPLIT if r == 5 else real(r, ell)",
    ]), "ell=37 prime=5: split, but (37/5) != 1"),
}


@pytest.mark.parametrize("check", sorted(CLASS_CHECK_PATCHES))
def test_class_checks_raise_under_python_O(check):
    # n = 41 is the first field of its shape class for ell = 37, and 5 the
    # first inert prime looked up; under -O the scan still stops there with
    # exit 3, naming what failed
    patch, named = CLASS_CHECK_PATCHES[check]
    script = "\n".join([
        "import sys",
        "from qtr import cli, rank",
        "if not sys.flags.optimize:",
        "    sys.exit(5)",
        patch,
        "sys.exit(cli.main(['scan', '--ell', '37', '--n-max', '100', '--format', 'csv']))",
    ])
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 3
    assert proc.stdout == "n,delta,shape,mu,r_star,rank,case,conductor\n"
    assert named in proc.stderr


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


MODULES = "cli|rank|ntheory|quartic|quad|classify|errors"
README_NAME = re.compile(rf"`(?:qtr\.)?({MODULES})\.(\w+)")
SOURCE_NAME = re.compile(rf"(?<![\w.])(?:qtr\.)?({MODULES})\.(\w+)")


def missing_names(names) -> list[str]:
    """The (module, name) pairs the package does not have, as dotted names."""
    return [f"{module}.{name}" for module, name in sorted(names)
            if not hasattr(importlib.import_module(f"qtr.{module}"), name)]


def test_readme_names_resolve():
    # every backticked qtr.<module>.<name> or <module>.<name> in README.md
    # names something the package has, so a deleted name cannot stay there
    readme = Path(__file__).resolve().parents[1] / "README.md"
    names = set(README_NAME.findall(readme.read_text()))
    assert len(names) > 20
    assert missing_names(names) == []


def test_source_comment_names_resolve():
    # the same for each <module>.<name> in a comment or a string literal
    # (the docstrings) of the package's source
    found = set()
    for path in SOURCES:
        for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if token.type in (tokenize.COMMENT, tokenize.STRING):
                found |= {(path.name, *name) for name in SOURCE_NAME.findall(token.string)}
    assert len(found) > 5
    assert missing_names({(module, name) for _, module, name in found}) == []


def _other_supported_pythons() -> list[Path]:
    """Every other CPython installed beside this one (a pyenv-style versions
    directory) whose minor version pyproject.toml's requires-python admits."""
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    minimum = int(re.search(r'requires-python = ">=3\.(\d+)"', pyproject).group(1))
    found = []
    for python in sorted(Path(sys.base_prefix).parent.glob("3.*/bin/python3")):
        version = re.match(r"3\.(\d+)", python.parents[1].name)
        if (version and int(version.group(1)) >= minimum
                and python.parents[1] != Path(sys.base_prefix)):
            found.append(python)
    return found


def test_census_bytes_under_every_supported_python():
    pythons = _other_supported_pythons()
    if not pythons:
        pytest.skip("no other CPython >= requires-python is installed beside this one")
    src = str(Path(qtr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    # 512-wide windows, so --jobs 2 deals N = 3000's 6 windows to a pool
    script = "import sys; from qtr import cli; cli._CHUNK = 512; sys.exit(cli.main())"
    pinned = {"csv": SCAN_37_3000_SHA256, "json": SCAN_JSON_37_3000_SHA256}
    for python in pythons:
        for fmt, jobs in ((fmt, jobs) for fmt in pinned for jobs in ("1", "2")):
            proc = subprocess.run([str(python), "-c", script, "scan", "--ell", "37", "--n-max",
                                   "3000", "--format", fmt, "--jobs", jobs],
                                  capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, (python, fmt, jobs, proc.stderr)
            digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
            assert digest == pinned[fmt], (python, fmt, jobs)


# digest() of test_single_field_gate, for each key of a JSON dict of requests,
# in an interpreter that may not have pytest.
DIGEST_SCRIPT = """
import contextlib, hashlib, io, json, sys
from qtr.cli import main
digests = {}
for key, argvs in json.loads(sys.argv[1]).items():
    h = hashlib.sha256()
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(argv)
        out = out.getvalue()
        h.update(f"{' '.join(argv)}\\n{code} {len(out)}\\n{out}".encode())
    digests[key] = h.hexdigest()
print(json.dumps(digests))
"""


def test_single_field_bytes_under_every_supported_python():
    pythons = _other_supported_pythons()
    if not pythons:
        pytest.skip("no other CPython >= requires-python is installed beside this one")
    src = str(Path(qtr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    # rank and table in every format, and every command's JSON, which
    # cli._json_text writes in place of the stdlib's encoder
    pinned = {key: SINGLE_FIELD_SHA256[key] for key in SINGLE_FIELD_SHA256
              if key.split()[0] in ("rank", "table") or key.endswith(" json")}
    argvs = json.dumps({key: requests(*key.split()) for key in pinned})
    for python in pythons:
        proc = subprocess.run([str(python), "-c", DIGEST_SCRIPT, argvs], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, (python, proc.stderr)
        assert json.loads(proc.stdout) == pinned, python


def test_scan_cost_alternates_its_jobs_at_each_n():
    # one line per run, --jobs 1 then 2 at the one N, each with the census's
    # own sha256 prefix
    script = Path(__file__).resolve().parents[1] / "tools" / "scan_cost.py"
    proc = subprocess.run([sys.executable, str(script), "--n-max", "3000", "--jobs", "1", "2"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert header.split()[:6] == ["N", "jobs", "wall_s", "us_per_n", "rss_mb", "sha256"]
    runs = [(n, jobs, digest) for n, jobs, _, _, _, digest, _ in map(str.split, lines)]
    prefix = SCAN_37_3000_SHA256[:12]
    assert runs == [("3000", "1", prefix), ("3000", "2", prefix)]
    # us_per_n is the wall time per n, both rounded as printed
    for line in lines:
        wall, us_per_n = map(float, line.split()[2:4])
        assert abs(us_per_n * 3000 / 1e6 - wall) <= 0.005 + 3000 * 0.005 / 1e6


def test_scan_cost_times_a_json_scan():
    # --format json runs the JSON scan, with the CSV run's header
    script = Path(__file__).resolve().parents[1] / "tools" / "scan_cost.py"
    proc = subprocess.run([sys.executable, str(script), "--format", "json", "--n-max", "3000"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, line = proc.stdout.splitlines()
    assert header.split()[:6] == ["N", "jobs", "wall_s", "us_per_n", "rss_mb", "sha256"]
    assert line.split()[:2] == ["3000", "1"]
    assert line.split()[5] == SCAN_JSON_37_3000_SHA256[:12]


def test_scan_cost_needs_a_positive_n():
    script = Path(__file__).resolve().parents[1] / "tools" / "scan_cost.py"
    proc = subprocess.run([sys.executable, str(script), "--n-max", "3000", "0"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--n-max must be at least 1" in proc.stderr


def test_scan_cost_needs_a_positive_jobs_count():
    script = Path(__file__).resolve().parents[1] / "tools" / "scan_cost.py"
    proc = subprocess.run([sys.executable, str(script), "--n-max", "10", "--jobs", "1", "0"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--jobs must be at least 1" in proc.stderr


def test_split_cost_counts_every_split_by_its_stage():
    # one line per band in the order given; stage 1, stage 2 and rho split
    # every n of the band between them
    script = Path(__file__).resolve().parents[1] / "tools" / "split_cost.py"
    proc = subprocess.run([sys.executable, str(script), "--bits", "48", "40", "--count", "12"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *lines = proc.stdout.splitlines()
    assert header.split()[:8] == ["bits", "count", "ms_per_split", "median_ms", "max_ms",
                                  "stage1", "stage2", "rho"]
    rows = [line.split() for line in lines]
    assert [row[:2] for row in rows] == [["48", "12"], ["40", "12"]]
    assert [sum(map(int, row[5:8])) for row in rows] == [12, 12]


@pytest.mark.parametrize("n, stage", [(1000003 * 1000667, "rho"),
                                      (10000019 * 10000079, "stage1"),
                                      (9999739 * 10000079, "stage2"),
                                      (10009823 * 10055341, "rho")])
def test_split_cost_names_the_stage_that_splits(n, stage, monkeypatch):
    # the pins of tests/test_ntheory.py: rho after both p-1 stages find
    # nothing, each p-1 stage, and rho after stage 2's gcd is n
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts src/ first
    script = Path(__file__).resolve().parents[1] / "tools" / "split_cost.py"
    spec = importlib.util.spec_from_file_location("split_cost", script)
    split_cost = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(split_cost)
    assert split_cost.split_by(n) == stage


@pytest.mark.parametrize("safe_path", [False, True])
def test_scan_cost_times_this_checkout_not_another_qtr(tmp_path, safe_path):
    # `python -m` puts the working directory first on sys.path: run from a
    # directory holding a stub qtr package, with PYTHONPATH unset or, under
    # PYTHONSAFEPATH, naming that directory, the tool still times and hashes
    # this checkout's census
    stub = tmp_path / "qtr"
    stub.mkdir()
    (stub / "__init__.py").write_text("")
    (stub / "cli.py").write_text("print('stub')\n")
    script = Path(__file__).resolve().parents[1] / "tools" / "scan_cost.py"
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    if safe_path:
        env.update(PYTHONSAFEPATH="1", PYTHONPATH=str(tmp_path))
    proc = subprocess.run([sys.executable, str(script), "--n-max", "3000", "--jobs", "1"],
                          capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    _, line = proc.stdout.splitlines()
    assert line.split()[5] == SCAN_37_3000_SHA256[:12]
