import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qtr import cli, quartic, rank
from qtr.cli import COMMANDS, FORMATS, main
from qtr.quartic import validate
from qtr.rank import rank_closed

from .test_quartic import valid_n_values


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRankCommand:
    def test_text_shows_both_paths(self, capsys):
        code, out, _ = run(capsys, "rank", "--ell", "37", "--n", "13")
        assert code == 0
        assert "closed form : rank 1" in out
        assert "class formula: rank 1" in out
        assert "paths agree: yes" in out

    def test_json_rank_two(self, capsys):
        code, out, _ = run(capsys, "rank", "--ell", "101", "--n", "13", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rank"] == 2
        assert payload["closed_rank"] == payload["unified_rank"] == 2
        assert payload["table"]["columns"][0] == "sqrt(101)"

    def test_reads_each_split_prime_once(self, capsys, monkeypatch):
        # 4757 = 67 * 71 over ell = 37: the ranks and the printed table read
        # one entry per prime, and the table one sign, so each quartic symbol
        # runs once
        calls = []
        real = rank.quartic_symbol
        monkeypatch.setattr(rank, "quartic_symbol",
                            lambda a, p: calls.append((a, p)) or real(a, p))
        code, out, _ = run(capsys, "rank", "--ell", "37", "--n", "4757")
        assert code == 0 and "67'" in out
        assert sorted(calls) == [(37, 67), (37, 71), (67, 37), (71, 37)]

    def test_invalid_input_exits_2(self, capsys):
        code, _, err = run(capsys, "rank", "--ell", "37", "--n", "74")
        assert code == 2
        assert "NotCoprime" in err

    def test_ell_dividing_n_exits_2(self, capsys):
        code, _, err = run(capsys, "rank", "--ell", "13", "--n", "26")
        assert code == 2
        assert "NotCoprime" in err

    def test_bad_ell_names_hypothesis(self, capsys):
        code, _, err = run(capsys, "rank", "--ell", "12", "--n", "5")
        assert code == 2
        assert "EllNotPrime" in err
        code, _, err = run(capsys, "rank", "--ell", "17", "--n", "5")
        assert code == 2
        assert "EllNotFiveMod8" in err


class TestScanCommand:
    def test_first_two_rows(self, capsys):
        code, out, _ = run(capsys, "scan", "--ell", "13", "--n-max", "2", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,delta,shape,mu,r_star,rank,case,conductor"
        assert lines[1].startswith("1,1,1,2,1,0,trivial,")
        assert lines[2].startswith("2,2,1,2,1,0,trivial,")

    def test_rank_filter(self, capsys):
        code, out, _ = run(capsys, "scan", "--ell", "5", "--n-max", "10", "--rank", "0",
                           "--format", "csv")
        assert code == 0
        ns = [int(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert ns == [1, 2, 3, 7]

    def test_empty_scan(self, capsys):
        code, out, _ = run(capsys, "scan", "--ell", "37", "--n-max", "0")
        assert code == 0
        assert out == ""

    def test_include_skipped(self, capsys):
        code, out, _ = run(capsys, "scan", "--ell", "13", "--n-max", "4", "--format", "csv",
                           "--include-skipped")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].endswith(",reason")
        assert lines[4].split(",")[0] == "4"
        assert lines[4].endswith("NotSquarefree")

    def test_jobs_do_not_change_output(self, capsys):
        code1, out1, _ = run(capsys, "scan", "--ell", "13", "--n-max", "1100", "--format", "csv")
        code2, out2, _ = run(capsys, "scan", "--ell", "13", "--n-max", "1100", "--format", "csv",
                             "--jobs", "2")
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_jobs_below_one_exits_2(self, capsys, jobs):
        code, out, err = run(capsys, "scan", "--ell", "13", "--n-max", "10", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert "JobsNotPositive" in err

    def test_json_objects_carry_integer_fields(self, capsys):
        code, out, _ = run(capsys, "scan", "--ell", "13", "--n-max", "6", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["n"] == 1 and isinstance(rows[0]["rank"], int)
        assert [row["n"] for row in rows] == [1, 2, 3, 5, 6]  # 4 is skipped


@pytest.mark.parametrize("jobs, cpus, n_max, forks", [
    pytest.param(2, 2, 30000, 1, id="two_jobs_on_two_cpus_keep_two_workers"),
    pytest.param(64, 2, 30000, 1, id="capped_by_cpus"),
    pytest.param(8, 16, 3 * cli._CHUNK, 2, id="capped_by_chunks"),
    pytest.param(8, 16, cli._CHUNK, 0, id="one_chunk_runs_serially"),
    pytest.param(4, None, 30000, 0, id="unknown_cpu_count_runs_serially"),
])
def test_a_pool_has_one_process_per_window_and_cpu(capsys, monkeypatch, jobs, cpus, n_max,
                                                   forks):
    # the scan's own process is one of the pool's, so it forks one worker
    # fewer than the least of jobs, the usable CPUs and the windows (N = 3e4
    # is 8 of them); the bytes are --jobs 1's
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    forked = []
    real_fork = os.fork
    monkeypatch.setattr(cli.os, "fork", lambda: forked.append(1) or real_fork())
    argv = ["scan", "--ell", "37", "--n-max", str(n_max), "--format", "csv"]
    assert main(argv + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert forked == []
    assert main(argv + ["--jobs", str(jobs)]) == 0
    assert capsys.readouterr().out == serial
    assert len(forked) == forks


class TestVerifyCommand:
    def test_small_range_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--ell", "5", "--n-max", "1")
        assert code == 0
        assert "1 fields checked" in out

    def test_full_range_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--ell", "37", "--n-max", "300")
        assert code == 0
        assert "0 fail" in out and "FAIL" not in out

    def test_bad_ell(self, capsys):
        code, _, err = run(capsys, "verify", "--ell", "12", "--n-max", "10")
        assert code == 2
        assert "EllNotPrime" in err

    def test_full_range_37(self, capsys):
        code, out, _ = run(capsys, "verify", "--ell", "37", "--n-max", "3000")
        assert code == 0
        assert "1776 fields checked" in out and "FAIL" not in out

    def test_csv_has_one_row_per_check(self, capsys):
        code, out, err = run(capsys, "verify", "--ell", "37", "--n-max", "3000", "--format", "csv")
        assert code == 0 and err == ""
        assert list(csv.reader(io.StringIO(out))) == [
            ["check", "pass", "fail"], *([check, "1776", "0"] for check in cli._CHECKS)]


def fail_in_the_second_window(monkeypatch):
    """Break the census's rank check at n = 2 * 3 * 7 * 13 = 546, in the
    second 512-wide window, the first field of its shape class, so the
    census runs flat_ranks on it."""
    real = cli.flat_ranks

    def flat_ranks(ell, n, shape):
        if n == 546:
            shape = shape._replace(t1=shape.t1 + 1)  # one inert p too many
        return real(ell, n, shape)

    monkeypatch.setattr(cli, "flat_ranks", flat_ranks)


class TestFailingChecksExit3:
    """A check that fails mid-run exits 3 and names (ell, n) and the check."""

    @pytest.fixture
    def wrong_e_at_13(self, monkeypatch):
        # n = 13 is odd, so its form has a = 13 and an even b
        real = cli.conductor_parts

        def conductor_parts(a, b, ell):
            e, f = real(a, b, ell)
            if (a, b % 2) == (13, 0):
                return 2 if e == 0 else 0, f
            return e, f

        monkeypatch.setattr(cli, "conductor_parts", conductor_parts)

    def test_verify_text_names_the_bridge_failure(self, capsys, wrong_e_at_13):
        code, out, _ = run(capsys, "verify", "--ell", "37", "--n-max", "300")
        assert code == 3
        checked = len(valid_n_values(37, 300))
        assert out.splitlines() == [
            f"ell = 37, n <= 300: {checked} fields checked",
            f"  cross_path: {checked} pass, 0 fail",
            f"  hilbert: {checked} pass, 0 fail",
            f"  bridge: {checked - 1} pass, 1 fail",
            f"  classify: {checked} pass, 0 fail",
            "  FAIL ell=37 n=13 check=bridge",
        ]

    def test_verify_json_lists_the_bridge_failure(self, capsys, wrong_e_at_13):
        code, out, _ = run(capsys, "verify", "--ell", "37", "--n-max", "300", "--format", "json")
        assert code == 3
        summary = json.loads(out)
        assert summary["failures"] == [{"n": 13, "check": "bridge"}]
        checked = len(valid_n_values(37, 300))
        assert summary["fields_checked"] == checked
        assert summary["passed"] == {"cross_path": checked, "hilbert": checked,
                                     "bridge": checked - 1, "classify": checked}

    def test_verify_csv_counts_the_bridge_failure(self, capsys, wrong_e_at_13):
        code, out, err = run(capsys, "verify", "--ell", "37", "--n-max", "300", "--format", "csv")
        assert code == 3
        checked = len(valid_n_values(37, 300))
        assert list(csv.DictReader(io.StringIO(out))) == [
            {"check": check, "pass": str(checked - failed), "fail": str(failed)}
            for check, failed in (("cross_path", 0), ("hilbert", 0), ("bridge", 1),
                                  ("classify", 0))]
        assert err == "FAIL ell=37 n=13 check=bridge\n"

    def test_scan_csv_stops_after_the_first_window(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_CHUNK", 512)  # windows 1..512, 513..1024, ...
        _, first_window, _ = run(capsys, "scan", "--ell", "37", "--n-max", "512",
                                 "--format", "csv")
        fail_in_the_second_window(monkeypatch)
        code, out, err = run(capsys, "scan", "--ell", "37", "--n-max", "2000",
                             "--format", "csv")
        assert code == 3
        assert out == first_window
        assert out.startswith("n,delta,shape,mu,r_star,rank,case,conductor\n")
        assert "ell=37 n=546" in err

    def test_scan_json_stops_after_the_first_window(self, capsys, monkeypatch):
        # window 0's rows, as the document of n <= 512 has them, and no
        # closing bracket
        monkeypatch.setattr(cli, "_CHUNK", 512)
        _, first_window, _ = run(capsys, "scan", "--ell", "37", "--n-max", "512",
                                 "--format", "json")
        fail_in_the_second_window(monkeypatch)
        code, out, err = run(capsys, "scan", "--ell", "37", "--n-max", "2000",
                             "--format", "json")
        assert code == 3
        assert first_window.endswith("\n]\n")
        assert out == first_window[:-len("\n]\n")]
        assert out.startswith('[\n  {\n    "n": 1,')
        assert "ell=37 n=546" in err


class TestRankPathFailuresNamed:
    """A check inside a rank path names (ell, n) and cross_path; in verify the
    checks that read the rank results fail with it, and bridge still runs."""

    def test_scan_names_the_inconsistent_closed_rank(self, capsys, monkeypatch):
        # n = 41 is the first p-only:split field of ell = 37
        monkeypatch.setitem(rank._CLOSED_RANK, "p-only:split",
                            lambda t1, t2, s1, s2: 2 * (t1 + t2) + 1)
        code, out, err = run(capsys, "scan", "--ell", "37", "--n-max", "100", "--format", "csv")
        assert code == 3
        assert out == "n,delta,shape,mu,r_star,rank,case,conductor\n"
        assert err == ("internal error: ell=37 n=41 check=cross_path: inconsistent rank result: "
                       "mu=4 r*=1 rank=3 case=p-only:split\n")

    def test_rank_names_the_inconsistent_closed_rank(self, capsys, monkeypatch):
        monkeypatch.setitem(rank._CLOSED_RANK, "p-only:split",
                            lambda t1, t2, s1, s2: 2 * (t1 + t2) + 1)
        code, out, err = run(capsys, "rank", "--ell", "37", "--n", "41")
        assert code == 3
        assert out == ""
        assert err == ("internal error: ell=37 n=41 check=cross_path: inconsistent rank result: "
                       "mu=4 r*=1 rank=3 case=p-only:split\n")

    def test_verify_counts_every_check_of_a_failed_field(self, capsys, monkeypatch):
        # the -1 entries turn at the kind of a split q.  Below 30 over
        # ell = 37 the split q are 3, 7 and 11 ((37/q) = +1; 19 and 23 are
        # inert), and every other kind's -1 entries are +1 already, so each
        # field with a split q gets an all-plus -1 row: r* from the table
        # rises to 1, and cross_path, and hilbert and classify with it, fail
        # at the 9 such n of the 19 valid n <= 30
        entries = quartic.KIND_ENTRIES
        monkeypatch.setattr(quartic, "KIND_ENTRIES", (*entries[:3], ((1, 1), entries[3][1])))
        code, out, err = run(capsys, "verify", "--ell", "37", "--n-max", "30")
        assert code == 3
        failed = (3, 6, 7, 11, 14, 15, 21, 22, 30)
        assert out.splitlines() == [
            "ell = 37, n <= 30: 19 fields checked",
            "  cross_path: 10 pass, 9 fail",
            "  hilbert: 10 pass, 9 fail",
            "  bridge: 19 pass, 0 fail",
            "  classify: 10 pass, 9 fail",
            *(f"  FAIL ell=37 n={n} check={check}"
              for n in failed for check in ("cross_path", "hilbert", "classify")),
        ]
        assert [line.split(": ")[0] for line in err.splitlines()] == [
            f"ell=37 n={n} check=cross_path" for n in failed]
        assert "r* from table" in err

    def test_verify_names_every_field_of_a_failing_class(self, capsys, monkeypatch):
        # a shape class whose check fails is checked again at each of its
        # fields, so every p-only:inert field (5, 13, 17, ... share one
        # class) fails under its own n
        inert = [n for n in valid_n_values(37, 300)
                 if rank_closed(validate(37, n)).case_tag == "p-only:inert"]
        assert inert[:3] == [5, 10, 13]
        real = rank._CLOSED_RANK["p-only:inert"]
        monkeypatch.setitem(rank._CLOSED_RANK, "p-only:inert",
                            lambda t1, t2, s1, s2: real(t1, t2, s1, s2) + 1)
        code, out, err = run(capsys, "verify", "--ell", "37", "--n-max", "300")
        assert code == 3
        checked = len(valid_n_values(37, 300))
        assert f"  bridge: {checked} pass, 0 fail" in out.splitlines()
        assert [line for line in out.splitlines() if "FAIL" in line] == [
            f"  FAIL ell=37 n={n} check={check}"
            for n in inert for check in ("cross_path", "hilbert", "classify")]
        assert [line.split(": ")[0] for line in err.splitlines()] == [
            f"ell=37 n={n} check=cross_path" for n in inert]


class TestParseTimeLimit:
    """Input is parsed under CPython's 4300-digit int-to-str limit, which main
    lifts only for the command it then runs."""

    @pytest.mark.parametrize("argv", [
        ("rank", "--ell", "37", "--n", "1" + "0" * 4999),
        # negative, so that a limit lifted before parsing ends in an empty scan
        ("scan", "--ell", "37", "--n-max", "-1" + "0" * 4999),
    ])
    def test_over_long_int_exits_2(self, capsys, argv):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err
        assert sys.get_int_max_str_digits() == limit


class TestSmallCommands:
    def test_unit(self, capsys):
        code, out, _ = run(capsys, "unit", "--ell", "29")
        assert code == 0
        assert "u = 5" in out and "v = 1" in out and "-4" in out

    def test_unit_json(self, capsys):
        code, out, _ = run(capsys, "unit", "--ell", "37", "--format", "json")
        assert json.loads(out) == {"ell": 37, "u": 12, "v": 2}

    def test_conductor(self, capsys):
        code, out, _ = run(capsys, "conductor", "--ell", "13", "--n", "3")
        assert code == 0
        assert "e = 0" in out and "= 39" in out

    @pytest.mark.parametrize("argv", [
        ("unit", "--ell", "981591109"),
        ("poly", "--ell", "990129229", "--n", "40969027241"),
    ])
    def test_past_the_int_to_str_limit(self, capsys, argv):
        # u and the polynomial's c2 have more than 4300 digits
        limit = sys.get_int_max_str_digits()
        for fmt in ("text", "csv"):
            assert main([*argv, "--format", fmt]) == 0
        capsys.readouterr()
        assert main([*argv, "--format", "json"]) == 0
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            payload = json.loads(capsys.readouterr().out)
        finally:
            sys.set_int_max_str_digits(limit)
        ell = int(argv[2])
        if argv[0] == "unit":
            u, v = payload["u"], payload["v"]
            assert u > 10 ** 4300
            assert u * u - ell * v * v == -4
        else:
            n = int(argv[4])
            c = payload["coefficients"]
            assert c[4] == n * n * ell and c[2] % (n * ell) == 0

    def test_poly(self, capsys):
        code, out, _ = run(capsys, "poly", "--ell", "13", "--n", "2")
        assert code == 0
        assert "x^4 - 26*x^2 + 52" in out

    def test_table_matches_inert_q_shape(self, capsys):
        code, out, _ = run(capsys, "table", "--ell", "53", "--n", "67")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["unit", "\\", "chi", "sqrt(53)", "67"]
        assert lines[1].split() == ["-1", "+", "+"]
        assert lines[2].split() == ["eps", "-", "-"]

    def test_classify(self, capsys):
        code, out, _ = run(capsys, "classify", "--ell", "53", "--n", "38")
        assert code == 0
        assert "rank 1" in out and "r1.2" in out


class TestFormatSelection:
    def test_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("QTR_DEFAULT_FORMAT", "json")
        code, out, _ = run(capsys, "unit", "--ell", "29")
        assert code == 0
        assert json.loads(out) == {"ell": 29, "u": 5, "v": 1}

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QTR_DEFAULT_FORMAT", "json")
        code, out, _ = run(capsys, "unit", "--ell", "29", "--format", "text")
        assert code == 0
        assert "u = 5" in out

    def test_invalid_env_value(self, capsys, monkeypatch):
        monkeypatch.setenv("QTR_DEFAULT_FORMAT", "xml")
        code, _, err = run(capsys, "unit", "--ell", "29")
        assert code == 2
        assert "unknown format" in err


class TestShapeString:
    @staticmethod
    def shape_text(ell, n):
        return cli._shape_text(validate(ell, n).shape)

    def test_mixed_shape(self):
        # ascending primes 5, 31, 43, 71: only 43 is a residue mod 13
        assert self.shape_text(13, 5 * 43 * 31 * 71) == "p·q·q·q [I,I,S,I]"

    def test_trivial_shape(self):
        assert self.shape_text(13, 2) == "1"


# Tokens outside the command table's grammar, which main leaves to argparse:
# other spellings, help, argparse's markers, and values that are not ints,
# that argparse may read as options, or that pass the int-to-str digit limit.
ODD_TOKENS = ("--ell=37", "--n=13", "--format=csv", "-h", "--help", "--", "", "-", "-²",
              "-5\n", "--n-m", "--inc", "--fo", "x", "1" * 4301, "-" + "1" * 4301)
# int values that int() and argparse read alike: negative, non-ASCII digits, signs,
# spaces, underscores
ODD_INTS = ("-0", "٣٧", "-٣٧", "+5", " 5", "1_3", "-1_3")
OPTIONS = sorted({"--format"} | {option for _, _, required, optional in COMMANDS.values()
                                 for option in (*required, *optional)})
# ells of the family, so that many draws run their command
INTS = (st.sampled_from(("5", "13", "37", "61", "101")) | st.integers(-60, 3000).map(str)
        | st.sampled_from(ODD_INTS))


@st.composite
def command_lines(draw):
    """A command of the table, or an unknown one, and a permutation of its required
    options and some of its others, and maybe an option of another command
    or a repeated one, each followed by a value; then up to two tokens
    inserted or replaced, drawn from ODD_TOKENS, OPTIONS and ints.  ints stay
    at most 3000, so a scan is one window and forks no pool."""
    command = draw(st.sampled_from([*COMMANDS, "bogus"]))
    _, _, required, optional = COMMANDS.get(command, COMMANDS["unit"])
    names = [*required, *draw(st.lists(st.sampled_from([*optional, "--format"]), unique=True))]
    if draw(st.integers(0, 3)) == 0:
        names.append(draw(st.sampled_from(OPTIONS)))
    argv = [command]
    for name in draw(st.permutations(names)):
        argv.append(name)
        if name != "--include-skipped":
            argv.append(draw(st.sampled_from(FORMATS) if name == "--format" else INTS))
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        at = draw(st.integers(0, len(argv)))
        argv[at:at + draw(st.integers(0, 1))] = [draw(st.sampled_from((*ODD_TOKENS, *OPTIONS))
                                                      | INTS)]
    return argv


def outcome(argv):
    """main(argv)'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# sha256 over HELP_AND_ERRORS' outcomes as build_parser().parse_args prints them
# at 80 columns, pinned from the parser that build_parser made before it read
# the command table; the same under CPython 3.10 to 3.13.
HELP_AND_ERRORS = [["-h"], *([command, "-h"] for command in COMMANDS), [], ["bogus"],
                   ["rank", "--ell", "37"], ["scan", "--n", "300", "--ell", "37"],
                   ["unit", "--ell", "x"], ["unit", "--ell", "1" * 4301],
                   ["unit", "--ell", "5", "--format", "xml"],
                   ["scan", "--ell", "5", "--n-max", "9", "--extra"]]
HELP_AND_ERRORS_SHA256 = "f7b67841c80385ea4a35df1942a714e11bba2a8a80b4482218e45a9746cb6916"


class TestCommandLineParse:
    """main parses a command of the table and its options, each once and
    spelled in full, itself, and gives argparse every other command line."""

    def test_help_and_errors_keep_their_bytes(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        h = hashlib.sha256()
        for argv in HELP_AND_ERRORS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    cli.build_parser().parse_args(argv)  # scan --n 300 is --n-max 300
                    code = None
                except SystemExit as exc:
                    code = exc.code
            h.update(f"{argv} {code}\n{out.getvalue()}\n{err.getvalue()}\n".encode())
        assert h.hexdigest() == HELP_AND_ERRORS_SHA256

    @pytest.mark.parametrize("argv", [
        ["rank", "--ell", "37", "--n", "13"],
        ["scan", "--include-skipped", "--jobs", "-2", "--n-max", "-٣٧", "--ell", "٣٧"],
        ["verify", "--format", "json", "--n-max", "1_000", "--ell", " +5"],
    ])
    def test_well_formed_command_lines_are_parsed_here(self, argv):
        args = cli._strict_args(argv)
        assert args is not None
        assert vars(args) == vars(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        ["rank", "--ell=37", "--n", "13"],
        ["scan", "--n", "300", "--ell", "37"],
        ["rank", "-h"], ["-h"], [], [""], ["--", "rank", "--ell", "37", "--n", "13"],
        ["unit", "--ell", "--", "5"], ["unit", "--ell", "-²"], ["unit", "--ell", ""],
        ["unit", "--ell", "5", "--ell", "13"], ["unit", "--ell", "1" * 4301],
        ["unit", "--ell", "-" + "1" * 4301], ["unit", "--ell", "5", "--format"],
        ["unit", "--ell", "5", "--format", "xml"], ["rank", "--ell", "37"],
        ["unit", "--ell", "5", "--include-skipped"], ["scan", "--ell", "5", "--include-skipped", "x"],
    ])
    def test_every_other_command_line_is_left_to_argparse(self, argv):
        assert cli._strict_args(argv) is None

    @seed(37)
    @settings(max_examples=250, deadline=None, database=None)
    @given(argv=command_lines())
    def test_main_parses_as_argparse_does(self, argv):
        # where main parses argv itself, it makes argparse's namespace; where
        # it leaves argv to argparse, it prints what a main parsing every argv
        # with argparse prints
        args = cli._strict_args(argv)
        if args is not None:
            assert vars(args) == vars(cli.build_parser().parse_args(argv))
        else:
            with mock.patch.object(cli, "_strict_args", lambda argv: None):
                expected = outcome(argv)
            assert outcome(argv) == expected


def test_console_script_entry_point():
    proc = subprocess.run([sys.executable, "-m", "qtr.cli", "rank", "--ell", "37", "--n", "13"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "rank 1" in proc.stdout


# strs from all of Unicode, lone surrogates too, with the characters JSON
# escapes or that qtr writes drawn often
JSON_STRS = st.text(st.characters(exclude_categories=()) | st.sampled_from('·"\\\x00\x1f\x7f\n\t')
                    | st.characters(min_codepoint=0x10000))
# ints of every sign, and past CPython's 4300-digit int-to-str limit
JSON_INTS = st.integers() | st.builds(lambda digits, low, sign: sign * (10**digits + low),
                                      st.integers(4290, 4400), st.integers(),
                                      st.sampled_from((1, -1)))


def json_values(depth: int):
    """A value that _json_text writes: a scalar, or dicts with str keys,
    lists and tuples, empty ones too, nested to depth."""
    values = JSON_INTS | JSON_STRS | st.booleans() | st.none()
    for _ in range(depth):
        values = (values | st.lists(values, max_size=4) | st.lists(values, max_size=4).map(tuple)
                  | st.dictionaries(JSON_STRS, values, max_size=4))
    return values


class TestJsonText:
    """cli._json_text writes what json.dumps(indent=2) writes, for the values
    it takes, and refuses the rest."""

    @seed(39)
    @settings(max_examples=400, deadline=None, database=None)
    @given(obj=json_values(4), pad=st.sampled_from(("\n", "\n  ")))
    def test_json_text_equals_json_dumps(self, obj, pad):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # as main writes its answers
        try:
            assert cli._json_text(obj, pad) == json.dumps(obj, indent=2).replace("\n", pad)
        finally:
            sys.set_int_max_str_digits(previous)

    @pytest.mark.parametrize("obj", [1.0, 0.0, {1: "one"}, {"a", "b"}, ["x", {"y": 1.0}]])
    def test_other_values_raise_type_error(self, obj):
        with pytest.raises(TypeError):
            cli._json_text(obj)
