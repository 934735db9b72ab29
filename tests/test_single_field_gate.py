"""Gate tests for the single-field commands: the exact bytes and exit codes of
rank, table, conductor, poly, classify and unit in every format, the one
argparse parser that main reuses for every call in a process that needs it,
and main's own parse of a well-formed command line, which must agree with
argparse's."""

import hashlib
import subprocess
import sys

import pytest

from qtr import cli
from qtr.cli import FORMATS, main

BIG_ELL = 1000000021  # prime, = 5 (mod 8)
ELLS = (5, 37, BIG_ELL)
VALID_N = (
    1,
    2 * 7 * 65521,  # primes from the first and the last trial-division block
    7 * 65519 * 300000007,
    16777259 * 4294967291,  # two 24-32-bit primes
)
# One request per named error, as (ell, n, error); each exits 2.
INVALID = (
    (15, 7, "EllNotPrime"),
    (17, 7, "EllNotFiveMod8"),
    (37, 0, "NNotPositive"),
    (37, 65521**2, "NotSquarefree"),
    (37, 3 * 37, "NotCoprime"),
)
INVALID_ELLS = INVALID[:2]


def requests(command: str, fmt: str) -> list[list[str]]:
    if command == "unit":
        ells = list(ELLS) + [ell for ell, _, _ in INVALID_ELLS]
        return [["unit", "--ell", str(ell), "--format", fmt] for ell in ells]
    pairs = [(ell, n) for ell in ELLS for n in VALID_N] + [(ell, n) for ell, n, _ in INVALID]
    return [[command, "--ell", str(ell), "--n", str(n), "--format", fmt] for ell, n in pairs]


def digest(capsys, command: str, fmt: str) -> str:
    """sha256 over each request's argv, exit code and stdout, in order."""
    h = hashlib.sha256()
    for argv in requests(command, fmt):
        code = main(argv)
        out = capsys.readouterr().out
        h.update(f"{' '.join(argv)}\n{code} {len(out)}\n{out}".encode())
    return h.hexdigest()


# digest(command, fmt), pinned before main reused its parser and before
# factorize divided by blocks of primes.
SINGLE_FIELD_SHA256 = {
    "rank text":
        "9f83b9a4e78b312e2a10e6e10187b880baec0fba146db927f3c531d6397cc165",
    "rank csv":
        "2138c5f5f4003a13e1b7587d9b5e2a4fd15eed9debe8e69540bbebc37d059d2f",
    "rank json":
        "7bf8f289d0a9bf9398042f1d23ec8d939d7b8d31d96c4c64505e47f2833e7fb2",
    "table text":
        "a72700280171cb267bfd80354a8ca90b8eac74b57873f54793a61e1d97d577fa",
    "table csv":
        "0282f2d30ea1cc7da9226e43eb77c333c0f970488207dee7effc3239a8547e3a",
    "table json":
        "d7b5be28265c7ef0104645f6f64d4512a54f8ec53ad1ead450a26570927f755a",
    "conductor text":
        "a249ac2ed39e52aadce380de4fbda57795fec04e939ed3fa119acb70b2b233cf",
    "conductor csv":
        "09609d3479e47c5a9ae9fe3a5d5d48bc2bc2004b6d1f645149f25146bf7925d9",
    "conductor json":
        "531cf9dbe8cbf3edaf1d47481b2dcd6b1bc73ff9c6581980b64819c0d49cf429",
    "poly text":
        "0b987b905671a57681664dcd9c5be86fe1bd3b4341d2f638612ccc0cbbfc7c3a",
    "poly csv":
        "0ec381fa4408c54c73afbd304fe65a97615f0b8c6cfb6fec7d63d55deb5a4cf1",
    "poly json":
        "7970c068826942e60ed9bc796b66b1fceb4bcb844e20d46f1512884da7fccfec",
    "classify text":
        "504941d2ddb4e0e3c59f14cf18a6075f4e9315df45115652772af426cfbdc10b",
    "classify csv":
        "008b2eb8308ffd2197350d11e597ee1e1a2861c96ad1c0d1b357d42f15a5bc09",
    "classify json":
        "0b3521a05f7931501c4bbcbedff07f0d9f0496fec545dbce5f2de9ac0bb44e69",
    "unit text":
        "c71e683d6e935bc9d58788178cdf851b5e8320aece3e819e19087d64fc580ee9",
    "unit csv":
        "dfa70ee66595c4b06d54aa2c6f68802c2a0926743e2b8888960572b1917eace9",
    "unit json":
        "81c0be8b91304d7e386b22599b89a3f4c0f317d68bcee649cc860253c1320223",
}


@pytest.mark.parametrize("key", sorted(SINGLE_FIELD_SHA256))
def test_single_field_bytes(capsys, key):
    command, fmt = key.split()
    assert digest(capsys, command, fmt) == SINGLE_FIELD_SHA256[key]


def test_every_command_and_format_is_pinned():
    commands = ("rank", "table", "conductor", "poly", "classify", "unit")
    assert set(SINGLE_FIELD_SHA256) == {f"{c} {f}" for c in commands for f in FORMATS}


@pytest.mark.parametrize("ell, n, error", INVALID)
def test_invalid_request_names_its_error(capsys, ell, n, error):
    assert main(["rank", "--ell", str(ell), "--n", str(n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {error}: ")


def test_single_field_commands_build_no_census_state(capsys, monkeypatch):
    # the census gate tests compare the scan against these commands' path,
    # so it must read n's primes afresh: no PrimeTable, no sieve, no wheel
    built, sieved, wheels = [], [], []
    real_init, real_sieve = cli.PrimeTable.__init__, cli._keyed_fields
    real_wheel = cli.PrimeTable.wheel.func
    monkeypatch.setattr(cli.PrimeTable, "__init__",
                        lambda self, ell, *bound: built.append(ell) or real_init(self, ell, *bound))
    monkeypatch.setattr(cli, "_keyed_fields",
                        lambda primes, lo, hi: sieved.append(lo) or real_sieve(primes, lo, hi))
    monkeypatch.setattr(cli.PrimeTable.wheel, "func",
                        lambda primes: wheels.append(primes.ell) or real_wheel(primes))
    for command in ("rank", "table", "classify", "conductor", "poly", "unit"):
        for fmt in FORMATS:
            for argv in requests(command, fmt):
                main(argv)
    assert built == [] and sieved == [] and wheels == []
    # the same hooks see a census, whose table builds its wheel once, here in
    # 512-wide windows
    monkeypatch.setattr(cli, "_CHUNK", 512)
    assert main(["scan", "--ell", "37", "--n-max", "600", "--format", "csv"]) == 0
    capsys.readouterr()
    assert built == [37] and sieved == [1, 513] and wheels == [37]


def test_parser_built_through_the_module_global(capsys, monkeypatch):
    # A rebinding of qtr.cli.build_parser, as a tracer makes, sees every
    # build: none for well-formed calls, which main parses itself, and one
    # for each call that needs argparse, here for its --name=value spelling.
    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    for _ in range(3):
        assert main(["unit", "--ell", "29", "--format", "csv"]) == 0
    assert builds == []
    for _ in range(3):
        assert main(["unit", "--ell=29", "--format", "csv"]) == 0
    assert capsys.readouterr().out == "ell,u,v\n29,5,1\n" * 6
    assert builds == [1, 1, 1]


def test_reused_parser_keeps_no_state(capsys):
    # main parses the first spelling of --n-max itself, and argparse the
    # second; either way a call leaves nothing behind for the next
    for n_max in (["--n-max", "300"], ["--n-max=300"]):
        argv = ["scan", "--ell", "37", *n_max, "--format", "csv"]
        assert main(argv[:1] + ["--include-skipped"] + argv[1:]) == 0
        assert "reason" in capsys.readouterr().out.splitlines()[0]
        assert main(argv) == 0
        out = capsys.readouterr().out
        fresh = subprocess.run([sys.executable, "-m", "qtr.cli", *argv],
                               capture_output=True, text=True, check=True)
        assert out == fresh.stdout
        assert "reason" not in out
