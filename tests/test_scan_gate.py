"""Gate tests for the census: its exact bytes, how often each per-field and
per-prime step runs, and the sieve it reads."""

import functools
import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from math import isqrt

import pytest

from qtr import cli, ntheory, rank
from qtr.cli import _CHUNK, PrimeTable, main
from qtr.errors import InternalCheckError, NotCoprime, NotSquarefree
from qtr.ntheory import factor_squarefree, is_prime, legendre, two_squares
from qtr.quad import splitting_type
from qtr.quartic import (KIND_LETTERS, FieldInput, conductor, conductor_parts, prime_kind,
                         shape_class, to_williams, williams_abc)
from qtr.rank import rank_closed, rank_unified

# sha256 of `qtr scan --ell 37 --n-max 3000 --format csv`.
SCAN_37_3000_SHA256 = "8fe8bed324dc67d6ade79c60ecb0dc2208fa464f7070c458a95c5c91fc68f986"


def test_scan_csv_bytes(capsys):
    assert main(["scan", "--ell", "37", "--n-max", "3000", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_37_3000_SHA256


# sha256 of `qtr scan --ell 37 --n-max 3000 --format json`.
SCAN_JSON_37_3000_SHA256 = "052770b8cf740d9fcbebd8d4c6e22dc64f2c19d33404d46d68c52351db9a6d2a"


def test_scan_json_bytes(capsys):
    assert main(["scan", "--ell", "37", "--n-max", "3000", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_JSON_37_3000_SHA256


# sha256 of `qtr scan --ell 37 --n-max 30000 --format csv`, the census of
# perfbench/reference.json.
SCAN_37_30000_SHA256 = "4179f51ef12ad8b688ce6c9ed42dc4c156d68a32c21d0b60b97c415d48b173bd"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_census_csv_bytes(capsys, monkeypatch, jobs):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    argv = ["scan", "--ell", "37", "--n-max", "30000", "--format", "csv", "--jobs", jobs]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_37_30000_SHA256


# sha256 of `qtr scan --ell 37 --n-max 30000` in text, 8 windows sized
# together, without and with --include-skipped.
SCAN_TEXT_30000_SHA256 = {
    (): "831d712b6e31a9ea526aacbf9d861dbf336068f78557e30b719f30ab61951d16",
    ("--include-skipped",): "140b3bb62b6d4b0647f740a5580b02a97716134013112853b578705ec5d847aa",
}


@pytest.mark.parametrize("options", sorted(SCAN_TEXT_30000_SHA256))
def test_scan_text_bytes(capsys, options):
    assert main(["scan", "--ell", "37", "--n-max", "30000", *options]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_TEXT_30000_SHA256[options]


# sha256 of `qtr scan --ell 37 --n-max 30000 --format json`, 8 windows, with
# each set of row options, pinned while the JSON scan was one json.dumps of
# every row.
SCAN_JSON_30000_SHA256 = {
    (): "0d8c5c65e1800ac511e6101a0cbf48a95ed0c032b63d643541a6d4c7904e382a",
    ("--include-skipped",): "47ca5c4e5e4fbb87e668423645f314162c8e7ab24fcf2559ac946d170b7c6138",
    ("--rank", "2"): "9bcd613ec6d67950600e47a359e85179af9112510e5d4b9c94ef8da5226902e5",
    ("--include-skipped", "--rank", "2"):
        "773ce302707afa6d8282bc04ec2dd61612b0e10ebf742dee69fc1100b79a1f66",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("options", sorted(SCAN_JSON_30000_SHA256))
def test_census_json_bytes(capsys, monkeypatch, options, jobs):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    argv = ["scan", "--ell", "37", "--n-max", "30000", "--format", "json", *options]
    assert main(argv + ["--jobs", jobs]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_JSON_30000_SHA256[options]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_json_scan_that_keeps_no_row_is_an_empty_list(capsys, monkeypatch, jobs):
    # no field has rank 99, so none of the 8 windows writes a row
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    argv = ["scan", "--ell", "37", "--n-max", "30000", "--format", "json", "--rank", "99"]
    assert main(argv + ["--jobs", jobs]) == 0
    assert capsys.readouterr().out == "[]\n"


# sha256 over `qtr verify --ell E --n-max 3000 --format json` for the twelve
# panel ells, each request's argv, exit code and stdout in turn.
VERIFY_PANEL_3000_SHA256 = "9cbe07f73980b8961c75e9a102b554e41e7add046b1ee8791c9ad436737704f7"


def test_verify_panel_json_bytes(capsys, panel_ells):
    h = hashlib.sha256()
    for ell in panel_ells:
        argv = ["verify", "--ell", str(ell), "--n-max", "3000", "--format", "json"]
        code = main(argv)
        out = capsys.readouterr().out
        h.update(f"{' '.join(argv)}\n{code} {len(out)}\n{out}".encode())
    assert h.hexdigest() == VERIFY_PANEL_3000_SHA256


# stdout of `qtr verify --ell 37 --n-max 3000` in text and CSV; stderr is empty.
VERIFY_37_3000 = {
    "text": ["ell = 37, n <= 3000: 1776 fields checked",
             *(f"  {check}: 1776 pass, 0 fail"
               for check in ("cross_path", "hilbert", "bridge", "classify"))],
    "csv": ["check,pass,fail",
            *(f"{check},1776,0" for check in ("cross_path", "hilbert", "bridge", "classify"))],
}


@pytest.mark.parametrize("fmt", sorted(VERIFY_37_3000))
def test_verify_bytes(capsys, fmt):
    assert main(["verify", "--ell", "37", "--n-max", "3000", "--format", fmt]) == 0
    out, err = capsys.readouterr()
    assert (out, err) == ("".join(line + "\n" for line in VERIFY_37_3000[fmt]), "")


def count_calls(monkeypatch, module: str, name: str) -> list:
    """Record the first argument of every call, through every binding of the
    function in the qtr modules."""
    original = getattr(sys.modules[module], name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod is not None and (mod_name == "qtr" or mod_name.startswith("qtr.")):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, wrapper)
    return calls


def scan_json(capsys, ell: int, n_max: int) -> list[dict]:
    """The rows of `qtr scan --ell ell --n-max n_max --format json`."""
    assert main(["scan", "--ell", str(ell), "--n-max", str(n_max), "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_census_work_is_per_prime(capsys, monkeypatch):
    # The sieve gives each n its primes, so nothing is factored; the census
    # computes no quartic symbol, each split prime gets one reciprocity
    # check in its prime table, and both rank paths run once per shape
    # class: n's parity and its odd primes' kinds ascending.
    factored = count_calls(monkeypatch, "qtr.ntheory", "factorize")
    tables = count_calls(monkeypatch, "qtr.rank", "character_table")
    symbols = count_calls(monkeypatch, "qtr.ntheory", "quartic_symbol")
    checks = []
    real = cli.legendre
    monkeypatch.setattr(cli, "legendre", lambda a, p: checks.append(p) or real(a, p))
    ranked = count_calls(monkeypatch, "qtr.rank", "flat_ranks")
    rows = scan_json(capsys, 37, 3000)
    assert len(rows) == 1776
    assert factored == [] and tables == [] and symbols == []
    split = {p for row in rows for p in factor_squarefree(row["n"])
             if p not in (2, 37) and legendre(p, 37) == 1}
    assert split and sorted(checks) == sorted(split)
    classes = {(row["n"] % 2, tuple(prime_kind(p, splitting_type(p, 37))
                                    for p in factor_squarefree(row["n"]) if p != 2))
               for row in rows}
    assert 0 < len(ranked) <= len(classes) < len(rows) / 4


@pytest.mark.parametrize("command,symbols", [
    ("scan", 0), ("verify", 0), ("conductor", 0), ("poly", 0), ("classify", 0),
    ("table", 6), ("rank", 6)])
def test_signs_are_computed_only_for_a_printed_table(capsys, monkeypatch, command, symbols):
    # two quartic symbols per split prime of n (41 = p, 67 and 71 = q over
    # ell = 37), and only where a character table is printed: by table, and
    # by rank in text and JSON
    calls = count_calls(monkeypatch, "qtr.ntheory", "quartic_symbol")
    for fmt in ("text", "csv", "json"):
        if command in ("scan", "verify"):
            argv = [command, "--ell", "37", "--n-max", "3000", "--format", fmt]
        else:
            argv = [command, "--ell", "37", "--n", str(41 * 67 * 71), "--format", fmt]
        assert main(argv) == 0
        expected = 0 if (command, fmt) == ("rank", "csv") else symbols
        assert len(calls) == expected, fmt
        calls.clear()
    capsys.readouterr()


# sha256 of `qtr scan --ell ELL --n-max 3000 --format FMT [OPTIONS]`, pinned
# before the census read a sieve.
SCAN_3000_SHA256 = {
    "5 csv":
        "6af8f5cf4fc8e204b7ed8ed27d30e32f5b8b2e1bc366c1bffb7d54daabb18209",
    "5 csv --include-skipped":
        "7f1bd35505dc5e8e87f4b1663ff3f006faeadd61184234aa7716fd245c1a8764",
    "5 csv --rank 2":
        "f0ccf2db1ce8d82f8c17ed2c04a7576b2408798138cd68eb39131d89334936ec",
    "5 csv --include-skipped --rank 2":
        "c44bb76f21869c524e5efbdbbc291064fa23887ba50c8849ea123afb14c07ecc",
    "5 text":
        "9c2f6de1133e7fb0e6bcf37f76d3b4f739b3b4d2709071081f0e5b631bc2600c",
    "5 text --include-skipped":
        "c47be78cd69430c9a63ed40530f9caf6ce552e4c09a07f3b41c191388ff9cc54",
    "5 text --rank 2":
        "1947bd9a3ee2075a537b59a017b942508e3840dc45a71b967fa2ba85cf664632",
    "5 text --include-skipped --rank 2":
        "7cac1e2cf9c79b21ad21a92006268a3f01d0d31ebea8b5a4462181cd0f336459",
    "5 json":
        "535c9dd4019aebfc1d14567ae4c3edb30e8b34c772fd4e96f8616b5c3342dbc2",
    "5 json --include-skipped":
        "24eb0968ac9455ad1c7910e4c40036cacdecb93022ecf861ae4df517655d5e67",
    "5 json --rank 2":
        "3ba5b898a0b1fc06415e4eff1a0a1ff63a9a0f8b5eb36f1841266e840e2052bf",
    "5 json --include-skipped --rank 2":
        "97d067b9b05a37590c87224550e16d8c9bd4e8694299db35d1af7caad54a9216",
    "13 csv":
        "6a03dd2edcac0e646f7b76a6c462b6b12e5d8bfd0b8963acaa0dc314b5a2e983",
    "13 csv --include-skipped":
        "d51dd31da244211d90a5bbb342c2d8193a96ac380d103191a78b48a8e5129247",
    "13 csv --rank 2":
        "ee09fdea1f37a518957afcd3d9dab654628578ae750dbc7afa35ae23248885af",
    "13 csv --include-skipped --rank 2":
        "a3c479f66160a693c1212a89d9640c412fd354b563f3df1034da0c8feb4e6818",
    "13 text":
        "6f63f99085b0484f2bc1d68d2c4eb940b3c92db2b5d83a48b5cb91e242014bd2",
    "13 text --include-skipped":
        "45fa1bb560ce32a14b536bb1ebb2f2bcbf465755da12cbfbfb5120d2fbd8fee5",
    "13 text --rank 2":
        "31d0ba83cc3bff14b5fd455b2b17ed10a1e2df9e3996c0c61a6f19d3fea5b16b",
    "13 text --include-skipped --rank 2":
        "a15e4a66cd690cf75d05e9ad97d4a1343a4a302f2c0c89ae0d7b4a97cac8b021",
    "13 json":
        "76c1935ddb92f9a61c6214d536876642f5f33b8a0fe3ee813b35bf8deb9c3ea0",
    "13 json --include-skipped":
        "d3fb7a57b1379cef6a5fa2a4d3c35c9a480c4b876fa244303e7d22e740e96cd4",
    "13 json --rank 2":
        "67d0638a51396ccdd2ce7f2f66599e6437b7fca6303c72fcf4e012783ed81ea6",
    "13 json --include-skipped --rank 2":
        "716abfa4cca45f3d830b7ce99cb07bffddb5211ec230a04b79980e41db7ce539",
    "197 csv":
        "507e26cec9e6f5e17431b191b02bd43329ed917a9490fb94c6bfc564b1ae5c08",
    "197 csv --include-skipped":
        "e247e7d0701a0851cb7954b901ca63a8ab38bd22073a88fe811f6c564204ad35",
    "197 csv --rank 2":
        "52cd0075b5c970c9ef8c98715432e1b8f9ca3d0c7966d66cbc6594840a5d0617",
    "197 csv --include-skipped --rank 2":
        "cb2285156cd0e44b4758f60ffa463b36ad120b5e6d2ad911eed2f3d5bd7ae888",
    "197 text":
        "9f3ce822a0b21a6bddc3ac746209f3f0f94c7ce6c7be3cb162b55e19d952f2c7",
    "197 text --include-skipped":
        "9ad4b4bdb0421cff77f22aa9a0a1378fe4cd5e5197215a63567ca2671783cc71",
    "197 text --rank 2":
        "79115785480573b31c4f6aa5f8befbb0f15a225a310e4dc3bc0b54575a61f8f1",
    "197 text --include-skipped --rank 2":
        "4561a609104d8732ca4c64a4cd7a1ca413fc83aed0deb8b0c272a2af20232ff3",
    "197 json":
        "958da94405fde4dff578e25396910723f13a0c1d112c9adb116baf7111132359",
    "197 json --include-skipped":
        "16cb49775b715cb21cae0853258b9f4bd9715f93e6275aa1f632271b68d5e905",
    "197 json --rank 2":
        "749906cce8dea140258582ffbc2eb00a9c0f4bda25da3473417d40bd245f0291",
    "197 json --include-skipped --rank 2":
        "7125e5148868543d526278baac988f0b07ec1b113b148deb2aa37fdf0345f8a2",
}


@pytest.mark.parametrize("key", sorted(SCAN_3000_SHA256))
def test_scan_bytes_for_every_format_and_option(capsys, monkeypatch, key):
    # 512-wide windows, so --jobs 2 deals N = 3000's 6 windows to a pool
    monkeypatch.setattr(cli, "_CHUNK", 512)
    ell, fmt, *options = key.split()
    argv = ["scan", "--ell", ell, "--n-max", "3000", "--format", fmt, *options]
    for jobs in ("1", "2"):
        assert main(argv + ["--jobs", jobs]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == SCAN_3000_SHA256[key], jobs


HEADER = "n,delta,shape,mu,r_star,rank,case,conductor"


@pytest.mark.parametrize("n_max,fmt,expected", [
    ("0", "csv", HEADER + "\n"),
    ("1", "csv", HEADER + "\n1,1,1,2,1,0,trivial,52\n"),
    ("-5", "csv", HEADER + "\n"),
    ("0", "text", ""),
    ("-5", "text", ""),
    ("0", "json", "[]\n"),
    ("-5", "json", "[]\n"),
])
def test_scan_below_one_window(capsys, n_max, fmt, expected):
    for jobs in ("1", "2"):
        assert main(["scan", "--ell", "13", "--n-max", n_max, "--format", fmt, "--jobs", jobs]) == 0
        assert capsys.readouterr().out == expected


@functools.lru_cache(maxsize=4096)
def squarefree_factors(n):
    """factor_squarefree(n), or None if n is not squarefree."""
    try:
        return factor_squarefree(n)
    except NotSquarefree:
        return None


def shape_table(ell):
    """A census table whose record of each shape class is the class's shape
    (quartic.shape_class), so the kernel's records are its classes."""
    return PrimeTable(ell, lambda ell, n, shape: shape)


def factored_step(primes, n):
    """The census step of n from factor_squarefree: the skip reason in
    FieldInput's order, or the shape class of n's parity and its odd
    primes' kinds ascending."""
    factors = squarefree_factors(n)
    if factors is None:
        return "NotSquarefree"
    if n % primes.ell == 0:
        return "NotCoprime"
    kinds = [primes[prime % (4 * primes.ell)] for prime in factors if prime != 2]
    return shape_class(2 - n % 2, kinds)


def assert_window_factored(primes, lo, hi):
    """The kernel's window [lo, hi), with and without the reasons of the
    rejected n, equals factored_step at each n."""
    expected = [factored_step(primes, n) for n in range(lo, hi)]
    assert cli._keyed_fields(primes, lo, hi, True) == (list(range(lo, hi)), expected)
    valid = [(n, step) for n, step in zip(range(lo, hi), expected) if type(step) is not str]
    assert cli._keyed_fields(primes, lo, hi) == ([n for n, _ in valid], [step for _, step in valid])


# The kernel takes any window [lo, hi), so the windows checked against
# factorization here are 512 wide, narrower than a census's, which keeps
# that check cheap.  One seeded window at each height from 1e9 to 1e12,
# starting at residues 107, 110, 44 and 163 of the wheel (cli._WHEEL = 210).
_FAR = random.Random(30)
FAR_WINDOWS = [(lo, lo + 512)
               for lo in (10**k + _FAR.randrange(10**6) for k in (9, 10, 11, 12))]
# Windows that hold ell, 2 * ell and ell * p^2: [1, 513) for ell = 5, whose
# 3, 5 and 7 come from the wheel (with 25k), and for ell = 37 (37 * 2^2,
# 37 * 3^2); [4400, 4912) for 5 * 31^2 = 4805 and 37 * 11^2 = 4477; for
# ell = BIG_ELL, above sqrt(hi), ell and 2 * ell.
BIG_ELL = 1000000021
ELL_WINDOWS = [(1, 513), (4400, 4912),
               (BIG_ELL - 100, BIG_ELL + 412), (2 * BIG_ELL - 200, 2 * BIG_ELL + 312)]


# (1553, 2563) starts and ends off any multiple of 512 or of the wheel;
# (_CHUNK + 17, 2 * _CHUNK + 300) is wider than the table's wheel, so it
# repeats the wheel's period, as the census's windows past 2**24 do;
# (9797, 10001): the leftover 101 of 9797 = 97 * 101 is just above
# sqrt(hi - 1) = 100; (10150, 10202): hi - 1 = 101^2, so 101 is a base prime
# and its square is marked.
@pytest.mark.parametrize("lo,hi", [(1, 3001), (29990, 30001), (1553, 2563),
                                   (_CHUNK + 17, 2 * _CHUNK + 300),
                                   (9797, 10001), (10150, 10202),
                                   (1_000_001, 1_000_513), *FAR_WINDOWS, *ELL_WINDOWS])
def test_sieve_window_matches_factorization(lo, hi):
    # ell = 5 is a base prime of every window here, 37 of all but
    # [1, 513), 197 only of some, and BIG_ELL of none
    for ell in (5, 37, 197, BIG_ELL):
        assert_window_factored(shape_table(ell), lo, hi)


def test_sieve_base_grows_across_windows(monkeypatch):
    # from an empty base list, the census's windows cross several growths of
    # it, and a window below its bound afterwards reads a prefix; 512-wide
    # windows cross four growths by N = 2e4, where 4,096-wide ones cross three
    monkeypatch.setattr(ntheory, "_sieve_base", ([], 1))
    monkeypatch.setattr(cli, "_CHUNK", 512)
    primes = shape_table(37)
    bounds = set()
    for lo, hi in [*cli._windows(20000), (1, 513), (3001, 3011)]:
        assert_window_factored(primes, lo, hi)
        bounds.add(ntheory._sieve_base[1])
    assert len(bounds) >= 4 and max(bounds) >= isqrt(20000)


def rule_width(lo):
    """The width of a census window from lo: 4,096, doubled while its square
    is at most lo, up to 32,768."""
    width = 4096
    while width * width <= lo and width < 32768:
        width *= 2
    return width


@pytest.mark.parametrize("n_max,count", [(1, 1), (4096, 1), (4097, 2), (30000, 8),
                                         (2**24 + 5, 4097), (10**9, 44854),
                                         (2**32 + 5, 145409)])
def test_windows_tile_one_to_n_max_widening_with_height(n_max, count):
    # ascending and contiguous from 1 to n_max, each as wide as rule_width
    # but the last, which n_max clips; past 2**30 the power of two above
    # sqrt(lo) outgrows the cap, so 2**32 + 5's last windows are 32,768 wide
    windows = list(cli._windows(n_max))
    assert len(windows) == count
    assert windows[0][0] == 1 and windows[-1][1] == n_max + 1
    assert all(hi == after for (_, hi), (after, _) in zip(windows, windows[1:]))
    assert all(hi - lo == rule_width(lo) for lo, hi in windows[:-1])
    assert 0 < windows[-1][1] - windows[-1][0] <= rule_width(windows[-1][0])


@pytest.mark.parametrize("ell", [37, BIG_ELL])
def test_a_wide_window_equals_its_narrow_windows(ell):
    # the census to 1e9's 32,768-wide window next to its last repeats the
    # wheel's period; its CSV and its kernel pass, rejects listed, equal
    # those of its 64 windows 512 wide, in order
    lo, hi = 999_948_289, 999_981_057
    narrow = [(start, start + 512) for start in range(lo, hi, 512)]
    primes = PrimeTable(ell)
    assert cli._scan_chunk((primes, lo, hi, False, None, True)) == "".join(
        cli._scan_chunk((primes, *window, False, None, True)) for window in narrow)
    passes = [cli._keyed_fields(primes, *window, skipped=True) for window in narrow]
    assert cli._keyed_fields(primes, lo, hi, skipped=True) == (
        [n for fields, _ in passes for n in fields], [r for _, records in passes for r in records])


def test_the_wheel_lengthens_at_the_first_window_of_each_width():
    # the table's wheel is one period until a window outruns it; it is
    # repeated in place then, at the first 4,096-wide window and again at
    # the first 32,768-wide one at 1e9, and every other window is a slice
    primes = PrimeTable(37)
    assert [len(w) for w in primes.wheel] == [cli._WHEEL] * 2
    windows = [*list(cli._windows(30000))[:3], *list(cli._windows(10**9))[-4:-1]]
    assert [hi - lo for lo, hi in windows] == [4096] * 3 + [32768] * 3
    lengthened = []
    for lo, hi in windows:
        keys = primes.wheel[0]
        cli._keyed_fields(primes, lo, hi)
        lengthened.append(primes.wheel[0] is not keys)
    assert lengthened == [True, False, False, True, False, False]


def field_conductor(ell, n):
    """The conductor of (ell, n) from the one conductor rule at n itself."""
    return conductor_parts(*williams_abc(n, two_squares(ell))[:2], ell)[1]


@pytest.mark.parametrize("ell", [5, 37, 197, 1000000021])
def test_every_row_has_the_conductor_of_its_own_n(capsys, ell):
    # the census reads f/n once per shape class; every row's conductor is
    # still the rule's value at its own n, below 3e4 and in windows far past
    # a warm first one
    rows = [(row["n"], row["conductor"]) for row in scan_json(capsys, ell, 30000)]
    primes = PrimeTable(ell)
    window_rows(primes, 1, 513)
    for lo in (100_001, 999_489):
        rows += [(row[0], row[-2]) for row in window_rows(primes, lo, lo + 512) if row[-1] == ""]
    assert len(rows) > 15_000 + 2 * 250
    assert [f for _, f in rows] == [field_conductor(ell, n) for n, _ in rows]


def test_scan_reads_the_conductor_once_per_shape_class(capsys, monkeypatch):
    conductors = count_calls(monkeypatch, "qtr.quartic", "conductor_parts")
    classes = count_calls(monkeypatch, "qtr.cli", "_shape_row")
    rows = scan_json(capsys, 37, 3000)
    assert len(rows) == 1776
    assert 0 < len(conductors) == len(classes) < len(rows) / 4


def test_scan_and_verify_run_one_kernel_pass_per_window(capsys, monkeypatch):
    # both commands enter each window once, through the one entry the pool
    # calls in every process, and read its fields and class records from one
    # call of the one kernel; once every check passes, verify builds each
    # class's record once, as scan builds each class's row once
    entries = count_calls(monkeypatch, "qtr.cli", "_scan_chunk")
    passes = count_calls(monkeypatch, "qtr.cli", "_keyed_fields")
    rows = count_calls(monkeypatch, "qtr.cli", "_shape_row")
    checked = []
    real = cli._class_checks
    monkeypatch.setattr(cli, "_class_checks",
                        lambda ell, n, shape: checked.append(shape) or real(ell, n, shape))
    monkeypatch.setattr(cli, "_CHUNK", 512)
    windows = -(-3000 // 512)
    assert main(["scan", "--ell", "37", "--n-max", "3000", "--format", "csv", "--jobs", "1"]) == 0
    assert len(passes) == len(entries) == windows
    assert main(["verify", "--ell", "37", "--n-max", "3000"]) == 0
    assert "1776 fields checked" in capsys.readouterr().out
    assert len(passes) == len(entries) == 2 * windows
    assert [window[1:3] for window in entries] == 2 * list(cli._windows(3000))
    assert 0 < len(checked) == len(set(checked)) == len(rows) < 1776 / 4


def test_verify_reads_the_conductor_at_every_field(capsys, monkeypatch):
    conductors = count_calls(monkeypatch, "qtr.quartic", "conductor_parts")
    assert main(["verify", "--ell", "37", "--n-max", "3000"]) == 0
    assert "1776 fields checked" in capsys.readouterr().out
    assert len(conductors) == 1776


def test_a_conductor_off_its_class_ratio_is_named(capsys, monkeypatch):
    # n = 41 is the first field of its shape class for ell = 37
    real = cli.conductor_parts

    def conductor_parts(a, b, ell):
        e, f = real(a, b, ell)
        return (e, f + 1) if a == 41 else (e, f)

    monkeypatch.setattr(cli, "conductor_parts", conductor_parts)
    error = "internal error: ell=37 n=41 check=conductor: f = 6069 is not a multiple of n\n"
    assert main(["scan", "--ell", "37", "--n-max", "100", "--format", "json"]) == 3
    assert capsys.readouterr() == ("", error)
    assert main(["scan", "--ell", "37", "--n-max", "100", "--format", "csv"]) == 3
    assert capsys.readouterr() == (HEADER + "\n", error)


def window_rows(primes, lo, hi):
    """The census's rows of n in [lo, hi), as `scan --include-skipped` keeps
    them, in value tuples."""
    return cli._scan_chunk((primes, lo, hi, True, None, False))


SKIPPED = ("",) * 7


def test_sieve_record_checks_its_primes(monkeypatch):
    primes = PrimeTable(37)
    for n in (2 * 3 * 67, 4757):
        assert window_rows(primes, n, n + 1) == [(*record_row(37, n), "")]
        assert cli._scan_chunk((primes, n, n + 1, False, None, False)) == [record_row(37, n)]
    # the same order as FieldInput(ell, n): NotSquarefree before NotCoprime
    assert window_rows(primes, 2 * 37 * 37, 2 * 37 * 37 + 1) == [
        (2 * 37 * 37, *SKIPPED, "NotSquarefree")]
    assert window_rows(primes, 74, 75) == [(74, *SKIPPED, "NotCoprime")]
    # a composite "prime" 15 in the base list divides 15 inexactly: the
    # wheel's 3 * 5 times the fake 15
    real = cli.base_primes
    monkeypatch.setattr(cli, "base_primes", lambda m: [*real(m), 15])
    message = r"sieve product 225 times rest 0 is not n = 15"
    with pytest.raises(InternalCheckError, match=message):
        window_rows(primes, 1, 20)


@pytest.mark.parametrize("ell,coprime_n,square_n", [(5, 5 * 7, 25 * 3), (37, 37 * 41, 37 * 37 * 2),
                                                    (197, 197 * 2, None)])
def test_ell_is_never_in_the_prime_table(monkeypatch, ell, coprime_n, square_n):
    # at N = 3e4, 5 and 37 are base primes of the sieve and 197 is a
    # leftover; either way ell's multiples are skipped before a lookup, so
    # the table's keys are the odd classes mod 4 * ell prime to ell, all met
    primes = PrimeTable(ell)
    for lo, hi in cli._windows(30000):
        cli._scan_chunk((primes, lo, hi, True, None, True))
    assert sorted(primes) == [r for r in range(4 * ell) if r % 2 and r % ell]
    if square_n is not None:
        assert window_rows(primes, square_n, square_n + 1) == [(square_n, *SKIPPED, "NotSquarefree")]
    assert window_rows(primes, coprime_n, coprime_n + 1) == [(coprime_n, *SKIPPED, "NotCoprime")]
    assert all(r % ell for r in primes)
    # the product check runs before the NotCoprime skip; of the keys, only
    # the class of the fake base prime, a multiple of ell, is one too
    real = cli.base_primes
    monkeypatch.setattr(cli, "base_primes", lambda m: [*real(m), coprime_n])
    with pytest.raises(InternalCheckError, match=f"is not n = {coprime_n}$"):
        window_rows(primes, coprime_n, coprime_n + 1)
    assert [r for r in primes if r % ell == 0] == [coprime_n % (4 * ell)]


def record_row(ell, n):
    """The scan row of (ell, n) from the single-field record path, once its
    two rank paths agree: n's primes from factor_squarefree, and the shape
    text from the record's kinds."""
    field = FieldInput(ell, n)
    closed, unified = rank_closed(field), rank_unified(field)
    assert closed == unified
    letters = [KIND_LETTERS[kind] for kind in field.shape.kinds]
    shape = "1"
    if letters:
        kinds, tags = zip(*letters)
        shape = f"{'·'.join(kinds)} [{','.join(tags)}]"
    return (n, field.shape.delta, shape, *closed, conductor(to_williams(field), ell).f)


def record_steps(ell, lo, hi):
    """For each n in [lo, hi), the row of record_row with an empty reason,
    or n and the skip reason FieldInput(ell, n) raises: window_rows from the
    record path."""
    expected = []
    for n in range(lo, hi):
        try:
            expected.append((*record_row(ell, n), ""))
        except (NotSquarefree, NotCoprime) as exc:
            expected.append((n, *SKIPPED, type(exc).__name__))
    return expected


@pytest.mark.parametrize("ell", [5, 13, 37, 197, 1000000021])
def test_census_step_equals_the_record_path(ell):
    # Every n <= 3000, in windows of the census, against FieldInput(ell, n):
    # the row the census writes for a field, and the skip reason otherwise.
    primes = PrimeTable(ell)
    got = [row for lo, hi in cli._windows(3000) for row in window_rows(primes, lo, hi)]
    assert got == record_steps(ell, 1, 3001)
    # the census's record of each field's class, decoded from the kinds in
    # its key, equals the field's own record, rows (and so signs) included
    primes = shape_table(ell)
    for lo, hi in cli._windows(3000):
        for n, shape in zip(*cli._keyed_fields(primes, lo, hi)):
            own = FieldInput(ell, n).shape._replace(primes=())
            assert shape == own, n


@pytest.mark.parametrize("ell", [37, 1000000021])
def test_census_rows_past_1e5_equal_the_record_path(ell):
    # the memo of shape classes is filled by the first window, then read in
    # windows far past it, up to the seeded windows from 1e9 to 1e12
    primes = PrimeTable(ell)
    window_rows(primes, 1, 513)
    warm = len(primes.classes)
    for lo, hi in [(lo, lo + 512) for lo in (100_001, 524_289, 999_489)] + FAR_WINDOWS:
        assert window_rows(primes, lo, hi) == record_steps(ell, lo, hi), (lo, hi)
    assert 0 < warm < len(primes.classes)


@pytest.mark.parametrize("ell", [5, 37, 197, 1000000021])
@pytest.mark.parametrize("include_skipped", [False, True])
@pytest.mark.parametrize("rank_filter", [None, 2])
def test_csv_lines_equal_the_csv_module(ell, include_skipped, rank_filter):
    # each CSV line is n, its class's text and the conductor; the csv module
    # writes the same bytes from the step's value tuples, in the windows of
    # n <= 3000 and in windows far past a warm first one
    primes = PrimeTable(ell)
    windows = [*cli._windows(3000), (100_001, 100_513), (999_489, 1_000_001)]
    for lo, hi in windows:
        text = cli._scan_chunk((primes, lo, hi, include_skipped, rank_filter, True))
        rows = cli._scan_chunk((primes, lo, hi, include_skipped, rank_filter, False))
        assert text == cli._csv_text(rows), (lo, hi)
    assert text


def test_census_builds_no_columns(capsys, monkeypatch):
    # the prime table's fill runs the entry rule alone; only a character
    # table builds its columns
    profiles = count_calls(monkeypatch, "qtr.rank", "ram_profile")
    assert len(scan_json(capsys, 37, 3000)) == 1776
    assert main(["verify", "--ell", "37", "--n-max", "3000"]) == 0
    assert profiles == []
    assert main(["table", "--ell", "37", "--n", "4757"]) == 0
    assert [shape.primes for shape in profiles] == [(67, 71)]
    capsys.readouterr()


@pytest.mark.parametrize("command", ["verify", "scan"])
@pytest.mark.parametrize("ell,error", [("17", "EllNotFiveMod8"), ("35", "EllNotPrime")])
def test_bad_ell_exits_before_any_sieve_work(capsys, monkeypatch, command, ell, error):
    sieved = count_calls(monkeypatch, "qtr.ntheory", "base_primes")
    assert main([command, "--ell", ell, "--n-max", "3000", "--format", "csv"]) == 2
    out, err = capsys.readouterr()
    assert error in err and out == ""
    assert sieved == []


def test_csv_streams_one_window_at_a_time(monkeypatch):
    writes = []
    monkeypatch.setattr(sys, "stdout", type("Sink", (), {"write": writes.append})())
    assert main(["scan", "--ell", "13", "--n-max", str(3 * _CHUNK), "--format", "csv"]) == 0
    assert len(writes) == 4
    assert writes[0] == HEADER + "\n"
    for k, text in enumerate(writes[1:]):
        ns = [int(line.split(",")[0]) for line in text.splitlines()]
        assert k * _CHUNK < min(ns) and max(ns) <= (k + 1) * _CHUNK


def test_a_worker_fills_each_prime_once(monkeypatch):
    # every window a worker runs reads the pool's one table: the reciprocity
    # check (37/p) runs once for each split prime p of its windows, at n = p,
    # the splitting rule once for each class mod 4 * 37 = 148
    classes = count_calls(monkeypatch, "qtr.quad", "splitting_type")
    filled = []
    real = cli.legendre
    monkeypatch.setattr(cli, "legendre", lambda a, p: filled.append(p) or real(a, p))
    table = PrimeTable(37)
    first = cli._scan_chunk((table, 1, _CHUNK + 1, False, None, True))
    assert filled and len(set(filled)) == len(filled)
    seen = len(filled)
    second = cli._scan_chunk((table, _CHUNK + 1, 2 * _CHUNK + 1, False, None, True))
    assert len(filled) > seen and len(set(filled)) == len(filled)
    assert sorted(filled) == [p for p in range(3, 2 * _CHUNK + 1, 2)
                              if p != 37 and is_prime(p) and legendre(p, 37) == 1]
    assert sorted(classes) == sorted(table) == [r for r in range(148) if r % 2 and r % 37]
    primes = PrimeTable(37)
    assert first + second == "".join(cli._scan_chunk((primes, lo, hi, False, None, True))
                                     for lo, hi in cli._windows(2 * _CHUNK))


def test_a_census_table_stays_within_its_classes(capsys, monkeypatch):
    # one kind per class mod 4 * ell: at most phi(148) = 72 entries for
    # ell = 37, however many primes the census meets
    tables = []
    monkeypatch.setattr(cli, "PrimeTable",
                        lambda ell, record: tables.append(PrimeTable(ell, record)) or tables[-1])
    assert main(["scan", "--ell", "37", "--n-max", "100000", "--format", "csv"]) == 0
    assert capsys.readouterr().out.count("\n") > 50_000
    [table] = tables
    assert 0 < len(table) <= 72


def test_a_scan_makes_its_windows_as_they_run():
    # a list of every window's arguments would hold 44,854 tuples at
    # n_max = 1e9; the first window comes with a few MB at most
    tracemalloc.start()
    try:
        windows = cli._census(37, 10**9, 1, cli._shape_row, False, None, True)
        first = next(windows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    windows.close()
    assert first == cli._scan_chunk((PrimeTable(37), 1, _CHUNK + 1, False, None, True))
    assert peak < 4 * 2**20


def test_a_json_scan_holds_one_window_of_rows_at_a_time(monkeypatch):
    # the 8 windows of N = 3e4 as one document of every row peaked at 31.7
    # MiB; written a window at a time, the scan peaks at 2-3 MiB
    digest = hashlib.sha256()
    sink = type("Sink", (), {"write": lambda self, text: digest.update(text.encode())})
    monkeypatch.setattr(sys, "stdout", sink())
    tracemalloc.start()
    try:
        assert main(["scan", "--ell", "37", "--n-max", "30000", "--format", "json"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert digest.hexdigest() == SCAN_JSON_30000_SHA256[()]
    assert peak < 4 * 2**20


def test_a_window_at_the_cap_stays_small():
    # the cap's reason: at 1e10 one 32,768-wide CSV window, on a warm table
    # and base, peaks at 4-5 MiB; the 131,072-wide window of the uncapped
    # rule there peaks at 16-17 MiB
    primes, lo = PrimeTable(37), 10**10
    cli._scan_chunk((primes, 1, _CHUNK + 1, False, None, True))
    ntheory.base_primes(isqrt(lo + 8 * _CHUNK))
    tracemalloc.start()
    try:
        text = cli._scan_chunk((primes, lo, lo + 8 * _CHUNK, False, None, True))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text.count("\n") > 8 * _CHUNK / 2
    assert peak < 6 * 2**20


def test_a_pooled_scan_builds_one_prime_table(capsys, monkeypatch):
    # the workers fork with the table the scan built and validated
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    validated = count_calls(monkeypatch, "qtr.quartic", "validate_ell")
    argv = ["scan", "--ell", "37", "--n-max", "30000", "--format", "csv", "--jobs", "2"]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SCAN_37_30000_SHA256
    assert validated == [37]
    assert_no_child_left()


def test_a_failing_check_in_a_worker_exits_3(capsys, monkeypatch):
    # the pool's worker forks with the broken entry; the first window, which
    # the scan's own process runs, fails at n = 41, and the parent has written
    # the same bytes as --jobs 1 before it
    monkeypatch.setitem(rank._CLOSED_RANK, "p-only:split",
                        lambda t1, t2, s1, s2: 2 * (t1 + t2) + 1)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    outputs = []
    for jobs in ("1", "2"):
        argv = ["scan", "--ell", "37", "--n-max", "30000", "--format", "csv", "--jobs", jobs]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert "ell=37 n=41 check=cross_path" in err
        outputs.append(out)
    assert outputs[0] == outputs[1] == HEADER + "\n"
    assert_no_child_left()


def test_a_failing_check_in_a_forked_worker_exits_3(capsys, monkeypatch):
    # the case pq-no2:q-both first occurs at n = 1995, in 512-wide window 3,
    # which --jobs 2 deals to its forked worker: the worker's exception is
    # raised in the scan's process once windows 0-2 are written, as with
    # --jobs 1
    monkeypatch.setattr(cli, "_CHUNK", 512)
    assert main(["scan", "--ell", "37", "--n-max", "1536", "--format", "csv"]) == 0
    written = capsys.readouterr().out
    real = rank._CLOSED_RANK["pq-no2:q-both"]
    monkeypatch.setitem(rank._CLOSED_RANK, "pq-no2:q-both", lambda *counts: real(*counts) + 1)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    for jobs in ("1", "2"):
        argv = ["scan", "--ell", "37", "--n-max", "3000", "--format", "csv", "--jobs", jobs]
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert err == ("internal error: ell=37 n=1995 check=cross_path: inconsistent rank "
                       "result: mu=7 r*=0 rank=5 case=pq-no2:q-both\n"), jobs
        assert out == written, jobs
    assert_no_child_left()


def test_a_pool_of_j_forks_j_minus_1_workers(capsys, monkeypatch):
    # N = 3500 is 7 windows 512 wide, which neither J = 2 nor J = 3 divides;
    # the scan's own process runs windows 0, J, 2J, ... and J - 1 forked
    # workers the rest, in each format and option
    monkeypatch.setattr(cli, "_CHUNK", 512)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(cli.os, "fork", fork)
    options = ([], ["--include-skipped"], ["--rank", "2"], ["--include-skipped", "--rank", "2"])
    for fmt in cli.FORMATS:
        for option in options:
            argv = ["scan", "--ell", "37", "--n-max", "3500", "--format", fmt, *option]
            assert main(argv + ["--jobs", "1"]) == 0
            serial = capsys.readouterr().out
            for jobs in (1, 2, 3):
                forks.clear()
                assert main(argv + ["--jobs", str(jobs)]) == 0
                assert capsys.readouterr().out == serial, (fmt, option, jobs)
                assert len(forks) == jobs - 1, (fmt, option, jobs)
            assert serial.count("\n") > 30
    assert_no_child_left()


def test_a_pool_at_the_census_width_forks_one_worker(capsys, monkeypatch):
    # N = 3e4 is 8 windows 4,096 wide: --jobs 2 forks one worker, the scan's
    # own process runs windows 0, 2, 4 and 6, and the bytes are --jobs 1's
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(cli.os, "fork", lambda: forks.append(1) or real_fork())
    entries = count_calls(monkeypatch, "qtr.cli", "_scan_chunk")
    argv = ["scan", "--ell", "37", "--n-max", "30000", "--format", "csv"]
    assert main(argv + ["--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    assert forks == [] and len(entries) == 8
    entries.clear()
    assert main(argv + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == serial
    assert forks == [1]
    assert [window[1:3] for window in entries] == list(cli._windows(30000))[::2]
    assert_no_child_left()


def test_a_huge_jobs_count_does_bounded_work(capsys, monkeypatch):
    # on two usable CPUs, --jobs 1e9 at N = 1e12 sizes its pool from at most
    # two windows and asks for two processes, one of them forked; the
    # stubbed pool runs no census
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    walked, pools = [], []
    real_windows = cli._windows

    def windows(n_max):
        for window in real_windows(n_max):
            walked.append(window)
            yield window

    def pooled(workers, windows):
        pools.append(workers)
        yield from ()

    monkeypatch.setattr(cli, "_windows", windows)
    monkeypatch.setattr(cli, "_pooled", pooled)
    argv = ["scan", "--ell", "37", "--n-max", str(10**12), "--format", "csv", "--jobs", str(10**9)]
    assert main(argv) == 0
    assert capsys.readouterr().out == HEADER + "\n"
    assert len(walked) <= 2 and pools == [2]


def assert_no_child_left():
    # every forked worker has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def scan_script(argv, *patches):
    """A fresh interpreter's script: qtr's main(argv) on two usable CPUs,
    after the patch lines; it exits with main's code once every forked
    worker is reaped, and with 9 otherwise."""
    return "\n".join([
        "import os, sys",
        "from qtr import cli",
        "cli._usable_cpus = lambda: 2",
        *patches,
        f"code = cli.main({argv!r})",
        "try:",
        "    os.waitpid(-1, os.WNOHANG)",
        "except ChildProcessError:",
        "    sys.exit(code)",
        "sys.exit(9)  # a worker was left unreaped",
    ])


def test_a_worker_that_dies_without_a_result_exits_3(capsys):
    # in a fresh interpreter, so that a pool that waited forever would fail
    # the timeout instead of stopping the suite; the scan's own process runs
    # window 0 through the same entry, and the forked worker dies at its
    # first window, n = 513..1024 of 512-wide windows
    argv = ["scan", "--ell", "37", "--n-max", "3000", "--format", "csv", "--jobs", "2"]
    script = scan_script(argv, "cli._CHUNK = 512", "scan, real = os.getpid(), cli._scan_chunk",
                         "cli._scan_chunk = lambda args: real(args) if os.getpid() == scan "
                         "else os._exit(0)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert main(["scan", "--ell", "37", "--n-max", "512", "--format", "csv"]) == 0
    assert proc.returncode == 3
    assert proc.stdout == capsys.readouterr().out
    assert proc.stderr == ("internal error: ell=37 window n=513..1024: "
                           "its pool worker ended without a result\n")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_closed_stdout_exits_1_quietly(jobs):
    # the reader, like `| head -1`, closes the pipe after the first line
    argv = ["scan", "--ell", "37", "--n-max", "300000", "--format", "csv", "--jobs", jobs]
    proc = subprocess.Popen([sys.executable, "-c", scan_script(argv)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        assert proc.stdout.readline() == HEADER + "\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert "Traceback" not in err
    assert proc.returncode == 1


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_closed_stdout_exits_1_quietly_in_json(jobs):
    # the JSON scan, whose first window's rows fill the pipe in one write
    argv = ["scan", "--ell", "37", "--n-max", "300000", "--format", "json", "--jobs", jobs]
    proc = subprocess.Popen([sys.executable, "-c", scan_script(argv)], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        assert proc.stdout.readline() == "[\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert "Traceback" not in err
    assert proc.returncode == 1


def test_without_fork_the_pool_runs_serially(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.delattr(cli.os, "fork")
    argv = ["scan", "--ell", "37", "--n-max", "30000", "--format", "csv", "--jobs", "2"]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SCAN_37_30000_SHA256


def test_one_usable_cpu_starts_no_pool(capsys, monkeypatch):
    # the machine may have more CPUs than this process may run on
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)

    def no_pool():
        raise AssertionError("a pool was started on one usable CPU")

    monkeypatch.setattr(cli.os, "fork", no_pool)
    argv = ["scan", "--ell", "37", "--n-max", "30000", "--format", "csv", "--jobs", "2"]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SCAN_37_30000_SHA256
