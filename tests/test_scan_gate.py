"""Gate tests for the census: its exact bytes, and how often each per-field
step runs."""

import hashlib
import sys

from qtr.cli import main, scan_rows

# sha256 of `qtr scan --ell 37 --n-max 3000 --format csv`.
SCAN_37_3000_SHA256 = "8fe8bed324dc67d6ade79c60ecb0dc2208fa464f7070c458a95c5c91fc68f986"


def test_scan_csv_bytes(capsys, monkeypatch):
    monkeypatch.delenv("QTR_DEFAULT_FORMAT", raising=False)
    assert main(["scan", "--ell", "37", "--n-max", "3000", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_37_3000_SHA256


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


def test_each_n_factored_once(monkeypatch):
    factored = count_calls(monkeypatch, "qtr.ntheory", "factorize")
    profiles = count_calls(monkeypatch, "qtr.rank", "ram_profile")
    tables = count_calls(monkeypatch, "qtr.rank", "character_table")
    rows = scan_rows(37, 3000)
    assert sorted(factored) == list(range(1, 3001))
    assert len(rows) == 1776
    assert len(profiles) <= len(rows)
    assert len(tables) <= len(rows)
