"""Named faults, each in one rule, and which outputs catch them at ell = 37:
the checks that fail in `verify --n-max 3000`, and whether the bytes of
`scan --n-max 3000` and of `table --n 4757` (4757 = 67 * 71, two split q)
change.  A fault that no check catches is recorded as such."""

import hashlib
import json

import pytest

from qtr import quartic, rank
from qtr.cli import main
from qtr.quad import SplittingType

from .test_scan_gate import SCAN_37_3000_SHA256

I, S = SplittingType.INERT, SplittingType.SPLIT


def entries_fault(p_mod_4, tag, entries):
    """The entry rule, but with the (-1, eps) entries `entries` for every
    odd prime of the kind (p mod 4, tag)."""
    real = quartic._prime_entries
    return lambda prime, t: entries if (prime % 4, t) == (p_mod_4, tag) else real(prime, t)


def negated_sign():
    real = rank._split_sign
    return lambda prime, ell: -real(prime, ell)


# fault: (module, name, the replacement's factory), then the verify checks
# that fail, and whether the scan and the table bytes change
FAULTS = {
    "inert q: eps entry +1": (
        (quartic, "_prime_entries", lambda: entries_fault(3, I, ((1,), (1,)))),
        {"hilbert"}, False, False),
    "split p: eps entries (1, -1)": (
        (quartic, "_prime_entries", lambda: entries_fault(1, S, ((1, 1), (1, -1)))),
        {"hilbert"}, False, False),
    "split sign negated": ((rank, "_split_sign", negated_sign), set(), False, True),
}


def output(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_which_outputs_catch_a_fault(capsys, monkeypatch, fault):
    monkeypatch.delenv("QTR_DEFAULT_FORMAT", raising=False)
    table = ("table", "--ell", "37", "--n", "4757")
    _, clean_table = output(capsys, *table)
    (module, name, replacement), failing, scan_changes, table_changes = FAULTS[fault]
    monkeypatch.setattr(module, name, replacement())
    code, out = output(capsys, "verify", "--ell", "37", "--n-max", "3000", "--format", "json")
    assert code == (3 if failing else 0)
    assert {failure["check"] for failure in json.loads(out)["failures"]} == failing
    code, scan = output(capsys, "scan", "--ell", "37", "--n-max", "3000", "--format", "csv")
    assert code == 0
    assert (hashlib.sha256(scan.encode()).hexdigest() != SCAN_37_3000_SHA256) == scan_changes
    assert (output(capsys, *table) != (0, clean_table)) == table_changes
