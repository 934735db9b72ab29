"""Named faults, each in one rule, and which outputs catch them at ell = 37:
the checks that fail in `verify --n-max 3000`, the exit code of `scan
--n-max 3000` and whether its bytes change, and whether the bytes of `table
--n 4757` (4757 = 67 * 71, two split q) change.  A fault that no check
catches is recorded as such."""

import hashlib
import json

import pytest

from qtr import cli, quartic, rank
from qtr.cli import main

from .test_scan_gate import SCAN_37_3000_SHA256

ALL_CHECKS = {"cross_path", "hilbert", "bridge", "classify"}


def entries_fault(kind, entries):
    """The kind table, but with the (-1, eps) entries `entries` for every
    odd prime of the kind."""
    table = list(quartic.KIND_ENTRIES)
    table[kind] = entries
    return lambda mp: mp.setattr(quartic, "KIND_ENTRIES", tuple(table))


def negated_sign(mp):
    real = rank._split_sign
    mp.setattr(rank, "_split_sign", lambda prime, ell: -real(prime, ell))


def conductor_fault(exponent):
    """The census's binding of conductor_parts, with e = exponent(a, b)."""
    def conductor_parts(a, b, ell):
        e = exponent(a, b)
        return e, (1 << e) * a * ell

    return lambda mp: mp.setattr(cli, "conductor_parts", conductor_parts)


def mu_fault(count):
    """quartic.ramified_count replaced by count(t1, t2, s1, s2, dyadic)."""
    return lambda mp: mp.setattr(quartic, "ramified_count", count)


def swapped_census_p(mp):
    # the census's kinds, with inert and split p swapped
    real = cli.prime_kind
    mp.setattr(cli, "prime_kind", lambda prime, tag: (1, 0, 2, 3)[real(prime, tag)])


def reversed_class_kinds(mp):
    # the census's shape step, handed each class's kinds in reverse by
    # cli._class_step
    real = cli.shape_class
    mp.setattr(cli, "shape_class", lambda delta, kinds, primes=(): real(delta, kinds[::-1]))


def wide_census_key(mp):
    # the census key's kinds shifted in by 3 bits (cli._keyed_fields) and
    # read back by 2 (cli._class_step)
    real, bits = cli._keyed_fields, cli.CLASS_ID_BITS

    def keyed_fields(primes, lo, hi):
        cli.CLASS_ID_BITS = 3
        try:
            return real(primes, lo, hi)
        finally:
            cli.CLASS_ID_BITS = bits

    mp.setattr(cli, "_keyed_fields", keyed_fields)


def census_split_called_inert(residue):
    """The census's splitting rule, calling every prime = residue (mod 4)
    inert; PrimeTable's reciprocity check guards only a prime called split."""
    def apply(mp):
        real = cli.splitting_type
        mp.setattr(cli, "splitting_type", lambda prime, ell: (
            cli.SplittingType.INERT if prime % 4 == residue else real(prime, ell)))

    return apply


# fault: how to apply it, then the verify checks that fail, the scan's exit
# code, and whether the scan and the table bytes change
FAULTS = {
    "split sign negated": (negated_sign, set(), 0, False, True),
    "inert q: eps entry +1": (entries_fault(2, ((1,), (1,))), {"hilbert"}, 0, False, False),
    "split p: eps entries (1, -1)": (
        entries_fault(1, ((1, 1), (1, -1))), {"hilbert"}, 0, False, False),
    # a split p with one column: the unified path's mu check fails
    "split p: one column": (
        entries_fault(1, ((1,), (1,))), {"classify", "cross_path", "hilbert"}, 3, True, False),
    "split q: -1 entries +1": (
        entries_fault(3, ((1, 1), (1, -1))), {"classify", "cross_path", "hilbert"}, 3, True, True),
    "dyadic never ramifies for odd n": (
        lambda mp: mp.setattr(quartic, "dyadic_ramifies", lambda delta, s: delta == 2),
        ALL_CHECKS, 3, True, True),
    "q-no2:inert rank one too high": (
        lambda mp: mp.setitem(rank._CLOSED_RANK, "q-no2:inert",
                              lambda t1, t2, s1, s2: s1 + s2),
        {"classify", "cross_path", "hilbert"}, 3, True, False),
    "mu counts a split q once": (
        mu_fault(lambda t1, t2, s1, s2, dyadic: 1 + t1 + 2 * t2 + s1 + s2 + dyadic),
        {"classify", "cross_path", "hilbert"}, 3, True, False),
    "mu leaves out the dyadic prime": (
        mu_fault(lambda t1, t2, s1, s2, dyadic: 1 + t1 + 2 * t2 + s1 + 2 * s2),
        {"classify", "cross_path", "hilbert"}, 3, True, False),
    # for odd n, a is odd and b = 2 (mod 4), so this swaps e = 0 and 2
    "conductor e = 2 at (a + b) % 4 == 1": (
        conductor_fault(lambda a, b: 3 if b % 2 else (2 if (a + b) % 4 == 1 else 0)),
        {"bridge"}, 0, True, False),
    "conductor e = 2 for odd b": (
        conductor_fault(lambda a, b: 2 if b % 2 else (2 if (a + b) % 4 == 3 else 0)),
        {"bridge"}, 0, True, False),
    "conductor e = 2 for every odd n": (
        conductor_fault(lambda a, b: 3 if b % 2 else 2), {"bridge"}, 0, True, False),
    "conductor e = 0 for every odd n": (
        conductor_fault(lambda a, b: 3 if b % 2 else 0), {"bridge"}, 0, True, False),
    # caught by no verify check, whose class checks read the census's own
    # record: only by the scan pins and the census tests against the record
    # path (test_census_step_equals_the_record_path)
    "census kind: inert and split p swapped": (swapped_census_p, set(), 0, True, False),
    "census class step: kinds reversed": (reversed_class_kinds, set(), 0, True, False),
    "census splitting: a split p called inert": (
        census_split_called_inert(1), set(), 0, True, False),
    "census splitting: a split q called inert": (
        census_split_called_inert(3), set(), 0, True, False),
    # each misread key still decodes to a valid class, whose own checks pass;
    # bridge, which compares each field's own conductor exponent with its
    # class's, fails at 989 of the 1,776 fields
    "census key: kinds shifted in by 3 bits, read back by 2": (
        wide_census_key, {"bridge"}, 0, True, False),
}


def output(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_which_outputs_catch_a_fault(capsys, monkeypatch, fault):
    table = ("table", "--ell", "37", "--n", "4757")
    _, clean_table = output(capsys, *table)
    apply, failing, scan_code, scan_changes, table_changes = FAULTS[fault]
    apply(monkeypatch)
    code, out = output(capsys, "verify", "--ell", "37", "--n-max", "3000", "--format", "json")
    assert code == (3 if failing else 0)
    assert {failure["check"] for failure in json.loads(out)["failures"]} == failing
    code, scan = output(capsys, "scan", "--ell", "37", "--n-max", "3000", "--format", "csv")
    assert code == scan_code
    assert (hashlib.sha256(scan.encode()).hexdigest() != SCAN_37_3000_SHA256) == scan_changes
    assert (output(capsys, *table) != (0, clean_table)) == table_changes
