"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -rA` to see the lines.

Criterion 1 note: the reference row (ell=29, n=2*41*53*89) was listed with
expected rank 3 and is asserted here with rank 4, which it provably has.  With
k = Q(sqrt 29) (odd class number), rank = mu + r* - 3 by the ambiguous class
number formula for K/k.  The primes of k ramified in K are 41 and 89 (inert),
the two primes above 53 (split), sqrt 29 and 2, so mu = 6.  The unit -1 is a
local norm everywhere, while eps0 = (5 + sqrt 29)/2 = 5/2 (mod sqrt 29) is a
non-residue there, so r* = 1 and the rank is 4.  The derivation is checked in
test_criterion_1_erratum_row_corrected_value without qtr's shape or table
code.  The listed 3 may belong to the two-prime field n = 2*41*53, whose rank 3
is still asserted in that test.
"""

import time
from math import prod

import pytest

from qtr import cli
from qtr.classify import classify_small_rank
from qtr.cli import main
from qtr.errors import NotCoprime, NotSquarefree
from qtr.quad import fundamental_unit
from qtr.quartic import conductor, to_williams, validate
from qtr.rank import character_table, n_shape, r_star, ram_profile, rank_closed, rank_unified

from .conftest import PANEL_ELLS, pell_oracle, trial_division_is_prime

N_MAX = 3000

# (ell, n, expected rank) -- the required regression subset.
PAPER_EXAMPLES = [
    (173, 1, 0),
    (197, 2, 0),
    (53, 67, 0),
    (13, 79, 0),
    (37, 13, 1),
    (29, 17, 1),
    (13, 2 * 41, 1),
    (53, 2 * 19, 1),
    (53, 5 * 7, 1),
    (13, 5 * 11, 1),
    (101, 13, 2),
    (109, 2 * 73, 2),
    (29, 17 * 37, 2),
    (53, 13 * 11, 2),
    (29, 2 * 17 * 11, 2),
    (61, 17 * 37 * 23, 2),
    (37, 79 * 83, 2),
    (13, 2 * 47 * 59, 2),
    (61, 23 * 71 * 83, 2),
    (5, 37 * 89, 3),
    (29, 2 * 41 * 53 * 89, 4),  # listed as 3, see module docstring
    (61, 17 * 53 * 89, 3),
    (29, 2 * 17 * 61 * 89, 3),
    (37, 2 * 53 * 79, 3),
    (29, 2 * 59 * 83, 3),
    (37, 67 * 71, 3),
    (37, 19 * 47 * 71, 3),
    (53, 2 * 7 * 67 * 71, 3),
    (61, 13 * 17 * 43, 3),
    (61, 2 * 29 * 53 * 79, 3),
    (5, 37 * 47 * 71, 3),
    (37, 2 * 17 * 31 * 83, 3),
    (13, 5 * 43 * 31 * 71, 3),
    (37, 13 * 17 * 29 * 83, 3),
]


@pytest.fixture(scope="module")
def panel():
    """One pass over every panel field, shared by criteria 2-5."""
    start = time.monotonic()
    records = []
    for ell in PANEL_ELLS:
        for n in range(1, N_MAX + 1):
            try:
                field = validate(ell, n)
            except (NotSquarefree, NotCoprime):
                continue
            shape = n_shape(field)
            table = character_table(shape, ell)
            records.append({
                "ell": ell,
                "n": n,
                "shape": shape,
                "closed": rank_closed(field),
                "unified": rank_unified(field),
                "table_rank": ram_profile(shape).mu + r_star(table) - 3,
                "row_products": table.row_products(),
                "conductor_e": conductor(to_williams(field), ell).e,
                "classified": classify_small_rank(field),
            })
    return {"records": records, "elapsed": time.monotonic() - start}


def _report(name, failures, checked):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({checked - len(failures)}/{checked})")


def test_criterion_1_paper_example_regression():
    start = time.monotonic()
    failures = []
    for ell, n, expected in PAPER_EXAMPLES:
        field = validate(ell, n)
        closed = rank_closed(field).rank
        unified = rank_unified(field).rank
        if not (closed == unified == expected):
            shape = n_shape(field)
            msg = (f"(ell={ell}, n={n}): expected {expected}, both paths give {closed} "
                   f"(shape: t1={shape.t1} inert / t2={shape.t2} split primes = 1 mod 4, "
                   f"s1={shape.s1} / s2={shape.s2} primes = 3 mod 4, delta={shape.delta})")
            failures.append(msg)
    elapsed = time.monotonic() - start
    _report("criterion 1 (example regression)", failures, len(PAPER_EXAMPLES))
    assert elapsed < 1.0, f"required subset took {elapsed:.2f}s"
    assert not failures, "rank mismatches:\n" + "\n".join(failures)


def test_criterion_1_erratum_row_corrected_value():
    # The two-prime field n = 2*41*53 has rank 3, by both paths.
    field = validate(29, 2 * 41 * 53)
    assert rank_closed(field).rank == rank_unified(field).rank == 3

    # The listed field n = 2*41*53*89 has rank 4.  Derived here from Legendre
    # symbols alone, sharing no code with qtr's shape or table extraction:
    # k = Q(sqrt ell) has odd class number (ell is prime), so the ambiguous
    # class number formula for K = k(sqrt alpha), alpha = n*eps0*sqrt(ell),
    # gives rank = mu + r* - 3.
    ell, odd_primes = 29, (41, 53, 89)
    n = 2 * 41 * 53 * 89
    assert all(trial_division_is_prime(p) for p in (ell, *odd_primes))

    def legendre(a, p):
        return -1 if pow(a, (p - 1) // 2, p) == p - 1 else 1

    # mu: each odd p | n divides alpha once, and splits in k iff (ell/p) = +1.
    # sqrt(ell) divides alpha once (ell does not divide n).  2 is inert in k
    # (ell = 5 mod 8) and divides n once.  Every other prime is unramified.
    split = {p: legendre(ell, p) == 1 for p in odd_primes}
    assert split == {41: False, 53: True, 89: False}
    assert n % ell != 0 and ell % 8 == 5 and n % 4 == 2
    mu = sum(2 if s else 1 for s in split.values()) + 1 + 1  # + sqrt(ell) + 2
    assert mu == 6

    # eps0 = (u + v sqrt ell)/2 has norm -1, so its conjugate is negative and
    # alpha is totally positive: no real place ramifies.
    u, v = pell_oracle(ell, 10)
    assert (u, v) == (5, 1) and u * u - ell * v * v == -4

    # r*: 2^r* is the number of classes of {1, -1, eps0, -eps0} that are norms
    # from K.  At a ramified odd prime P, a unit is a local norm iff it is a
    # square in O_k/P: F_{p^2} for inert p, F_p at each of the two primes
    # above a split p, and F_ell at sqrt(ell).
    minus_one_odd = (
        [1 if pow(p - 1, (p * p - 1) // 2, p) == 1 else -1 for p in odd_primes if not split[p]]
        + [legendre(-1, p) for p in odd_primes if split[p] for _ in range(2)]
        + [legendre(-1, ell)]
    )
    # Real places and unramified primes contribute +1, so by the product
    # formula the symbol of -1 at 2 is the product of the odd ones.
    minus_one_dyadic = prod(minus_one_odd)
    minus_one_is_norm = all(s == 1 for s in minus_one_odd) and minus_one_dyadic == 1
    # eps0 = u/2 (mod sqrt ell).  A non-residue at one place is no norm.
    eps0_mod = u * pow(2, -1, ell) % ell
    assert legendre(eps0_mod, ell) == legendre(-eps0_mod % ell, ell) == -1
    r_star = 1 if minus_one_is_norm else 0
    assert r_star == 1

    rank = mu + r_star - 3
    assert rank == 4
    listed = validate(ell, n)
    assert rank_closed(listed).rank == rank_unified(listed).rank == rank


def test_criterion_1_excluded_row_2_51():
    # The excluded "n = 2p = 2*51" row: 51 = 3*17 is composite, so n = 102
    # is not of the claimed one-prime shape.  It is still a valid field and
    # its rank is 2 (shape 2*q*p with 17 inert above 61), not 1.
    field = validate(61, 102)
    assert rank_closed(field).rank == rank_unified(field).rank == 2


def test_criterion_2_cross_path_equivalence(panel):
    records = panel["records"]
    failures = [(r["ell"], r["n"]) for r in records
                if not (r["closed"].rank == r["unified"].rank == r["table_rank"])]
    _report("criterion 2 (cross-path equivalence)", failures, len(records))
    assert panel["elapsed"] < 60.0, f"panel pass took {panel['elapsed']:.1f}s"
    assert not failures, failures[:20]


def test_criterion_3_hilbert_product(panel):
    records = panel["records"]
    failures = [(r["ell"], r["n"]) for r in records if r["row_products"] != (1, 1, 1)]
    _report("criterion 3 (Hilbert product)", failures, len(records))
    assert not failures, failures[:20]


def test_criterion_4_conductor_bridge(panel):
    records = panel["records"]
    failures = [(r["ell"], r["n"]) for r in records
                if (r["conductor_e"] == 0) != (not r["shape"].dyadic_ramifies)]
    _report("criterion 4 (conductor bridge)", failures, len(records))
    assert not failures, failures[:20]


def test_criterion_5_classification_soundness(panel):
    records = panel["records"]
    failures = []
    for r in records:
        rank = r["closed"].rank
        cls = r["classified"]
        ok = cls.rank == rank if rank <= 3 else cls.rank is None
        if not ok:
            failures.append((r["ell"], r["n"]))
    _report("criterion 5 (small-rank classification)", failures, len(records))
    assert not failures, failures[:20]


def test_criterion_6_fundamental_unit():
    cap = 10**6
    failures = []
    checked = 0
    spot = {5: (1, 1), 13: (3, 1), 29: (5, 1)}
    for ell in range(5, 2000, 8):
        if not trial_division_is_prime(ell):
            continue
        checked += 1
        unit = fundamental_unit(ell)
        if unit.u**2 - ell * unit.v**2 != -4:
            failures.append((ell, "identity"))
            continue
        if ell in spot and (unit.u, unit.v) != spot[ell]:
            failures.append((ell, "spot value"))
        if unit.v <= cap:
            if pell_oracle(ell, unit.v) != (unit.u, unit.v):
                failures.append((ell, "oracle mismatch"))
        else:
            # Oracle capped out (so no solution with v <= 10^6 exists; that
            # scan is itself a minimality check).  Structurally, the unit
            # must not be a proper power: odd powers of a smaller unit would
            # show up as integer roots of x^3 + 3x = u or x^5 + 5x^3 + 5x = u.
            if pell_oracle(ell, cap) is not None:
                failures.append((ell, "smaller solution below cap"))
            for poly in (lambda x: x**3 + 3 * x, lambda x: x**5 + 5 * x**3 + 5 * x):
                lo, hi = 1, unit.u
                while lo < hi:
                    mid = (lo + hi) // 2
                    if poly(mid) < unit.u:
                        lo = mid + 1
                    else:
                        hi = mid
                if poly(lo) == unit.u:
                    failures.append((ell, "unit is a proper power"))
    _report("criterion 6 (fundamental units)", failures, checked)
    assert checked == 79
    assert not failures, failures


def test_criterion_7_scan_determinism(capsys, monkeypatch):
    # 512-wide windows, so --jobs 8 deals N = 3000's 6 windows to a pool
    monkeypatch.setattr(cli, "_CHUNK", 512)
    code1 = main(["scan", "--ell", "37", "--n-max", "3000", "--format", "csv", "--jobs", "1"])
    out1 = capsys.readouterr().out
    code8 = main(["scan", "--ell", "37", "--n-max", "3000", "--format", "csv", "--jobs", "8"])
    out8 = capsys.readouterr().out
    identical = code1 == code8 == 0 and out1 == out8
    print(f"ACCEPTANCE criterion 7 (scan determinism): {'PASS' if identical else 'FAIL'}")
    assert identical
    assert out1.splitlines()[0] == "n,delta,shape,mu,r_star,rank,case,conductor"
