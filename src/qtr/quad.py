"""The real quadratic subfield k = Q(sqrt(ell)): fundamental unit, prime splitting."""

from __future__ import annotations

import functools
from enum import Enum
from math import isqrt
from typing import NamedTuple

from .errors import InternalCheckError, PeriodBudgetExceeded
from .ntheory import legendre

# The most partial quotients fundamental_unit walks: five times the longest
# period, 26,341 (0.08 s), of the 5,944 ell <= 1e9 of the benchmark's request
# pool.  The work grows with the square of the period: the budget takes 1.5 s
# (shared 2-vCPU host, Python 3.11).
_PERIOD_BUDGET = 1 << 17


class FundamentalUnit(NamedTuple):
    """eps0 = (u + v*sqrt(ell))/2 with u^2 - ell*v^2 = -4 and v minimal.

    For ell prime = 1 (mod 4) the fundamental unit has norm -1, so such a
    (u, v) always exists.  u and v are either both odd (genuine half-integer
    unit, e.g. ell = 5, 13, 29) or both even (integer unit, e.g. ell = 37,
    101, 197, where no half-integer solution exists).
    """

    u: int
    v: int


class SplittingType(Enum):
    INERT = "inert"
    SPLIT = "split"
    RAMIFIED = "ramified"


@functools.lru_cache(maxsize=None)
def fundamental_unit(ell: int) -> FundamentalUnit:
    """Fundamental unit of Q(sqrt(ell)) by continued fractions, exactly.

    Expands w = (1 + sqrt(ell))/2 with the integer P,Q recursion

        a_i = floor((P_i + sqrt(ell)) / Q_i),
        P_{i+1} = a_i Q_i - P_i,   Q_{i+1} = (ell - P_{i+1}^2) / Q_i.

    One step gives beta = w1 = 1/(w - a0) = (P1 + sqrt(ell))/Q1, which is
    reduced: w1 > 1, and its conjugate 1/(w' - a0) lies in (-1, 0) because
    w' - a0 < -1.  By Galois' theorem on purely periodic continued fractions
    the expansion is periodic from w1 (for ell = 5, w1 = w).  So one walk
    around the period from (P1, Q1) back to (P1, Q1), multiplying the
    partial-quotient matrices on the way, gives the smallest automorphism,
    i.e. the fundamental unit eps0 = C*beta + D.  All intermediate values are
    exact ints: convergent entries outgrow machine words even for small ell.
    A period longer than _PERIOD_BUDGET raises PeriodBudgetExceeded.
    """
    if ell % 8 != 5:
        raise InternalCheckError(f"fundamental_unit needs ell = 5 (mod 8), got {ell}")
    root = isqrt(ell)
    P1 = 2 * ((1 + root) // 2) - 1  # a0 = floor(w), P0 = 1, Q0 = 2
    Q1 = (ell - P1 * P1) // 2
    P, Q = P1, Q1
    # One trip around the period: (C, D) is the bottom row of the product
    # of the matrices [[a, 1], [1, 0]], all eps0 = C*beta + D needs.
    C, D = 0, 1
    for _ in range(_PERIOD_BUDGET):
        a = (P + root) // Q
        C, D = C * a + D, C
        P = a * Q - P
        Q = (ell - P * P) // Q
        if P == P1 and Q == Q1:
            break
    else:
        raise PeriodBudgetExceeded(
            f"the period of ell = {ell} is longer than {_PERIOD_BUDGET} partial quotients"
        )

    u, ru = divmod(2 * (C * P1 + D * Q1), Q1)
    v, rv = divmod(2 * C, Q1)
    if ru or rv or u <= 0 or v <= 0 or u * u - ell * v * v != -4:
        raise InternalCheckError(f"Pell identity u^2 - ell*v^2 = -4 fails: ell={ell} u={u} v={v}")
    return FundamentalUnit(u, v)


def splitting_type(r: int, ell: int) -> SplittingType:
    """How the prime r behaves in Q(sqrt(ell)), ell prime = 5 (mod 8), read
    from (r/ell) alone, so a class's least residue stands for its primes: 2
    is inert, as (2/ell) = -1; only a library call passes r = ell (RAMIFIED)."""
    if r == ell:
        return SplittingType.RAMIFIED
    return SplittingType.SPLIT if legendre(r, ell) == 1 else SplittingType.INERT
