"""The real quadratic subfield k = Q(sqrt(ell)): fundamental unit, prime splitting."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from math import isqrt

from .errors import InternalCheckError
from .ntheory import legendre


@dataclass(frozen=True)
class FundamentalUnit:
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
        P_{i+1} = a_i Q_i - P_i,   Q_{i+1} = (ell - P_{i+1}^2) / Q_i,

    until a state (P, Q) repeats.  The repeating tail is the cycle of reduced
    irrationals; multiplying its partial-quotient matrices gives the smallest
    automorphism, i.e. the fundamental unit eps0 = C*beta + D where beta is
    the state entering the cycle.  All intermediate values are exact ints:
    convergent entries outgrow machine words even for small ell.
    """
    if ell % 8 != 5:
        raise InternalCheckError(f"fundamental_unit needs ell = 5 (mod 8), got {ell}")
    root = isqrt(ell)
    seen: dict[tuple[int, int], int] = {}
    quots: list[int] = []
    P, Q = 1, 2
    while (P, Q) not in seen:
        seen[(P, Q)] = len(quots)
        a = (P + root) // Q
        quots.append(a)
        P = a * Q - P
        Q = (ell - P * P) // Q
    start = seen[(P, Q)]

    # One trip around the cycle: M = prod over [[a, 1], [1, 0]].
    A, B, C, D = 1, 0, 0, 1
    for a in quots[start:]:
        A, B, C, D = A * a + B, A, C * a + D, C

    # Re-walk the preperiod to recover beta = (P + sqrt(ell))/Q at the cycle.
    P, Q = 1, 2
    for a in quots[:start]:
        P = a * Q - P
        Q = (ell - P * P) // Q

    u, ru = divmod(2 * (C * P + D * Q), Q)
    v, rv = divmod(2 * C, Q)
    if ru or rv or u <= 0 or v <= 0 or u * u - ell * v * v != -4:
        raise InternalCheckError(f"Pell identity u^2 - ell*v^2 = -4 fails: ell={ell} u={u} v={v}")
    return FundamentalUnit(u, v)


def splitting_type(r: int, ell: int) -> SplittingType:
    """How the rational prime r behaves in Q(sqrt(ell)), ell prime = 5 (mod 8)."""
    if r == ell:
        return SplittingType.RAMIFIED
    if r == 2:
        return SplittingType.INERT  # ell = 5 (mod 8) makes 2 a non-residue
    return SplittingType.SPLIT if legendre(r, ell) == 1 else SplittingType.INERT
