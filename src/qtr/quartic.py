"""Descriptors of the quartic field K = Q(sqrt(n*eps0*sqrt(ell))).

Validation of (ell, n) into the one per-field record FieldInput; the shape
step (shape_class), which turns n's delta and its odd primes' kinds into
the NShape both rank paths read, for a FieldInput and for each shape class
of the census alike; conversion to and from the canonical presentation
K = Q(sqrt(a*(ell + b*sqrt(ell)))), the conductor, and the defining
polynomial.  The radicand itself is never materialized; the pair (ell, n)
carries everything.
"""

from __future__ import annotations

from operator import mul
from typing import NamedTuple, Sequence

from .errors import (
    EllNotFiveMod8,
    EllNotPrime,
    NNotPositive,
    NotCoprime,
)
from .ntheory import TwoSquares, factor_squarefree, is_prime, two_squares
from .quad import SplittingType, fundamental_unit, splitting_type

# The letters of the four kinds of odd prime in n, in the order of the counts
# t1, t2, s1, s2: p = 1 or q = 3 (mod 4), inert (I) or split (S) in k.
KIND_LETTERS = (("p", "I"), ("p", "S"), ("q", "I"), ("q", "S"))


def prime_kind(prime: int, tag: SplittingType) -> int:
    """Which of the counts t1, t2, s1, s2 an odd prime of n bumps, read from
    prime mod 4 and tag alone, so a class's least residue stands for its primes."""
    return (2 if prime % 4 == 3 else 0) + (1 if tag is SplittingType.SPLIT else 0)


def dyadic_ramifies(delta: int, s: int) -> bool:
    """Whether the prime of k above 2 ramifies in K: always unless n is odd
    with an odd number s of q-factors (conductor exponent 0)."""
    return delta == 2 or s % 2 == 0


def ramified_count(t1: int, t2: int, s1: int, s2: int, dyadic: bool) -> int:
    """mu, the number of primes of k that ramify in K: sqrt(ell), one above
    each inert odd prime of n, two above each split one, and the dyadic one."""
    return 1 + t1 + 2 * t2 + s1 + 2 * s2 + dyadic


# The character-table entry rule, indexed by kind as KIND_LETTERS: an odd
# prime's (-1, eps) entries, one per column (rank.ram_profile), a split
# prime's sign left out (character_table adds it); eps = (u + v*sqrt(ell))/2, norm -1.
#   inert p = 1 (mod 4): (+, +); inert q = 3 (mod 4): (+, -) -- the eps
#     character at an inert prime r is (-1/r) because eps^(r+1) = -1 there.
#   split p = 1 (mod 4): (+, sigma) in both conjugate columns, kept (+, +).
#   split q = 3 (mod 4): -1 entries for the unit -1, and tau, -tau for eps
#     in the two conjugate columns, kept as 1, -1.
KIND_ENTRIES = (((1,), (1,)), ((1, 1), (1, 1)), ((1,), (-1,)), ((-1, -1), (1, -1)))


class NShape(NamedTuple):
    """The shape of n = delta * (primes = 1 mod 4) * (primes = 3 mod 4) over
    k, everything both rank paths read: delta (2 exactly when n is even);
    the odd primes ascending, which only a character table's columns read
    (empty in a census record); whether the prime above 2 ramifies; the
    counts t1/t2 and s1/s2 of the inert/split p- and q-factors; mu, the
    number of ramified primes of k; the odd primes' kinds ascending; and the
    rows -1, eps, -eps of the character table, split signs left out.
    shape_class builds it."""

    delta: int
    primes: tuple[int, ...]
    dyadic_ramifies: bool
    t1: int
    t2: int
    s1: int
    s2: int
    mu: int
    kinds: tuple[int, ...]
    rows: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def shape_class(delta: int, kinds: Sequence[int], primes: tuple[int, ...] = ()) -> NShape:
    """The shape step: the NShape of n from its delta, its odd primes'
    kinds ascending (prime_kind) and, for the single-field path, the primes.
    The rows are in column order: sqrt(ell) with (+, -), as eps reduces to a
    non-residue there; each odd prime's KIND_ENTRIES; and, when it ramifies,
    the dyadic prime with (+, (-1)^(s+1)) for the number s of q-factors.  The
    -eps row is the entrywise product of the other two."""
    counts = [0, 0, 0, 0]
    row_m1, row_eps = [1], [-1]
    for kind in kinds:
        counts[kind] += 1
        m1, eps = KIND_ENTRIES[kind]
        row_m1 += m1
        row_eps += eps
    t1, t2, s1, s2 = counts
    dyadic = dyadic_ramifies(delta, s1 + s2)
    if dyadic:
        row_m1.append(1)
        row_eps.append(1 if (s1 + s2) % 2 else -1)
    rows = (tuple(row_m1), tuple(row_eps), tuple(map(mul, row_m1, row_eps)))
    return NShape(delta, primes, dyadic, t1, t2, s1, s2, ramified_count(t1, t2, s1, s2, dyadic),
                  tuple(kinds), rows)


class _FieldFields(NamedTuple):
    ell: int
    n: int
    shape: NShape


class FieldInput(_FieldFields):
    """Valid (ell, n): ell prime = 5 (mod 8), n squarefree, coprime to ell.

    The one record per field.  FieldInput(ell, n) checks each hypothesis in
    turn or raises the named error, factors n once, and keeps its shape,
    whose kinds it computes afresh from each odd prime's splitting.
    """

    __slots__ = ()

    def __new__(cls, ell: int, n: int):
        validate_ell(ell)
        if n < 1:
            raise NNotPositive(f"n = {n} is not a positive integer")
        primes = tuple([p for p in factor_squarefree(n) if p != 2])  # raises NotSquarefree
        if n % ell == 0:
            raise NotCoprime(f"gcd(n, ell) = {ell} > 1")
        kinds = [prime_kind(p, splitting_type(p, ell)) for p in primes]
        return super().__new__(cls, ell, n, shape_class(2 - n % 2, kinds, primes))

    def __getnewargs__(self):
        return self.ell, self.n


class WilliamsForm(NamedTuple):
    """Parameters of K = Q(sqrt(a*(ell + b*sqrt(ell)))), ell = b^2 + c^2.

    a is odd, squarefree and prime to ell; exactly one of b, c is odd.
    """

    a: int
    b: int
    c: int


class Conductor(NamedTuple):
    e: int  # one of 0, 2, 3
    f: int  # 2^e * a * ell


def validate_ell(ell: int) -> int:
    if not is_prime(ell):
        raise EllNotPrime(f"ell = {ell} is not prime")
    if ell % 8 != 5:
        raise EllNotFiveMod8(f"ell = {ell} is not 5 (mod 8)")
    return ell


def validate(ell: int, n: int) -> FieldInput:
    """Gatekeeper: check every hypothesis on (ell, n) or raise the named error."""
    return FieldInput(ell, n)


def williams_abc(n: int, legs: TwoSquares) -> tuple[int, int, int]:
    """Canonical (a, b, c) for the field of n over ell = legs.b^2 + legs.c^2.

    n odd means the radicand carries no factor 2, so a = n and b is the even
    leg of ell; n even means n = 2a with the odd leg in the b slot.
    """
    if n % 2 == 1:
        return n, legs.b, legs.c
    return n // 2, legs.c, legs.b


def to_williams(field: FieldInput) -> WilliamsForm:
    return WilliamsForm(*williams_abc(field.n, two_squares(field.ell)))


def conductor_parts(a: int, b: int, ell: int) -> tuple[int, int]:
    """(e, f) of the conductor f = 2^e * a * ell of the form (a, b, c).

    Only the ell = 1 (mod 4) branches apply here (ell = 5 mod 8):
    e = 3 when b is odd, else 2 or 0 according to a + b mod 4.
    """
    if b % 2 == 1:
        e = 3
    elif (a + b) % 4 == 3:
        e = 2
    else:
        e = 0
    return e, (1 << e) * a * ell


def conductor(w: WilliamsForm, ell: int) -> Conductor:
    """Conductor of the field with canonical form w."""
    return Conductor(*conductor_parts(w.a, w.b, ell))


class DefiningPolynomial(NamedTuple):
    """x^4 + c2*x^2 + c0, the minimal polynomial of sqrt(n*eps0*sqrt(ell)).

    c2 = -n*v*ell and c0 = n^2*ell, so the polynomial is Eisenstein at ell,
    and n^4*ell^2*u^2 = (n^2*ell*u)^2 certifies a cyclic quartic splitting.
    """

    c2: int
    c0: int

    @property
    def coefficients(self) -> tuple[int, int, int, int, int]:
        return (1, 0, self.c2, 0, self.c0)

    def __str__(self) -> str:
        return f"x^4 - {-self.c2}*x^2 + {self.c0}"  # c2 = -n*v*ell is always negative


def defining_polynomial(field: FieldInput) -> DefiningPolynomial:
    v = fundamental_unit(field.ell).v
    return DefiningPolynomial(-field.n * v * field.ell, field.n * field.n * field.ell)
