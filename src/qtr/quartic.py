"""Descriptors of the quartic field K = Q(sqrt(n*eps0*sqrt(ell))).

Validation of (ell, n), conversion to and from the canonical presentation
K = Q(sqrt(a*(ell + b*sqrt(ell)))), the conductor, and the defining
polynomial.  The radicand itself is never materialized; the pair (ell, n)
carries everything.
"""

from __future__ import annotations

from typing import NamedTuple

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
    """Which of the counts t1, t2, s1, s2 an odd prime of n bumps."""
    return (2 if prime % 4 == 3 else 0) + (1 if tag is SplittingType.SPLIT else 0)


def dyadic_ramifies(delta: int, s: int) -> bool:
    """Whether the prime of k above 2 ramifies in K: always unless n is odd
    with an odd number s of q-factors (conductor exponent 0)."""
    return delta == 2 or s % 2 == 0


def ramified_count(t1: int, t2: int, s1: int, s2: int, dyadic: bool) -> int:
    """mu, the number of primes of k that ramify in K: sqrt(ell), one above
    each inert odd prime of n, two above each split one, and the dyadic one."""
    return 1 + t1 + 2 * t2 + s1 + 2 * s2 + dyadic


class _ShapeFields(NamedTuple):
    delta: int
    tagged: tuple[tuple[int, SplittingType], ...]
    t: int
    s: int
    t1: int
    t2: int
    s1: int
    s2: int
    h: int
    w: int
    dyadic_ramifies: bool
    mu: int


class NShape(_ShapeFields):
    """n = delta * (primes = 1 mod 4) * (primes = 3 mod 4), each tagged by its
    behavior in k.  delta is 2 exactly when n is even, and tagged holds every
    odd (prime, tag) ascending.  NShape(delta, tagged) derives the rest: the
    counts t, s of p- and q-factors, t1/t2 and s1/s2 of the inert/split ones,
    h and w of the primes of k above them; whether the prime above 2
    ramifies; and mu, the number of ramified primes of k.
    """

    __slots__ = ()

    def __new__(cls, delta: int, tagged: tuple[tuple[int, SplittingType], ...]):
        counts = [0, 0, 0, 0]
        for prime, tag in tagged:
            counts[prime_kind(prime, tag)] += 1
        t1, t2, s1, s2 = counts
        t, s = t1 + t2, s1 + s2
        dyadic = dyadic_ramifies(delta, s)
        return super().__new__(cls, delta, tagged, t, s, t1, t2, s1, s2, t + t2, s + s2,
                               dyadic, ramified_count(t1, t2, s1, s2, dyadic))

    def __getnewargs__(self):
        return self.delta, self.tagged


class _FieldFields(NamedTuple):
    ell: int
    n: int
    primes: tuple[int, ...]
    shape: NShape


class FieldInput(_FieldFields):
    """Valid (ell, n): ell prime = 5 (mod 8), n squarefree, coprime to ell.

    The one record per field.  FieldInput(ell, n) checks each hypothesis in
    turn or raises the named error, factors n once, and keeps its primes and
    shape.
    """

    __slots__ = ()

    def __new__(cls, ell: int, n: int):
        validate_ell(ell)
        if n < 1:
            raise NNotPositive(f"n = {n} is not a positive integer")
        primes = tuple(factor_squarefree(n))  # raises NotSquarefree
        if n % ell == 0:
            raise NotCoprime(f"gcd(n, ell) = {ell} > 1")
        tagged = tuple([(p, splitting_type(p, ell)) for p in primes if p != 2])
        return super().__new__(cls, ell, n, primes, NShape(2 - n % 2, tagged))

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
        sign2 = "-" if self.c2 < 0 else "+"
        return f"x^4 {sign2} {abs(self.c2)}*x^2 + {self.c0}"


def defining_polynomial(field: FieldInput) -> DefiningPolynomial:
    v = fundamental_unit(field.ell).v
    return DefiningPolynomial(-field.n * v * field.ell, field.n * field.n * field.ell)
