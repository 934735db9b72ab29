"""Descriptors of the quartic field K = Q(sqrt(n*eps0*sqrt(ell))).

Validation of (ell, n), conversion to and from the canonical presentation
K = Q(sqrt(a*(ell + b*sqrt(ell)))), the conductor, and the defining
polynomial.  The radicand itself is never materialized; the pair (ell, n)
carries everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Callable, Sequence

from .errors import (
    EllNotFiveMod8,
    EllNotPrime,
    InternalCheckError,
    NNotPositive,
    NotCoprime,
    NotSquarefree,
)
from .ntheory import factor_squarefree, is_prime, two_squares
from .quad import SplittingType, fundamental_unit, splitting_type

_DERIVED = dict(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class NShape:
    """n = delta * (primes = 1 mod 4) * (primes = 3 mod 4), each tagged by its
    behavior in k.  delta is 2 exactly when n is even, and tagged holds every
    odd (prime, tag) ascending.  Stored at build: the counts t, s of p- and
    q-factors, t1/t2 and s1/s2 of the inert/split ones, h and w of the primes
    of k above them; whether the prime above 2 ramifies (unless n is odd with
    s odd, i.e. conductor exponent 0); and mu, the number of ramified primes
    of k.
    """

    delta: int
    tagged: tuple[tuple[int, SplittingType], ...]
    t: int = field(**_DERIVED)
    s: int = field(**_DERIVED)
    t1: int = field(**_DERIVED)
    t2: int = field(**_DERIVED)
    s1: int = field(**_DERIVED)
    s2: int = field(**_DERIVED)
    h: int = field(**_DERIVED)
    w: int = field(**_DERIVED)
    dyadic_ramifies: bool = field(**_DERIVED)
    mu: int = field(**_DERIVED)

    def __post_init__(self) -> None:
        residues = [p % 4 for p, _ in self.tagged]
        split = [p % 4 for p, tag in self.tagged if tag is SplittingType.SPLIT]
        t, t2 = residues.count(1), split.count(1)
        s, s2 = len(residues) - t, len(split) - t2
        h, w = t + t2, s + s2
        dyadic = not (self.delta == 1 and s % 2 == 1)
        # Frozen: the derived fields go straight into the instance dict.
        self.__dict__.update(t=t, s=s, t1=t - t2, t2=t2, s1=s - s2, s2=s2, h=h, w=w,
                             dyadic_ramifies=dyadic, mu=1 + h + w + dyadic)


def _shape_of(n: int, primes: Sequence[int], tag: Callable[[int], SplittingType]) -> NShape:
    """The shape of n from its ascending primes; tag(p) is how p splits in k."""
    return NShape(2 - n % 2, tuple([(p, tag(p)) for p in primes if p != 2]))


@dataclass(frozen=True)
class FieldInput:
    """Valid (ell, n): ell prime = 5 (mod 8), n squarefree, coprime to ell.

    The one record per field.  Building it checks each hypothesis in turn or
    raises the named error, factors n once, and keeps its primes and shape.
    """

    ell: int
    n: int
    primes: tuple[int, ...] = field(**_DERIVED)
    shape: NShape = field(**_DERIVED)

    def __post_init__(self) -> None:
        ell, n = self.ell, self.n
        validate_ell(ell)
        if n < 1:
            raise NNotPositive(f"n = {n} is not a positive integer")
        primes = tuple(factor_squarefree(n))  # raises NotSquarefree
        self._set_primes(primes, lambda p: splitting_type(p, ell))

    @classmethod
    def from_sieve(cls, ell: int, n: int, primes: Sequence[int] | None,
                   tag: Callable[[int], SplittingType]) -> FieldInput:
        """The record of n >= 1 from a sieve, for an ell already validated.

        primes are the ascending primes of n, or None when a square divides
        n; tag(p) is how p splits in k.  The hypotheses on n are checked in
        the same order as by FieldInput(ell, n), with the same errors.
        """
        if primes is None:
            raise NotSquarefree(f"the square of a prime divides {n}")
        if prod(primes) != n:
            raise InternalCheckError(f"sieve primes {primes} do not multiply to n = {n}")
        record = object.__new__(cls)
        record.__dict__.update(ell=ell, n=n)
        record._set_primes(tuple(primes), tag)
        return record

    def _set_primes(self, primes: tuple[int, ...], tag: Callable[[int], SplittingType]) -> None:
        if self.n % self.ell == 0:
            raise NotCoprime(f"gcd(n, ell) = {self.ell} > 1")
        self.__dict__.update(primes=primes, shape=_shape_of(self.n, primes, tag))


@dataclass(frozen=True)
class WilliamsForm:
    """Parameters of K = Q(sqrt(a*(ell + b*sqrt(ell)))), ell = b^2 + c^2.

    a is odd, squarefree and prime to ell; exactly one of b, c is odd.
    """

    a: int
    b: int
    c: int


@dataclass(frozen=True)
class Conductor:
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


def to_williams(field: FieldInput) -> WilliamsForm:
    """Canonical (a, b, c) for the field of (ell, n).

    n odd means the radicand carries no factor 2, so a = n and b is the even
    leg of ell = b^2 + c^2; n even means n = 2a with the odd leg in the b slot.
    """
    sq = two_squares(field.ell)
    if field.n % 2 == 1:
        return WilliamsForm(field.n, sq.b, sq.c)
    return WilliamsForm(field.n // 2, sq.c, sq.b)


def conductor(w: WilliamsForm, ell: int) -> Conductor:
    """Conductor f = 2^e * a * ell of the field with canonical form w.

    Only the ell = 1 (mod 4) branches apply here (ell = 5 mod 8):
    e = 3 when b is odd, else 2 or 0 according to a + b mod 4.
    """
    if w.b % 2 == 1:
        e = 3
    elif (w.a + w.b) % 4 == 3:
        e = 2
    else:
        e = 0
    return Conductor(e, (1 << e) * w.a * ell)


@dataclass(frozen=True)
class DefiningPolynomial:
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
