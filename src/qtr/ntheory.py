"""Exact integer primitives: primality, factorization, residue symbols, two squares.

Everything here is plain arbitrary-precision integer arithmetic; nothing ever
wraps around or goes through floats.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from itertools import compress
from math import gcd, isqrt, lcm, prod
from typing import NamedTuple

from .errors import FactorBudgetExceeded, InternalCheckError, NotQuadraticResidue, NotSquarefree

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Strong-pseudoprime witness set proven adequate for every n below
# 3_317_044_064_679_887_385_961_981 (Sorenson & Webster), so the test is
# unconditional well past 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_TRIAL_LIMIT = 1 << 16
_BLOCK = 64  # primes per trial-division gcd
# One Pollard p-1 stage, with the exponent lcm(1, ..., _PM1_BOUND), runs when
# the first rho seed reaches the level _PM1_LEVEL: a prime factor p too large
# for rho to find by then is split off at once if every prime power in p - 1
# is at most _PM1_BOUND.
_PM1_BOUND = 1 << 11
_PM1_LEVEL = 1 << 10
# The most Pollard-Brent squarings of one factorize call, over all its splits
# and seeds: ten times the 212,094 of the hardest of the 3,246 calls that reach
# rho in the benchmark's request pool (n with two primes of 24-32 bits, so one
# split each), which the p-1 stage does not split.  That stage is one pow per
# composite part and is not counted.  The whole budget takes 1.2-1.5 s
# (shared 2-vCPU host, Python 3.11).
_RHO_BUDGET = 1 << 21


def is_prime(m: int) -> bool:
    """Deterministic primality test.

    Unconditional for m < 3.3e24 (covers 2**64); above that the same fixed
    witness set is used, which is still deterministic but relies on no
    counterexample being known.
    """
    if m < 2:
        return False
    for p in _SMALL_PRIMES:
        if m % p == 0:
            return m == p
    if m < 41 * 41:
        return True
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _pollard_brent(n: int, budget: int) -> tuple[int, int]:
    """Nontrivial factor of an odd composite n with no factor <= _TRIAL_LIMIT,
    and the squarings it took.

    Brent's cycle variant with a fixed seed schedule, so repeated runs agree.
    The squarings are counted, and checked against budget once per batch of
    m, before its gcd: past it, FactorBudgetExceeded.  When the first seed
    reaches the level r = _PM1_LEVEL, after 2 * (_PM1_LEVEL - 1) squarings,
    one Pollard p-1 stage returns gcd(2^_pm1_exponent() - 1, n) if it is a
    proper divisor, which may be composite; rho carries on otherwise.  Its
    one pow is not counted against budget.
    """
    steps = 0
    for c in range(1, 64):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            if c == 1 and r == _PM1_LEVEL:
                d = gcd(pow(2, _pm1_exponent(), n) - 1, n)
                if 1 < d < n:
                    return d, steps
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            steps += r
            k = 0
            while k < r and g == 1:
                ys = y
                batch = min(m, r - k)
                for _ in range(batch):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                steps += batch
                if steps > budget:
                    raise FactorBudgetExceeded(
                        f"no factor of {n} found in {budget} Pollard-Brent steps")
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g, steps
    raise InternalCheckError(f"Pollard-Brent found no factor of {n} in 63 seed schedules")


def _factor_into(n: int, acc: dict[int, int], budget: int) -> int:
    """Add the primes of n > 1 to acc, splitting with at most budget squarings
    in all; the squarings left."""
    if is_prime(n):
        acc[n] = acc.get(n, 0) + 1
        return budget
    d, steps = _pollard_brent(n, budget)
    return _factor_into(n // d, acc, _factor_into(d, acc, budget - steps))


@functools.cache
def _pm1_exponent() -> int:
    """lcm(1, ..., _PM1_BOUND), the exponent of the p-1 stage; built at first use."""
    return lcm(*range(1, _PM1_BOUND + 1))


@functools.cache
def _trial_blocks() -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The primes 5 <= p < _TRIAL_LIMIT in ascending blocks of _BLOCK, each
    as (first prime, product, primes); built at first use."""
    primes = _primes_upto(_TRIAL_LIMIT)[2:]
    blocks = []
    for i in range(0, len(primes), _BLOCK):
        chunk = tuple(primes[i : i + _BLOCK])
        blocks.append((chunk[0], prod(chunk), chunk))
    return tuple(blocks)


def factorize(n: int) -> list[tuple[int, int]]:
    """Full factorization of n >= 1 as an ascending list of (prime, exponent).

    Trial division by every prime below _TRIAL_LIMIT, one gcd per block of
    primes; only a block that shares a factor with n is divided through.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    acc: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            acc[p] = acc.get(p, 0) + 1
            n //= p
    for first, product, primes in _trial_blocks():
        if first * first > n:
            break  # every prime below first is out, so n is 1 or prime
        if gcd(product, n) == 1:
            continue
        for p in primes:
            while n % p == 0:
                acc[p] = acc.get(p, 0) + 1
                n //= p
    else:
        # Every prime below _TRIAL_LIMIT is out, so below its square n is 1 or prime.
        if n >= _TRIAL_LIMIT * _TRIAL_LIMIT:
            _factor_into(n, acc, _RHO_BUDGET)
            n = 1
    if n > 1:
        acc[n] = 1
    return sorted(acc.items())


def factor_squarefree(n: int) -> list[int]:
    """Ascending prime factors of a squarefree n; raises NotSquarefree otherwise."""
    out = []
    for p, e in factorize(n):
        if e > 1:
            raise NotSquarefree(f"{p}^{e} divides {n}")
        out.append(p)
    return out


def _primes_upto(m: int) -> list[int]:
    """Primes <= m, by the sieve of Eratosthenes."""
    if m < 2:
        return []
    flags = bytearray([1]) * (m + 1)
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(m) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, m + 1, p)))
    return list(compress(range(m + 1), flags))


# Every prime <= the bound, ascending, and the bound: the base primes of the
# census's sieve (cli._keyed_fields), kept for the process and sieved again
# only when a window needs primes past the bound.
_sieve_base: tuple[list[int], int] = ([], 1)


def base_primes(m: int) -> list[int]:
    """The primes <= m, ascending, as a prefix of _sieve_base, which first
    grows to at least twice its bound when m passes it."""
    global _sieve_base
    primes, bound = _sieve_base
    if m > bound:
        bound = max(m, 2 * bound)
        primes = _primes_upto(bound)
        _sieve_base = primes, bound
    return primes[:bisect_right(primes, m)]


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, via Euler's criterion."""
    if p % 2 == 0:
        raise InternalCheckError(f"({a}/{p}): p is even, not an odd prime")
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    if t != 1 and t != p - 1:
        raise InternalCheckError(f"Euler's criterion failed for ({a}/{p}): p is not an odd prime")
    return 1 if t == 1 else -1


def quartic_symbol(a: int, p: int) -> int:
    """Rational quartic residue symbol (a/p)_4 in {-1, +1}.

    Defined only when (a/p) = +1.  For p = 1 (mod 4) this is t = a^((p-1)/4)
    read as a sign, and t^2 is Euler's criterion for (a/p), so one pow gives
    both.  For p = 3 (mod 4) it is +1: the squares mod p form a group of odd
    order (p-1)/2, so each is a fourth power.  legendre rejects an even p.
    """
    residue = a % p
    if p % 4 == 1:
        t = pow(residue, (p - 1) // 4, p)
        euler = t * t % p
        if residue and euler != 1 and euler != p - 1:
            raise InternalCheckError(f"Euler's criterion failed for ({residue}/{p}): "
                                     f"p is not an odd prime")
        square = residue != 0 and euler == 1
    else:
        square = legendre(a, p) == 1
        t = 1
    if not square:
        raise NotQuadraticResidue(f"({a}/{p}) != +1, quartic symbol undefined")
    if t != 1 and t != p - 1:
        raise InternalCheckError(f"({a}/{p})_4 is not a sign: p is not a prime")
    return 1 if t == 1 else -1


class TwoSquares(NamedTuple):
    b: int  # even leg, = 2 (mod 4)
    c: int  # odd leg


@functools.lru_cache(maxsize=None)
def two_squares(ell: int) -> TwoSquares:
    """The decomposition ell = b^2 + c^2 of a prime ell = 5 (mod 8), b even.

    Cornacchia: seed the Euclidean remainder sequence with a square root of
    -1 mod ell and stop at the first remainder below sqrt(ell).  2 is a
    non-residue mod such an ell, so 2^((ell-1)/4) squares to -1.
    """
    if ell % 8 != 5 or not is_prime(ell):
        raise InternalCheckError(f"two_squares needs a prime = 5 (mod 8), got {ell}")
    x = pow(2, (ell - 1) // 4, ell)
    if x * x % ell != ell - 1:
        raise InternalCheckError(f"no square root of -1 found mod {ell}")
    a, b = ell, x
    limit = isqrt(ell)
    while b > limit:
        a, b = b, a % b
    c2 = ell - b * b
    c = isqrt(c2)
    if c * c != c2:
        raise InternalCheckError(f"Cornacchia left a non-square {c2} for {ell}")
    even, odd = (b, c) if b % 2 == 0 else (c, b)
    return TwoSquares(even, odd)
