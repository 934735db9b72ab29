"""Exact integer primitives: primality, factorization, residue symbols, two squares.

Everything here is plain arbitrary-precision integer arithmetic; nothing ever
wraps around or goes through floats.
"""

from __future__ import annotations

import functools
from itertools import compress
from math import gcd, isqrt, prod
from typing import NamedTuple

from .errors import FactorBudgetExceeded, InternalCheckError, NotQuadraticResidue, NotSquarefree

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Strong-pseudoprime witness set proven adequate for every n below
# 3_317_044_064_679_887_385_961_981 (Sorenson & Webster), so the test is
# unconditional well past 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_TRIAL_LIMIT = 1 << 16
_BLOCK = 64  # primes per trial-division gcd
# The most Pollard-Brent squarings of one factorize call, over all its splits
# and seeds: ten times the 212,094 of the hardest of the 3,467 calls behind the
# benchmark's request pool (n with two primes of 24-32 bits, so one split
# each).  The whole budget takes about 1.6 s (shared 2-vCPU host, Python 3.11).
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
    m, before its gcd: past it, FactorBudgetExceeded.
    """
    steps = 0
    for c in range(1, 64):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
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
    """Add the primes of n to acc, splitting with at most budget squarings in
    all; the squarings left."""
    if n == 1:
        return budget
    if is_prime(n):
        acc[n] = acc.get(n, 0) + 1
        return budget
    d, steps = _pollard_brent(n, budget)
    return _factor_into(n // d, acc, _factor_into(d, acc, budget - steps))


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


def squarefree_window(lo: int, hi: int) -> list[list[int] | None]:
    """For each n in [lo, hi), 1 <= lo: its ascending primes, or None when
    the square of a prime divides n.

    A segmented sieve: every prime p <= sqrt(hi - 1) is divided out of its
    multiples in the window, and a multiple of p^2 is marked.  What is left
    of a squarefree n is 1 or one prime above sqrt(hi - 1), since two such
    primes would multiply past n.  Memory is O(hi - lo).
    """
    size = hi - lo
    factors: list[list[int]] = [[] for _ in range(size)]
    rest = list(range(lo, hi))
    for p in _primes_upto(isqrt(hi - 1)):
        for i in range(-lo % p, size, p):
            factors[i].append(p)
            rest[i] //= p
        square = p * p
        for i in range(-lo % square, size, square):
            rest[i] = 0
    out: list[list[int] | None] = []
    for primes, r in zip(factors, rest):
        if r == 0:
            out.append(None)
        else:
            if r > 1:
                primes.append(r)
            out.append(primes)
    return out


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, via Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    if t != 1 and t != p - 1:
        raise InternalCheckError(f"Euler's criterion failed for ({a}/{p}): p is not an odd prime")
    return 1 if t == 1 else -1


def quartic_symbol(a: int, p: int) -> int:
    """Rational quartic residue symbol (a/p)_4 in {-1, +1}.

    Defined only when (a/p) = +1.  For p = 1 (mod 4) this is a^((p-1)/4)
    read as a sign.  For p = 3 (mod 4) the squares mod p form a group of odd
    order (p-1)/2, so every square is a fourth power and the symbol is +1.
    """
    if legendre(a, p) != 1:
        raise NotQuadraticResidue(f"({a}/{p}) != +1, quartic symbol undefined")
    if p % 4 == 3:
        return 1
    t = pow(a % p, (p - 1) // 4, p)
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
