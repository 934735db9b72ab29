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

# Strong-pseudoprime witness set proven adequate for every n below
# 3_317_044_064_679_887_385_961_981 (Sorenson & Webster), so the test is
# unconditional well past 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_TRIAL_LIMIT = 1 << 16
_BLOCK = 64  # primes per trial-division gcd
# Pollard p-1 runs when the first rho seed reaches the level _PM1_LEVEL: a
# prime factor p too large for rho to find by then is split off at once if
# every prime power in p - 1 is at most _PM1_BOUND (stage 1, the exponent
# lcm(1, ..., _PM1_BOUND)), or all but one prime, which is at most _PM1_B2
# (stage 2, the prime continuation of Montgomery, Math. Comp. 48, 1987).
_PM1_BOUND = 1 << 11
_PM1_B2 = 1 << 14
_PM1_LEVEL = 1 << 10
# The most Pollard-Brent squarings of one factorize call, over all its splits
# and seeds: ten times the 212,094 of the hardest of the 3,246 calls that reach
# rho in the benchmark's request pool (n with two primes of 24-32 bits, so one
# split each), which neither p-1 stage splits.  p-1 is not counted: it is a
# fixed cost per composite part, stage 1's one pow and stage 2's two modular
# products for each of its 1,591 primes.  Stage 2 takes 0.3-0.6 ms at 64 bits
# and 130 ms at 4,000 bits, and the whole budget 1.2-1.5 s at 64 bits (shared
# 2-vCPU host, Python 3.11).
_RHO_BUDGET = 1 << 21


def is_prime(m: int) -> bool:
    """Deterministic primality test.

    Unconditional for m < 3.3e24 (covers 2**64); above that the same fixed
    witness set is used, which is still deterministic but relies on no
    counterexample being known.
    """
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    if m < 43 * 43:  # _MR_BASES holds every prime below 43, so m has none below sqrt(m)
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
    stage 1 of Pollard p-1 returns gcd(z - 1, n), z = 2^_pm1_exponent() mod
    n, if it is a proper divisor, which may be composite.  If that gcd is 1,
    stage 2 (_pm1_stage2) returns its own gcd if that is a proper divisor.
    Rho carries on otherwise, as on a part of a divisor p-1 returned, where
    stage 1's gcd is the whole part and stage 2 does not run.  p-1 is not
    counted against budget: a fixed cost per composite part of one pow and,
    for stage 2, two modular products for each of the 1,591 primes it covers.
    """
    steps = 0
    for c in range(1, 64):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            if c == 1 and r == _PM1_LEVEL:
                z = pow(2, _pm1_exponent(), n)
                d = gcd(z - 1, n)
                if d == 1:
                    d = _pm1_stage2(z, n)
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
    budget = _factor_into(d, acc, budget - steps)
    return _factor_into(n // d, acc, budget)


@functools.cache
def _pm1_exponent() -> int:
    """lcm(1, ..., _PM1_BOUND), the exponent of the p-1 stage; built at first use."""
    return lcm(*range(1, _PM1_BOUND + 1))


@functools.cache
def _pm1_gaps() -> tuple[int, tuple[int, ...]]:
    """The least prime above _PM1_BOUND, and half the gap from each prime to
    the next up to _PM1_B2, from _trial_blocks(); built at first use."""
    primes = [p for _, _, block in _trial_blocks() for p in block if _PM1_BOUND < p <= _PM1_B2]
    return primes[0], tuple((b - a) // 2 for a, b in zip(primes, primes[1:]))


def _pm1_stage2(z: int, n: int) -> int:
    """Stage 2 of Pollard p-1: gcd(n, product of z^q - 1 over the primes
    _PM1_BOUND < q <= _PM1_B2) for z = 2^_pm1_exponent() mod n, so a prime p
    of n divides it if the order of 2 mod p is q times a divisor of that
    exponent.  z^q steps to the next prime's power by one product with
    z^gap, from a table of z^2, z^4, ... up to the widest gap."""
    first, halves = _pm1_gaps()
    z2 = z * z % n
    powers = [1, z2]  # powers[i] = z^(2i)
    for _ in range(max(halves) - 1):
        powers.append(powers[-1] * z2 % n)
    x = pow(z, first, n)
    acc = x - 1
    for half in halves:
        x = x * powers[half] % n
        acc = acc * (x - 1) % n
    return gcd(acc, n)


@functools.cache
def _trial_blocks() -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The primes p < _TRIAL_LIMIT in ascending blocks of _BLOCK, each as
    (first prime, product, primes); built at first use."""
    primes = _primes_upto(_TRIAL_LIMIT)
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

    Defined only when (a/p) = +1 (legendre, which rejects a p that is even
    or fails Euler's criterion).  For p = 1 (mod 4) it is a^((p-1)/4) mod p
    read as a sign; for p = 3 (mod 4) it is +1: the squares mod p form a
    group of odd order (p-1)/2, so each is a fourth power.
    """
    if legendre(a, p) != 1:
        raise NotQuadraticResidue(f"({a}/{p}) != +1, quartic symbol undefined")
    t = pow(a, (p - 1) // 4, p) if p % 4 == 1 else 1
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
