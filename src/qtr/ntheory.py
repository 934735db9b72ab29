"""Exact integer primitives: primality, factorization, residue symbols, two squares.

Everything here is plain arbitrary-precision integer arithmetic; nothing ever
wraps around or goes through floats.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from itertools import compress, groupby
from math import gcd, isqrt, lcm, prod
from typing import NamedTuple

from .errors import FactorBudgetExceeded, InternalCheckError, NotQuadraticResidue, NotSquarefree

# The strong-pseudoprime witnesses, the first 13 primes, and psi_k for k = 1,
# ..., 13: the least strong pseudoprime to the first k of them (OEIS A014233;
# Pollard, Proc. Cambridge Philos. Soc. 76, 1974; Sorenson & Webster, Math.
# Comp. 86, 2017).  Below psi_k the first k bases prove m prime, so the test is
# unconditional below psi_13 = 3.3e24, well past 2**64.  psi_13 itself is a
# strong pseudoprime to all 13, so from it up is_prime runs BPSW instead.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
           3825123056546413051, 318665857834031151167461, 3317044064679887385961981)

_TRIAL_LIMIT = 1 << 16
_BLOCK = 64  # primes per trial-division gcd
# Pollard p-1 runs first on each composite part: a prime factor p is split off
# at once if every prime power in p - 1 is at most _PM1_BOUND (stage 1, the
# exponent lcm(1, ..., _PM1_BOUND)), or all but one prime, which is at most
# _PM1_B2 (stage 2, the prime continuation of Montgomery, Math. Comp. 48,
# 1987).  Pollard-Brent rho runs only when neither stage splits the part.
_PM1_BOUND = 1 << 11
_PM1_B2 = 1 << 16
_PM1_D = 210  # stage 2's giant step
_PM1_GIANTS = 8  # stage 2's giant steps per gcd
# The most Pollard-Brent squarings of one factorize call, over all its splits
# and seeds: ten times the 212,094 of the hardest of the 1,022 calls that reach
# rho in the benchmark's request pool (n with two primes of 24-32 bits, so one
# split each), which neither p-1 stage splits.  p-1 is not counted: it is a
# fixed cost per composite part, stage 1's one pow and stage 2's 5,226 modular
# products.  When neither splits, they take 0.35-0.5 ms and 0.9-1.2 ms at
# 40-64 bits and 105-130 ms and 220-260 ms at 4,423 bits; the whole budget
# takes 1.2-1.5 s at 64 bits (shared 2-vCPU host, Python 3.11).
_RHO_BUDGET = 1 << 21


def is_prime(m: int) -> bool:
    """Deterministic primality test.

    Trial division by _MR_BASES, then the strong test to the first k of them,
    k the least with m < psi_k (_MR_PSI): unconditional for m < psi_13 = 3.3e24
    (covers 2**64).  From psi_13 up, the Baillie-PSW test (Baillie & Wagstaff,
    Math. Comp. 35, 1980): the strong test to base 2 and _strong_lucas, which
    is deterministic but relies on no counterexample being known.
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
    proven = m < _MR_PSI[-1]
    for a in _MR_BASES[:bisect_right(_MR_PSI, m) + 1] if proven else (2,):
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return proven or _strong_lucas(m)


def _jacobi(a: int, m: int) -> int:
    """Jacobi symbol (a/m) for an odd m > 0, by reciprocity."""
    a, t = a % m, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                t = -t
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            t = -t
        a %= m
    return t if m == 1 else 0


def _strong_lucas(m: int) -> bool:
    """Whether an odd m, with no prime factor up to 41 and above 41^2, is a
    strong Lucas probable prime with Selfridge's parameters: D the first of
    5, -7, 9, -11, ... with (D/m) = -1, P = 1 and Q = (1 - D)/4.  With m + 1 =
    d * 2^s, d odd, that is U_d = 0 or V_(d*2^r) = 0 (mod m) for some r < s."""
    if isqrt(m) ** 2 == m:  # no D would have (D/m) = -1
        return False
    D = 5
    while (j := _jacobi(D, m)) != -1:
        if j == 0:  # |D| < m shares a factor with m
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = m + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    half = (m + 1) // 2  # 1/2 mod m
    U, V, Qk = 1, 1, Q % m  # U_k, V_k and Q^k at k = 1, then k = d by its bits
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % m, (V * V - 2 * Qk) % m, Qk * Qk % m
        if bit == "1":
            U, V, Qk = (U + V) * half % m, (D * U + V) * half % m, Qk * Q % m
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % m, Qk * Qk % m
        if V == 0:
            return True
    return False


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


def _split(n: int, budget: int) -> tuple[int, int]:
    """Proper divisor of an odd composite n with no factor <= _TRIAL_LIMIT,
    which may be composite, and the rho squarings it took.

    Pollard p-1 first: stage 1's gcd(z - 1, n), z = 2^_pm1_exponent() mod n,
    and, if that is 1, stage 2's (_pm1_stage2).  A proper divisor from either
    is returned with 0 squarings, as p-1 is not counted against budget
    (_RHO_BUDGET).  Otherwise _pollard_brent splits n under budget, as on a
    divisor p-1 returned: stage 1's gcd on it is the whole divisor.
    """
    z = pow(2, _pm1_exponent(), n)
    d = gcd(z - 1, n)
    if d == 1:
        d = _pm1_stage2(z, n)
    if 1 < d < n:
        return d, 0
    return _pollard_brent(n, budget)


def _factor_into(n: int, acc: dict[int, int], budget: int) -> int:
    """Add the primes of n > 1 to acc, splitting each composite part with
    _split and at most budget rho squarings in all; the squarings left."""
    if is_prime(n):
        acc[n] = acc.get(n, 0) + 1
        return budget
    d, steps = _split(n, budget)
    budget = _factor_into(d, acc, budget - steps)
    return _factor_into(n // d, acc, budget)


@functools.cache
def _pm1_exponent() -> int:
    """lcm(1, ..., _PM1_BOUND), the exponent of p-1's stage 1; built at first use."""
    return lcm(*range(1, _PM1_BOUND + 1))


@functools.cache
def _pm1_plan() -> tuple[int, tuple[bytes, ...]]:
    """Stage 2's first giant step v0 and, for v = v0, v0 + 1, ..., the u < D/2
    for which vD - u or vD + u, D = _PM1_D, is a prime in (_PM1_BOUND,
    _PM1_B2], as bytes; from _trial_blocks(), built at first use.  No v is
    left out: consecutive primes below 2^16 are less than D apart."""
    primes = (q for _, _, block in _trial_blocks() for q in block if _PM1_BOUND < q <= _PM1_B2)
    plan = [(v, bytes(sorted({abs(q - v * _PM1_D) for q in qs})))  # q = vD - u or vD + u
            for v, qs in groupby(primes, lambda q: (q + _PM1_D // 2) // _PM1_D)]
    return plan[0][0], tuple(us for _, us in plan)


def _pm1_stage2(z: int, n: int) -> int:
    """Stage 2 of Pollard p-1 on z = 2^_pm1_exponent() mod n, by Montgomery's
    baby and giant steps with prime pairing.  With V_k = z^k + z^-k, the term
    V_vD - V_u = (z^vD - z^u)(1 - z^-(vD+u)) is 0 mod each prime p of n where
    the order of z divides vD - u or vD + u: _pm1_plan() has 4,859 terms for
    the 6,233 primes, plus 367 products for the steps.  The result is the
    first gcd with n that is not 1, of the product of the terms so far every
    _PM1_GIANTS giant steps, and where that is n, of each term of the block
    in turn; 1 if there is none."""
    v0, uses = _pm1_plan()
    v1 = (z + pow(z, -1, n)) % n
    v2 = (v1 * v1 - 2) % n
    baby, prev, cur = {}, v1, v1  # V_-1 = V_1, then V_1, V_3, ..., V_(D/2)
    for k in range(1, _PM1_D // 2 + 1, 2):
        baby[k] = cur
        prev, cur = cur, (cur * v2 - prev) % n
    giant = (prev * prev - 2) % n  # V_D
    prev, cur = 2, giant
    for _ in range(1, v0):
        prev, cur = cur, (cur * giant - prev) % n
    acc = 1
    for start in range(0, len(uses), _PM1_GIANTS):
        block = []
        for us in uses[start : start + _PM1_GIANTS]:
            block.append((cur, us))
            for u in us:
                acc = acc * (cur - baby[u]) % n
            prev, cur = cur, (cur * giant - prev) % n
        g = gcd(acc, n)
        if g == n:
            g = next(d for w, us in block for u in us if (d := gcd(w - baby[u], n)) > 1)
        if g > 1:
            return g
    return 1


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
