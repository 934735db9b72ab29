"""The request pool of the field-queries workload.

The pool is a fixed, seeded list of single-field requests.  Its outputs at
the reference commit are pinned per request in reference.json, so any
ordering of the pool can be checked.  A run's --seed only chooses the order
in which the pool is sent.

Each request draws:
  * a command from COMMANDS;
  * an ell, a prime = 5 (mod 8), log-uniform in [1e3, 1e9];
  * for every command but `unit`, a squarefree n prime to ell with 1-4 prime
    factors.  Half of the n carry two primes of 24-32 bits, so that
    factorization goes past trial division into Miller-Rabin and
    Pollard-Brent; the other primes stay below 2^16.
About 10% of requests are invalid on purpose (see _request) and must be
rejected with exit code 2.

Primality here is this module's own Miller-Rabin, not the program's.
"""

from __future__ import annotations

import hashlib
import json
import random

COMMANDS = ("rank", "table", "conductor", "poly", "classify", "unit")
INVALID_SHARE = 0.10
BIG_SHARE = 0.5
POOL_SEED = 2004_08244
POOL_SIZE = 8000

# Witnesses proven for every m < 3.3e24 (Sorenson & Webster).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_LIMIT = 1 << 16


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    for p in _BASES:
        if m % p == 0:
            return m == p
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _next_prime(m: int, step: int = 1) -> int:
    while not is_prime(m):
        m += step
    return m


def _ell(rng: random.Random) -> int:
    x = int(10 ** rng.uniform(3, 9))
    return _next_prime(x + (5 - x) % 8, 8)


def _small_prime(rng: random.Random) -> int:
    p = _next_prime(int(2 ** rng.uniform(1, 16)))
    return p if p < _SMALL_LIMIT else 65521


def _n(rng: random.Random, ell: int, big: bool) -> int:
    primes: set[int] = set()
    if big:
        while len(primes) < 2:
            bits = rng.randint(24, 32)
            p = _next_prime(rng.randrange(1 << (bits - 1), 1 << bits))
            if p != ell:
                primes.add(p)
        want = 2 + rng.randint(0, 2)
    else:
        want = rng.randint(1, 4)
    while len(primes) < want:
        p = _small_prime(rng)
        if p != ell:
            primes.add(p)
    n = 1
    for p in primes:
        n *= p
    return n


def _request(rng: random.Random) -> list:
    """[command, ell, n or None, expected, n_kind]: expected is 'valid' or
    the name of the error a correct program must reject the request with;
    n_kind is 'big' (two 24-32-bit primes), 'small' or 'none'."""
    command = rng.choice(COMMANDS)
    invalid = rng.random() < INVALID_SHARE
    ell = _ell(rng)
    n_kind = "none" if command == "unit" else "big" if rng.random() < BIG_SHARE else "small"
    n = None if command == "unit" else _n(rng, ell, n_kind == "big")
    if not invalid:
        return [command, ell, n, "valid", n_kind]
    reasons = ["EllNotFiveMod8", "EllNotPrime"]
    if n is not None:
        reasons += ["NotSquarefree", "NotCoprime"]
    reason = rng.choice(reasons)
    if reason == "EllNotFiveMod8":
        ell = _next_prime(ell + 4, 8)  # ell + 4 = 1 (mod 8)
    elif reason == "EllNotPrime":
        ell += 8
        while is_prime(ell):
            ell += 8
    elif reason == "NotSquarefree":
        p = _small_prime(rng)
        n *= p * p
    else:
        n *= ell
    return [command, ell, n, reason, n_kind]


def pool(size: int = POOL_SIZE) -> list[list]:
    rng = random.Random(POOL_SEED)
    return [_request(rng) for _ in range(size)]


def pool_digest(requests: list[list]) -> str:
    return hashlib.sha256(json.dumps(requests).encode()).hexdigest()


def argv(request: list) -> list[str]:
    command, ell, n = request[:3]
    args = [command, "--ell", str(ell)]
    if n is not None:
        args += ["--n", str(n)]
    return args + ["--format", "json"]


def order(seed: int, requests: list[list]) -> list[int]:
    """The seeded order in which a run sends the pool.

    The pool is stratified by command, n_kind and validity.  Each stratum is
    shuffled, and the strata are interleaved so that every prefix of the
    order holds each stratum in its pool share, to within one request.  A
    run sends a prefix, so its mix does not depend on the seed; which
    requests it sends does.
    """
    rng = random.Random(seed)
    strata: dict[tuple, list[int]] = {}
    for index, (command, _, _, expected, n_kind) in enumerate(requests):
        strata.setdefault((command, n_kind, expected == "valid"), []).append(index)
    keys = sorted(strata)
    rng.shuffle(keys)
    for key in keys:
        rng.shuffle(strata[key])
    taken = dict.fromkeys(keys, 0)
    total = len(requests)
    out = []
    for position in range(1, total + 1):
        key = max(keys, key=lambda k: len(strata[k]) * position / total - taken[k])
        out.append(strata[key][taken[key]])
        taken[key] += 1
    return out
