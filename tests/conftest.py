"""Shared test fixtures and tiny independent oracles."""

import random
from math import isqrt

import pytest
import sympy

# The twelve base primes every range check runs over.
PANEL_ELLS = (5, 13, 29, 37, 53, 61, 101, 109, 149, 157, 173, 197)


def trial_division_is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def pell_oracle(ell: int, cap: int):
    """Smallest v with ell*v^2 - 4 a perfect square, by ascending search."""
    for v in range(1, cap + 1):
        x = ell * v * v - 4
        r = isqrt(x)
        if r * r == x:
            return r, v
    return None


def family_sample(seed: int, count: int) -> list[int]:
    """count primes ell = 5 (mod 8) below 10^7, each the first at or above a
    draw log-uniform in [10^4, 10^7), by sympy's primality test."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ell = int(10 ** rng.uniform(4, 7))
        ell += (5 - ell) % 8
        while not sympy.isprime(ell):
            ell += 8
        if ell < 10**7:
            out.append(ell)
    return out


@pytest.fixture(scope="session")
def panel_ells():
    return PANEL_ELLS
