"""Shared test fixtures and tiny independent oracles."""

import os
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


def family_sample(seed: int, count: int, low: int = 4, high: int = 7) -> list[int]:
    """count primes ell = 5 (mod 8) below 10^high, each the first at or above a
    draw log-uniform in [10^low, 10^high), by sympy's primality test."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ell = int(10 ** rng.uniform(low, high))
        ell += (5 - ell) % 8
        while not sympy.isprime(ell):
            ell += 8
        if ell < 10**high:
            out.append(ell)
    return out


@pytest.fixture(scope="session")
def panel_ells():
    return PANEL_ELLS


@pytest.fixture(scope="session", autouse=True)
def exit_only_in_forked_children():
    """os._exit raises AssertionError in the test session's own process and
    exits in any other.  A fork fault that sends the session down a child's
    path then fails its test in the process whose exit code the runner
    reports, where os._exit would end that process with the child's code."""
    session, real_exit = os.getpid(), os._exit

    def guarded_exit(code):
        if os.getpid() == session:
            raise AssertionError(f"os._exit({code}) called in the test session's process")
        real_exit(code)

    os._exit = guarded_exit
    yield
    os._exit = real_exit


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """A fork fault can also send a child down the session's path, back out
    of the test, where it would run the rest of the session and print a
    second report: any process other than the session's that comes back
    from a test ends here, with code 1, through os._exit, which the guard of
    exit_only_in_forked_children passes on to the real one in such a process."""
    session = os.getpid()
    yield
    if os.getpid() != session:
        os._exit(1)


@pytest.fixture(autouse=True)
def no_default_format(monkeypatch):
    """Each test starts without QTR_DEFAULT_FORMAT, whatever the caller's
    environment; a test that needs it sets it."""
    monkeypatch.delenv("QTR_DEFAULT_FORMAT", raising=False)
