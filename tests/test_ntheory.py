import math
import random
import subprocess
import sys
from math import gcd, isqrt, prod

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st
from sympy.solvers.diophantine.diophantine import sum_of_squares

from qtr import ntheory
from qtr.cli import main
from qtr.errors import FactorBudgetExceeded, InternalCheckError, NotQuadraticResidue, NotSquarefree
from qtr.ntheory import (
    factor_squarefree,
    factorize,
    is_prime,
    legendre,
    quartic_symbol,
    two_squares,
)

from .conftest import family_sample, trial_division_is_prime


class TestIsPrime:
    def test_unit_is_not_prime(self):
        assert is_prime(1) is False

    def test_small_examples(self):
        assert is_prime(37) is True
        assert is_prime(3293) is False  # 37 * 89

    def test_against_trial_division_up_to_5000(self):
        for m in range(1, 5000):
            assert is_prime(m) == trial_division_is_prime(m), m

    @given(st.integers(min_value=1, max_value=10**12))
    def test_against_sympy(self, m):
        assert is_prime(m) == sympy.isprime(m)

    def test_large_known_values(self):
        assert is_prime(2**61 - 1)  # Mersenne prime
        assert not is_prime((2**31 - 1) * (2**61 - 1))


def smooth_prime(rng: random.Random) -> int:
    """A prime p < 2^32 with p - 1 twice a product of distinct odd primes
    below 2048, so every prime power in p - 1 is at most 2048."""
    small = list(sympy.primerange(3, 2048))
    while True:
        factors, m = set(), 2
        while m < 2**24:
            factor = rng.choice(small)
            if factor not in factors:
                factors.add(factor)
                m *= factor
        if m < 2**32 and sympy.isprime(m + 1):
            return m + 1


class TestFactorization:
    def test_empty_product(self):
        assert factor_squarefree(1) == []

    def test_two_prime_example(self):
        assert factor_squarefree(3293) == [37, 89]

    def test_square_divisor_rejected(self):
        with pytest.raises(NotSquarefree):
            factor_squarefree(12)
        with pytest.raises(NotSquarefree):
            factor_squarefree(4 * 37)

    def test_factorize_matches_sympy_small_range(self):
        for n in range(1, 2000):
            assert factorize(n) == sorted(sympy.factorint(n).items()), n

    def test_factorize_beyond_trial_limit(self):
        # both factors exceed the trial-division bound, forcing the rho path
        n = 1000003 * 1000033
        assert factorize(n) == [(1000003, 1), (1000033, 1)]

    def test_rho_exhaustion_is_a_named_internal_error(self):
        # rho never splits a prime; running out of seeds names n
        with pytest.raises(InternalCheckError, match="1000003"):
            ntheory._pollard_brent(1000003, ntheory._RHO_BUDGET)

    def test_rho_budget_passes_and_one_less_fails(self):
        # rho splits this n after 1,022 squarings
        n = 1000003 * 1000033
        factor, steps = ntheory._pollard_brent(n, 1022)
        assert factor in (1000003, 1000033) and steps == 1022
        with pytest.raises(FactorBudgetExceeded, match=f"no factor of {n} found in 1021 "):
            ntheory._pollard_brent(n, 1021)

    def test_p_minus_1_splits_at_the_level_1024(self):
        # 10000019 - 1 = 2 * 7^2 * 67 * 1523 is 2048-smooth, 10000079 - 1 has
        # the prime 19763: rho alone needs 7,678 squarings, and the p-1 stage
        # at the top of the level r = 1024 returns the smooth prime after
        # 2 * (1 + 2 + ... + 512) = 2,046
        n = 10000019 * 10000079
        assert ntheory._pollard_brent(n, 2046) == (10000019, 2046)
        with pytest.raises(FactorBudgetExceeded, match=f"no factor of {n} found in 2045 "):
            ntheory._pollard_brent(n, 2045)

    def test_rho_goes_on_when_p_minus_1_finds_nothing(self):
        # 10000079 - 1 and 10000189 - 1 = 2^2 * 3^2 * 11 * 25253 are not
        # 2048-smooth, so the gcd is 1; 10000019 - 1 and 10000253 - 1 =
        # 2^2 * 43 * 53 * 1097 both are, so it is n.  Either way rho keeps the
        # squaring count it had without the stage
        assert ntheory._pollard_brent(10000079 * 10000189, ntheory._RHO_BUDGET) == (10000189, 6270)
        assert ntheory._pollard_brent(10000019 * 10000253, ntheory._RHO_BUDGET) == (10000253, 7934)

    def test_rho_over_budget_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(ntheory, "_RHO_BUDGET", 1021)
        assert main(["rank", "--ell", "37", "--n", str(1000003 * 1000033)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: FactorBudgetExceeded: ")

    def test_one_rho_budget_covers_every_split(self, capsys, monkeypatch):
        # rho splits this n in two, after 1,022 and then 1,790 squarings: each
        # split fits a budget of 1,790, and only their sum fits the request
        n = 1000003 * 1000033 * 1000037
        monkeypatch.setattr(ntheory, "_RHO_BUDGET", 1022 + 1790)
        assert factorize(n) == [(1000003, 1), (1000033, 1), (1000037, 1)]
        monkeypatch.setattr(ntheory, "_RHO_BUDGET", 1022 + 1790 - 1)
        with pytest.raises(FactorBudgetExceeded):
            factorize(n)
        monkeypatch.setattr(ntheory, "_RHO_BUDGET", 1790)
        assert main(["rank", "--ell", "37", "--n", str(n)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: FactorBudgetExceeded: ")

    @given(st.integers(min_value=1, max_value=10**9))
    def test_refactor_roundtrip(self, n):
        prod = 1
        for p, e in factorize(n):
            assert is_prime(p)
            prod *= p**e
        assert prod == n

    def test_no_primality_test_below_2_32(self, monkeypatch):
        # Trial division reaches sqrt(n) for every n < 2**32, which proves the
        # cofactor prime without a Miller-Rabin run.
        calls = []
        real = ntheory.is_prime
        monkeypatch.setattr(ntheory, "is_prime", lambda m: calls.append(m) or real(m))
        rng = random.Random(7)
        edge = [1, 2, 65521, 65537, 65521 * 65537, 65519 * 65521, 2**31 - 1,
                2**32 - 5, 2**32 - 1, 3 * (2**31 - 1)]
        for n in edge + [rng.randrange(1, 2**32) for _ in range(2000)]:
            assert factorize(n) == sorted(sympy.factorint(n).items()), n
        assert calls == []

    def test_matches_sympy_up_to_2_64(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randrange(2**32, 2**64)
            assert factorize(n) == sorted(sympy.factorint(n).items()), n
        # products of two 24-32-bit primes go through Miller-Rabin and rho
        for _ in range(20):
            p = sympy.nextprime(rng.randrange(2**rng.randrange(24, 32), 2**32))
            q = sympy.nextprime(rng.randrange(2**rng.randrange(24, 32), 2**32))
            expected = [(p, 2)] if p == q else sorted([(p, 1), (q, 1)])
            assert factorize(p * q) == expected, (p, q)
        # the p-1 stage: with p - 1 and q - 1 both 2048-smooth its gcd is n,
        # so rho goes on; with a third prime r it is the composite p * q; of
        # a prime square p^2 it finds only p
        exponent = math.lcm(*range(1, 2049))
        cases = []
        for _ in range(12):
            p, q = smooth_prime(rng), smooth_prime(rng)
            assert gcd(pow(2, exponent, p * q) - 1, p * q) == p * q
            cases.append(p * q)
        for _ in range(4):
            p, q, r = smooth_prime(rng), smooth_prime(rng), sympy.nextprime(rng.randrange(2**24, 2**32))
            while pow(2, exponent, r) == 1:
                r = sympy.nextprime(r)
            assert gcd(pow(2, exponent, p * q * r) - 1, p * q * r) == p * q
            cases.append(p * q * r)
        for _ in range(6):
            p = sympy.nextprime(rng.randrange(2**16, 2**24 - 2**10))
            cases += [p * p, p * p * sympy.nextprime(rng.randrange(2**24, 2**32 - 2**20))]
        for n in cases:
            assert factorize(n) == sorted(sympy.factorint(n).items()), n

    def test_squarefree_factors_multiply_back(self):
        for n in (1, 2, 30, 4346, 386794, 123469):
            factors = factor_squarefree(n)
            prod = 1
            for p in factors:
                assert is_prime(p)
                prod *= p
            assert prod == n
            assert factors == sorted(set(factors))


class TestTrialBlocks:
    def test_blocks_cover_the_primes_below_the_limit(self):
        blocks = ntheory._trial_blocks()
        assert [p for _, _, primes in blocks for p in primes] == list(sympy.primerange(5, 2**16))
        for first, product, primes in blocks:
            assert first == primes[0]
            assert product == prod(primes)
        assert {len(primes) for _, _, primes in blocks[:-1]} == {ntheory._BLOCK}
        assert blocks[-1][2][-1] == 65521

    def test_primes_upto_matches_sympy(self):
        for m in range(3001):
            assert ntheory._primes_upto(m) == list(sympy.primerange(0, m + 1)), m
        assert ntheory._primes_upto(2**16) == list(sympy.primerange(0, 2**16 + 1))

    def test_factorize_at_block_edges_matches_sympy(self):
        rng = random.Random(13)

        def big_prime():
            return sympy.nextprime(rng.randrange(2**24, 2**32 - 2**20))

        cases = [65521**2, 65521 * 65537, 65537**2, 2**32 - 1, 2**32 + 1]
        for _, _, primes in ntheory._trial_blocks():
            for p in (primes[0], primes[-1]):
                cases += [p, p * p, p * big_prime()]
        for p in (5, 65519, 65521):
            cases.append(p * big_prime() * big_prime())
        for n in cases:
            assert factorize(n) == sorted(sympy.factorint(n).items()), n


class TestLegendre:
    def test_examples(self):
        assert legendre(13, 37) == -1
        assert legendre(1, 37) == 1
        assert legendre(1, 5) == 1
        assert legendre(2, 53) == -1  # 53 = 5 (mod 8)
        assert legendre(37, 37) == 0

    def test_counts_square_roots(self):
        # (a/p) = 1 exactly when x^2 = a (mod p) has two solutions
        for p in (3, 5, 7, 11, 13, 29, 37, 53):
            squares = {x * x % p for x in range(1, p)}
            for a in range(1, p):
                assert legendre(a, p) == (1 if a in squares else -1), (a, p)

    def test_composite_modulus_is_an_internal_error(self):
        # 2^7 = 8 (mod 15) is neither 1 nor -1: Euler's criterion catches it.
        with pytest.raises(InternalCheckError):
            legendre(2, 15)

    @pytest.mark.parametrize("p", range(2, 17, 2))
    def test_even_modulus_is_an_internal_error(self, p):
        # an even p is no odd prime, for legendre and for quartic_symbol,
        # whose p = 3 (mod 4) branch reads legendre, whatever a is
        for a in (0, 1, 3, p + 1):
            with pytest.raises(InternalCheckError, match="p is even"):
                legendre(a, p)
            with pytest.raises(InternalCheckError, match="p is even"):
                quartic_symbol(a, p)

    def test_check_survives_optimized_mode(self):
        code = ("from qtr.errors import InternalCheckError\n"
                "from qtr.ntheory import legendre\n"
                "try:\n    legendre(2, 15)\n"
                "except InternalCheckError:\n    print('raised')\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "raised"

    @given(st.integers(min_value=1, max_value=10**6),
           st.integers(min_value=1, max_value=10**6),
           st.sampled_from([5, 13, 29, 37, 53, 61, 101, 997, 10007]))
    def test_multiplicative(self, a, b, p):
        if a % p == 0 or b % p == 0:
            return
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


class TestQuarticSymbol:
    def test_spot_value(self):
        # independent oracle: 5^((29-1)/4) mod 29
        assert pow(5, 7, 29) == 28
        assert quartic_symbol(5, 29) == -1

    def test_trivial_one(self):
        for p in (5, 13, 29, 37, 101):
            assert quartic_symbol(1, p) == 1

    def test_three_mod_four_convention(self):
        # squares mod q form a group of odd order, so each is a fourth power
        for q in (3, 7, 11, 19, 43):
            for a in range(1, q):
                if legendre(a, q) == 1:
                    assert quartic_symbol(a, q) == 1
                    assert any(pow(x, 4, q) == a for x in range(1, q))

    def test_undefined_for_nonresidue(self):
        with pytest.raises(NotQuadraticResidue):
            quartic_symbol(2, 29)

    def test_matches_fourth_power_membership(self):
        for p in (13, 29, 37, 53, 61, 101):
            fourths = {pow(x, 4, p) for x in range(1, p)}
            for a in range(1, p):
                if legendre(a, p) == 1:
                    expected = 1 if a in fourths else -1
                    assert quartic_symbol(a, p) == expected, (a, p)

    @given(st.integers(min_value=2, max_value=10**6),
           st.sampled_from([13, 29, 37, 53, 61, 101, 109]))
    def test_square_of_residue_is_fourth_power(self, a, p):
        if legendre(a, p) != 1:
            return
        assert quartic_symbol(a * a, p) == legendre(a, p) == 1
        assert quartic_symbol(a, p) ** 2 == 1

    @staticmethod
    def by_definition(a, p):
        """(a/p)_4 by its definition: Euler's criterion (legendre) for (a/p),
        then a^((p-1)/4) mod p read as a sign; the value or the error type."""
        try:
            if legendre(a, p) != 1:
                raise NotQuadraticResidue(f"({a}/{p})")
            if p % 4 == 3:
                return 1
            t = pow(a % p, (p - 1) // 4, p)
            if t != 1 and t != p - 1:
                raise InternalCheckError(f"({a}/{p})_4")
            return 1 if t == 1 else -1
        except (NotQuadraticResidue, InternalCheckError) as exc:
            return type(exc)

    def outcome(self, a, p):
        try:
            return quartic_symbol(a, p)
        except (NotQuadraticResidue, InternalCheckError) as exc:
            return type(exc)

    def test_equals_the_definition_for_every_residue(self):
        # every a mod p, and a few a outside 0..p-1, for every odd prime
        # p < 2000 and for composites = 1 and 3 (mod 4), Carmichael numbers too
        composites = [9, 15, 21, 25, 45, 65, 85, 91, 105, 561, 1105, 1729, 2465]
        moduli = [p for p in range(3, 2000, 2) if is_prime(p)] + composites
        for p in moduli:
            outcomes = set()
            for a in [*range(p), -1, p + 2, -p - 3]:
                got = self.outcome(a, p)
                assert got == self.by_definition(a, p), (a, p)
                outcomes.add(got)
            # a composite p raises InternalCheckError for some a, a prime never
            assert (InternalCheckError in outcomes) == (p in composites), p


class TestTwoSquares:
    def exhaustive(self, ell):
        b = 2
        while b * b < ell:
            c2 = ell - b * b
            c = isqrt(c2)
            if c * c == c2:
                return b, c
            b += 2
        raise AssertionError(f"no decomposition for {ell}")

    def test_examples(self):
        assert two_squares(5) == (2, 1)
        assert two_squares(13) == (2, 3)
        assert two_squares(37) == (6, 1)

    def test_against_exhaustive_search_below_2000(self):
        for ell in range(5, 2000, 8):
            if not trial_division_is_prime(ell):
                continue
            got = two_squares(ell)
            assert (got.b, got.c) == self.exhaustive(ell), ell
            assert got.b % 2 == 0 and got.c % 2 == 1
            assert got.b**2 + got.c**2 == ell
            assert got.b % 4 == 2

    def test_the_one_representation_past_10_4(self):
        for ell in family_sample(seed=0, count=200):
            (x, y), = sum_of_squares(ell, 2)
            b, c = (x, y) if x % 2 == 0 else (y, x)
            assert b % 4 == 2
            assert two_squares(ell) == (b, c), ell

    @pytest.mark.parametrize("ell", [17, 41])
    def test_prime_one_mod_eight_is_outside_the_family(self, ell):
        with pytest.raises(InternalCheckError):
            two_squares(ell)
