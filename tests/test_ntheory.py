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

    # the first 13 terms of OEIS A014233: psi_k, the least strong pseudoprime
    # to the first k prime bases
    A014233 = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
               341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
               3825123056546413051, 318665857834031151167461, 3317044064679887385961981)

    def test_psi_is_a014233(self):
        assert ntheory._MR_PSI == self.A014233

    def test_each_psi_is_a_strong_pseudoprime_to_its_bases(self):
        def strong_probable_prime(m, a):
            d, r = m - 1, 0
            while d % 2 == 0:
                d, r = d // 2, r + 1
            x = pow(a, d, m)
            return x == 1 or any(pow(x, 2**i, m) == m - 1 for i in range(r))

        bases = list(sympy.primerange(2, 42))
        for k, psi in enumerate(self.A014233, 1):
            assert not sympy.isprime(psi), k
            assert all(strong_probable_prime(psi, a) for a in bases[:k]), k

    def test_each_psi_below_the_last_is_composite(self):
        # psi_k passes the first k bases, and for k = 7, 9 and 10 the next
        # base as well, so a tier one base short calls it prime.  psi_13
        # passes all 13 bases: the proof of the test ends below it
        for k, psi in enumerate(self.A014233[:12], 1):
            assert is_prime(psi) is False, k

    def test_against_sympy_in_each_tier(self):
        rng = random.Random(13)
        edges = sorted({43 * 43, *self.A014233, 2 * self.A014233[-1]})
        for low, high in zip(edges, edges[1:]):
            for _ in range(25):
                m = rng.randrange(low, high)
                for x in (m, sympy.nextprime(m)):
                    assert is_prime(x) == sympy.isprime(x), x
        for psi in self.A014233:
            for x in (psi - 2, psi + 2):
                assert is_prime(x) == sympy.isprime(x), x

    def test_from_psi_13_up_bpsw_decides(self):
        # psi_13 = 1287836182261 * 2575672364521 passes all 13 bases; the
        # strong Lucas test rejects it, and agrees with sympy on seeded
        # primes and semiprimes above it
        psi = self.A014233[-1]
        assert is_prime(psi) is False
        rng = random.Random(33)
        cases = []
        for bits in (42, 48, 64, 100, 256):
            for _ in range(6):
                p = sympy.nextprime(rng.randrange(2 ** (bits - 1), 2**bits))
                q = sympy.nextprime(rng.randrange(2 ** (bits - 1), 2**bits))
                cases += [p * q, sympy.nextprime(p * q)]
        assert min(cases) > psi
        for m in cases:
            assert is_prime(m) == sympy.isprime(m), m

    def test_rank_reads_both_primes_of_psi_13(self, capsys):
        # with psi_13 called prime, this was the one-prime row "p [I]", rank 1
        psi = self.A014233[-1]
        assert main(["rank", "--ell", "37", "--n", str(psi), "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == (
            f'{psi},1,"p·p [I,S]",5,1,3,p-only:both,490922521572623333122373188')

    # the strong Lucas pseudoprimes below 1e5 with Selfridge's parameters
    # (OEIS A217255); none has a prime factor up to 41
    A217255 = [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439]

    def test_strong_lucas_pseudoprimes_are_a217255(self):
        odd = [m for m in range(43 * 43 + 2, 10**5, 2) if gcd(m, prod(ntheory._MR_BASES)) == 1]
        assert [m for m in odd if ntheory._strong_lucas(m) != is_prime(m)] == self.A217255


def stage_2_prime(rng: random.Random) -> int:
    """A prime p < 2^32 with p - 1 = 2 * m * Q for a product m of distinct odd
    primes below 2048 and a prime 2048 < Q <= 2^16, where the order of 2 mod
    p is a multiple of Q: stage 1 of p-1 misses p and stage 2 finds it."""
    small = list(sympy.primerange(3, 2048))
    exponent = math.lcm(*range(1, 2049))
    while True:
        big = sympy.nextprime(rng.randrange(2048, 65521))  # 65521 is the last prime <= 2^16
        factors, m = set(), 2 * big
        while m < 2**24:
            factor = rng.choice(small)
            if factor not in factors:
                factors.add(factor)
                m *= factor
        p = m + 1
        if m < 2**32 and sympy.isprime(p) and pow(2, exponent, p) != 1:
            return p


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

    @pytest.mark.parametrize("n", [0, -1, -6])
    def test_factorize_below_one_is_a_value_error(self, n):
        with pytest.raises(ValueError, match=f"cannot factor {n}"):
            factorize(n)

    def test_factorize_matches_sympy_small_range(self):
        for n in range(1, 2000):
            assert factorize(n) == sorted(sympy.factorint(n).items()), n

    def test_factorize_beyond_trial_limit(self):
        # both factors exceed the trial-division bound; 1000033 - 1 = 2^5 * 3 *
        # 11 * 947 is 2048-smooth, so stage 1 of p-1 splits n
        n = 1000003 * 1000033
        assert factorize(n) == [(1000003, 1), (1000033, 1)]

    def test_rho_exhaustion_is_a_named_internal_error(self):
        # rho never splits a prime; running out of seeds names n
        with pytest.raises(InternalCheckError, match="1000003"):
            ntheory._pollard_brent(1000003, ntheory._RHO_BUDGET)

    def test_rho_budget_passes_and_one_less_fails(self):
        # 1000003 - 1 = 2 * 3 * 166667 and 1000667 - 1 = 2 * 500333 each have
        # a prime above 2^16, so neither p-1 stage splits n, and rho splits it
        # after 510 squarings
        n = 1000003 * 1000667
        assert ntheory._split(n, 510) == (1000667, 510)
        with pytest.raises(FactorBudgetExceeded, match=f"no factor of {n} found in 509 "):
            ntheory._split(n, 509)

    def test_p_minus_1_splits_before_rho(self, monkeypatch):
        # 10000019 - 1 = 2 * 7^2 * 67 * 1523 is 2048-smooth, 10000079 - 1 has
        # the prime 19763: rho alone needs 7,678 squarings, and stage 1 of
        # p-1 returns the smooth prime with none
        n = 10000019 * 10000079
        assert ntheory._pollard_brent(n, ntheory._RHO_BUDGET) == (10000079, 7678)
        assert ntheory._split(n, 0) == (10000019, 0)
        monkeypatch.setattr(ntheory, "_RHO_BUDGET", 0)
        assert factorize(n) == [(10000019, 1), (10000079, 1)]

    def test_rho_goes_on_when_p_minus_1_finds_nothing(self):
        # 10000141 - 1 = 2^2 * 3 * 5 * 166669 and 10000349 - 1 = 2^2 * 2500087
        # each have a prime above 2^16, so both stages' gcds are 1;
        # 10000019 - 1 and 10000253 - 1 = 2^2 * 43 * 53 * 1097 are both
        # 2048-smooth, so stage 1's is n.  Either way rho keeps the squaring
        # count it has alone
        budget = ntheory._RHO_BUDGET
        for n, split in [(10000141 * 10000349, (10000141, 6270)),
                         (10000019 * 10000253, (10000253, 7934))]:
            assert ntheory._split(n, budget) == ntheory._pollard_brent(n, budget) == split

    def test_p_minus_1_stage_2_splits_before_rho(self, monkeypatch):
        # 9999739 - 1 = 2 * 3^2 * 7 * 19 * 4177 has one prime above 2048, and
        # 10000079 - 1 the larger prime 19763, which falls in a later block of
        # stage 2: stage 1's gcd is 1, rho alone needs 3,838 squarings, and
        # stage 2 returns 9999739 with none
        n = 9999739 * 10000079
        assert gcd(pow(2, ntheory._pm1_exponent(), n) - 1, n) == 1
        assert ntheory._pollard_brent(n, ntheory._RHO_BUDGET) == (9999739, 3838)
        assert ntheory._split(n, 0) == (9999739, 0)
        monkeypatch.setattr(ntheory, "_RHO_BUDGET", 0)
        assert factorize(n) == [(9999739, 1), (10000079, 1)]

    def test_rho_goes_on_when_p_minus_1_stage_2_finds_n(self):
        # 10009823 - 1 = 2 * 41 * 59 * 2069 and 10055341 - 1 = 2^2 * 3^5 * 5 *
        # 2069 share the prime 2069, so the one term of stage 2 that holds
        # either prime holds both, and its gcd is n even once per term; rho
        # goes on and splits n with the squarings it takes alone
        p, q = 10009823, 10055341
        n, budget = p * q, ntheory._RHO_BUDGET
        z = pow(2, ntheory._pm1_exponent(), n)
        assert gcd(z - 1, n) == 1 and ntheory._pm1_stage2(z, n) == n
        assert ntheory._split(n, budget) == ntheory._pollard_brent(n, budget) == (p, 6654)

    @pytest.mark.parametrize("p", [10133609, 10614403])
    def test_p_minus_1_stage_2_reaches_both_ends_of_its_range(self, p, monkeypatch):
        # 10133609 - 1 = 2^3 * 617 * 2053 and 10614403 - 1 = 2 * 3^4 * 65521
        # hold the first and the last prime of stage 2's range; times
        # 10000349, whose p - 1 has a prime above 2^16, stage 2 returns p
        # with no rho squaring
        n = p * 10000349
        assert gcd(pow(2, ntheory._pm1_exponent(), n) - 1, n) == 1
        assert ntheory._split(n, 0) == (p, 0)
        monkeypatch.setattr(ntheory, "_RHO_BUDGET", 0)
        assert factorize(n) == [(10000349, 1), (p, 1)]

    def test_p_minus_1_stage_2_backtracks_in_a_block_whose_gcd_is_n(self, monkeypatch):
        # 10133609 - 1 = 2^3 * 617 * 2053 and 10041653 - 1 = 2^2 * 19 * 37 *
        # 3571: 2053 = 10 * 210 - 47 and 3571 = 17 * 210 + 1 lie in different
        # terms of the first block of _PM1_GIANTS giant steps, so that
        # block's gcd is n, and one gcd per term returns the first prime
        p, q = 10133609, 10041653
        n = p * q
        v0, uses = ntheory._pm1_plan()
        assert v0 == 10 and ntheory._PM1_GIANTS == 8
        assert 47 in uses[10 - v0] and 1 in uses[17 - v0]
        seen = []
        with monkeypatch.context() as mp:
            mp.setattr(ntheory, "gcd", lambda a, b: seen.append(gcd(a, b)) or seen[-1])
            assert ntheory._split(n, 0) == (p, 0)
        assert seen.count(n) == 1 and seen[-1] == p
        monkeypatch.setattr(ntheory, "_RHO_BUDGET", 0)
        assert factorize(n) == [(q, 1), (p, 1)]

    def test_p_minus_1_on_the_divisor_it_returned_costs_no_squaring(self, monkeypatch):
        # p - 1 and q - 1 are 2048-smooth and r - 1 is not, so the stage
        # returns p * q; its gcd on p * q is the whole of p * q, so rho splits
        # p * q with the squarings rho alone takes
        p, q, r = 276870443, 98805767, 865776859
        n, budget = p * q * r, ntheory._RHO_BUDGET
        assert ntheory._split(n, budget) == (p * q, 0)
        _, rho_alone = ntheory._pollard_brent(p * q, budget)
        calls = []
        real = ntheory._pm1_exponent
        monkeypatch.setattr(ntheory, "_pm1_exponent", lambda: calls.append(1) or real())
        acc = {}
        left = ntheory._factor_into(n, acc, budget)
        assert sorted(acc.items()) == sorted(sympy.factorint(n).items()) == [(q, 1), (p, 1), (r, 1)]
        assert len(calls) == 2 and budget - left == rho_alone

    def test_rho_over_budget_exits_2(self, capsys, monkeypatch):
        # the n of test_rho_budget_passes_and_one_less_fails
        monkeypatch.setattr(ntheory, "_RHO_BUDGET", 509)
        assert main(["rank", "--ell", "37", "--n", str(1000003 * 1000667)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: FactorBudgetExceeded: ")

    def test_one_rho_budget_covers_every_split(self, capsys, monkeypatch):
        # each p - 1 has a prime above 2^16, so p-1 splits nothing, and rho
        # splits this n in two, after 510 and then 894 squarings: each split
        # fits a budget of 894, and only their sum fits the request
        n = 1000003 * 1000667 * 1000669
        monkeypatch.setattr(ntheory, "_RHO_BUDGET", 510 + 894)
        assert factorize(n) == [(1000003, 1), (1000667, 1), (1000669, 1)]
        monkeypatch.setattr(ntheory, "_RHO_BUDGET", 510 + 894 - 1)
        with pytest.raises(FactorBudgetExceeded):
            factorize(n)
        monkeypatch.setattr(ntheory, "_RHO_BUDGET", 894)
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
        # products of two 24-32-bit primes go through Miller-Rabin, p-1 and rho
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
        # stage 2: times a prime from sympy.nextprime, a stage-2 prime is
        # split off by stage 2; times a 2048-smooth prime, by stage 1; times
        # another stage-2 prime, by stage 2, or, when both primes fall in one
        # term, by rho after stage 2's gcd is n
        for _ in range(8):
            p = stage_2_prime(rng)
            r = sympy.nextprime(rng.randrange(2**24, 2**32 - 2**20))
            cases += [p * r, p * smooth_prime(rng), p * stage_2_prime(rng)]
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
        assert [p for _, _, primes in blocks for p in primes] == list(sympy.primerange(2, 2**16))
        for first, product, primes in blocks:
            assert first == primes[0]
            assert product == prod(primes)
        assert {len(primes) for _, _, primes in blocks[:-1]} == {ntheory._BLOCK}
        assert blocks[-1][2][-1] == 65521

    def test_stage_2_plan_covers_each_prime_once(self):
        # each prime 2^11 < q <= 2^16 is vD - u or vD + u of exactly one term
        # (v, u) of the plan, and each term holds at least one such prime
        v0, uses = ntheory._pm1_plan()
        D = ntheory._PM1_D
        stage_2 = set(sympy.primerange(2**11 + 1, 2**16 + 1))
        covered = []
        for v, us in enumerate(uses, v0):
            for u in us:
                assert u < D // 2 and gcd(u, D) == 1, (v, u)
                held = [q for q in (v * D - u, v * D + u) if q in stage_2]
                assert held, (v, u)
                covered += held
        assert sorted(covered) == sorted(stage_2)
        assert (len(stage_2), sum(map(len, uses))) == (6233, 4859)

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
