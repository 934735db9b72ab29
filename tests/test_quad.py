from math import isqrt

import pytest
import sympy
from sympy import continued_fraction_periodic
from sympy.solvers.diophantine.diophantine import diop_DN

from qtr import quad
from qtr.cli import main
from qtr.errors import PeriodBudgetExceeded
from qtr.ntheory import legendre
from qtr.quad import SplittingType, fundamental_unit, splitting_type

from .conftest import family_sample, pell_oracle, trial_division_is_prime


class TestFundamentalUnit:
    @pytest.mark.parametrize("ell,u,v", [(5, 1, 1), (13, 3, 1), (29, 5, 1)])
    def test_spot_values(self, ell, u, v):
        unit = fundamental_unit(ell)
        assert (unit.u, unit.v) == (u, v)

    @pytest.mark.parametrize("ell,u,v", [(37, 12, 2), (101, 20, 2), (197, 28, 2)])
    def test_even_coordinate_fields(self, ell, u, v):
        # no half-integer solution exists here; the minimal one is even
        unit = fundamental_unit(ell)
        assert (unit.u, unit.v) == (u, v)

    def test_identity_and_minimality_below_500(self):
        for ell in range(5, 500, 8):
            if not trial_division_is_prime(ell):
                continue
            unit = fundamental_unit(ell)
            assert unit.u**2 - ell * unit.v**2 == -4
            assert (unit.u, unit.v) == pell_oracle(ell, unit.v), ell

    def test_least_v_solution_of_pell_below_10_4(self):
        # sympy's fundamental solutions of u^2 - ell*v^2 = -4; eps0 is the one
        # with least |v|, taken with u, v > 0
        ells = [ell for ell in sympy.primerange(5, 10**4) if ell % 8 == 5]
        assert len(ells) == 314
        for ell in ells:
            least = min(((abs(u), abs(v)) for u, v in diop_DN(ell, -4)), key=lambda s: s[1])
            unit = fundamental_unit(ell)
            assert (unit.u, unit.v) == least, ell

    def test_least_v_solution_of_pell_past_10_4(self):
        # a seeded sample up to 10^7; diop_DN's cost grows with the period
        for ell in family_sample(seed=0, count=15):
            least = min(((abs(u), abs(v)) for u, v in diop_DN(ell, -4)), key=lambda s: s[1])
            unit = fundamental_unit(ell)
            assert (unit.u, unit.v) == least, ell

    @staticmethod
    def least_negative_pell(ell):
        """Least x, y > 0 with x^2 - ell*y^2 = -1: the convergent of sqrt(ell)
        just before its odd period ends, where the recursion's d returns to 1."""
        a0 = isqrt(ell)
        m, d, a = 0, 1, a0
        x_prev, x, y_prev, y = 1, a0, 0, 1
        while True:
            m = d * a - m
            d = (ell - m * m) // d
            if d == 1:
                return x, y
            a = (a0 + m) // d
            x_prev, x = x, a * x + x_prev
            y_prev, y = y, a * y + y_prev

    def test_integer_unit_up_to_10_9(self):
        # the benchmark's ell range: eps0 is x + y*sqrt(ell) itself when u
        # and v are even; otherwise eps0^3 is, the least power in Z[sqrt(ell)]
        for ell in family_sample(seed=3, count=12, low=7, high=9):
            x, y = self.least_negative_pell(ell)
            assert x * x - ell * y * y == -1, ell
            u, v = fundamental_unit(ell)
            if u % 2 == 0 and v % 2 == 0:
                assert (x, y) == (u // 2, v // 2), ell
            else:
                cube = (u**3 + 3 * u * v * v * ell, 3 * u * u * v + v**3 * ell)
                assert cube[0] % 8 == 0 and cube[1] % 8 == 0, ell
                assert (cube[0] // 8, cube[1] // 8) == (x, y), ell

    def test_coordinates_positive(self):
        for ell in (5, 13, 29, 37, 53, 61, 101, 109, 149, 157, 173, 197):
            unit = fundamental_unit(ell)
            assert unit.u > 0 and unit.v > 0


class TestPeriodBudget:
    """fundamental_unit walks at most quad._PERIOD_BUDGET partial quotients."""

    ELL = 100000037

    def test_budget_passes_and_one_less_fails(self, monkeypatch):
        # sympy's expansion of (1 + sqrt(ell))/2: one quotient, then the period
        period = len(continued_fraction_periodic(1, 2, self.ELL)[-1])
        assert period == 2579
        monkeypatch.setattr(quad, "_PERIOD_BUDGET", period)
        unit = fundamental_unit.__wrapped__(self.ELL)
        assert unit.u ** 2 - self.ELL * unit.v ** 2 == -4
        monkeypatch.setattr(quad, "_PERIOD_BUDGET", period - 1)
        with pytest.raises(PeriodBudgetExceeded, match="ell = 100000037"):
            fundamental_unit.__wrapped__(self.ELL)

    @pytest.mark.parametrize("argv", [("unit",), ("poly", "--n", "3")], ids=["unit", "poly"])
    def test_over_budget_exits_2(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(quad, "_PERIOD_BUDGET", 2578)
        fundamental_unit.cache_clear()
        assert main([argv[0], "--ell", str(self.ELL), *argv[1:]]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: PeriodBudgetExceeded: ")


class TestSplittingType:
    def test_examples(self):
        assert splitting_type(13, 37) is SplittingType.INERT
        assert splitting_type(13, 101) is SplittingType.SPLIT
        assert splitting_type(2, 53) is SplittingType.INERT
        assert splitting_type(37, 37) is SplittingType.RAMIFIED

    def test_reciprocity_agreement(self, panel_ells):
        # ell = 1 (mod 4): (r/ell) and (ell/r) must agree for odd r != ell
        for ell in panel_ells:
            for r in range(3, 300, 2):
                if not trial_division_is_prime(r) or r == ell:
                    continue
                forward = legendre(r, ell)
                backward = legendre(ell, r)
                assert forward == backward, (r, ell)
                expected = SplittingType.SPLIT if forward == 1 else SplittingType.INERT
                assert splitting_type(r, ell) is expected

    def test_two_always_inert(self, panel_ells):
        # 2 has no branch of its own: legendre(2, ell) = -1 for every ell = 5 (mod 8)
        for ell in (*panel_ells, *family_sample(seed=5, count=40, low=4, high=12)):
            assert splitting_type(2, ell) is SplittingType.INERT, ell
