from math import isqrt

import pytest

from qtr.errors import (
    EllNotFiveMod8,
    EllNotPrime,
    NNotPositive,
    NotCoprime,
    NotSquarefree,
)
from qtr.quad import fundamental_unit
from qtr.quartic import (
    FieldInput,
    WilliamsForm,
    conductor,
    defining_polynomial,
    to_williams,
    validate,
)
from qtr.rank import n_shape


def valid_n_values(ell, n_max):
    out = []
    for n in range(1, n_max + 1):
        try:
            validate(ell, n)
        except (NotSquarefree, NotCoprime):
            continue
        out.append(n)
    return out


class TestValidate:
    def test_accepts_known_field(self):
        field = validate(37, 13)
        assert (field.ell, field.n) == (37, 13)

    @pytest.mark.parametrize("ell,n,err", [
        (12, 10, EllNotPrime),
        (1, 1, EllNotPrime),
        (17, 3, EllNotFiveMod8),   # 17 = 1 (mod 8)
        (7, 3, EllNotFiveMod8),
        (13, 0, NNotPositive),
        (13, -5, NNotPositive),
        (13, 12, NotSquarefree),
        (37, 74, NotCoprime),
        (5, 15, NotCoprime),
    ])
    def test_rejects_each_hypothesis(self, ell, n, err):
        with pytest.raises(err):
            validate(ell, n)


class TestFieldRecord:
    def test_hand_built_input_is_validated(self):
        with pytest.raises(EllNotFiveMod8):
            FieldInput(17, 3)
        with pytest.raises(NotCoprime):
            FieldInput(13, 26)

    def test_validate_builds_the_same_record(self):
        for ell, n in ((37, 13), (13, 5 * 43 * 31 * 71), (29, 2 * 41 * 53 * 89)):
            assert validate(ell, n) == FieldInput(ell, n)

    def test_keeps_primes_and_shape(self):
        # the odd primes are in the shape, and 2 is its delta
        field = validate(5, 2 * 37 * 89)
        assert field._fields == ("ell", "n", "shape")
        assert (field.shape.delta, field.shape.primes) == (2, (37, 89))
        assert n_shape(field) is field.shape


class TestWilliamsForm:
    def test_odd_n_takes_even_b(self):
        assert to_williams(validate(13, 3)) == WilliamsForm(3, 2, 3)

    def test_even_n_takes_odd_b(self):
        assert to_williams(validate(13, 6)) == WilliamsForm(3, 3, 2)

    def test_n_one(self):
        assert to_williams(validate(37, 1)) == WilliamsForm(1, 6, 1)

    def test_round_trip(self, panel_ells):
        for ell in panel_ells:
            for n in valid_n_values(ell, 200):
                w = to_williams(validate(ell, n))
                assert (2 * w.a if w.b % 2 == 1 else w.a) == n
                assert w.a % 2 == 1 and (w.b % 2) != (w.c % 2)
                assert w.b**2 + w.c**2 == ell


class TestConductor:
    def test_e0_case(self):
        cond = conductor(WilliamsForm(3, 2, 3), 13)
        assert (cond.e, cond.f) == (0, 39)

    def test_e2_case(self):
        cond = conductor(WilliamsForm(13, 6, 1), 37)
        assert (cond.e, cond.f) == (2, 1924)

    def test_e3_case(self):
        cond = conductor(WilliamsForm(3, 3, 2), 13)
        assert (cond.e, cond.f) == (3, 312)

    def test_bridge_to_dyadic_ramification(self, panel_ells):
        # e = 0 exactly when n is odd with an odd number of factors = 3 (mod 4)
        for ell in panel_ells:
            for n in valid_n_values(ell, 300):
                field = validate(ell, n)
                e = conductor(to_williams(field), ell).e
                shape = n_shape(field)
                assert (e == 0) == (shape.delta == 1 and (shape.s1 + shape.s2) % 2 == 1), (ell, n)
                assert (e == 0) == (not shape.dyadic_ramifies)


class TestDefiningPolynomial:
    @pytest.mark.parametrize("ell,n,c2,c0", [
        (5, 1, -5, 5),
        (13, 1, -13, 13),
        (13, 2, -26, 52),
    ])
    def test_examples(self, ell, n, c2, c0):
        poly = defining_polynomial(validate(ell, n))
        assert poly.coefficients == (1, 0, c2, 0, c0)

    def test_eisenstein_and_cyclicity(self, panel_ells):
        for ell in panel_ells:
            for n in valid_n_values(ell, 60):
                field = validate(ell, n)
                poly = defining_polynomial(field)
                _, _, c2, _, c0 = poly.coefficients
                assert c2 % ell == 0 and c0 % ell == 0
                assert c0 % (ell * ell) != 0
                # the resolvent discriminant certificate is an exact square
                u = fundamental_unit(ell).u
                cert = n**4 * ell**2 * u**2
                assert isqrt(cert) ** 2 == cert

    def test_str_rendering(self):
        assert str(defining_polynomial(validate(13, 2))) == "x^4 - 26*x^2 + 52"
