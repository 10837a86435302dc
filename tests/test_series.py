import json
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbigw.cyclotomic import Cyclotomic
from orbigw.report import canonical_json
from orbigw.series import INF, PrecisionError, Series, binomial_pow


def geometric_oracle(prec: int) -> Series:
    """1/(1+x) expanded directly; the independent check for inversion."""
    return Series({e: Fraction((-1) ** e) for e in range(prec)}, prec)


def binomial_oracle(p: int, q: int, terms: int) -> list[Fraction]:
    """Generalized binomial coefficients of (1+u)^{p/q}, computed from scratch."""
    alpha = Fraction(p, q)
    out = [Fraction(1)]
    for j in range(1, terms):
        num = Fraction(1)
        for t in range(j):
            num *= alpha - t
        out.append(num / factorial(j))
    return out


def test_product_difference_of_squares():
    one, x = Series.one(), Series.x()
    f = (one + x).truncate(12)
    assert (f * (one - x) - Series({0: Fraction(1), 2: Fraction(-1)}, 11)).zero_order() is None
    assert (x * x) == Series({2: Fraction(1)})


def test_inversion_small_cases():
    one, x = Series.one(), Series.x()
    assert one.invert() == one
    inv = (one + x).truncate(10).invert()
    assert (inv - geometric_oracle(10)).zero_order() is None
    f = (one + x * Fraction(3, 7) - x**3 * Fraction(2)).truncate(15)
    assert (f * f.invert() - one).is_zero()


def test_inversion_with_valuation():
    x = Series.x()
    f = (x * 2 + x**3).truncate(12)
    g = f.invert()
    assert g.val == -1
    assert (f * g - Series.one()).is_zero()


def test_inversion_requires_leading_term():
    with pytest.raises(ZeroDivisionError):
        Series.zero(5).invert()


def test_binomial_pow_matches_oracle():
    u = Series({1: Fraction(1)}, 9)
    got = binomial_pow(u, -1, 3)
    want = binomial_oracle(-1, 3, 9)
    for j, c in enumerate(want):
        assert got.get(j) == c
    # the first few: 1 - u/3 + 2u^2/9 - ...
    assert got.get(1) == Fraction(-1, 3)
    assert got.get(2) == Fraction(2, 9)


def test_binomial_pow_power_identity():
    u = Series({1: Fraction(2), 2: Fraction(-1, 3)}, 10)
    r = binomial_pow(u, 5, 3)
    lhs = r**3
    rhs = (Series.one() + u) ** 5
    assert (lhs - rhs).zero_order() is None


def test_binomial_pow_rejects_units():
    with pytest.raises(ValueError):
        binomial_pow(Series.one(), 1, 2)


def test_L_series_n3_leading_coefficients():
    # L = x (1 + (x/3)^3)^(-1/3) for n = 3; the x^4 coefficient is -1/81
    u = Series({3: Fraction(1, 27)})
    L = binomial_pow(u, -1, 3, prec=12).shift(1)
    assert L.get(1) == 1 and L.get(4) == Fraction(-1, 81)


def test_D_and_D_inverse():
    x = Series.x()
    f = x**4 * 7
    assert f.D() == x**4 * 28
    assert Series.monomial(Fraction(5)).D().is_zero()
    g = Series({1: Fraction(1), 3: Fraction(6)}, 20)
    assert g.D().D_inverse() == g
    assert g.D_inverse().get(1) == Fraction(1)
    with pytest.raises(ValueError):
        Series.one().D_inverse()


def test_precision_tracking():
    f = Series({0: Fraction(1), 1: Fraction(1)}, 5)
    g = Series({1: Fraction(1)}, 100)
    assert (f * g).prec == 6
    assert (f + g).prec == 5
    with pytest.raises(PrecisionError):
        f.get(5)


def test_cyclotomic_coefficients_mix():
    z = Cyclotomic.zeta(5)
    f = Series({0: Fraction(1), 1: z}, 8)
    g = f * f
    assert g.get(1) == z * 2
    assert g.get(2) == z * z
    assert (f * z).get(0) == z


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=9), min_size=1, max_size=6),
)
def test_inverse_round_trip_property(coeffs):
    d = {e: c for e, c in enumerate(coeffs, start=0) if c}
    if 0 not in d:
        d[0] = Fraction(1)
    f = Series(d, 12)
    assert (f * f.invert() - Series.one()).is_zero()


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=5), min_size=1, max_size=5),
    p=st.integers(min_value=-4, max_value=4),
    q=st.integers(min_value=1, max_value=4),
)
def test_binomial_power_property(coeffs, p, q):
    u = Series({e + 1: c for e, c in enumerate(coeffs) if c}, 10)
    r = binomial_pow(u, p, q)
    lhs = r**q
    rhs = (Series.one() + u) ** p if p >= 0 else ((Series.one() + u).truncate(10) ** p)
    assert (lhs - rhs).zero_order() is None


def test_json_round_trip():
    # the canonical JSON text of a series records its coefficients and bound exactly
    def decode(text: str) -> Series:
        js = json.loads(text)
        coeffs = {
            int(e): Cyclotomic(3, [Fraction(c) for c in v]) if isinstance(v, list) else Fraction(v)
            for e, v in js["coeffs"].items()
        }
        return Series(coeffs, INF if js["prec"] is None else js["prec"])

    z = Cyclotomic.zeta(3)
    f = Series({-2: Fraction(3, 4), 1: z}, 9)
    assert decode(canonical_json(f.to_json())) == f
    exact = Series({5: Fraction(1)})
    assert decode(canonical_json(exact.to_json())) == exact
