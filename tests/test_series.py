import json
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import CyclotomicSeries, assert_normal
from orbigw.cyclotomic import Cyclotomic
from orbigw.genus0 import ModelConfig, at_column, compute_L, entry_at_column
from orbigw.report import canonical_json
from orbigw.series import INF, PrecisionError, Series


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
    assert one.inverse() == one
    inv = (one + x).truncate(10).inverse()
    assert (inv - geometric_oracle(10)).zero_order() is None
    f = (one + x * Fraction(3, 7) - x**3 * Fraction(2)).truncate(15)
    assert (f * f.inverse() - one).is_zero()


def test_inversion_with_valuation():
    x = Series.x()
    f = (x * 2 + x**3).truncate(12)
    g = f.inverse()
    assert g.val == -1
    assert (f * g - Series.one()).is_zero()


def test_inversion_requires_leading_term():
    with pytest.raises(ZeroDivisionError):
        Series.zero(5).inverse()


@pytest.mark.parametrize("n", range(3, 9))
def test_L_matches_binomial_oracle(n):
    # L = x (1 + u)^(-1/n), u = -(-1)^n (x/n)^n: the same normal form as the
    # binomial series summed from the oracle's coefficients, known below x^(N+2)
    u = Fraction(-((-1) ** n), n**n)
    for N in (4 * n, 10 * n + 3):
        coeffs = binomial_oracle(-1, n, N // n + 1)
        want = Series({n * j + 1: c * u**j for j, c in enumerate(coeffs)}, N + 2)
        got = compute_L(ModelConfig(n, N))
        assert (got.nums, got.den, got.prec) == (want.nums, want.den, want.prec), N


def test_L_series_n3_leading_coefficients():
    # L = x (1 + (x/3)^3)^(-1/3) for n = 3; the x^4 coefficient is -1/81
    L = compute_L(ModelConfig(3, 12))
    assert L.get(1) == 1 and L.get(4) == Fraction(-1, 81) and L.prec == 14


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
    # series over Q(zeta_n) are the oracle's own type; they take a rational series as an operand
    z = Cyclotomic.zeta(5)
    f = CyclotomicSeries({0: Fraction(1), 1: z}, 8)
    g = f * f
    assert g.get(1) == z * 2
    assert g.get(2) == z * z
    assert (f * z).get(0) == z
    h = Series({0: Fraction(2), 3: Fraction(-1, 4)}, 8)
    assert (f * h).get(1) == z * 2 and (h * f).get(3) == Fraction(-1, 4)


def test_non_rational_coefficients_rejected():
    z = Cyclotomic.zeta(5)
    for bad in (z, Cyclotomic.one(5), 0.5):
        with pytest.raises(TypeError):
            Series({0: Fraction(1), 1: bad})
        with pytest.raises(TypeError):
            Series.monomial(bad, 2)
    f = Series({0: Fraction(1), 1: Fraction(2, 3)}, 8)
    for other in (z, 1.0):
        for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__"):
            assert getattr(f, op)(other) is NotImplemented, (other, op)
    with pytest.raises(TypeError):
        f * z
    with pytest.raises(TypeError):
        z * f
    with pytest.raises(TypeError):
        f / z
    with pytest.raises(TypeError):
        f + 1.0
    with pytest.raises(TypeError):
        1.0 - f


def test_column_entry_of_series_matches_oracle():
    # the column of series pieces is a dict {exponent: coefficient}, known
    # below the least bound of its nonzero pieces: at column 0 the x^27 terms
    # cancel, and x^29 lies beyond what the column knows
    zeta = lambda k: Cyclotomic.zeta(3, k)
    pieces = [Series({27: 1}, 28), Series.zero(25), Series({27: -1, 29: 1}, 30)]
    for j in range(3):
        want = at_column([CyclotomicSeries(p) for p in pieces], j, zeta)
        assert entry_at_column(pieces, j, zeta) == want.coeffs, j
    assert entry_at_column(pieces, 0, zeta) == {}
    assert entry_at_column([Series.zero(5)] * 3, 1, zeta) == {}


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=9), min_size=1, max_size=6),
)
def test_inverse_round_trip_property(coeffs):
    d = {e: c for e, c in enumerate(coeffs, start=0) if c}
    if 0 not in d:
        d[0] = Fraction(1)
    f = Series(d, 12)
    assert (f * f.inverse() - Series.one()).is_zero()


def test_json_round_trip():
    # the canonical JSON text of a series records its coefficients and bound exactly
    def decode(text: str) -> Series:
        js = json.loads(text)
        coeffs = {int(e): Fraction(v) for e, v in js["coeffs"].items()}
        return Series(coeffs, INF if js["prec"] is None else js["prec"])

    f = Series({-2: Fraction(3, 4), 1: Fraction(-5, 6), 4: 2}, 9)
    text = canonical_json(f.to_json())
    assert text == '{"coeffs":{"-2":"3/4","1":"-5/6","4":"2"},"prec":9}'
    assert decode(text) == f
    assert canonical_json(CyclotomicSeries(f).to_json()) == text
    exact = Series({5: Fraction(1)})
    assert decode(canonical_json(exact.to_json())) == exact
    # a Q(zeta_n) coefficient is written as its power-basis coordinates, by the oracle's type
    z = Cyclotomic.zeta(3)
    g = CyclotomicSeries({-2: Fraction(3, 4), 1: z}, 9)
    assert canonical_json(g.to_json()) == '{"coeffs":{"-2":"3/4","1":["0","1"]},"prec":9}'


# -- the integer form against the oracle's coefficient arithmetic, on random rational operands --------

_rationals = st.fractions(max_denominator=10**9).filter(bool) | st.integers(-(10**25), 10**25)
_precs = st.integers(0, 14) | st.just(INF)


@st.composite
def _series(draw, low=-3, prec=_precs):
    p = draw(prec)
    return Series(draw(st.dictionaries(st.integers(low, 13), _rationals, max_size=6)), p)


def _units(low=-3):
    """Series with a known nonzero leading coefficient that can be inverted."""
    return _series(low, st.integers(1, 14)).filter(bool) | _series(low, st.just(INF)).filter(
        lambda s: len(s.nums) == 1
    )


def _agree(got: Series, want: CyclotomicSeries) -> None:
    assert_normal(got)
    assert CyclotomicSeries(got) == want
    assert all(type(c) is Fraction for c in want.coeffs.values())


_property = settings(max_examples=60, deadline=None, derandomize=True)


@_property
@given(_series(), _series(), _rationals)
def test_ring_operations_match_oracle(a, b, q):
    A, B = CyclotomicSeries(a), CyclotomicSeries(b)
    assert_normal(a)
    _agree(a + b, A + B)
    _agree(a - b, A - B)
    _agree(a * b, A * B)
    _agree(-a, -A)
    _agree(a * q, A * q)
    _agree(a / q, A / q)
    _agree(q - a, q - A)
    _agree(a + q, A + q)
    assert a - a == Series.zero(a.prec) and (a - a).den == 1


@_property
@given(_units(), _series(), st.integers(-3, 4))
def test_inverse_quotient_and_powers_match_oracle(u, a, k):
    U, A = CyclotomicSeries(u), CyclotomicSeries(a)
    _agree(u.inverse(), U.invert())
    _agree(a / u, A / U)
    _agree(u**k, U**k)
    if k >= 0:
        _agree(a**k, A**k)


@_property
@given(_series(), st.integers(-4, 4), st.integers(-2, 16) | st.just(INF))
def test_calculus_shift_and_truncate_match_oracle(a, k, bound):
    A = CyclotomicSeries(a)
    _agree(a.D(), A.D())
    _agree(a.shift(k), A.shift(k))
    _agree(a.truncate(bound), A.truncate(bound))
    b = a.truncate(bound) if bound < a.prec else a
    c = Series({e: b.get(e) for e in b.nums if e > 0}, b.prec)
    _agree(c.D_inverse(), CyclotomicSeries(c).D_inverse())
    assert c.D_inverse().D() == c


@_property
@given(st.lists(st.tuples(_series(), _series()), max_size=4))
def test_sum_of_products_matches_separate_products(pairs):
    # Laurent, exact (INF) and truncated operands: the values and the bound
    # are those of the sum of the separate products, and the oracle's
    got = Series.sum_of_products(pairs)
    separate = Series.zero()
    for x, y in pairs:
        separate = separate + x * y
    assert got == separate and got.prec == separate.prec
    _agree(got, sum((CyclotomicSeries(x) * CyclotomicSeries(y) for x, y in pairs), CyclotomicSeries.zero()))
    for signed in ([(-x, y) for x, y in pairs], [(x, -y) for x, y in pairs]):
        cancelled = Series.sum_of_products(pairs + signed)
        assert cancelled == Series.zero(got.prec) and cancelled.den == 1
        assert Series.sum_of_products(signed) == -got


def test_sum_of_products_examples():
    x = Series.x()
    assert Series.sum_of_products([]) == Series.zero() and Series.sum_of_products([]).prec == INF
    # unequal denominators meet over their lcm and reduce once; the bound is
    # the least among the products, here x^2 (1/3 + O(x^4)) known below x^6
    a = Series({0: Fraction(1, 3)}, 4)
    got = Series.sum_of_products([(a, x * x), (x * Fraction(1, 4), x * Fraction(6, 5))])
    assert got == Series({2: Fraction(1, 3) + Fraction(3, 10)}, 6)
    assert got.den == 30
    assert_normal(got)
    # a truncated zero still bounds the sum
    assert Series.sum_of_products([(Series.zero(3), x), (x, x)]) == Series({2: 1}, 4)
