import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import assert_normal
from orbigw.cyclotomic import Cyclotomic, cyclotomic_polynomial, euler_phi
from orbigw.report import canonical_json


def test_cyclotomic_polynomials_small():
    # classical tables
    assert list(cyclotomic_polynomial(1)) == [-1, 1]
    assert list(cyclotomic_polynomial(2)) == [1, 1]
    assert list(cyclotomic_polynomial(3)) == [1, 1, 1]
    assert list(cyclotomic_polynomial(4)) == [1, 0, 1]
    assert list(cyclotomic_polynomial(6)) == [1, -1, 1]
    assert list(cyclotomic_polynomial(12)) == [1, 0, -1, 0, 1]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_root_of_unity_relations(n):
    z = Cyclotomic.zeta(n)
    assert (z**n).is_one()
    total = Cyclotomic.zero(n)
    for k in range(n):
        total = total + z**k
    assert total.is_zero()


@pytest.mark.parametrize("n", [3, 5, 6, 7])
def test_inverse_and_division(n):
    z = Cyclotomic.zeta(n)
    a = z * Fraction(2, 3) + Fraction(1, 7)
    assert (a * a.inverse()).is_one()
    assert ((a / a)).is_one()
    assert (1 / z) == z ** (n - 1)


def test_mixed_arithmetic_with_rationals():
    z = Cyclotomic.zeta(5)
    assert z + 1 - 1 == z
    assert (z * 0).is_zero()
    assert (Fraction(1, 2) * z) * 2 == z
    assert Cyclotomic(5, [Fraction(3, 4)]).to_rational() == Fraction(3, 4)
    with pytest.raises(ValueError):
        (z + 1).to_rational()


def test_order_mixing_rejected():
    with pytest.raises(ValueError):
        Cyclotomic.zeta(3) + Cyclotomic.zeta(4)
    with pytest.raises(ValueError):
        Cyclotomic.zeta(3) * Cyclotomic.zeta(4)


def test_non_rational_coordinates_rejected():
    z = Cyclotomic.zeta(5)
    for bad in (0.1, "1/3"):
        with pytest.raises(TypeError):
            Cyclotomic(5, [bad])
        with pytest.raises(TypeError):
            z + bad
        with pytest.raises(TypeError):
            z * bad


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([3, 4, 5, 6]),
    coords=st.lists(st.fractions(min_value=-30, max_value=30, max_denominator=12), min_size=1, max_size=4),
)
def test_field_axioms(n, coords):
    d = euler_phi(n)
    a = Cyclotomic(n, coords[:d])
    b = Cyclotomic.zeta(n) + 1
    assert a * b == b * a
    assert (a + b) - b == a
    if not a.is_zero():
        assert (a * a.inverse()).is_one()


def test_json_round_trip():
    # the canonical JSON text of an element records its coordinates exactly
    z = Cyclotomic.zeta(7, 3) * Fraction(5, 9) - Fraction(2)
    js = json.loads(canonical_json(z.to_json()))
    assert Cyclotomic(7, [Fraction(c) for c in js]) == z


# -- the integer form against Fraction coefficient lists reduced by Phi_n -----------------------


def _reduce(poly: list, n: int) -> list[Fraction]:
    """The remainder of a polynomial (coefficients low degree first) by the monic Phi_n, as phi(n) coordinates."""
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    rem = [Fraction(c) for c in poly] + [Fraction(0)] * d
    for top in range(len(rem) - 1, d - 1, -1):
        c = rem[top]
        for j, p in enumerate(phi):
            rem[top - d + j] -= c * p
    return rem[:d]


def _ref_mul(a: list, b: list, n: int) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _reduce(out, n)


_fractions = st.fractions(max_denominator=10**4).filter(bool) | st.integers(-(10**6), 10**6)


@st.composite
def _element_pairs(draw):
    n = draw(st.integers(3, 8))
    coords = st.lists(_fractions | st.just(0), max_size=euler_phi(n))
    return n, Cyclotomic(n, draw(coords)), Cyclotomic(n, draw(coords))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_element_pairs(), _fractions, st.integers(-3, 4))
def test_field_operations_match_reference(pair, q, k):
    n, a, b = pair
    A, B = list(a.coords), list(b.coords)
    one = _reduce([1], n)
    checks = [
        (a + b, [x + y for x, y in zip(A, B)]),
        (a - b, [x - y for x, y in zip(A, B)]),
        (q - a, [y - x for x, y in zip(A, _reduce([q], n))]),
        (-a, [-x for x in A]),
        (a * b, _ref_mul(A, B, n)),
        (a * q, [x * q for x in A]),
        (q * a, [x * q for x in A]),
        (a / q, [x / q for x in A]),
    ]
    want = one
    for _ in range(abs(k)):
        want = _ref_mul(want, A, n)
    if k >= 0:
        checks.append((a**k, want))
    for got, ref in checks:
        assert_normal(got)
        assert list(got.coords) == ref
    # the inverse, a quotient and a negative power multiply back through the reference product
    if b:
        assert_normal(b.inverse())
        assert _ref_mul(list(b.inverse().coords), B, n) == one
        assert _ref_mul(list((a / b).coords), B, n) == A
    if a and k < 0:
        assert_normal(a**k)
        assert _ref_mul(list((a**k).coords), want, n) == one
    elif not a and k < 0:
        with pytest.raises(ZeroDivisionError):
            a**k


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(3, 8), _fractions)
def test_rationals_compare_hash_and_serialize_as_rationals(n, q):
    d = euler_phi(n)
    r, zero = Cyclotomic(n, [q]), Cyclotomic.zero(n)
    assert r == q and q == r and r != q + 1 and hash(r) == hash(Fraction(q))
    assert zero == 0 and hash(zero) == hash(0) and not zero
    assert Cyclotomic.zeta(n) != q
    assert r.to_json() == [str(Fraction(q))] + ["0"] * (d - 1)
    assert zero.to_json() == ["0"] * d and zero.coords == (Fraction(0),) * d
    assert_normal(r)
    assert_normal(zero)
