import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert Cyclotomic.from_rational(5, Fraction(3, 4)).to_rational() == Fraction(3, 4)
    with pytest.raises(ValueError):
        (z + 1).to_rational()


def test_order_mixing_rejected():
    with pytest.raises(ValueError):
        Cyclotomic.zeta(3) + Cyclotomic.zeta(4)


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
