from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from orbigw.stirling import stirling_first


@lru_cache(maxsize=None)
def stirling_second(m: int, k: int) -> int:
    """Stirling number of the second kind, by its recursion; 0 outside 0 <= k <= m."""
    if m < 0 or k < 0:
        return 0
    if m == 0:
        return 1 if k == 0 else 0
    if k > m or k == 0:
        return 0
    return k * stirling_second(m - 1, k) + stirling_second(m - 1, k - 1)


def stirling_second_euler(m: int, k: int) -> Fraction:
    """Euler's alternating-sum formula for S(m, k); an independent cross-check."""
    if k < 0 or m < 0 or k > m:
        return Fraction(0)
    if m == 0:
        return Fraction(1 if k == 0 else 0)
    total = sum((-1) ** (k - i) * comb(k, i) * i**m for i in range(k + 1))
    return Fraction(total, factorial(k))


def falling_factorial_coefficients(m: int) -> list[int]:
    """Coefficients of x(x-1)...(x-m+1) by direct polynomial expansion."""
    poly = [1]
    for j in range(m):
        # multiply by (x - j)
        shifted = [0] + poly
        poly = [shifted[i] - j * (poly[i] if i < len(poly) else 0) for i in range(len(shifted))]
    return poly


def validate(max_m: int) -> None:
    """Cross-check both kinds through max_m against closed forms and the inversion identity."""
    for m in range(max_m + 1):
        poly = falling_factorial_coefficients(m)
        for k in range(m + 1):
            if poly[k] != stirling_first(m, k):
                raise AssertionError(f"s({m},{k}) disagrees with falling factorial expansion")
            if stirling_second_euler(m, k) != stirling_second(m, k):
                raise AssertionError(f"S({m},{k}) disagrees with Euler's formula")
        if m >= 1 and stirling_first(m, m - 1) != -comb(m, 2):
            raise AssertionError(f"s({m},{m-1}) != -C({m},2)")
        if m >= 2 and stirling_first(m, m - 2) != Fraction(3 * m - 1, 4) * comb(m, 3):
            raise AssertionError(f"s({m},{m-2}) closed form failed")
        if m >= 3 and stirling_first(m, m - 3) != -comb(m, 2) * comb(m, 4):
            raise AssertionError(f"s({m},{m-3}) closed form failed")
    # the two triangles are mutually inverse as lower triangular matrices
    for m in range(max_m + 1):
        for k in range(max_m + 1):
            tot = sum(stirling_first(m, j) * stirling_second(j, k) for j in range(max_m + 1))
            if tot != (1 if m == k else 0):
                raise AssertionError(f"Stirling inversion failed at ({m},{k})")


def test_first_kind_values():
    assert stirling_first(0, 0) == 1
    assert stirling_first(4, 3) == -comb(4, 2) == -6
    # oracle: expand x(x-1)(x-2) = x^3 - 3x^2 + 2x
    assert falling_factorial_coefficients(3) == [0, 2, -3, 1]
    assert stirling_first(3, 1) == 2
    assert stirling_first(5, 0) == 0


def test_second_kind_values():
    for m in range(8):
        assert stirling_second(m, 0) == (1 if m == 0 else 0)
        assert stirling_second(m, m) == 1
    assert stirling_second(3, 2) == 3
    assert stirling_second(3, 2) == stirling_second_euler(3, 2)
    assert stirling_second(5, 5) == 1


def test_table_validation_runs():
    # every cross-check of both kinds, through m = 12
    validate(12)
    assert stirling_first(4, 3) == -6
    assert stirling_second(3, 2) == 3
    # inversion identity, spot checked beyond validate()
    for m in range(10):
        for k in range(10):
            tot = sum(stirling_first(m, j) * stirling_second(j, k) for j in range(10))
            assert tot == (1 if m == k else 0)


def test_closed_forms_through_m9():
    for m in range(1, 10):
        assert stirling_first(m, m - 1) == -comb(m, 2)
        if m >= 2:
            assert stirling_first(m, m - 2) == Fraction(3 * m - 1, 4) * comb(m, 3)
        if m >= 3:
            assert stirling_first(m, m - 3) == -comb(m, 2) * comb(m, 4)
