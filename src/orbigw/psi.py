r"""
Exact psi-class intersection numbers on the moduli of stable curves.

<tau_{a_1} ... tau_{a_m}>_g vanishes unless sum(a_i) = 3g - 3 + m and
2g - 2 + m > 0.  Genus zero has the closed multinomial form
(m-3)! / prod(a_i!).  Everything is reachable from <tau_0^3>_0 = 1 through
the KdV-type recursion on the double-factorial normalization
T_a = (2a+1)!! tau_a:

    <T_{k+1} prod_S T_{a}>_g = sum_{a in S} (2a+1) <T_{k+a} prod_{S-a}>_g
        + 1/2 sum_{b+c=k-1} [ <T_b T_c prod_S>_{g-1}
        + sum over genus and marking splits of <T_b ...><T_c ...> ],

with ordered inner sums and unstable brackets read as zero.

The recursion here is memoized and always removes the largest exponent.
It sums over the distinct exponents of S and over its sub-multisets, weighted
by the labelled points and subsets each stands for, and lets the left
bracket's dimension fix the genus of a split (``_normalized``).  Every
bracket is dyadic, so it runs on integers scaled by 16^g at genus g.

Its oracle, a plain recursion that reduces through the string and dilaton
equations first and removes the smallest non-special exponent otherwise,
lives in the test suite (``tests/oracles.py``).  The two share nothing but
the seed, and the tests play them against each other and against the genus
zero closed form; these numbers poison every higher genus potential if they
are wrong.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import groupby, product
from math import comb, factorial


def double_factorial(k: int) -> int:
    """(2k+1)!! for k >= -1 (with (-1)!! = 1)."""
    out = 1
    v = 2 * k + 1
    while v > 1:
        out *= v
        v -= 2
    return out


def is_stable(g: int, m: int) -> bool:
    return 2 * g - 2 + m > 0


def dimension_ok(g: int, exponents: tuple[int, ...]) -> bool:
    return sum(exponents) == 3 * g - 3 + len(exponents)


def psi_genus0(exponents: tuple[int, ...]) -> Fraction:
    """Closed form (m-3)! / prod(a_i!) at genus zero."""
    m = len(exponents)
    if m < 3 or sum(exponents) != m - 3:
        return Fraction(0)
    denom = 1
    for a in exponents:
        denom *= factorial(a)
    return Fraction(factorial(m - 3), denom)


GENUS_SCALE = 16  # _normalized(g, key) is GENUS_SCALE^g times the T-normalized bracket


@lru_cache(maxsize=None)
def _normalized(g: int, key: tuple[int, ...]) -> int:
    """
    16^g <prod (2a+1)!! tau_a>_g for a sorted exponent tuple, an integer, by
    largest-index removal.

    Every T-normalized bracket is dyadic (the recursion brings in only 1/2
    and the 1/8 of <T_1>_1), and at genus g its denominator divides 2^(4g):
    the one-point bracket <T_{3g-2}>_g has denominator 2^(3g + v_2(g!)),
    below 2^(4g), and no bracket with g <= 7 and m <= 6 is finer than it.
    So the recursion runs on integers scaled by 16^g.  The scales add: a
    split's two brackets of genus g1 and g2 = g - g1 multiply to scale 16^g,
    and the bracket of genus g - 1 is scaled by 16 once.  The divisions left,
    the 1/2 of the splitting term and the 1/8 of <T_1>_1, are exact unless a
    bracket is finer than its scale, and then they raise (:func:`_exact`).

    The points of ``rest`` that carry one exponent are interchangeable, so the
    merge term takes each distinct exponent once, times its multiplicity, and
    the splitting term runs over sub-multisets of ``rest`` (a count per
    distinct exponent), weighted by the product of binomials that counts the
    labelled subsets it stands for.  The left bracket's dimension then forces
    its genus, 3 g1 = sum(left) + 3 - |left|, so each split has at most one
    genus, and only the residue of b mod 3 that makes g1 an integer is tried.
    Unstable brackets are skipped, so every memoized key is a stable,
    dimension-valid one.
    """
    m = len(key)
    if not is_stable(g, m) or not dimension_ok(g, key):
        return 0
    if g == 0:
        # the multinomial (m-3)! / prod(a_i!) times the normalization, both integers
        num, den = factorial(m - 3), 1
        for a in key:
            num *= double_factorial(a)
            den *= factorial(a)
        return num // den
    if g == 1 and key == (1,):
        # the recursion never removes a tau_1 from a one-point bracket, but it
        # does couple <tau_2 tau_0>_1 (= <tau_1>_1 by the string equation)
        # back to <tau_1>_1 linearly:
        #   (2*2+1)!! <tau_2 tau_0> = <T_1> + (1/2) <T_0^3>_0,
        # whose unique solution is <T_1>_1 = <T_0^3>_0 / 8.
        return _exact(GENUS_SCALE * _normalized(0, (0, 0, 0)), 8, g, key)
    # remove the largest entry; dimension forces it to be >= 1 when g >= 1
    rest = key[:-1]
    k = key[-1] - 1
    groups = [(a, len(tuple(run))) for a, run in groupby(rest)]
    total = 0
    start = 0
    for a, mult in groups:
        merged = tuple(sorted(rest[:start] + (a + k,) + rest[start + 1 :]))
        total += mult * (2 * a + 1) * _normalized(g, merged)
        start += mult
    # twice the splitting term: the bracket of genus g - 1, then the products
    lower = 0
    for b in range(k):
        lower += _normalized(g - 1, tuple(sorted(rest + (b, k - 1 - b))))
    twice = GENUS_SCALE * lower
    for counts in product(*(range(mult + 1) for _, mult in groups)):
        weight = 1
        left: tuple[int, ...] = ()
        right: tuple[int, ...] = ()
        for (a, mult), i in zip(groups, counts):
            weight *= comb(mult, i)
            left += (a,) * i
            right += (a,) * (mult - i)
        # with b added, 3 g1 = shift + b
        shift = sum(left) + 2 - len(left)
        for b in range(-shift % 3, k, 3):
            g1 = (shift + b) // 3
            g2 = g - g1
            if g1 < 0 or g2 < 0 or not is_stable(g1, len(left) + 1) or not is_stable(g2, len(right) + 1):
                continue
            twice += (
                weight
                * _normalized(g1, tuple(sorted(left + (b,))))
                * _normalized(g2, tuple(sorted(right + (k - 1 - b,))))
            )
    return total + _exact(twice, 2, g, key)


def _exact(num: int, den: int, g: int, key: tuple[int, ...]) -> int:
    """num / den for the bracket (g, key) at its scale; AssertionError, also under ``python -O``, if inexact."""
    q, r = divmod(num, den)
    if r:
        raise AssertionError(f"psi bracket <{key}>_{g} is finer than its scale {GENUS_SCALE}^{g}")
    return q


def psi_integral(g: int, exponents: tuple[int, ...] | list[int]) -> Fraction:
    """
    <tau_{a_1} ... tau_{a_m}>_g, exact.

    Raises ``TypeError`` on a genus or exponent that is not an ``int`` (a
    ``bool`` included) and ``ValueError`` on a negative one and on unstable
    (g, m); returns 0 on a dimension mismatch.
    """
    for x in (g, *exponents):
        if not isinstance(x, int) or isinstance(x, bool):
            raise TypeError(f"psi genus and exponents are int, not {type(x).__name__}")
    key = tuple(sorted(exponents))
    if g < 0:
        raise ValueError(f"negative genus {g}")
    if any(a < 0 for a in key):
        raise ValueError("negative psi exponent")
    if not is_stable(g, len(key)):
        raise ValueError(f"unstable moduli space (g={g}, m={len(key)})")
    if not dimension_ok(g, key):
        return Fraction(0)
    norm = GENUS_SCALE**g
    for a in key:
        norm *= double_factorial(a)
    return Fraction(_normalized(g, key), norm)
