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
from itertools import combinations
from math import factorial


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


@lru_cache(maxsize=None)
def _normalized(g: int, key: tuple[int, ...]) -> Fraction:
    """<prod (2a+1)!! tau_a>_g for a sorted exponent tuple, by largest-index removal."""
    m = len(key)
    if not is_stable(g, m) or not dimension_ok(g, key):
        return Fraction(0)
    if g == 0:
        val = psi_genus0(key)
        for a in key:
            val *= double_factorial(a)
        return val
    if g == 1 and key == (1,):
        # the recursion never removes a tau_1 from a one-point bracket, but it
        # does couple <tau_2 tau_0>_1 (= <tau_1>_1 by the string equation)
        # back to <tau_1>_1 linearly:
        #   (2*2+1)!! <tau_2 tau_0> = <T_1> + (1/2) <T_0^3>_0,
        # whose unique solution is <T_1>_1 = <T_0^3>_0 / 8.
        return _normalized(0, (0, 0, 0)) / 8
    # remove the largest entry; dimension forces it to be >= 1 when g >= 1
    rest = key[:-1]
    top = key[-1]
    k = top - 1
    total = Fraction(0)
    for idx in range(len(rest)):
        merged = tuple(sorted(rest[:idx] + (rest[idx] + k,) + rest[idx + 1 :]))
        total += (2 * rest[idx] + 1) * _normalized(g, merged)
    for b in range(k):
        c = k - 1 - b
        total += Fraction(1, 2) * _normalized(g - 1, tuple(sorted(rest + (b, c))))
        for g1 in range(g + 1):
            g2 = g - g1
            idxs = range(len(rest))
            for r in range(len(rest) + 1):
                for I in combinations(idxs, r):
                    Iset = set(I)
                    left = tuple(sorted(tuple(rest[i] for i in I) + (b,)))
                    right = tuple(sorted(tuple(rest[i] for i in idxs if i not in Iset) + (c,)))
                    total += Fraction(1, 2) * _normalized(g1, left) * _normalized(g2, right)
    return total


def psi_integral(g: int, exponents: tuple[int, ...] | list[int]) -> Fraction:
    """
    <tau_{a_1} ... tau_{a_m}>_g, exact.

    Raises on a negative genus or exponent and on unstable (g, m); returns 0
    on a dimension mismatch.
    """
    if g < 0:
        raise ValueError(f"negative genus {g}")
    key = tuple(sorted(int(a) for a in exponents))
    if any(a < 0 for a in key):
        raise ValueError("negative psi exponent")
    if not is_stable(g, len(key)):
        raise ValueError(f"unstable moduli space (g={g}, m={len(key)})")
    if not dimension_ok(g, key):
        return Fraction(0)
    norm = 1
    for a in key:
        norm *= double_factorial(a)
    return _normalized(g, key) / norm
