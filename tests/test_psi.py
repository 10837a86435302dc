import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial
from pathlib import Path

import pytest

import orbigw.psi
from oracles import psi_integral_bruteforce
from orbigw.psi import double_factorial, psi_genus0, psi_integral

# classical values, frozen after computing them with both recursions
KNOWN = {
    (0, (0, 0, 0)): Fraction(1),
    (0, (0, 0, 0, 1)): Fraction(1),
    (0, (0, 0, 1, 1, 0)): Fraction(2),
    (1, (1,)): Fraction(1, 24),
    (1, (0, 2)): Fraction(1, 24),
    (1, (1, 1)): Fraction(1, 24),
    (1, (0, 1, 2)): Fraction(1, 12),
    (1, (1, 1, 1)): Fraction(1, 12),
    (2, (4,)): Fraction(1, 1152),
    (2, (0, 5)): Fraction(1, 1152),
    (2, (1, 4)): Fraction(1, 384),
    (2, (2, 3)): Fraction(29, 5760),
    (3, (7,)): Fraction(1, 82944),
    (3, (4, 4)): Fraction(607, 1451520),
}


@pytest.mark.parametrize("key,want", sorted(KNOWN.items()))
def test_known_values_both_implementations(key, want):
    g, ex = key
    assert psi_integral(g, ex) == want
    assert psi_integral_bruteforce(g, ex) == want


def test_dimension_gate():
    assert psi_integral(0, (1, 0, 0)) == 0
    assert psi_integral(2, (7,)) == 0
    assert psi_integral(1, (2,)) == 0


def test_stability_gate():
    with pytest.raises(ValueError):
        psi_integral(0, (0, 0))
    with pytest.raises(ValueError):
        psi_integral(1, ())
    # a negative genus is rejected, though (-1, (0,) * 6) passes both gates
    with pytest.raises(ValueError):
        psi_integral(-1, (0,) * 6)


def test_non_integer_genus_and_exponents_rejected():
    for g, ex in [(1, (1.7,)), (1, ("1",)), (1, (Fraction(1),)), (1, (True,)), (1.0, (1,)), (True, (1,))]:
        with pytest.raises(TypeError):
            psi_integral(g, ex)
    # the type is checked before the sign and the stability gates
    with pytest.raises(TypeError):
        psi_integral(-1, (0.5,))
    with pytest.raises(ValueError):
        psi_integral(1, (-1, 2))
    assert psi_integral(1, [1]) == Fraction(1, 24)


def test_one_point_closed_form_through_genus8():
    # <tau_{3g-2}>_g = 1 / (24^g g!)
    for g in range(1, 9):
        assert psi_integral(g, (3 * g - 2,)) == Fraction(1, 24**g * factorial(g)), g


def test_genus0_closed_form_agrees_with_recursion_m_up_to_10():
    count = 0
    for m in range(3, 11):
        for ex in combinations_with_replacement(range(m - 2), m):
            if sum(ex) == m - 3:
                assert psi_integral(0, ex) == psi_genus0(ex)
                count += 1
    assert count >= 40


def test_string_equation_on_memoized_entries():
    for g in (1, 2):
        for m in (1, 2):
            for ex in combinations_with_replacement(range(3 * g - 2 + m), m):
                if sum(ex) != 3 * g - 3 + m:
                    continue
                lowered = Fraction(0)
                for i in range(m):
                    if ex[i] >= 1:
                        lowered += psi_integral(g, ex[:i] + (ex[i] - 1,) + ex[i + 1 :])
                assert psi_integral(g, ex + (0,)) == lowered


def test_dilaton_equation_on_memoized_entries():
    for g in (1, 2):
        for m in (1, 2, 3):
            for ex in combinations_with_replacement(range(3 * g - 2 + m), m):
                if sum(ex) != 3 * g - 3 + m:
                    continue
                assert psi_integral(g, ex + (1,)) == (2 * g - 2 + m) * psi_integral(g, ex)


def test_implementations_agree_exhaustively_through_genus4():
    for g, m_max in ((1, 3), (2, 3), (3, 4), (4, 2)):
        for m in range(1, m_max + 1):
            for ex in combinations_with_replacement(range(3 * g - 3 + m + 1), m):
                if sum(ex) == 3 * g - 3 + m:
                    assert psi_integral(g, ex) == psi_integral_bruteforce(g, ex), (g, ex)


def _brackets(g: int, m: int):
    """Every dimension-valid sorted exponent tuple of a stable (g, m)."""
    return [ex for ex in combinations_with_replacement(range(3 * g - 3 + m + 1), m) if sum(ex) == 3 * g - 3 + m]


def test_normalized_brackets_are_dyadic_within_their_scale():
    # the integer recursion rests on this: every T-normalized bracket
    # <prod (2a+1)!! tau_a>_g, read off the oracle recursion, is k / 2^j with
    # 2^j dividing 16^g, and the one-point bracket is the finest
    for g, m_max in ((0, 6), (1, 6), (2, 5), (3, 4), (4, 2)):
        finest = 0
        for m in range(1, m_max + 1):
            if 2 * g - 2 + m <= 0:
                continue
            for ex in _brackets(g, m):
                norm = psi_integral_bruteforce(g, ex)
                for a in ex:
                    norm *= double_factorial(a)
                den = norm.denominator
                assert den & (den - 1) == 0 and orbigw.psi.GENUS_SCALE**g % den == 0, (g, ex, norm)
                assert orbigw.psi._normalized(g, ex) == norm * orbigw.psi.GENUS_SCALE**g, (g, ex)
                finest = max(finest, den)
        assert finest == Fraction(double_factorial(3 * g - 2), 24**g * factorial(g)).denominator, g


def test_bracket_finer_than_its_scale_raises(monkeypatch):
    # at scale 8^g, <T_1>_1 = 1/8 still fits but <T_4>_2 = 9!! / 1152 = 105/128
    # does not: the check raises, also under python -O
    orbigw.psi._normalized.cache_clear()
    monkeypatch.setattr(orbigw.psi, "GENUS_SCALE", 8)
    try:
        assert psi_integral(1, (1,)) == Fraction(1, 24)
        with pytest.raises(AssertionError, match="finer than its scale"):
            psi_integral(2, (4,))
    finally:
        orbigw.psi._normalized.cache_clear()
    script = "import orbigw.psi as psi\npsi.GENUS_SCALE = 8\ntry:\n    psi.psi_integral(2, (4,))\nexcept AssertionError as err:\n    print(err)"
    src = str(Path(orbigw.psi.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "psi bracket <(4,)>_2 is finer than its scale 8^2\n"
