from fractions import Fraction
from math import factorial

import pytest

from orbigw.genus0 import (
    GenusZeroData,
    ModelConfig,
    build_and_verify,
    compute_I,
    compute_L,
    verify_birkhoff,
    verify_picard_fuchs,
    verify_quantum,
    verify_ring_series,
)
from orbigw.series import Series


def I_component_oracle(n: int, k: int, N: int) -> Series:
    """Direct summation of the defining hypergeometric series for one component."""
    out = {}
    l = 0
    while n * l + k <= N:
        prod = Fraction(1)
        for j in range(l):
            prod *= Fraction(j * n + k, n)
        c = Fraction((-1) ** (n * l), factorial(n * l + k)) * prod**n
        if c:
            out[n * l + k] = c
        l += 1
    return Series(out, N + 1)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(2)
    cfg = ModelConfig(3)
    assert cfg.N == 30 and cfg.parity == "odd" and cfg.s == 1
    assert ModelConfig(4).parity == "even"
    assert cfg.inv(0) == 0 and cfg.inv(1) == 2
    assert cfg.ion(0) == 3 and cfg.ion(2) == 2


def test_I_components_against_direct_summation():
    for n in (3, 4, 5):
        cfg = ModelConfig(n)
        slots = compute_I(cfg, n - 1)
        assert slots[0] == Series({0: Fraction(1)}, cfg.N + 1)  # the unit component
        for k in range(n):
            want = I_component_oracle(n, k, cfg.N)
            assert slots[k].eq_to_prec(want), (n, k)
        # constant and linear coefficients of the mirror coordinate
        assert slots[1].get(0) == 0 and slots[1].get(1) == 1


def test_I1_n3_frozen_value():
    # oracle value: the l = 1 term is -(1/3)^3 x^4 / 4! = -x^4/648
    slots = compute_I(ModelConfig(3), 2)
    assert slots[1].get(4) == Fraction(-1, 648)


def test_L_series():
    for n in (3, 4, 5):
        cfg = ModelConfig(n)
        L = compute_L(cfg)
        assert L.get(1) == 1 and L.val == 1
        resid = L.D() / L - (Series.one() + L**n * Fraction((-1) ** n, n**n))
        assert resid.is_zero()
    assert compute_L(ModelConfig(3)).get(4) == Fraction(-1, 81)


def test_normalization_factors(data3):
    # C_0 = 1 and C_1 = D I_1 = x + O(x^4): valuation one with unit coefficient
    assert data3.C[0].get(0) == 1
    assert data3.C[1] == data3.I[1].D()
    assert data3.C[1].val == 1 and data3.C[1].get(1) == 1


@pytest.mark.parametrize("n", [3, 4, 5])
def test_picard_fuchs_reports(n, request):
    data = request.getfixturevalue(f"data{n}")
    rep = verify_picard_fuchs(data)
    assert rep.ok, rep.failures()[:3]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_birkhoff_reports(n, request):
    data = request.getfixturevalue(f"data{n}")
    rep = verify_birkhoff(data)
    assert rep.ok, rep.failures()[:3]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_ring_series_reports(n, request):
    data = request.getfixturevalue(f"data{n}")
    rep = verify_ring_series(data)
    assert rep.ok, rep.failures()[:3]


@pytest.mark.parametrize("n", [3, 4, 5])
def test_quantum_reports(n, request):
    data = request.getfixturevalue(f"data{n}")
    rep = verify_quantum(data)
    assert rep.ok, rep.failures()[:3]


def test_K_and_A_values(data4):
    n = 4
    assert (data4.K[n] - data4.L**n).is_zero()
    assert data4.A[0].is_zero() and data4.A[n].is_zero()
    assert data4.A[n // 2].is_zero()
    for i in range(n + 1):
        assert (data4.A[i] + data4.A[n - i]).is_zero()


def test_two_point_values(data3):
    # <<phi_0, phi_{n-1}>> = Theta / n, and D applied to any diagonal
    # two-point function recovers C_{i+1} / n
    assert (data3.two_point(0) - data3.Theta / 3).is_zero()
    for i in range(3):
        assert (data3.two_point(i).D() - data3.C[i + 1] / 3).is_zero()


def test_three_point_delta_structure(data3):
    n = 3
    for i in range(n):
        for j in range(n):
            for k in range(n):
                val = data3.quantum_coeff(i, j) * data3.pairing((i + j) % n, k)
                if (i + j + k) % n != 0:
                    assert val.is_zero()
                elif i == 1:
                    want = data3.C[j + 1] / data3.C[1] / n
                    assert (val - want).is_zero()


def test_ladder_series_example(data3):
    # Z_{m,0} recovers the I components (the inversion chain integrates back)
    for m in (1, 2, 3):
        assert (data3.Z_series(m, 0) - data3.I[m]).is_zero()
    assert data3.Z_series(2, 2) == Series.one().truncate(data3.C[0].prec)
    assert data3.Z_series(2, 3).is_zero()


def test_build_and_verify_entry_point():
    data, rep = build_and_verify(ModelConfig(3, 14))
    assert rep.ok


def test_quantum_coeff_is_cached_per_instance(data3):
    n = 3
    for i in range(n):
        for j in range(n):
            first = data3.quantum_coeff(i, j)
            assert data3.quantum_coeff(i, j) is first
            assert first == data3.K_ext(i + j) / (data3.K[i] * data3.K[j])
    # another instance computes its own
    other = GenusZeroData.build(data3.cfg)
    assert other.quantum_coeff(1, 2) is not data3.quantum_coeff(1, 2)
    assert other.quantum_coeff(1, 2) == data3.quantum_coeff(1, 2)
