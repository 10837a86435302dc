import contextlib
import io
from fractions import Fraction
from math import factorial

import pytest

from oracles import CyclotomicSeries, I_slots
from orbigw.cli import main
from orbigw.cyclotomic import Cyclotomic
from orbigw.genus0 import (
    GenusZeroData,
    ModelConfig,
    compute_I,
    compute_L,
    verify_birkhoff,
    verify_picard_fuchs,
    verify_quantum,
    verify_ring_series,
)
from orbigw.report import Report
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
    # a float, a string or a bool is refused by name before any series is built
    for args, name in (((4.0,), "n"), ((3, 40.0), "N"), (("3",), "n"), ((True,), "n"), ((3, False), "N")):
        with pytest.raises(TypeError, match=f"^{name} must be an int, not {type(args[-1]).__name__}$"):
            ModelConfig(*args)
    cfg = ModelConfig(3)
    assert cfg.N == 30 and cfg.parity == "odd" and cfg.s == 1
    assert ModelConfig(4).parity == "even"


def test_I_components_against_direct_summation():
    for n in (3, 4, 5):
        cfg = ModelConfig(n)
        slots = compute_I(cfg, n - 1)
        assert slots[0] == Series({0: Fraction(1)}, cfg.N + 1)  # the unit component
        for k in range(n):
            want = I_component_oracle(n, k, cfg.N)
            assert (slots[k] - want).zero_order() is None, (n, k)
        # constant and linear coefficients of the mirror coordinate
        assert slots[1].get(0) == 0 and slots[1].get(1) == 1


@pytest.mark.parametrize("n", range(3, 9))
def test_I_slots_match_fresh_expansion(n):
    # the same normal form (numerators, denominator, bound) as the product
    # expanded afresh at every degree, for slot counts below, at and past n
    for N in (4 * n, 10 * n, 10 * n + 3):
        cfg = ModelConfig(n, N)
        for slots in (0, 1, n - 1, n + 2, 2 * n + 3):
            got, want = compute_I(cfg, slots), I_slots(cfg, slots)
            assert len(got) == slots + 1
            assert [(s.nums, s.den, s.prec) for s in got] == [(s.nums, s.den, s.prec) for s in want], (N, slots)


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


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_quantum_reports(n, request):
    data = request.getfixturevalue(f"data{n}") if n < 6 else GenusZeroData.build(ModelConfig(n))
    rep = verify_quantum(data)
    assert rep.ok, rep.failures()[:3]


def test_report_zero_details():
    rep = Report("zero checks")
    assert rep.zero("exact", Series.zero(4))
    assert rep.zero("stated", Series.zero(4), through=True)
    assert not rep.zero("bumped", Series({2: 1, 3: 5}, 4), through=True)
    assert [(c.ok, c.detail) for c in rep.checks] == [(True, ""), (True, "zero through x^3"), (False, "first bad x-power 2")]


def test_zero_check_failures_name_their_x_power(data3):
    # C_1 = x + ... bumped at x^3 moves 1/C_1 at x^1; C_2, C_3, L and Theta
    # start at x, so a product with one of them moves one power later
    C = list(data3.C)
    C[1] = _bump(C[1], 3)
    mutant = _copy(data3, C=C)
    expected = {
        "two constructions of C_1 agree": 3,
        "periodicity C_{n+1} = C_1": 3,
        "product C_1 ... C_n = L^n": 5,
        "palindrome C_1 = C_3": 3,
        "palindrome C_3 = C_1": 3,
        **{f"ladder expansion D^{k} I_{m}": m + 2 for m in range(1, 4) for k in range(1, 4)},
        "graded ladder relation, column 1": 3,
        "graded ladder relation, column 2": 4,
        "phi_1 * phi_1 multiplier": 2,
        "phi_1 * phi_2 multiplier": 2,
        **{f"D of two-point function, i={i}": 3 for i in range(3)},
        **{f"du^{a}/dx = zeta^{a} L / x": 3 for a in range(3)},
    }
    # the eigenvalue checks are not zero checks: they name (component, x-power)
    failed = {
        c.name: c.detail
        for verify in (verify_birkhoff, verify_ring_series, verify_quantum)
        for c in verify(mutant).failures()
        if not c.name.startswith("canonical coordinate eigenvalue")
    }
    assert failed == {name: f"first bad x-power {e}" for name, e in expected.items()}


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
                pairing = Fraction(1, n) if (i + j + k) % n == 0 else Fraction(0)  # <phi_{i+j}, phi_k>
                val = data3.quantum_coeff(i, j) * pairing
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


# -- the semisimple frame in cyclotomic arithmetic: the oracle of verify_quantum --


def psi_matrix(data: GenusZeroData) -> list[list[CyclotomicSeries]]:
    """Psi[alpha][i] = (1/n) zeta^{alpha i} L^i / K_i."""
    n = data.cfg.n
    units = [CyclotomicSeries(data.L**i / data.K[i]) for i in range(n)]
    return [[units[i] * (data.zeta(a * i) / Fraction(n)) for i in range(n)] for a in range(n)]


def psi_inverse_matrix(data: GenusZeroData) -> list[list[CyclotomicSeries]]:
    """PsiInv[j][beta] = zeta^{-beta j} K_j / L^j."""
    n = data.cfg.n
    units = [CyclotomicSeries(data.K[j] / data.L**j) for j in range(n)]
    return [[units[j] * data.zeta(-b * j) for b in range(n)] for j in range(n)]


def idempotent(data: GenusZeroData, alpha: int) -> list[CyclotomicSeries]:
    """Coordinates of e_alpha in the phi basis: (1/n) zeta^{-alpha i} K_i / L^i."""
    n = data.cfg.n
    return [CyclotomicSeries(data.K[i] / data.L**i) * (data.zeta(-alpha * i) / Fraction(n)) for i in range(n)]


def phi_product(data: GenusZeroData, a: list, b: list) -> list[CyclotomicSeries]:
    """Quantum product of two vectors written in the phi basis."""
    n = data.cfg.n
    out = [CyclotomicSeries.zero(min(s.prec for s in a + b)) for _ in range(n)]
    for i in range(n):
        if a[i].is_zero():
            continue
        for j in range(n):
            if b[j].is_zero():
                continue
            out[(i + j) % n] = out[(i + j) % n] + a[i] * b[j] * data.quantum_coeff(i, j)
    return out


def verify_quantum_cyclotomic(data: GenusZeroData) -> Report:
    """verify_quantum on the frame itself: idempotents, Psi and products over Q(zeta_n)."""
    cfg = data.cfg
    n = cfg.n
    rep = Report(f"quantum structure (n={n}, N={cfg.N})")

    for i in range(n):
        rep.zero(f"phi_1 * phi_{i} multiplier", data.quantum_coeff(1, i) - data.C[i + 1] / data.C[1])
    rep.zero("two-point value at i = 0", data.two_point(0) - data.Theta / n)
    for i in range(n):
        rep.zero(f"D of two-point function, i={i}", data.two_point(i).D() - data.C[i + 1] / n)

    es = [idempotent(data, a) for a in range(n)]
    for a in range(n):
        for b in range(n):
            prod = phi_product(data, es[a], es[b])
            target = es[b] if a == b else [Series.zero() for _ in range(n)]
            bad = None
            for i in range(n):
                d = (prod[i] - target[i]).zero_order()
                if d is not None:
                    bad = (i, d)
                    break
            rep.add(f"idempotency e_{a} * e_{b}", bad is None, str(bad) if bad else "")

    for a in range(n):
        val = Series.zero()
        for i in range(n):
            val = val + es[a][i] * es[a][(n - i) % n] * Fraction(1, n)  # <phi_i, phi_{-i}> = 1/n
        rep.zero(f"g(e_{a}, e_{a}) = 1/n^2", val - Series.monomial(Fraction(1, n**2)))

    psi = psi_matrix(data)
    psi_inv = psi_inverse_matrix(data)
    bad = None
    for a in range(n):
        for b in range(n):
            acc = Series.zero()
            for i in range(n):
                acc = acc + psi[a][i] * psi_inv[i][b]
            target = Series.one() if a == b else Series.zero()
            d = (acc - target).zero_order()
            if d is not None:
                bad = (a, b, d)
    rep.add("Psi Psi^{-1} = Id", bad is None, str(bad) if bad else "")

    phi1 = [Series.zero() for _ in range(n)]
    phi1[1] = Series.one()
    for a in range(n):
        prod = phi_product(data, phi1, es[a])
        eig = CyclotomicSeries(data.L / data.C[1]) * data.zeta(a)
        bad = None
        for i in range(n):
            d = (prod[i] - es[a][i] * eig).zero_order()
            if d is not None:
                bad = (i, d)
                break
        rep.add(f"canonical coordinate eigenvalue, alpha={a}", bad is None, str(bad) if bad else "")
        lhs = eig * data.Theta.D()
        rhs = CyclotomicSeries(data.L) * data.zeta(a)
        rep.zero(f"du^{a}/dx = zeta^{a} L / x", lhs - rhs)
    return rep


@pytest.mark.parametrize("n", [3, 4])
def test_quantum_matches_cyclotomic_frame(n, request):
    data = request.getfixturevalue(f"data{n}")
    assert verify_quantum(data).to_json() == verify_quantum_cyclotomic(data).to_json()


def _bump(s: Series, e: int) -> Series:
    return s + Series.monomial(Fraction(1), e)


def _copy(data: GenusZeroData, **fields) -> GenusZeroData:
    """A copy with some series replaced and empty caches of its own."""
    names = ("cfg", "I", "L", "C", "K", "X", "A", "Theta", "DLL")
    return GenusZeroData(**{**{name: getattr(data, name) for name in names}, **fields})


def _mutants(data: GenusZeroData):
    """(name, mutated copy, whether only the diagonal idempotency checks fail among them)."""
    n = data.cfg.n
    for (i, j), e in (((1, 2), 3), ((0, 0), 5), ((2, 2), 1)):
        out = _copy(data)
        out._quantum_cache[(i, j)] = _bump(data.quantum_coeff(i, j), e)
        yield f"q({i},{j}) at x^{e}", out, False
    # U_i U_{1-i} q(i, 1-i) gains x^4 for every i: each D_{1,i} moves by the same
    # x^4, whose DFT is nonzero only at b - a = 0
    units = [data.K[i] / data.L**i for i in range(n)]
    out = _copy(data)
    for i in range(n):
        key = (i, (1 - i) % n)
        out._quantum_cache[key] = data.quantum_coeff(*key) + Series.monomial(Fraction(1), 4) / (units[i] * units[key[1]])
    yield "x^4 on every D_{1,i}", out, True
    for name, e in (("K", 1), ("K", 2), ("C", 1)):
        seq = list(getattr(data, name))
        seq[e] = _bump(seq[e], e + 2)
        yield f"{name}_{e} at x^{e + 2}", _copy(data, **{name: seq}), False
    yield "L at x^6", _copy(data, L=_bump(data.L, 6)), False


@pytest.mark.parametrize("n", [3, 4])
def test_quantum_mutations_match_cyclotomic_frame(n, request):
    data = request.getfixturevalue(f"data{n}")
    for name, mutant, diagonal in _mutants(data):
        got = verify_quantum(mutant)
        assert not got.ok, name
        assert got.to_json() == verify_quantum_cyclotomic(mutant).to_json(), name
        if diagonal:
            failed = {c.name for c in got.failures() if c.name.startswith("idempotency")}
            assert failed == {f"idempotency e_{a} * e_{a}" for a in range(n)}, name


def test_quantum_builds_no_cyclotomic(data5, monkeypatch):
    calls = {"__init__": 0, "__mul__": 0}

    def counted(name):
        orig = getattr(Cyclotomic, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return orig(*args, **kwargs)

        monkeypatch.setattr(Cyclotomic, name, wrapper)

    counted("__init__")
    counted("__mul__")
    assert verify_quantum(_copy(data5)).ok
    # the cyclotomic frame builds 170,625 numbers and 73,315 products here
    assert calls == {"__init__": 0, "__mul__": 0}


def test_cached_inverses_belong_to_their_copy(data4):
    n = 4
    # every cache is read on the original first, so a copy that shared one would read it stale
    C, K, L = list(data4.C), list(data4.K), _bump(data4.L, 6)
    C[2], K[1] = _bump(C[2], 4), _bump(K[1], 3)
    for stale in (data4.C_inv[2] * C[2], data4.K_inv[1] * K[1], data4.L_inv * L, data4.L_pow(-2) * L**2):
        assert (stale - Series.one()).zero_order() is not None
    assert data4.C_deriv(2, 1) == data4.C[2].D()
    for name, mutant in (("C", _copy(data4, C=C)), ("K", _copy(data4, K=K)), ("L", _copy(data4, L=L))):
        pairs = [(mutant.L_inv, mutant.L)]
        pairs += [(mutant.C_inv[r], mutant.C[r]) for r in range(1, n + 1)]
        pairs += [(mutant.K_inv[l], mutant.K[l]) for l in range(n)]
        pairs += [(mutant.L_pow(k), mutant.L ** -k) for k in range(-3, 4)]
        for inv, s in pairs:
            one = inv * s - Series.one()
            assert one.zero_order() is None and one.prec > 4 * n, name
        assert all(mutant.C_deriv(r, m) == mutant.C[r].deriv_pow(m) for r in range(1, n + 1) for m in range(3)), name


def test_identities_invert_each_series_once(monkeypatch):
    calls = [0]
    inverse = Series.inverse

    def counted(self):
        calls[0] += 1
        return inverse(self)

    monkeypatch.setattr(Series, "inverse", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main("verify-identities --n 5 --k-max 4 --format json".split()) == 0
    # birkhoff_C 6 (the data's C_inv) and C_via_inversion 5, each its own; build's 1/L (the data's L_inv); K_inv 5
    assert calls == [17]


@pytest.mark.parametrize(
    ("n", "key", "e", "detail"),
    [(3, (1, 2), 3, "(0, 3)"), (4, (1, 2), 3, "(3, 3)"), (4, (0, 0), 5, "(0, 5)"), (5, (2, 2), 1, "(4, 1)")],
)
def test_mutated_structure_constant_fails_idempotency(n, key, e, detail, request):
    # each idempotency column is an entry {exponent: coefficient}: a genus-zero
    # structure constant bumped at x^e fails every idempotency check, with the
    # (component k, zero order) the summed cyclotomic series gave
    data = request.getfixturevalue(f"data{n}")
    mutant = _copy(data)
    mutant._quantum_cache[key] = _bump(data.quantum_coeff(*key), e)
    checks = [c for c in verify_quantum(mutant).checks if c.name.startswith("idempotency")]
    assert len(checks) == n * n
    assert all(not c.ok and c.detail == detail for c in checks), [(c.name, c.detail) for c in checks]
