import json
from fractions import Fraction
from math import comb

import pytest

from orbigw.series import Series
from orbigw.genus0 import GenusZeroData, ModelConfig
from orbigw.pmatrix import (
    apply_operator,
    build_H_table,
    build_L_operators,
    build_pmatrix,
    compute_P_column,
    f_n_poly,
    fix_constants_symplectic,
    p_mul,
    series_tables,
    unitarity_residual,
    verify_partial_lemmas,
    verify_pmatrix,
)
from orbigw.report import canonical_json


def test_H_table_closed_forms():
    for n in (3, 4, 5):
        H = build_H_table(n, n)
        Y = {0: Fraction(1), 1: Fraction((-1) ** n, n**n)}  # in the symbol X
        for m in range(n + 1):
            assert H.get((m, 0), {}) == {0: Fraction(1)}
            if m >= 1:
                want = {e: c * comb(m, 2) for e, c in Y.items()}
                assert H.get((m, 1), {}) == ({} if comb(m, 2) == 0 else want)
            for l in range(m + 1, n + 1):
                assert (m, l) not in H
        # H_{m,2} closed form
        for m in range(2, n + 1):
            t1 = {e: c * (3 * comb(m, 4)) for e, c in p_mul(Y, Y).items()}
            inner = {e: (n + 1) * c for e, c in p_mul(Y, Y).items()}
            for e, c in Y.items():
                inner[e] = inner.get(e, Fraction(0)) - n * c
            t2 = {e: c * comb(m, 3) for e, c in inner.items()}
            want = dict(t1)
            for e, c in t2.items():
                want[e] = want.get(e, Fraction(0)) + c
            want = {e: c for e, c in want.items() if c}
            assert H.get((m, 2), {}) == want, (n, m)


def test_operator_closed_forms():
    for n in (3, 4, 5, 6):
        ops = build_L_operators(n)
        assert not ops[0][0]
        assert ops[0][1] == {0: Fraction(n)}
        # order-2 operator: C(n+1,4)(Y^2 - Y) - C(n,2) Y D + C(n,2) D^2
        Y = {0: Fraction(1), n: Fraction((-1) ** n, n**n)}
        y2 = p_mul(Y, Y)
        c0 = {e: c * comb(n + 1, 4) for e, c in y2.items()}
        for e, c in Y.items():
            c0[e] = c0.get(e, Fraction(0)) - comb(n + 1, 4) * c
        c0 = {e: c for e, c in c0.items() if c}
        assert ops[1][0] == c0
        assert ops[1][1] == {e: -comb(n, 2) * c for e, c in Y.items()}
        assert ops[1][2] == {0: Fraction(comb(n, 2))}


def test_phi_normalization_and_first_step():
    for n in (3, 4, 5):
        col = compute_P_column(n, 3, policy="zero")
        assert col.phis[0] == {0: Fraction(1)}
        # D p_1 = f_n p_0, i.e. p_1 = f_n integrated against D Lam^r = r Lam^r Y
        d_phi1 = apply_operator([{}, {0: Fraction(1)}], col.phis[1], n)
        assert d_phi1 == f_n_poly(n)
        for phi in col.phis:
            assert not phi or min(phi) >= 0


def test_custom_policy_constants():
    col = compute_P_column(3, 3, policy="custom", custom_constants=[Fraction(1), Fraction(0), Fraction(2)])
    assert col.phis[1][0] == Fraction(1)
    assert 0 not in col.phis[2]
    assert col.phis[3][0] == Fraction(2)
    with pytest.raises(ValueError):
        compute_P_column(3, 3, policy="custom")
    with pytest.raises(ValueError):
        compute_P_column(3, 3, policy="bogus")


def test_symplectic_constants_status(data3):
    constants, status = fix_constants_symplectic(data3, 4, Fraction(1))
    assert len(constants) == 4
    assert status == ["free", "fixed", "free", "fixed"]
    # with those constants the unitarity condition holds at every order
    tables = series_tables(data3, 4, Fraction(1), constants)
    for e in range(1, 5):
        resid = unitarity_residual(data3, tables, e)
        assert all(resid[i][j].zero_order() is None for i in range(3) for j in range(3))


@pytest.mark.parametrize("n", [3, 4])
def test_symplectic_slope_closed_form(n, request):
    # the numeric route the solve once took: bump the order-e constant from 0
    # to 1 and compare residuals; the closed form says the residual moves by
    # (1 + (-1)^e) * normalization on the diagonal and not at all off it
    data = request.getfixturevalue(f"data{n}")
    for normalization in (Fraction(1), Fraction(2)):
        for e in range(1, 5):
            zeros = [Fraction(0)] * (e - 1)
            r0 = unitarity_residual(data, series_tables(data, e, normalization, zeros + [Fraction(0)]), e)
            r1 = unitarity_residual(data, series_tables(data, e, normalization, zeros + [Fraction(1)]), e)
            slope = (1 + (-1) ** e) * normalization
            for i in range(n):
                for j in range(n):
                    want = Series.monomial(slope) if i == j else Series.zero()
                    assert (r1[i][j] - r0[i][j] - want).zero_order() is None, (normalization, e, i, j)


def test_symplectic_solve_rebuilds_a_nonzero_constant(data3, monkeypatch):
    # shift the constant every table build sees at order 2 by 3/7: the zero
    # candidate then leaves a residual, the solve must find -3/7 and the
    # rebuilt order must satisfy unitarity again
    import orbigw.pmatrix

    extend = orbigw.pmatrix.extend_tables

    def shifted(data, tables, constant):
        extend(data, tables, constant + (Fraction(3, 7) if len(tables[0]) == 2 else 0))

    monkeypatch.setattr(orbigw.pmatrix, "extend_tables", shifted)
    constants, status = fix_constants_symplectic(data3, 3, Fraction(1))
    assert constants == [Fraction(0), Fraction(-3, 7), Fraction(0)]
    assert status == ["free", "fixed", "free"]


def test_zero_normalization_rejected():
    # with normalization 0 every column vanishes and every check would pass vacuously
    for policy in ("zero", "symplectic"):
        with pytest.raises(ValueError):
            compute_P_column(3, 2, policy=policy, normalization=Fraction(0))


def test_zero_policy_reproduces_symplectic_where_vacuous(data3):
    # for this model the symplectic solution happens to be the zero one
    sym = compute_P_column(3, 4, policy="symplectic", data=data3)
    zero = compute_P_column(3, 4, policy="zero")
    assert sym.phis == zero.phis


@pytest.mark.parametrize("n", [3, 4])
def test_full_pmatrix_battery(n, request):
    ctx = request.getfixturevalue(f"ctx{n}")
    data = GenusZeroData.build(ModelConfig(n, 10 * n + 10))
    pm = build_pmatrix(ctx, data, 4, policy="zero")
    rep = verify_pmatrix(pm)
    assert rep.ok, rep.failures()[:4]


def test_lift_examples(ctx3, data3):
    pm = build_pmatrix(ctx3, data3, 3, policy="zero")
    n = 3
    # order zero: all rows are the constant normalization
    for i in range(n):
        for j in range(n):
            assert pm.lifted[(0, i, j)] == pm.lifted[(0, 0, j)]
    # row n-1 at order k has no A-generators (it lives in C[L^{+-1}])
    for j in range(n):
        for k in range(1, 4):
            gens = pm.lifted[(k, n - 1, j)].generators_used()
            assert not gens, (k, j, gens)
    # first order rows: P~^1_{n-i,j} = P~^1_{0,j} + sum_{r<i} A_r (normalization 1)
    for j in range(n):
        base = pm.lifted[(1, 0, j)]
        assert pm.lifted[(1, 2, j)] == base  # i = 1: adds A_0 = 0
        assert pm.lifted[(1, 1, j)] == base + ctx3.A(1)  # i = 2: adds A_0 + A_1


def test_partial_lemma_reports(ctx3, ctx4, data3, data4):
    for ctx, data in ((ctx3, data3), (ctx4, data4)):
        pm = build_pmatrix(ctx, data, 4, policy="zero")
        rep = verify_partial_lemmas(ctx, pm.lifted, 4)
        assert rep.ok, rep.failures()[:3]


def test_pcolumn_json_round_trip():
    # the canonical JSON text of a column records its polynomials and constants exactly
    col = compute_P_column(4, 3, policy="zero")
    js = json.loads(canonical_json(col.to_json()))
    assert [{int(e): Fraction(c) for e, c in p} for p in js["phis"]] == col.phis
    assert [Fraction(c) for c in js["constants"]] == col.constants
    assert (js["n"], js["k_max"], js["policy"]) == (4, 3, "zero")


def test_unmodified_flatness_recursion(data3):
    # the raw recursion D P^{k-1}_{i,j} = C_{ion(i)} P^k_{ion(i)-1,j} - P^k_{i,j} L zeta^j
    # must hold for the series rebuilt from the normalized tables
    n = 3
    k_max = 3
    tables = series_tables(data3, k_max, Fraction(1), [Fraction(0)] * k_max)
    cfg = data3.cfg
    for j in range(n):
        zj = data3.zeta(j)
        P = [
            [tables[j][k][i] * (data3.K[i] / data3.L**i) * data3.zeta(-(k + i) * j) for i in range(n)]
            for k in range(k_max + 1)
        ]
        for k in range(1, k_max + 1):
            for i in range(n):
                ion = cfg.ion(i)
                lhs = P[k - 1][i].D()
                rhs = data3.C[ion] * P[k][ion - 1] - P[k][i] * data3.L * zj
                assert (lhs - rhs).zero_order() is None, (j, k, i)


def test_tail_consistency_against_series(tables3, data3):
    # T_{p,i} evaluates to ((-1)^i / n) P^i_{0,p} as a series, for every sector
    ev = tables3.ctx.evaluator(data3)
    for p in range(3):
        for i in (2, 3):
            got = ev.eval(tables3.tail(p, i))
            want = tables3.pm.tables[p][i][0] * data3.zeta(-i * p) * Fraction((-1) ** i, 3)
            assert (got - want).zero_order() is None


def test_unitarity_order_zero_is_identity(data3):
    # at order zero the quadratic unitarity expression equals the Kronecker
    # delta; this ties together the K identities and the table normalization
    n = 3
    tables = series_tables(data3, 0, Fraction(1), [])
    for i in range(n):
        for j in range(n):
            acc = None
            for r in range(n):
                rinv = (-r) % n
                w = data3.zeta(-rinv * i - r * j) * Fraction(1, n)
                term = tables[i][0][rinv] * tables[j][0][r] * w
                acc = term if acc is None else acc + term
            want = Series.monomial(Fraction(1)) if i == j else Series.zero()
            assert (acc - want).zero_order() is None, (i, j)


def test_normalization_knob(ctx3, data3):
    # every pmatrix identity is homogeneous in the row-zero constant, so the
    # whole battery passes with a rescaled normalization
    pm = build_pmatrix(ctx3, data3, 3, policy="zero", normalization=Fraction(2))
    assert pm.col.phis[0] == {0: Fraction(2)}
    rep = verify_pmatrix(pm, fit_orders=False)
    assert rep.ok, rep.failures()[:3]
    rep = verify_partial_lemmas(ctx3, pm.lifted, 3)
    assert rep.ok
