import json
import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    CyclotomicPoly,
    CyclotomicSeries,
    Decorated,
    assert_normal,
    edges_symmetric,
    lifted_entry,
    series_entry,
    series_unitarity_residual,
)
from orbigw.series import Series
from orbigw.genus0 import GenusZeroData, ModelConfig, Y_poly, at_column, f_n_poly
from orbigw.cyclotomic import Cyclotomic
from orbigw.pmatrix import (
    PColumn,
    PMatrixData,
    apply_on_ladder,
    apply_operator,
    build_H_table,
    build_L_operators,
    build_pmatrix,
    compute_P_column,
    compute_phis,
    d_ladder,
    div_exact,
    lift_tables,
    series_tables,
    unitarity_residual,
    verify_partial_lemmas,
    verify_pmatrix,
)
from orbigw.potentials import ContributionTables
from orbigw.report import canonical_json
from orbigw.ring import RingElement


def with_tables(pm, tables):
    """A copy of ``pm`` whose series oracle reads ``tables``."""
    copy = PMatrixData(pm.ctx, pm.data, pm.col, pm.graded)
    vars(copy)["tables"] = tables
    return copy


def test_H_table_closed_forms():
    for n in (3, 4, 5):
        H = build_H_table(n)
        Y = Y_poly(n)  # 1 + (-1)^n X / n^n with X = Lam^n
        for m in range(n + 1):
            assert H.get((m, 0)) == Series.one()
            if m >= 1:
                assert H.get((m, 1)) == (None if comb(m, 2) == 0 else Y * comb(m, 2))
            for l in range(m + 1, n + 1):
                assert (m, l) not in H
        # H_{m,2} closed form
        for m in range(2, n + 1):
            want = Y * Y * (3 * comb(m, 4)) + (Y * Y * (n + 1) - Y * n) * comb(m, 3)
            assert H.get((m, 2), Series.zero()) == want, (n, m)


def test_operator_closed_forms():
    for n in (3, 4, 5, 6):
        ops = build_L_operators(n)
        assert not ops[0][0]
        assert ops[0][1] == Series.monomial(Fraction(n))
        # order-2 operator: C(n+1,4)(Y^2 - Y) - C(n,2) Y D + C(n,2) D^2
        Y = Y_poly(n)
        assert ops[1][0] == (Y * Y - Y) * comb(n + 1, 4)
        assert ops[1][1] == Y * -comb(n, 2)
        assert ops[1][2] == Series.monomial(Fraction(comb(n, 2)))


def test_phi_normalization_and_first_step(request):
    for n in (3, 4, 5):
        col = compute_P_column(request.getfixturevalue(f"data{n}"), 3, policy="zero")
        assert col.phis[0] == Series.one()
        # D p_1 = f_n p_0, i.e. p_1 = f_n integrated against D Lam^r = r Lam^r Y
        d_phi1 = apply_operator([Series.zero(), Series.one()], col.phis[1], n)
        assert d_phi1 == f_n_poly(n)
        for phi in col.phis:
            assert type(phi.den) is int and phi.den > 0 and all(type(c) is int for c in phi.nums.values())
            assert phi.val >= 0


def test_div_exact():
    lam = Series.x()
    n = 4
    XY = Y_poly(n).shift(n)
    q = Series({1: Fraction(2), 3: Fraction(-1, 5)})
    assert div_exact(q * XY, XY) == q
    assert div_exact(Series.zero(), XY) == Series.zero()
    # an inexact division raises instead of running on
    with pytest.raises(ValueError):
        div_exact(Series.one(), Series.one() + lam**3)
    for a in (lam**n, q * XY + lam ** (n + 1), q * XY + lam ** (3 * n)):
        with pytest.raises(ValueError):
            div_exact(a, XY)


def div_rational(a: Series, b: Series) -> Series:
    """Top-down schoolbook division on ``Fraction`` coefficients: the rational route div_exact replaces."""
    divisor = {e: b.get(e) for e in b.nums}
    top, low = max(divisor), min(divisor)
    rem = {e: a.get(e) for e in a.nums}
    quot = {}
    for d in range(max(rem) - top, min(rem) - low - 1, -1):
        c = rem.get(d + top)
        if c:
            quot[d] = c / divisor[top]
            for e, ce in divisor.items():
                rem[d + e] = rem.get(d + e, 0) - quot[d] * ce
    if any(rem.values()):
        raise ValueError("inexact")
    return Series(quot)


_laurent = st.dictionaries(st.integers(-4, 9), st.fractions(max_denominator=50).filter(bool), min_size=1, max_size=5)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_laurent, _laurent, st.integers(3, 6), st.fractions(max_denominator=50).filter(bool), st.integers(-4, 12))
def test_integer_div_exact_matches_rational_route(quot, divisor, n, c, e):
    q, general = Series(quot), Series(divisor)
    for b in (Y_poly(n), Y_poly(n).shift(n), general):  # two divisors with top numerator +-1, one of any top
        a = q * b
        got = div_exact(a, b)
        assert got == q == div_rational(a, b)
        assert_normal(got)
        # a nonzero multiple of b spans at least b's exponents, so a + c Lam^e leaves a remainder
        if len(b.nums) > 1:
            with pytest.raises(ValueError):
                div_exact(a + Series.monomial(c, e), b)


def test_operator_tables_and_Y_built_once_per_n(data5):
    # the tables, the operators and Y are built once per n, shared by the
    # column (compute_phis) and the battery (verify_pmatrix), and read-only
    builders = (Y_poly, build_H_table, build_L_operators)
    for f in builders:
        f.cache_clear()
    verify_pmatrix(build_pmatrix(data5, 4))
    assert [(f.cache_info().misses, f.cache_info().currsize) for f in builders] == [(1, 1)] * 3
    with pytest.raises(TypeError):
        build_H_table(5)[(0, 0)] = Series.zero()
    with pytest.raises(TypeError):
        build_L_operators(5)[0][0] = Series.zero()


def test_ladder_applied_operator_matches_direct_route():
    # apply_operator reads one D-ladder [p, D p, ..., D^k p] per polynomial;
    # the direct route applies D Lam^r = r Lam^r Y afresh for every i
    for n in (3, 4, 5, 6):
        ops, Y = build_L_operators(n), Y_poly(n)
        phis = compute_phis(n, 4, [Fraction(1, 3), 0, Fraction(-2), 0])
        for p in phis + [Series.monomial(Fraction(1), r) for r in range(2 * n + 1)]:
            ladder = d_ladder(p, n, n)
            for coeffs in ops:
                direct, cur = Series.zero(), p
                for i, c in enumerate(coeffs):
                    if i:
                        cur = cur.D() * Y
                    direct = direct + c * cur
                assert apply_operator(coeffs, p, n) == direct == apply_on_ladder(coeffs, ladder), (n, p)


EXACTNESS_CHECKS = """
from orbigw import pmatrix
from orbigw.genus0 import Y_poly
from orbigw.series import Series

try:
    pmatrix.div_exact(Series.one(), Series.one() + Series.x() ** 3)
except ValueError as err:
    print(err)
ops = pmatrix.build_L_operators(3)
for extra in (Series.monomial(1, -3), Series.x(), Y_poly(3).shift(1)):
    # Lop_2's D^0 coefficient plus extra: a pole, a right-hand side Y does
    # not divide, and a quotient with a constant term, each at order 1
    pmatrix.build_L_operators = lambda n: (ops[0], (ops[1][0] + extra, *ops[1][1:]), *ops[2:])
    try:
        pmatrix.compute_phis(3, 2, [0, 0])
    except AssertionError as err:
        print(err)
"""
EXACTNESS_ERRORS = [
    "inexact polynomial division",
    "operator term at order 1, l=2 has a pole",
    "right-hand side at order 1 is not divisible by Y",
    "right-hand side at order 1 has a constant term",
]


def test_exactness_checks_raise_also_under_O():
    # the multiply-back of div_exact and the three theory checks of
    # compute_phis raise in a plain interpreter and under python -O
    src = str(Path(div_exact.__code__.co_filename).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-c", EXACTNESS_CHECKS], capture_output=True, text=True, env=env, timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == EXACTNESS_ERRORS, flags


def test_custom_policy_constants(data3):
    # the custom constants fill the free (odd) orders in order, a longer list
    # is read no further, and each even order takes the constant that makes
    # s(z) = 1 + sum c_k z^k satisfy s(z) s(-z) = 1: c_2 = c_1^2 / 2 and
    # c_4 = c_1 c_3 - c_2^2 / 2
    custom = [Fraction(1), Fraction(2), Fraction(99)]
    col = compute_P_column(data3, 4, policy="custom", custom_constants=custom)
    assert col.constants == [Fraction(1), Fraction(1, 2), Fraction(2), Fraction(15, 8)]
    assert col.constant_status == ["given", "fixed", "given", "fixed"]
    assert [col.phis[k].get(0) for k in range(1, 5)] == col.constants
    # the series oracle grows one order per constant, with these constants
    tables = build_pmatrix(data3, 4, policy="custom", custom_constants=custom).tables
    assert [len(t) for t in tables] == [5, 5, 5]
    assert tables == series_tables(data3, col.constants)
    # a zero free constant keeps the orders it reaches at zero
    col = compute_P_column(data3, 3, policy="custom", custom_constants=[Fraction(0), Fraction(3)])
    assert col.constants == [Fraction(0), Fraction(0), Fraction(3)]
    assert 0 not in col.phis[2].nums
    with pytest.raises(ValueError):
        compute_P_column(data3, 3, policy="custom")
    with pytest.raises(ValueError):
        compute_P_column(data3, 3, policy="bogus")


@pytest.mark.parametrize(("k_max", "free"), [(1, 1), (2, 1), (4, 2), (5, 3), (7, 4)])
def test_custom_policy_needs_one_constant_per_free_order(data3, k_max, free):
    with pytest.raises(ValueError, match=f"needs {free} constants"):
        compute_P_column(data3, k_max, "custom", [Fraction(1)] * (free - 1))
    col = compute_P_column(data3, k_max, "custom", [Fraction(1)] * free)
    assert col.constants[::2] == [Fraction(1)] * free


@pytest.mark.parametrize("n", [3, 4, 5])
def test_custom_columns_are_unitary(pmatrix_at, n):
    # seeded free constants, and every entry of the unitarity character sum
    # vanishes at every order through 7, on the lift exactly and on the series
    # oracle; the fixed constants are nonzero, so this is no column of zeros
    pm = pmatrix_at(n, "custom", 7)
    assert pm.col.constant_status == ["given", "fixed"] * 3 + ["given"]
    assert all(pm.col.constants)
    for e in range(1, 8):
        Y = unitarity_residual(pm.graded, n, e)
        assert all(not Y[a][b] for a in range(n) for b in range(n)), e
        Y = series_unitarity_residual(pm.tables, e)
        assert all(not Y[a][b] for a in range(n) for b in range(n)), e


@pytest.mark.parametrize("policy", ["zero", "symplectic"])
def test_custom_constants_rejected_under_other_policies(data3, policy):
    # constants the policy would not read are an input error, not silently dropped
    with pytest.raises(ValueError, match="only read under the custom policy"):
        compute_P_column(data3, 2, policy, custom_constants=[Fraction(5), Fraction(7)])
    with pytest.raises(ValueError, match="only read under the custom policy"):
        build_pmatrix(data3, 2, policy, custom_constants=[Fraction(5), Fraction(7)])


@pytest.mark.parametrize("n", [3, 4])
def test_a_constant_adds_to_its_residue_rows(n, request):
    # the tables for a constant c at order e are the zero-constant tables with
    # c added to the order-e rows of residue e mod n, and nothing else moved
    data = request.getfixturevalue(f"data{n}")
    c = Fraction(-5, 3)
    for e in range(1, 5):
        zero = series_tables(data, [Fraction(0)] * e)
        bumped = series_tables(data, [Fraction(0)] * (e - 1) + [c])
        zero[e % n][e] = [row + c for row in zero[e % n][e]]
        assert bumped == zero, e


def test_symplectic_constants_status(data3):
    pm = build_pmatrix(data3, 4)
    constants, status = pm.col.constants, pm.col.constant_status
    assert len(constants) == 4
    assert status == ["free", "fixed", "free", "fixed"]
    # the series oracle is grown with those constants, and every entry of the
    # unitarity character sum vanishes at every order, on the lift and on it
    tables = series_tables(data3, constants)
    assert pm.tables == tables
    for e in range(1, 5):
        Y = unitarity_residual(pm.graded, 3, e)
        assert all(not Y[a][b] for a in range(3) for b in range(3))
        Y = series_unitarity_residual(tables, e)
        assert all(Y[a][b].zero_order() is None for a in range(3) for b in range(3))


@pytest.mark.parametrize("n", [3, 4])
def test_symplectic_slope_closed_form(n, request):
    # bump the order-e constant from 0 to 1 and compare character sums: Y[a][-a]
    # moves by (1 + (-1)^e) / n for every a and no other entry moves, so
    # unitarity pins the constant at even orders (reported fixed) and leaves
    # it free at odd ones
    data = request.getfixturevalue(f"data{n}")
    for e in range(1, 5):
        zeros = [Fraction(0)] * (e - 1)
        y0 = series_unitarity_residual(series_tables(data, zeros + [Fraction(0)]), e)
        y1 = series_unitarity_residual(series_tables(data, zeros + [Fraction(1)]), e)
        slope = Fraction(1 + (-1) ** e, n)
        for a in range(n):
            for b in range(n):
                want = Series.monomial(slope) if (a + b) % n == 0 else Series.zero()
                assert (y1[a][b] - y0[a][b] - want).zero_order() is None, (e, a, b)


# shift the order-2 constant of every column, and so of the lift, by 3/7
SHIFT_ORDER_2 = """
from fractions import Fraction
import orbigw.pmatrix

unitary = orbigw.pmatrix.unitary_constants

def shifted(free, k_max):
    constants = unitary(free, k_max)
    return constants[:1] + [constants[1] + Fraction(3, 7)] + constants[2:]
"""


def test_symplectic_check_refuses_a_shifted_constant(data3, monkeypatch):
    # the shifted order breaks the lift's unitarity, and the check reports it
    # rather than moving the constant back, with a raise that python -O keeps
    import orbigw.pmatrix

    shift = {}
    exec(SHIFT_ORDER_2, shift)
    monkeypatch.setattr(orbigw.pmatrix, "unitary_constants", shift["shifted"])
    assert compute_P_column(data3, 3).constants[1] == Fraction(3, 7)
    with pytest.raises(AssertionError, match="unitarity at order 2"):
        build_pmatrix(data3, 3)
    script = SHIFT_ORDER_2 + """
from orbigw.genus0 import GenusZeroData, ModelConfig

orbigw.pmatrix.unitary_constants = shifted
try:
    orbigw.pmatrix.build_pmatrix(GenusZeroData.build(ModelConfig(3)), 3)
except AssertionError as err:
    print(err)
"""
    src = str(Path(orbigw.pmatrix.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("unitarity at order 2"), proc.stdout


def test_zero_policy_reproduces_symplectic_where_vacuous(request):
    # symplectic is the zero column plus a unitarity check that passes here
    for n in (3, 4, 5):
        data = request.getfixturevalue(f"data{n}")
        sym = build_pmatrix(data, 4, policy="symplectic")
        zero = build_pmatrix(data, 4, policy="zero")
        assert sym.col.constants == zero.col.constants, n
        assert sym.col.phis == zero.col.phis, n
        assert sym.graded == zero.graded, n
        assert sym.tables == zero.tables, n


@pytest.mark.parametrize("n", [3, 4])
def test_full_pmatrix_battery(n, request):
    data = GenusZeroData.build(ModelConfig(n, 10 * n + 10))
    pm = build_pmatrix(data, 4, policy="zero")
    rep = verify_pmatrix(pm)
    assert rep.ok, rep.failures()[:4]


@pytest.mark.xfail(strict=True, reason="for n >= 6 the admitted generators look algebraically dependent")
def test_cycle_closure_in_the_ring_n6():
    # every column matches the series oracle, but in every column the ring residual
    # of the cycle closure at order 4 is a nonzero free-ring element (21 monomials)
    # whose series value is zero
    pm = build_pmatrix(GenusZeroData.build(ModelConfig(6)), 4, "zero")
    rep = verify_pmatrix(pm)
    assert rep.ok, rep.failures()[:4]


@pytest.mark.xfail(strict=True, reason="for n >= 6 the ring lift is not certified, and its edge factors are not symmetric")
def test_edge_factors_symmetric_n6():
    # read through the lift whose cycle closure fails at order 4 (above),
    # edge(b1, b2) is not the transpose of edge(b2, b1) from b1 + b2 = 3 on,
    # so a graph's value would depend on its representative's vertex order
    tables = ContributionTables(build_pmatrix(GenusZeroData.build(ModelConfig(6)), 4, "zero"))
    assert edges_symmetric(tables, 3)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="for n >= 6 the ring lift is not unitary at order 4")
def test_symplectic_lift_n6():
    # the unitarity residual of the same lift is nonzero at order 4 (Y[1][1],
    # 21 monomials, at n = 7 Y[1][2] and Y[2][1]), so symplectic refuses it
    build_pmatrix(GenusZeroData.build(ModelConfig(6)), 4, "symplectic")


def test_lift_examples(data3):
    pm = build_pmatrix(data3, 3, policy="zero")
    n = 3
    # order zero: all rows are the constant normalization
    for i in range(n):
        for j in range(n):
            assert lifted_entry(pm, 0, i, j) == lifted_entry(pm, 0, 0, j)
    # row n-1 at order k has no A-generators (it lives in C[L^{+-1}])
    for j in range(n):
        for k in range(1, 4):
            gens = lifted_entry(pm, k, n - 1, j).generators_used()
            assert not gens, (k, j, gens)
    # first order rows: P~^1_{n-i,j} = P~^1_{0,j} + sum_{r<i} A_r (normalization 1)
    for j in range(n):
        base = lifted_entry(pm, 1, 0, j)
        assert lifted_entry(pm, 1, 2, j) == base  # i = 1: adds A_0 = 0
        assert lifted_entry(pm, 1, 1, j) == base + pm.ctx.A(1)  # i = 2: adds A_0 + A_1


def test_partial_lemma_reports(data3, data4):
    for data in (data3, data4):
        pm = build_pmatrix(data, 4, policy="zero")
        rep = verify_partial_lemmas(pm)
        assert rep.ok, rep.failures()[:3]


def test_pcolumn_json_round_trip(data4):
    # the canonical JSON text of a column records its polynomials and constants exactly
    col = compute_P_column(data4, 3, policy="zero")
    js = json.loads(canonical_json(col.to_json()))
    assert [Series({int(e): Fraction(c) for e, c in p}) for p in js["phis"]] == col.phis
    assert [Fraction(c) for c in js["constants"]] == col.constants
    assert (js["n"], js["k_max"], js["policy"]) == (4, 3, "zero")


def test_unmodified_flatness_recursion(data3):
    # the raw recursion D P^{k-1}_{i,j} = C_{ion(i)} P^k_{ion(i)-1,j} - P^k_{i,j} L zeta^j
    # must hold for the series rebuilt from the normalized tables, column by
    # column, with zero constants and with nonzero ones at every residue
    n = 3
    k_max = 3
    for constants in ([Fraction(0)] * k_max, [Fraction(1, 2), Fraction(-2), Fraction(3)]):
        tables = series_tables(data3, constants)
        for j in range(n):
            zj = data3.zeta(j)
            P = [
                [
                    at_column([CyclotomicSeries(t[k][i]) for t in tables], j, data3.zeta)
                    * (data3.K[i] / data3.L**i)
                    * data3.zeta(-(k + i) * j)
                    for i in range(n)
                ]
                for k in range(k_max + 1)
            ]
            for k in range(1, k_max + 1):
                for i in range(n):
                    ion = i or n  # the shifted involution: 0 -> n, identity on 1..n-1
                    lhs = P[k - 1][i].D()
                    rhs = data3.C[ion] * P[k][ion - 1] - P[k][i] * data3.L * zj
                    assert (lhs - rhs).zero_order() is None, (constants, j, k, i)


def test_tail_consistency_against_series(tables3, data3):
    # T_{p,i} evaluates to ((-1)^i / n) P^i_{0,p} as a series, for every sector
    ev, at = tables3.ctx.evaluator(data3), Decorated(tables3)
    for p in range(3):
        for i in (2, 3):
            want = series_entry(tables3.pm, i, 0, p) * data3.zeta(-i * p) * Fraction((-1) ** i, 3)
            # the tail, the leg factor of insertion 0, as a character sum read at p
            got = at("leg_core", (i, 0), p).evaluate(ev)
            assert (got - want).zero_order() is None


def test_unitarity_order_zero_is_identity(data3):
    # at order zero the quadratic unitarity expression equals the Kronecker
    # delta; this ties together the K identities and the table normalization.
    # Its character sum is then Y[a][b] = [a + b = 0] / n.
    n = 3
    tables = series_tables(data3, [])
    for i in range(n):
        for j in range(n):
            acc = None
            for r in range(n):
                rinv = (-r) % n
                w = data3.zeta(-rinv * i - r * j) * Fraction(1, n)
                left = at_column([CyclotomicSeries(t[0][rinv]) for t in tables], i, data3.zeta)
                term = left * at_column([CyclotomicSeries(t[0][r]) for t in tables], j, data3.zeta) * w
                acc = term if acc is None else acc + term
            want = Series.monomial(Fraction(1)) if i == j else Series.zero()
            assert (acc - want).zero_order() is None, (i, j)
    Y = series_unitarity_residual(tables, 0)
    lift = unitarity_residual(build_pmatrix(data3, 1, "zero").graded, n, 0)
    for a in range(n):
        for b in range(n):
            want = Series.monomial(Fraction(1, n)) if (a + b) % n == 0 else Series.zero()
            assert (Y[a][b] - want).zero_order() is None, (a, b)
            assert lift[a][b] == (Fraction(1, n) if (a + b) % n == 0 else 0), (a, b)


def _column_lift(ctx, col, zeta, j):
    """
    The ring lift of column j alone: the descent run on that column's row
    zero over Q(zeta_n), with D L^{-1} extended monomial by monomial.
    """
    n = ctx.n
    out = {}

    def d(e):
        return ctx.derive(e).mul_L(-1)

    for k in range(col.k_max + 1):
        out[(k, 0)] = CyclotomicPoly({(r, ()): zeta((r + k) * j) * col.phis[k].get(r) for r in col.phis[k].nums})
        if k == 0:
            for i in range(1, n):
                out[(0, i)] = out[(0, 0)]
            continue
        out[(k, n - 1)] = out[(k, 0)] + out[(k - 1, 0)].apply(d)
        for i in range(n - 1, 1, -1):
            prev = out[(k - 1, i)]
            out[(k, i - 1)] = out[(k, i)] + prev.apply(d) + ctx.A(n - i) * prev
    return out


@pytest.mark.parametrize("policy", ["symplectic", "zero", "custom"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_graded_lift(pmatrix_at, n, policy):
    # every graded piece is rational (integer numerators over one positive
    # denominator); zeta^{wj}-weighted, the pieces give each column's own
    # lift, entry by entry
    pm = pmatrix_at(n, policy)
    zeta = pm.data.zeta
    residues = set()
    for (k, i, w), piece in pm.graded.items():
        assert type(piece.den) is int and piece.den > 0, (k, i, w)
        assert all(type(c) is int for c in piece.nums.values()), (k, i, w)
        if piece:
            residues.add(w)
    # only w = 0 occurs under the zero and symplectic policies; a nonzero
    # constant at order k adds the residue k mod n
    assert residues == ({0} if policy != "custom" else set(range(n)))
    for j in range(n):
        column = _column_lift(pm.ctx, pm.col, zeta, j)
        for k in range(pm.col.k_max + 1):
            for i in range(n):
                total = CyclotomicPoly()
                for w in range(n):
                    total = total + CyclotomicPoly(pm.graded[(k, i, w)]) * zeta(w * j)
                assert total == column[(k, i)] == lifted_entry(pm, k, i, j), (k, i, j)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_custom_policy_battery(pmatrix_at, n, monkeypatch):
    # seeded nonzero constants reach every residue of the graded tables and
    # lift; the battery still reads only rational differences, so a passing
    # run multiplies no cyclotomic number
    pm = pmatrix_at(n, "custom")
    calls = []
    mul = Cyclotomic.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Cyclotomic, "__mul__", counted)
    monkeypatch.setattr(Cyclotomic, "__rmul__", counted)
    rep = verify_pmatrix(pm)
    assert rep.ok, rep.failures()[:4]
    assert len(rep.checks) == 6 * n + 10
    assert len(calls) == 0


def _column_tables(data, k_max, constants):
    """
    The series tables column by column, tables[j][k][i], in cyclotomic
    arithmetic: the recursion once run per column, kept as the oracle of the
    graded tables.  A constant c at order k adds zeta^{jk} c to column j.
    """
    n = data.cfg.n
    inv_L = data.L.inverse()
    unit = CyclotomicSeries(Series.one().truncate(data.L.prec))
    cols = [[[unit] * n] for _ in range(n)]
    for k in range(1, k_max + 1):
        for j, col in enumerate(cols):
            prev = col[k - 1]
            cum = [Series.zero() for _ in range(n)]
            cum[n - 1] = prev[0].D() * inv_L
            for i in range(n - 1, 1, -1):
                cum[i - 1] = cum[i] + prev[i].D() * inv_L + data.A[n - i] * prev[i]
            rhs = -sum(cum, Series.zero()).D()
            for i in range(n):
                rhs = rhs - data.A[(n - i) % n] * cum[i] * data.L
            f = (rhs / Fraction(n)).D_inverse() + CyclotomicSeries({0: data.zeta(j) ** k * Fraction(constants[k - 1])})
            col.append([f + cum[i] for i in range(n)])
    return cols


def _column_residual(data, cols, e):
    """The order-e unitarity residual at every column pair (i, j), in cyclotomic arithmetic (oracle)."""
    n = data.cfg.n
    out = [[Series.zero() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for c in range(e + 1):
                d = e - c
                for r in range(n):
                    rinv = (-r) % n
                    w = data.zeta(-(c + rinv) * i - (d + r) * j) * Fraction((-1) ** c, n)
                    out[i][j] = out[i][j] + cols[i][c][rinv] * cols[j][d][r] * w
    return out


@pytest.mark.parametrize("policy", ["symplectic", "zero", "custom"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_graded_tables_match_column_recursion(pmatrix_at, n, policy):
    # every graded piece is rational; zeta^{wj}-weighted, the pieces give each
    # column's own series table, entry by entry
    pm = pmatrix_at(n, policy)
    k_max = pm.col.k_max
    residues = set()
    for w, table in enumerate(pm.tables):
        for k in range(k_max + 1):
            for i in range(n):
                piece = table[k][i]
                assert type(piece.den) is int and piece.den > 0, (w, k, i)
                assert all(type(c) is int for c in piece.nums.values()), (w, k, i)
                if table[k][i]:
                    residues.add(w)
    assert residues == ({0} if policy != "custom" else set(range(n)))
    cols = _column_tables(pm.data, k_max, pm.col.constants)
    for j in range(n):
        for k in range(k_max + 1):
            for i in range(n):
                assert (series_entry(pm, k, i, j) - cols[j][k][i]).zero_order() is None, (j, k, i)


@pytest.mark.parametrize("policy", ["symplectic", "zero", "custom", "non-unitary"])
@pytest.mark.parametrize("n", [3, 4])
def test_grouped_unitarity_matches_column_oracle(pmatrix_at, n, policy):
    # the 2D DFT of the rational character sum Y is the cyclotomic residual of
    # every column pair, and the lift's character sum evaluates to Y entry by
    # entry; every policy's column is unitary, so for the non-unitary column
    # (the custom free constants with 0 at the fixed orders) the residual
    # alone is nonzero, and the match is not between zeros
    pm = pmatrix_at(n, "custom" if policy == "non-unitary" else policy)
    zeta, k_max = pm.data.zeta, pm.col.k_max
    constants, tables, graded = pm.col.constants, pm.tables, pm.graded
    if policy == "non-unitary":
        constants = [c if k % 2 else Fraction(0) for k, c in enumerate(constants, 1)]
        tables = series_tables(pm.data, constants)
        col = PColumn(n, k_max, "custom", compute_phis(n, k_max, constants), constants, pm.col.constant_status)
        graded = lift_tables(pm.ctx, col)
    ev = pm.ctx.evaluator(pm.data)
    cols = _column_tables(pm.data, k_max, constants)
    nonzero = False
    for e in range(1, k_max + 1):
        resid = _column_residual(pm.data, cols, e)
        Y = series_unitarity_residual(tables, e)
        lift = unitarity_residual(graded, n, e)
        for a in range(n):
            for b in range(n):
                assert (ev.eval(lift[a][b]) - Y[a][b]).zero_order() is None, (e, a, b)
                assert bool(lift[a][b]) == bool(Y[a][b]), (e, a, b)
        for i in range(n):
            for j in range(n):
                dft = Series.zero()
                for a in range(n):
                    for b in range(n):
                        dft = dft + CyclotomicSeries(Y[a][b]) * zeta(a * i + b * j)
                assert (dft - resid[i][j]).zero_order() is None, (e, i, j)
                nonzero = nonzero or bool(resid[i][j])
    assert nonzero == (policy == "non-unitary")


def test_mutation_at_a_nonzero_residue_is_caught(pmatrix_at, data3, monkeypatch):
    # bump one input of Y, row 0 of residue 1 at order 2, by the monomial x
    pm = pmatrix_at(3, "symplectic")
    tables = [[list(rows) for rows in table] for table in pm.tables]
    tables[1][2][0] = tables[1][2][0] + Series.x()
    assert all(not y for row in series_unitarity_residual(pm.tables, 2) for y in row)
    assert any(y for row in series_unitarity_residual(tables, 2) for y in row)
    # every column reads the bump (weighted zeta^j), so every column's check fails
    rep = verify_pmatrix(with_tables(pm, tables))
    checks = {c.name: c.ok for c in rep.checks}
    assert not any(checks[f"column {j} matches series oracle"] for j in range(3))

    # the same bump at every residue reaches column 0 alone: sum_w zeta^{wj} = 0
    # for j != 0, so each column reads its own difference.  The bumped
    # residues no longer fit in L, and a residue that does not fit fails
    # every column's Laurent fit at that order.
    tables = [[list(rows) for rows in table] for table in pm.tables]
    for table in tables:
        table[2][0] = table[2][0] + Series.x()
    rep = verify_pmatrix(with_tables(pm, tables))
    failed = {c.name for c in rep.checks if not c.ok}
    assert failed == {
        "polynomial vs series route, column 0",
        "column 0 matches series oracle",
        *(f"Laurent fit certifies membership, column {j}" for j in range(3)),
    }

    # the same bump of the lift, by L, inside the symplectic check fails it
    import orbigw.pmatrix

    lift = orbigw.pmatrix.lift_tables

    def bumped(ctx, col):
        graded = lift(ctx, col)
        graded[(2, 0, 1)] = graded[(2, 0, 1)] + RingElement.L_power(1)
        return graded

    monkeypatch.setattr(orbigw.pmatrix, "lift_tables", bumped)
    with pytest.raises(AssertionError, match="unitarity at order 2"):
        build_pmatrix(data3, 3)


def test_symplectic_check_is_rational(data5, monkeypatch):
    # the check on the graded lift multiplies no cyclotomic number
    calls = []
    mul = Cyclotomic.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(Cyclotomic, "__mul__", counted)
    monkeypatch.setattr(Cyclotomic, "__rmul__", counted)
    pm = build_pmatrix(data5, 4)
    assert len(calls) == 0
    assert pm.col.constant_status == ["free", "fixed", "free", "fixed"]



@pytest.mark.parametrize(("n", "policy"), [(3, "symplectic"), (4, "custom")])
def test_mutated_table_piece_fails_with_its_zero_order(pmatrix_at, n, policy):
    # each column of the route differences is an entry {exponent: coefficient}:
    # a table piece bumped at x^6 (row 1, order 2, residue 1) fails every
    # column's oracle match with (k, i, zero order) = (2, 1, 6), and one bumped
    # at x^9 (row 0, order 3, residue 0) the polynomial route with (3, 9), as
    # the summed cyclotomic series did
    pm = pmatrix_at(n, policy)
    tables = [[list(rows) for rows in table] for table in pm.tables]
    tables[1][2][1] = tables[1][2][1] + Series.monomial(Fraction(5, 7), 6)
    tables[0][3][0] = tables[0][3][0] + Series.monomial(Fraction(1), 9)
    failed = {c.name: c.detail for c in verify_pmatrix(with_tables(pm, tables)).checks if not c.ok}
    for j in range(n):
        assert failed.pop(f"column {j} matches series oracle") == "(2, 1, 6)", j
        assert failed.pop(f"polynomial vs series route, column {j}") == "(3, 9)", j
    assert set(failed) == {f"Laurent fit certifies membership, column {j}" for j in range(n)}
