r"""
The normalized fundamental-solution coefficients P^k and their lifts.

Row zero of each coefficient matrix is a polynomial in one symbol: writing
Lam for the rotated series zeta^j L, the column recursion

    n D p_k = - sum_{l=2..n} Lam^{1-l} Lop_l (p_{k+1-l}),      D Lam^r = r Lam^r Y,

produces one universal polynomial p_k per order, starting from p_0 = 1 (a
nonnegative power series in Lam, which certifies membership in C[L]).  The
differential operators Lop_l are assembled from a two-index table of
polynomials H_{m,l} in X = Lam^n together with Stirling numbers; their
k = 1, 2 instances are pinned against closed forms.  Every polynomial in Lam
is an exact :class:`~orbigw.series.Series` (``prec = INF``).  The table, the
operators and Y are built once per n and kept read-only
(:func:`build_H_table`, :func:`build_L_operators`,
:func:`~orbigw.genus0.Y_poly`).  Each polynomial an operator reads gets one
D-ladder [p, D p, ..., D^k p] (:func:`d_ladder`), shared by every operator
that reads it, and an operator is applied as one
``Series.sum_of_products`` over its coefficients and the ladder
(:func:`apply_on_ladder`).  The one other helper is an exact division on
integer numerators (:func:`div_exact`), checked by multiplying back.

Every integration step leaves one constant, and every policy fixes them by
one rule (:func:`unitary_constants`): the odd orders are free, and each even
order takes the constant that keeps s(z) = 1 + sum_k c_k z^k unitary,
s(z) s(-z) = 1, so the column is symplectic and every edge factor of the
graph sum is symmetric in its ends.  Three policies (:data:`POLICIES`) fill
the free orders: ``zero`` and ``symplectic`` with zeros, ``custom`` with the
caller's constants.  :func:`compute_P_column` settles the constants and
their statuses and integrates row zero; it grows no table.

The remaining rows are built two ways, both graded by residue mod n
over Q and stored only in that form: neither recursion involves the column
index j, and column j is the zeta^{wj}-weighted sum of the rational pieces w,
assembled on demand (``PMatrixData.lift_entry``; the tests do the same for
the series tables) by the one DFT helper :func:`~orbigw.genus0.at_column`.
The ring and the series are rational, so a column entry is neither a ring
element nor a series but a dict {monomial or exponent: coefficient}, each
coefficient the DFT of that key's per-residue rationals
(:func:`~orbigw.genus0.entry_at_column`).

* as elements of the free ring of :mod:`orbigw.ring`, by the descending
  flatness recursion with the formal derivation (this is the lift, the one
  route the graph sum reads): row zero splits by the residue mod n of its
  exponents, and one descent step (:func:`descent`) builds each row and
  closes the cycle, once per residue on rational ring elements;
* as exact truncated series, one table per residue and one order at a time,
  through the modified flatness recursion plus one honest quadrature per
  order (:func:`series_tables`, the oracle route, built the first time a
  check reads ``PMatrixData.tables``; a verdict never does).

``symplectic`` is the ``zero`` column plus a unitarity check on the lift
(:func:`build_pmatrix`): one residual per order, a 2D character sum of ring
elements (:func:`unitarity_residual`), whose zero is exact.  It reads the
lift's bilinear form B(c, d) = sum_r P~^c_{Inv(r),i} P~^d_{r,j}
(:func:`pairing`), as the edge factors of the graph sum do.  At n = 6, 7
and 8 it fails at order 4, where the lift's cycle closure fails too.

``verify_lift`` certifies the lift against the series oracle,
column by column and coefficient by coefficient, and
``verify_partial_lemmas`` checks the formal partial-derivative identities
that drive the anomaly equations.  Every check of the battery computes its
difference once per residue; these differences are linear in the entries, so
column j reads its verdict off their zeta^{wj}-weighted sum, and a passing
battery builds no cyclotomic number.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, gcd, perm
from types import MappingProxyType

from .cyclotomic import Coefficient, Cyclotomic
from .genus0 import GenusZeroData, Y_poly, entry_at_column, f_n_poly
from .report import Report
from .ring import Monomial, RingContext, RingElement, decode, fit_laurent_in_L, terms_to_json
from .series import Series
from .stirling import stirling_first

Tables = list[list[list[Series]]]  # tables[w][k][i]: residue w, order k, row i (rational)
POLICIES = ("symplectic", "zero", "custom")


def div_exact(a: Series, b: Series) -> Series:
    """
    The quotient of two exact polynomials in Lam; ValueError when the division
    leaves a remainder.

    The quotient can only span the exponents min(a) - min(b) .. max(a) - max(b),
    so schoolbook division reads it off from the top down on the integer
    numerators, one subtraction of the divisor's few terms (Y and X Y have
    two) per exponent.  The divisor's top numerator is +-1 for Y and X Y, so
    every step divides exactly; another divisor scales the remainder and the
    quotient by the least factor that makes the step exact.  The quotient must
    multiply back to a exactly.
    """
    if not a:
        return Series.zero()
    divisor = b.nums
    top, low = max(divisor), min(divisor)
    lead = divisor[top]
    rem = dict(a.nums)
    quot: dict[int, int] = {}
    scale = 1  # a.nums * scale = quot * b.nums + rem
    for d in range(max(rem) - top, min(rem) - low - 1, -1):
        c = rem.get(d + top)
        if c:
            if c % lead:
                g = abs(lead) // gcd(c, lead)
                rem = {e: v * g for e, v in rem.items()}
                quot = {e: v * g for e, v in quot.items()}
                scale *= g
                c *= g
            q = quot[d] = c // lead
            for e, ce in divisor.items():
                rem[d + e] = rem.get(d + e, 0) - q * ce
    # a / b = (quot / scale) (b.den / a.den)
    q = Series.zero()._reduced({e: v * b.den for e, v in quot.items()}, scale * a.den)
    if q * b == a:
        return q
    raise ValueError("inexact polynomial division")


# -- operator tables -----------------------------------------------------------


@lru_cache(maxsize=None)
def build_H_table(n: int) -> Mapping[tuple[int, int], Series]:
    """
    Polynomials H_{m,l}, m <= n, in X = Lam^n, written in the symbol Lam, from the recursion

        H_{m,l} = H_{m-1,l} + n (1 + (-1)^n X / n^n) (X d/dX + (m-l)/n) H_{m-1,l-1},

    with H_{0,l} = delta_{0,l} and H_{m,l} = 0 for l > m.  As X d/dX = D / n on
    polynomials in Lam, the second term is Y (D + m - l) H_{m-1,l-1}.  Built
    once per n, read-only.
    """
    Y = Y_poly(n)
    H: dict[tuple[int, int], Series] = {(0, 0): Series.one()}
    for m in range(1, n + 1):
        for l in range(0, m + 1):
            term = H.get((m - 1, l), Series.zero())
            lower = H.get((m - 1, l - 1))
            if lower:
                term = term + Y * (lower.D() + lower * (m - l))
            if term:
                H[(m, l)] = term
    return MappingProxyType(H)


@lru_cache(maxsize=None)
def build_L_operators(n: int) -> tuple[tuple[Series, ...], ...]:
    """
    Coefficient polynomials in the symbol Lam of the operators
    Lop_k = sum_i c_{k,i} D^i for k = 1..n.  Index [k-1][i].  Built once per n.
    """
    H = build_H_table(n)
    Y = Y_poly(n)
    zero = Series.zero()
    ops = []
    for k in range(1, n + 1):
        coeffs = []
        for i in range(0, k + 1):
            tail = zero
            for r in range(1, k - i + 1):
                tail = tail + H.get((n - i - r, k - i - r), zero) * (comb(n - r, i) * stirling_first(n, n - r))
            coeffs.append(H.get((n - i, k - i), zero) * comb(n, i) + Y * tail)
        ops.append(tuple(coeffs))
    return tuple(ops)


def d_ladder(p: Series, depth: int, n: int) -> list[Series]:
    """The D-ladder [p, D p, ..., D^depth p] of a polynomial in Lam, with D Lam^r = r Lam^r Y."""
    Y = Y_poly(n)
    ladder = [p]
    for _ in range(depth):
        ladder.append(ladder[-1].D() * Y)
    return ladder


def apply_on_ladder(coeffs, ladder: list[Series]) -> Series:
    """sum_i c_i D^i p from the D-ladder of p (:func:`d_ladder`), one ``Series.sum_of_products``."""
    return Series.sum_of_products(list(zip(coeffs, ladder)))


def apply_operator(coeffs, p: Series, n: int) -> Series:
    """Apply sum_i c_i(Lam) D^i to a polynomial in Lam, with D Lam^r = r Lam^r Y."""
    return apply_on_ladder(coeffs, d_ladder(p, len(coeffs) - 1, n))


# -- the universal column ---------------------------------------------------------


def compute_phis(n: int, k_max: int, constants: list[Fraction]) -> list[Series]:
    """
    Universal polynomials p_0 = 1, p_1 .. p_{k_max} with the given integration constants.

    Each p_j gets one D-ladder, as deep as the operators that read it
    (Lop_l at order j + l - 1 <= k_max).  Each step divides the right-hand
    side exactly by Y and by n r on Lam^r, asserting on theory violations (a
    constant term, a negative power, or an inexact division means an
    upstream bug).
    """
    if len(constants) < k_max:
        raise ValueError("need one constant per order k = 1..k_max")
    ops = build_L_operators(n)
    Y = Y_poly(n)
    phis: list[Series] = [Series.one()]
    ladders: list[list[Series]] = []
    for k in range(1, k_max + 1):
        ladders.append(d_ladder(phis[k - 1], min(n, k_max + 2 - k), n))
        rhs = Series.zero()
        for l in range(2, min(n, k + 1) + 1):
            term = apply_on_ladder(ops[l - 1], ladders[k + 1 - l]).shift(1 - l)
            if term.val < 0:
                raise AssertionError(f"operator term at order {k}, l={l} has a pole")
            rhs = rhs - term
        try:
            quot = div_exact(rhs, Y)
        except ValueError:
            raise AssertionError(f"right-hand side at order {k} is not divisible by Y") from None
        if 0 in quot.nums:
            raise AssertionError(f"right-hand side at order {k} has a constant term")
        phis.append(quot.D_inverse() / n + Fraction(constants[k - 1]))
    return phis


# -- series route: modified flatness, graded by residue -----------------------------


def extend_tables(data: GenusZeroData, tables: Tables, constant: Fraction) -> None:
    """
    Append the next order k to the table of every residue, with integration
    constant ``constant`` at that order.

    The rows at order k are cumulative sums over the known order k-1 data, and
    the row-zero series is recovered by one quadrature from the cycle-closure
    condition.  Neither step involves the column index, so each residue's
    table grows on its own; a constant c adds c to every row of residue k mod n.
    """
    n = data.cfg.n
    inv_L = data.L_inv
    one, minus_one_nth = Series.one(), Series.monomial(Fraction(-1, n))
    minus_L_nth = data.L * Fraction(-1, n)
    k = len(tables[0])
    for w, table in enumerate(tables):
        prev = table[k - 1]
        cum: list[Series] = [Series.zero() for _ in range(n)]
        cum[n - 1] = prev[0].D() * inv_L
        for i in range(n - 1, 1, -1):
            cum[i - 1] = Series.sum_of_products([(cum[i], one), (prev[i].D(), inv_L), (data.A[n - i], prev[i])])
        # rhs = -(D(sum cum) + sum_i A_{n-i} cum_i L) / n
        pairs = [(sum(cum, Series.zero()).D(), minus_one_nth)]
        pairs += [(data.A[(n - i) % n] * cum[i], minus_L_nth) for i in range(n)]
        rhs = Series.sum_of_products(pairs)
        if 0 in rhs.nums:
            raise AssertionError("cycle closure has a constant term; flatness violated")
        f = rhs.D_inverse() + (Fraction(constant) if w == k % n else 0)
        table.append([f + cum[i] for i in range(n)])


def series_tables(data: GenusZeroData, constants: list[Fraction]) -> Tables:
    """
    The series oracle of the column with the given constants, one per order
    1, 2, ...: tables[w][k][i] = the residue-w piece of the normalized entry
    at row i and order k, a series with rational coefficients; the entry at
    column j is sum_w zeta^{wj} tables[w][k][i] (:func:`~orbigw.genus0.at_column`).
    The tables start from the unit at order 0, residue 0, and grow one order
    at a time by the modified flatness recursion alone (:func:`extend_tables`).
    """
    n = data.cfg.n
    unit = Series.one().truncate(data.L.prec)
    tables = [[[unit if w == 0 else Series.zero(unit.prec) for _ in range(n)]] for w in range(n)]
    for c in constants:
        extend_tables(data, tables, c)
    return tables


class PColumn:
    """Universal row-zero polynomials in Lam (exact ``Series``) with their integration constants."""

    __slots__ = ("n", "k_max", "policy", "phis", "constants", "constant_status")

    def __init__(
        self,
        n: int,
        k_max: int,
        policy: str,
        phis: list[Series],
        constants: list[Fraction],
        constant_status: list[str],
    ):
        self.n = n
        self.k_max = k_max
        self.policy = policy
        self.phis = phis
        self.constants = constants
        self.constant_status = constant_status

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k_max": self.k_max,
            "policy": self.policy,
            "phis": [sorted((e, str(p.get(e))) for e in p.nums) for p in self.phis],
            "constants": [str(c) for c in self.constants],
            "constant_status": list(self.constant_status),
        }


def check_constants(custom_constants) -> None:
    """
    Refuse custom constants that are not exact: each must be an ``int`` (not
    a ``bool``) or a ``Fraction``.  A float would enter an exact verdict as
    its binary fraction, and ``Fraction`` would parse a string.
    """
    for c in custom_constants or ():
        if type(c) is not int and not isinstance(c, Fraction):
            raise TypeError(f"custom constants must be int or Fraction, not {type(c).__name__}")


def unitary_constants(free: list[Fraction], k_max: int) -> list[Fraction]:
    """
    The constants c_1 .. c_{k_max}: ``free`` at the odd orders, in order, and
    at each even order e the one that makes s(z) = 1 + sum_k c_k z^k satisfy
    s(z) s(-z) = 1 through z^e,

        c_e = -1/2 sum_{0<i<e} (-1)^i c_i c_{e-i}.

    The odd coefficients of s(z) s(-z) vanish for any constants, so this
    fixes every order unitarity constrains and no other.
    """
    c = [Fraction(1)]
    for e in range(1, k_max + 1):
        c.append(free[e // 2] if e % 2 else -sum((-1) ** i * c[i] * c[e - i] for i in range(1, e)) / 2)
    return c[1:]


def compute_P_column(
    data: GenusZeroData,
    k_max: int,
    policy: str = "symplectic",
    custom_constants: list[Fraction] | None = None,
) -> PColumn:
    """
    The universal column for the n of ``data`` under a constants policy.

    The constants follow :func:`unitary_constants`: the free (odd) orders
    1, 3, 5, ... take the first ceil(k_max / 2) custom constants under
    ``custom`` (a longer list is read no further) and 0 otherwise, and the
    even orders are fixed by unitarity.  Every order is ``zero`` under
    ``zero``; under the other policies the even orders are ``fixed`` and the
    odd ones ``given`` (``custom``) or ``free`` (``symplectic``).  No table
    grows here, and the check of ``symplectic`` reads the lift
    (:func:`build_pmatrix`).
    """
    check_constants(custom_constants)
    free = (k_max + 1) // 2
    if policy not in POLICIES:
        raise ValueError(f"unknown constants policy {policy!r}")
    if policy == "custom":
        if custom_constants is None or len(custom_constants) < free:
            raise ValueError(f"custom policy needs {free} constants, one per odd order up to k_max = {k_max}")
        given = [Fraction(c) for c in custom_constants[:free]]
    elif custom_constants is not None:
        raise ValueError(f"custom constants are only read under the custom policy, not {policy!r}")
    else:
        given = [Fraction(0)] * free
    constants = unitary_constants(given, k_max)
    odd = {"zero": "zero", "symplectic": "free", "custom": "given"}[policy]
    even = "zero" if policy == "zero" else "fixed"
    status = [odd if e % 2 else even for e in range(1, k_max + 1)]
    phis = compute_phis(data.cfg.n, k_max, constants)
    return PColumn(data.cfg.n, k_max, policy, phis, constants, status)


# -- the ring lift -----------------------------------------------------------------


Lift = dict[tuple[int, int, int], RingElement]
Entry = dict[Monomial, Coefficient]  # one column's entry: nonzero coefficients in Q(zeta_n)


def entry_to_json(entry: Entry) -> list:
    """The JSON of a column entry, in the ring's term layout; a rational coefficient is its string."""
    return terms_to_json(entry, lambda c: c.to_json() if isinstance(c, Cyclotomic) else str(c))


def descent(ctx: RingContext, graded: Lift, k: int, i: int, w: int) -> RingElement:
    """
    Row i - 1 at order k and residue w, by one step of the modified flatness
    recursion from row i mod n, P~^k_{i-1} = P~^k_i + D(P~^{k-1}_i) / L +
    A_{n-i} P~^{k-1}_i; row n - 1 descends from row zero (i = n), as A_0 = 0.
    """
    prev = graded[(k - 1, i % ctx.n, w)]
    return graded[(k, i % ctx.n, w)] + ctx.derive(prev).mul_L(-1) + ctx.A(ctx.n - i) * prev


def lift_tables(ctx: RingContext, col: PColumn) -> Lift:
    """
    The ring lift, graded by residue: ``graded[(k, i, w)]`` is a ring element
    with rational coefficients, and the order-k, row-i, column-j entry is
    sum_w zeta^{wj} graded[(k, i, w)] (:meth:`PMatrixData.lift_entry`).

    Row zero splits by the residue w = (r + k) mod n of the exponent of L^r in
    p_k.  The other rows descend from it (:func:`descent`, with the formal
    derivation), which does not depend on j, so it runs once per residue.
    """
    n = ctx.n
    graded: Lift = {}
    for w in range(n):
        for k in range(col.k_max + 1):
            row0 = {(r, ()): col.phis[k].get(r) for r in col.phis[k].nums if (r + k) % n == w}
            graded[(k, 0, w)] = RingElement(row0)
            for i in range(n, 1, -1):
                graded[(k, i - 1, w)] = graded[(k, 0, w)] if k == 0 else descent(ctx, graded, k, i, w)
    return graded


def pairing(read, n: int, c: int, d: int) -> dict[tuple[int, int], list]:
    """
    The term pairs (x, y) of B(c, d) = sum_r S(c, Inv(r))_i S(d, r)_j, Inv(r)
    = -r mod n, the bilinear form the edge factors and the unitarity check
    read, with S(k, i) = P~^k_{i,p} zeta^{-(k+i)p} the shifted entry as
    ``read(k, i)`` gives it, {u - k - i: piece} over its pieces u: the pieces
    u and v pair at (a, b) = (u - c - Inv(r), v - d - r) mod n.
    """
    pairs: dict = {}
    for r in range(n):
        right = read(d, r).items()
        for a, x in read(c, (-r) % n).items():
            for b, y in right:
                pairs.setdefault((a, b), []).append((x, y))
    return pairs


def unitarity_residual(graded: Lift, n: int, e: int) -> list[list[RingElement]]:
    """
    The order-e coefficient of the quadratic unitarity condition on the lift,
    sum_{c+d=e} ((-1)^c / n) B(c, d) over the pairing (:func:`pairing`), as
    a 2D character sum: ring elements Y[a][b], the condition at the column
    pair (i, j) reading sum_{a,b} zeta^{a i + b j} Y[a][b].  The DFT on
    (Z/n)^2 is invertible, so it holds at order e exactly when every Y[a][b]
    vanishes.  Each Y[a][b] is one ``RingElement.sum_of_products``, so its
    zero is exact, not a zero up to a truncation order.
    """

    def read(k: int, i: int) -> dict[int, RingElement]:
        return {(w - k - i) % n: x for w in range(n) if (x := graded[(k, i, w)])}

    pairs: list[list[list]] = [[[] for _ in range(n)] for _ in range(n)]
    for c in range(e + 1):
        sign = Fraction((-1) ** c, n)
        for (a, b), terms in pairing(read, n, c, e - c).items():
            pairs[a][b].extend((x * sign, y) for x, y in terms)
    return [[RingElement.sum_of_products(p) for p in row] for row in pairs]


def _add_columns(rep: Report, name: str, pm: PMatrixData, diffs: dict, detail, failed: str = "") -> None:
    """
    Add the check ``name.format(j)`` for every column j.  ``diffs[key][w]`` is
    the residue-w piece of a difference linear in the entries, a series or a
    ring element, so column j's own difference is the entry
    d = sum_w zeta^{wj} diffs[key][w] (:func:`~orbigw.genus0.entry_at_column`,
    keyed by exponent or monomial); the column fails with ``detail(key, d)``
    at the first key (in dict order) where d is nonzero, else with ``failed``
    if that is given.  A passing check sums only zero pieces.
    """
    zeta = pm.data.zeta
    for j in range(pm.ctx.n):
        bad = next((detail(key, d) for key, ws in diffs.items() if (d := entry_at_column(ws, j, zeta))), None)
        bad = str(bad) if bad else failed
        rep.add(name.format(j), not bad, bad)


def route_differences(pm: PMatrixData) -> dict[tuple[int, int], list[Series]]:
    """diffs[(k, i)][w] = eval(graded[(k, i, w)]) - tables[w][k][i], the two routes' difference by residue."""
    ev = pm.ctx.evaluator(pm.data)
    return {
        (k, i): [ev.eval(pm.graded[(k, i, w)]) - table[k][i] for w, table in enumerate(pm.tables)]
        for k in range(pm.col.k_max + 1)
        for i in range(pm.ctx.n)
    }


def verify_lift(pm: PMatrixData, diffs: dict[tuple[int, int], list[Series]]) -> Report:
    """
    Certify the ring lift against the series oracle through the route
    differences ``diffs`` (:func:`route_differences`), entry by entry, column
    by column; close the cycle in the ring; and read the pole check off the
    graded row zero (the DFT is invertible, so a column has a pole in L
    exactly when some residue has one).
    """
    ctx, col, graded = pm.ctx, pm.col, pm.graded
    n = ctx.n
    rep = Report(f"lift certification (n={n}, k_max={col.k_max}, policy={col.policy})")
    _add_columns(rep, "column {} matches series oracle", pm, diffs, lambda key, d: (*key, min(d)))

    # the one flatness equation not consumed by the construction must close
    resid = {k: [graded[(k, 0, w)] - descent(ctx, graded, k, 1, w) for w in range(n)] for k in range(1, col.k_max + 1)}
    _add_columns(rep, "cycle closure in the ring, column {}", pm, resid, lambda k, d: (k, len(d)))
    # membership: row zero entries live in C[L]
    ok = all(not graded[(k, 0, w)].uses_negative_L() for w in range(n) for k in range(col.k_max + 1))
    rep.add("row zero entries have no pole in L", ok)
    return rep


def verify_partial_lemmas(pm: PMatrixData) -> Report:
    """
    The formal partial derivative of every lifted entry with respect to the
    distinguished generator collapses to the shifted entries predicted by the
    flatness structure (one Kronecker delta for odd n, two for even n).
    """
    ctx, graded = pm.ctx, pm.graded
    n, s = ctx.n, ctx.s
    gen = ("A", ctx.distinguished, 0)
    rep = Report(f"partial derivative lemmas (n={n})")
    shifted = {s: s + 1} if ctx.odd else {s: s + 1, s - 1: s}  # row i at order k -> row at order k - 1
    diffs = {}
    for k in range(pm.col.k_max + 1):
        for i in range(n):
            r = shifted.get(i) if k >= 1 else None
            want = [RingElement.zero() if r is None else graded[(k - 1, r, w)] for w in range(n)]
            diffs[(k, i)] = [graded[(k, i, w)].partial(gen) - want[w] for w in range(n)]
    _add_columns(rep, "partial lemma, column {}", pm, diffs, lambda key, d: key)
    return rep


# -- top-level driver ----------------------------------------------------------------


class PMatrixData:
    """
    Everything the graph sum needs: the column polynomials and the ring lift,
    graded by residue; the series oracle is built on first read.
    """

    def __init__(self, ctx: RingContext, data: GenusZeroData, col: PColumn, graded: Lift):
        self.ctx = ctx
        self.data = data
        self.col = col
        self.graded = graded

    @cached_property
    def tables(self) -> Tables:
        """The series oracle of the column (:func:`series_tables`), for the checks that compare against it."""
        return series_tables(self.data, self.col.constants)

    def lift_entry(self, k: int, i: int, j: int) -> Entry:
        """The ring lift's entry P~^k_{i,j} at order k, row i, column j (:func:`entry_at_column`)."""
        entry = entry_at_column([self.graded[(k, i, w)] for w in range(self.ctx.n)], j, self.data.zeta)
        return {decode(m): c for m, c in entry.items()}


def build_pmatrix(
    data: GenusZeroData,
    k_max: int,
    policy: str = "symplectic",
    custom_constants: list[Fraction] | None = None,
) -> PMatrixData:
    """
    The column (:func:`compute_P_column`) and its ring lift for the n of
    ``data``.  Under ``symplectic`` every order e = 1..k_max of the lift must
    be unitary: any nonzero entry of :func:`unitarity_residual` raises
    ``AssertionError("unitarity at order e ...")``, also under ``python -O``.
    """
    col = compute_P_column(data, k_max, policy, custom_constants)
    ctx = RingContext(data.cfg.n)
    graded = lift_tables(ctx, col)
    if policy == "symplectic":
        for e in range(1, k_max + 1):
            Y = unitarity_residual(graded, ctx.n, e)
            bad = [(a, b, y.monomial_count()) for a, row in enumerate(Y) for b, y in enumerate(row) if y]
            if bad:
                raise AssertionError(f"unitarity at order {e} fails at (a, b, monomials) {bad[:3]}")
    return PMatrixData(ctx, data, col, graded)


def verify_pmatrix(pm: PMatrixData) -> Report:
    """The full verification battery for one constants policy."""
    ctx, data, col = pm.ctx, pm.data, pm.col
    n = ctx.n
    rep = Report(f"P-matrix verification (n={n}, k_max={col.k_max}, policy={col.policy})")

    ops = build_L_operators(n)
    Y = Y_poly(n)
    rep.add("Lop_1 = n D", not ops[0][0] and ops[0][1] == Series.monomial(Fraction(n)))
    want2 = ((Y * Y - Y) * comb(n + 1, 4), Y * -comb(n, 2), Series.monomial(Fraction(comb(n, 2))))
    rep.add("Lop_2 closed form", ops[1] == want2)

    # congruence mod the ideal (X Y): Lop_k = C(n,k) D (D - Y) ... (D - (k-1)Y),
    # tested through its classified action on the monomials Lam^r: modulo (X Y),
    # Y^k = Y, so the right side is C(n,k) r(r-1)..(r-k+1) Lam^r Y (zero for r < k);
    # the difference must divide exactly by Lam^n Y.  Each Lam^r, r <= 2n, has
    # one D-ladder, read by every Lop_k with k >= r - n.
    XY = Y.shift(n)
    ladders = [d_ladder(Series.monomial(1, r), n, n) for r in range(2 * n + 1)]
    for k in range(1, n + 1):
        okk = True
        for r in range(0, k + n + 1):
            lhs = apply_on_ladder(ops[k - 1], ladders[r])
            try:
                div_exact(lhs - (Y * (comb(n, k) * perm(r, k))).shift(r), XY)
            except ValueError:
                okk = False
                break
        rep.add(f"Lop_{k} congruence mod (X Y)", okk)

    d_phi1 = d_ladder(col.phis[1], 1, n)[1]
    rep.add("D p_1 = f_n p_0", d_phi1 == f_n_poly(n) * col.phis[0])

    for k, phi in enumerate(col.phis):
        rep.add(f"p_{k} has only nonnegative powers", phi.val >= 0)

    # both row-zero checks read differences by residue; a successful fit is
    # linear, so a column fits as its residues do, and a residue that does
    # not fit fails every column at that order
    diffs = route_differences(pm)
    row0 = {k: diffs[(k, 0)] for k in range(col.k_max + 1)}
    _add_columns(rep, "polynomial vs series route, column {}", pm, row0, lambda k, d: (k, min(d)))
    fits, raised = {}, ""
    for k in range(col.k_max + 1):
        try:
            fitted = [fit_laurent_in_L(table[k][0], data.L, (k + 1) * n, data.L_pow)[0] for table in pm.tables]
        except ValueError as exc:
            raised = str((k, str(exc)))
            break
        fits[k] = [RingElement.L_poly(Series(fit)) - pm.graded[(k, 0, w)] for w, fit in enumerate(fitted)]
    disagrees = "fit disagrees with polynomial route"
    _add_columns(rep, "Laurent fit certifies membership, column {}", pm, fits, lambda k, d: (k, disagrees), raised)

    rep.checks.extend(verify_lift(pm, diffs).checks)
    rep.checks.extend(verify_partial_lemmas(pm).checks)
    return rep
