"""
The deliberate oracles, kept out of the package: the decorated graph sum
(``graph_contribution`` over ``enumerate_decorated``, classes and Aut(G, p)
found by brute force over every vertex permutation; over
:class:`SeriesTables` it is ``assemble_F_series``), the naive stable-graph
enumerator, the second psi recursion (``psi_integral_bruteforce``), the
series oracle's column entries (``series_entry``) and its unitarity residual
(``series_unitarity_residual``), the edge factor summed over m as the
classification formula writes it (``edge_oracle``), the slots of the
hypergeometric array expanded afresh at every x-degree (``I_slots``), the
evaluation of a ring element one monomial at a time (``eval_by_monomial``),
and the product of two tuple monomials by a merge of their generators
(``merge``), against which the ring's packed keys add.
Each is an independent route to a number the package computes another way.
Beside them live the graph helpers only the tests use (``relabeled``,
``signature``) and the edge-symmetry check (``edges_symmetric``).

The package's ring and series are rational.  The decorated sum reads every
factor at its decorations with explicit roots of unity, so over the lift its
values live in :class:`CyclotomicPoly`, the oracle's own polynomials over
Q(zeta_n), as do the lift's column entries read through ``lifted_entry``;
over the series tables they live in :class:`CyclotomicSeries`, the oracle's
own truncated series over Q(zeta_n), as do the series oracle's column entries.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, permutations, product
from math import factorial

from orbigw.cyclotomic import Cyclotomic, euler_phi
from orbigw.genus0 import GenusZeroData, ModelConfig, at_column
from orbigw.graphs import StableGraph, _relabeled, _search, enumerate_stable_graphs
from orbigw.pmatrix import PMatrixData
from orbigw.potentials import ContributionTables, _check_type
from orbigw.psi import dimension_ok, double_factorial, is_stable, psi_genus0
from orbigw.ring import RingElement
from orbigw.series import INF, PrecisionError, Series


def assert_normal(v) -> None:
    """
    The normal form of a series, ring element or Q(zeta_n) element: integer
    numerators over a positive denominator in lowest terms, no zero
    numerator, no key beyond a series' bound or a field's power basis, and
    zero over 1.
    """
    assert type(v.den) is int and v.den > 0
    assert all(type(c) is int and c for c in v.nums.values())
    assert math.gcd(v.den, *v.nums.values()) == 1
    if isinstance(v, Series):
        assert all(e < v.prec for e in v.nums)
    if isinstance(v, Cyclotomic):
        assert all(0 <= i < euler_phi(v.order) for i in v.nums)
    if not v.nums:
        assert v.den == 1


class CyclotomicSeries:
    """
    A truncated Laurent series over Q(zeta_n): coefficients of x^e are known
    exactly for e < ``prec``, each a ``Fraction`` or a ``Cyclotomic`` (the two
    mix freely), stored one per exponent in ``coeffs``.  Built from a dict
    {exponent: coefficient} or from a rational :class:`Series`, which it also
    takes as an operand.  The arithmetic is the plain coefficient recurrence,
    independent of the package's integer form and Newton inversion.
    """

    __slots__ = ("coeffs", "prec")

    def __init__(self, coeffs=None, prec: float = INF):
        if isinstance(coeffs, Series):
            coeffs, prec = {e: coeffs.get(e) for e in coeffs.nums}, coeffs.prec
        cs = {}
        for e, c in (coeffs or {}).items():
            if c and e < prec:
                cs[e] = Fraction(c) if isinstance(c, int) else c
        self.coeffs = cs
        self.prec = prec

    @staticmethod
    def zero(prec: float = INF) -> "CyclotomicSeries":
        return CyclotomicSeries({}, prec)

    @staticmethod
    def one() -> "CyclotomicSeries":
        return CyclotomicSeries({0: Fraction(1)})

    @property
    def val(self) -> float:
        return min(self.coeffs) if self.coeffs else self.prec

    def get(self, e: int):
        if e >= self.prec:
            raise PrecisionError(f"coefficient of x^{e} unknown (prec={self.prec})")
        return self.coeffs.get(e, Fraction(0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def zero_order(self) -> int | None:
        return min(self.coeffs) if self.coeffs else None

    def first_nonzero(self):
        e = self.zero_order()
        return None if e is None else (e, self.coeffs[e])

    def truncate(self, prec: float) -> "CyclotomicSeries":
        return self if prec >= self.prec else CyclotomicSeries(self.coeffs, prec)

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        return NotImplemented if o is None else (self.coeffs == o.coeffs and self.prec == o.prec)

    def __repr__(self) -> str:
        terms = " + ".join(f"({self.coeffs[e]})*x^{e}" for e in sorted(self.coeffs)[:8]) or "0"
        return f"<{terms}{'' if math.isinf(self.prec) else f' + O(x^{int(self.prec)})'}>"

    def _coerce(self, other) -> "CyclotomicSeries | None":
        if isinstance(other, CyclotomicSeries):
            return other
        if isinstance(other, Series):
            return CyclotomicSeries(other)
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return CyclotomicSeries({0: other})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in o.coeffs.items():
            out[e] = out.get(e, 0) + c
        return CyclotomicSeries(out, min(self.prec, o.prec))

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicSeries":
        return CyclotomicSeries({e: -c for e, c in self.coeffs.items()}, self.prec)

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return CyclotomicSeries({e: c * other for e, c in self.coeffs.items()}, self.prec)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        prec = min(self.prec + o.val, o.prec + self.val)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in o.coeffs.items():
                if e1 + e2 < prec:
                    out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return CyclotomicSeries(out, prec)

    __rmul__ = __mul__

    def shift(self, k: int) -> "CyclotomicSeries":
        return CyclotomicSeries({e + k: c for e, c in self.coeffs.items()}, self.prec + k)

    def invert(self) -> "CyclotomicSeries":
        """The inverse by the coefficient recurrence w_m = -(sum_{k=1..m} u_k w_{m-k}) / u_0."""
        if not self.coeffs:
            raise ZeroDivisionError("cannot invert a series with no known nonzero coefficient")
        e0 = min(self.coeffs)
        c0 = self.coeffs[e0]
        rel = self.prec - e0
        u = {e - e0: c for e, c in self.coeffs.items()}
        inv0 = 1 / c0 if isinstance(c0, Fraction) else c0.inverse()
        if math.isinf(rel) and len(u) == 1:
            return CyclotomicSeries({-e0: inv0})
        if math.isinf(rel):
            raise PrecisionError("inverse of an exact non-monomial is an infinite series; truncate first")
        w = {0: inv0}
        for m in range(1, int(rel)):
            acc = sum((uk * w[m - k] for k, uk in u.items() if 1 <= k <= m and m - k in w), Fraction(0))
            if acc:
                w[m] = -(acc * inv0)
        return CyclotomicSeries({e - e0: c for e, c in w.items()}, rel - e0)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return CyclotomicSeries({e: c / other for e, c in self.coeffs.items()}, self.prec)
        if isinstance(other, Cyclotomic):
            return self * other.inverse()
        o = self._coerce(other)
        return NotImplemented if o is None else self * o.invert()

    def __pow__(self, k: int) -> "CyclotomicSeries":
        if k < 0:
            return self.invert() ** (-k)
        if k == 0:
            return CyclotomicSeries.one()
        result, base, k = self, self, k - 1
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def D(self) -> "CyclotomicSeries":
        return CyclotomicSeries({e: c * e for e, c in self.coeffs.items()}, self.prec)

    def D_inverse(self) -> "CyclotomicSeries":
        if 0 in self.coeffs:
            raise ValueError("D_inverse requires a zero constant term")
        if self.coeffs and min(self.coeffs) < 0:
            raise ValueError("D_inverse requires nonnegative valuation")
        return CyclotomicSeries({e: c / e for e, c in self.coeffs.items()}, self.prec)

    def to_json(self) -> dict:
        def enc(c):
            return c.to_json() if isinstance(c, Cyclotomic) else str(c)

        return {
            "prec": None if math.isinf(self.prec) else int(self.prec),
            "coeffs": {str(e): enc(c) for e, c in sorted(self.coeffs.items())},
        }


def merge(m1: tuple, m2: tuple) -> tuple:
    """The product of two tuple monomials (L_exp, ((gen, exp), ...)), generators merged by a dict and sorted."""
    (l1, g1), (l2, g2) = m1, m2
    acc = dict(g1)
    for g, e in g2:
        acc[g] = acc.get(g, 0) + e
    return (l1 + l2, tuple(sorted(acc.items())))


class CyclotomicPoly:
    """
    A polynomial in the ring's monomials with coefficients in Q(zeta_n), each
    a ``Fraction`` or a non-rational ``Cyclotomic``, so equality is
    structural.  Built from a dict {monomial: coefficient} (such as a column
    entry of the lift) or from a ``RingElement``, which it also takes as an
    operand.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        if isinstance(terms, RingElement):
            terms = {m: Fraction(c, terms.den) for m, c in terms.terms()}
        out = {}
        for m, c in (terms or {}).items():
            if c:
                out[m] = c.to_rational() if isinstance(c, Cyclotomic) and c.is_rational() else c
        self.terms = out

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        other = _as_poly(other)
        return NotImplemented if other is None else self.terms == other.terms

    def generators_used(self) -> set:
        return {g for _, gens in self.terms for g, _ in gens}

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return CyclotomicPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = _as_poly(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        return NotImplemented if other is None else other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclotomic)):
            return CyclotomicPoly({m: c * other for m, c in self.terms.items()})
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = merge(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return CyclotomicPoly(out)

    __rmul__ = __mul__

    def partial(self, gen) -> "CyclotomicPoly":
        """Formal partial derivative with respect to one generator."""
        out = {}
        for (le, gens), c in self.terms.items():
            for idx, (g, e) in enumerate(gens):
                if g == gen:
                    rest = gens[:idx] + gens[idx + 1 :] if e == 1 else gens[:idx] + ((g, e - 1),) + gens[idx + 1 :]
                    out[(le, rest)] = out.get((le, rest), 0) + c * e
        return CyclotomicPoly(out)

    def apply(self, f) -> "CyclotomicPoly":
        """The Q(zeta_n)-linear extension of a Q-linear map f of ring elements, applied monomial by monomial."""
        total = CyclotomicPoly()
        for m, c in self.terms.items():
            total = total + CyclotomicPoly(f(RingElement({m: 1}))) * c
        return total

    def evaluate(self, ev) -> CyclotomicSeries:
        """The series value under a ring evaluator, monomial by monomial."""
        total = CyclotomicSeries.zero()
        for m, c in self.terms.items():
            total = total + CyclotomicSeries(ev.eval(RingElement({m: 1}))) * c
        return total


def _as_poly(x):
    if isinstance(x, CyclotomicPoly):
        return x
    return CyclotomicPoly(x) if isinstance(x, RingElement) else None


def series_entry(pm: PMatrixData, k: int, i: int, j: int) -> CyclotomicSeries:
    """The series oracle's entry at order k, row i, column j."""
    return at_column([CyclotomicSeries(table[k][i]) for table in pm.tables], j, pm.data.zeta)


def series_unitarity_residual(tables, e: int) -> list[list[Series]]:
    """
    The order-e unitarity residual of the series oracle ``tables``
    (:func:`orbigw.pmatrix.series_tables`), as the 2D character sum
    :func:`orbigw.pmatrix.unitarity_residual` forms on the lift: rational
    series Y[a][b], with the product of the pieces u and v of the entries
    P^c_{Inv(r),i} and P^d_{r,j} (c + d = e, Inv(r) = -r mod n), weighted
    (-1)^c / n, landing at a = u - c - Inv(r), b = v - d - r.  Each Y[a][b]
    vanishes only up to the tables' truncation order.
    """
    n = len(tables)
    Y = [[Series.zero() for _ in range(n)] for _ in range(n)]
    for c in range(e + 1):
        d = e - c
        for r in range(n):
            rinv = (-r) % n
            lefts = [(u, t[c][rinv] * Fraction((-1) ** c, n)) for u, t in enumerate(tables) if t[c][rinv]]
            rights = [(v, t[d][r]) for v, t in enumerate(tables) if t[d][r]]
            for u, x in lefts:
                for v, y in rights:
                    a, b = (u - c - rinv) % n, (v - d - r) % n
                    Y[a][b] = Y[a][b] + x * y
    return Y


def lifted_entry(pm: PMatrixData, k: int, i: int, j: int) -> CyclotomicPoly:
    """The ring lift's entry at order k, row i, column j, as a polynomial over Q(zeta_n)."""
    return CyclotomicPoly(pm.lift_entry(k, i, j))


def I_slots(cfg: ModelConfig, slots: int) -> list[Series]:
    """
    The z^{-k} slots of the hypergeometric array, k = 0..slots, as
    :func:`orbigw.genus0.compute_I` defines them, in ``Fraction`` arithmetic:
    every x-degree m = nq + r expands the degree-q polynomial
    prod_{j<q} (1 + (-1)^n b_j^n z^n), b_j = j + r/n, from scratch, and its
    z^{nj} term lands in slot m - nj.
    """
    n, N = cfg.n, cfg.N
    sign = (-1) ** n
    out: list[dict[int, Fraction]] = [dict() for _ in range(slots + 1)]
    for m in range(N + 1):
        q, r = divmod(m, n)
        poly = [Fraction(1)]
        for j in range(q):
            c = sign * Fraction(j * n + r, n) ** n
            nxt = poly + [Fraction(0)]
            for t in range(len(poly)):
                nxt[t + 1] += poly[t] * c
            poly = nxt
        for j, cj in enumerate(poly):
            k = m - n * j
            if k <= slots and cj:
                out[k][m] = cj / factorial(m)
    return [Series(d, N + 1) for d in out]


def eval_by_monomial(data: GenusZeroData, e: RingElement) -> Series:
    """
    The series of the ring element e under the evaluation homomorphism, one
    monomial at a time: L^le times each generator's series (D^j A_i for
    ("A", i, j), C_i for ("C", i)) to its power, scaled by the numerator and
    added to a running total, then one division by the denominator.  It keeps
    nothing between monomials or calls; ``RingEvaluator.eval`` keeps every
    monomial's series and sums them with one normalisation.
    """
    total = Series.zero()
    for (le, gens), c in e.terms():
        term = data.L**le
        for g, ex in gens:
            term = term * (data.A[g[1]].deriv_pow(g[2]) if g[0] == "A" else data.C[g[1]]) ** ex
        total = total + term * c
    return total / e.den if e.den != 1 else total


def relabeled(graph: StableGraph, perm: tuple[int, ...]) -> StableGraph:
    """``graph`` under the vertex relabeling v -> perm[v], its legs kept."""
    return StableGraph(*_relabeled(graph, perm))


def signature(graph: StableGraph) -> tuple:
    """The canonical key: the least relabeled (genera, legs, edges) over the search leaves."""
    return _search(graph)[0]


def edges_symmetric(tables: ContributionTables, order: int) -> bool:
    """Whether every edge(b1, b2) with b1 + b2 <= ``order`` is the transpose of edge(b2, b1)."""
    return all(
        tables.edge(b1, b2) == {(u2, u1): x for (u1, u2), x in tables.edge(b2, b1).items()}
        for b1 in range(order + 1)
        for b2 in range(b1, order - b1 + 1)
    )


def edge_oracle(tables: ContributionTables, b1: int, b2: int) -> dict:
    """
    The edge factor by its classification formula, summed over m as written,

        E(b1, b2) = ((-1)^{b1+b2} / n) sum_{m=0..b2} (-1)^m sum_r
                    P~^{b1+m+1}_{Inv(r),p1} zeta^{-(b1+m+1+Inv(r)) p1} P~^{b2-m}_{r,p2} zeta^{-(b2-m+r) p2},

    a character sum keyed (u1, u2) with its zero entries dropped; it reads
    the graded pieces of ``tables`` and shifts them itself, so neither the
    pairing nor the recurrence of ``ContributionTables.edge`` enters.
    """
    n = tables.n
    total: dict = {}
    for m in range(b2 + 1):
        for r in range(n):
            rinv = (-r) % n
            k1, k2 = b1 + m + 1, b2 - m
            for w1, x in tables.graded(k1, rinv).items():
                for w2, y in tables.graded(k2, r).items():
                    key = ((w1 - k1 - rinv) % n, (w2 - k2 - r) % n)
                    term = x * y * Fraction((-1) ** (b1 + b2 + m), n)
                    total[key] = total[key] + term if key in total else term
    return {key: x for key, x in total.items() if x}


@dataclass(frozen=True)
class DecoratedGraph:
    graph: StableGraph
    decorations: tuple[int, ...]
    aut: int


def vertex_automorphisms(graph: StableGraph) -> list[tuple[int, ...]]:
    """The vertex permutations fixing the graph, found among all V! of them."""
    return [perm for perm in permutations(range(graph.num_vertices)) if relabeled(graph, perm) == graph]


def half_edge_factor(graph: StableGraph) -> int:
    """The edge permutations over a fixed vertex map, counted edge by edge."""
    factor = 1
    for edge in set(graph.edges):
        k = graph.edges.count(edge)
        factor *= factorial(k) * (2**k if edge[0] == edge[1] else 1)
    return factor


@cache
def enumerate_decorated(g: int, m: int, n: int) -> tuple[DecoratedGraph, ...]:
    """
    One representative per isomorphism class of decorated stable graphs,
    decorations in {0..n-1}, with decorated automorphism counts: a class is an
    orbit of the vertex automorphisms, represented by its least member, and
    Aut(G, p) is its stabiliser times the half-edge factor.
    """
    out: list[DecoratedGraph] = []
    for graph in enumerate_stable_graphs(g, m):
        syms = vertex_automorphisms(graph)
        for dec in product(range(n), repeat=graph.num_vertices):
            orbit = {tuple(dec[v] for v in perm) for perm in syms}
            if dec == min(orbit):
                out.append(DecoratedGraph(graph, dec, len(syms) // len(orbit) * half_edge_factor(graph)))
    return tuple(out)


class Decorated:
    """
    The local factors of ``tables`` read at decorations, each value cached:
    ``at(factor, args, p)`` is the character sum ``tables.<factor>(*args)``
    at p, sum_u zeta^{u p} X_u, or sum zeta^{u1 p1 + u2 p2} X for an edge,
    whose p is the pair (p1, p2).  Over the lift the values are
    :class:`CyclotomicPoly`; over :class:`SeriesTables` they are
    :class:`CyclotomicSeries`.
    """

    def __init__(self, tables: ContributionTables):
        self.tables = tables
        self.read = CyclotomicSeries if isinstance(tables, SeriesTables) else CyclotomicPoly
        self.unit, self.zero = self.read(tables.unit()), self.read(tables.zero())
        self._values: dict = {}

    def __call__(self, factor: str, args: tuple, p):
        key = (factor, args, p)
        if key not in self._values:
            tables = self.tables
            ps = p if isinstance(p, tuple) else (p,)
            total = self.zero
            for u, x in getattr(tables, factor)(*args).items():
                e = sum(a * b for a, b in zip(u if isinstance(u, tuple) else (u,), ps)) % tables.n
                x = self.read(x)
                total = total + (x * tables.data.zeta(e) if e else x)
            self._values[key] = total
        return self._values[key]


def _flag_assignments(graph: StableGraph):
    """
    Every joint flag assignment within each vertex's dimension, as (values,
    per-vertex flags).

    ``values`` lists the legs first, then both half-edges of every edge in edge
    order; ``flags[v]`` collects the values at vertex v in that order.
    """
    ends = list(graph.legs) + [v for edge in graph.edges for v in edge]
    at = [[s for s, w in enumerate(ends) if w == v] for v in range(graph.num_vertices)]
    room = [3 * h - 3 + graph.valence(v) for v, h in enumerate(graph.genera)]
    values: list[int] = []

    def rec(idx: int):
        if idx == len(ends):
            yield values, [tuple(values[s] for s in slots) for slots in at]
            return
        v = ends[idx]
        for val in range(room[v] + 1):
            room[v] -= val
            values.append(val)
            yield from rec(idx + 1)
            values.pop()
            room[v] += val

    yield from rec(0)


def graph_contribution(at: Decorated, dec: DecoratedGraph, insertions: tuple[int, ...]):
    """
    The core contribution of one decorated graph (leg prefactors excluded).

    Summed over ``enumerate_decorated``, this is the decorated sum.  Every
    factor is read at its decorations.
    """
    graph, p = dec.graph, dec.decorations
    m = len(graph.legs)
    total = at.zero
    for values, flags in _flag_assignments(graph):
        factors = chain(
            (at("vertex", (h, tuple(sorted(flags[v]))), p[v]) for v, h in enumerate(graph.genera)),
            (
                at("edge", (values[m + 2 * e], values[m + 2 * e + 1]), (p[a], p[b]))
                for e, (a, b) in enumerate(graph.edges)
            ),
            (at("leg_core", (values[t], insertions[t]), p[graph.legs[t]]) for t in range(m)),
        )
        # a zero product ends the term: the ring is a domain, and a series
        # product with no known coefficient carries nothing
        term = at.unit
        for factor in factors:
            term = term * factor
            if term.is_zero():
                break
        else:
            total = total + term
    return total * Fraction(1, dec.aut)


class SeriesTables(ContributionTables):
    """
    The same local factors over the series oracle: the graded pieces are the
    P column's rational residue tables, so the ring lift never enters.
    """

    def graded(self, k: int, i: int) -> dict[int, Series]:
        return {w: table[k][i] for w, table in enumerate(self.pm.tables) if table[k][i]}

    def unit(self) -> Series:
        return Series.one()

    def zero(self) -> Series:
        return Series.zero()


def assemble_F_series(tables: ContributionTables, g: int, insertions: tuple[int, ...] | list[int]) -> CyclotomicSeries:
    """
    The graph sum evaluated purely at the series level.

    The decorated sum runs over :class:`SeriesTables` (never the ring lift,
    nor the character sum) and is multiplied by the leg prefactors as series,
    so agreement with the evaluated ring-level potential certifies the whole
    polynomial pipeline independently.
    """
    insertions = tuple(insertions)
    _check_type(g, insertions)
    at = Decorated(SeriesTables(tables.pm))
    total = CyclotomicSeries.zero()
    for dec in enumerate_decorated(g, len(insertions), tables.n):
        total = total + graph_contribution(at, dec, insertions)
    data = tables.data
    for c in insertions:
        cinv = (-c) % tables.n
        total = total * (data.K[cinv] / data.L**cinv)
    return total


def _edge_distributions(V: int, E: int):
    """All ways to place E edges as loops per vertex plus multiplicities per pair."""
    pairs = [(a, b) for a in range(V) for b in range(a + 1, V)]
    slots = V + len(pairs)

    def rec(idx: int, remaining: int, acc: list[int]):
        if idx == slots - 1:
            yield acc + [remaining]
            return
        for c in range(remaining + 1):
            yield from rec(idx + 1, remaining - c, acc + [c])

    if slots == 1:
        yield ([E], [])
        return
    for dist in rec(0, E, []):
        yield (dist[:V], list(zip(pairs, dist[V:])))


def enumerate_stable_graphs_naive(g: int, m: int) -> list[StableGraph]:
    """
    Independent generator: exhaustive candidates, deduplicated by pairwise
    isomorphism search instead of canonical signatures.
    """
    reps: list[StableGraph] = []
    max_V = 2 * g - 2 + m
    for V in range(1, max_V + 1):
        for genera in product(range(g + 1), repeat=V):
            E = g - sum(genera) + V - 1
            if E < 0:
                continue
            for loops, pair_mults in _edge_distributions(V, E):
                edges = []
                for v, k in enumerate(loops):
                    edges += [(v, v)] * k
                for (pair, mult) in pair_mults:
                    edges += [pair] * mult
                for legs in product(range(V), repeat=m):
                    graph = StableGraph(tuple(genera), tuple(legs), tuple(sorted(edges)))
                    if graph.genus() != g or not graph.is_connected() or not graph.is_stable():
                        continue
                    if not any(_isomorphic(graph, r) for r in reps):
                        reps.append(graph)
    return reps


def _isomorphic(a: StableGraph, b: StableGraph) -> bool:
    if a.num_vertices != b.num_vertices or len(a.edges) != len(b.edges):
        return False
    if sorted(a.genera) != sorted(b.genera):
        return False
    for perm in permutations(range(a.num_vertices)):
        g2 = relabeled(a, perm)
        if g2.genera == b.genera and g2.legs == b.legs and g2.edges == b.edges:
            return True
    return False


def psi_integral_bruteforce(g: int, exponents: tuple[int, ...] | list[int]) -> Fraction:
    """
    Independent implementation: string and dilaton reductions first, then the
    recursion on the smallest removable exponent.  No memoization.
    """
    key = tuple(sorted(int(a) for a in exponents))
    if not is_stable(g, len(key)):
        raise ValueError(f"unstable moduli space (g={g}, m={len(key)})")
    if not dimension_ok(g, key):
        return Fraction(0)
    return _brute(g, key)


def _brute(g: int, key: tuple[int, ...]) -> Fraction:
    m = len(key)
    if not is_stable(g, m) or not dimension_ok(g, key):
        return Fraction(0)
    if g == 0 and m == 3:
        return Fraction(1)
    if g == 1 and key == (1,):
        # solved from the recursion instance on <tau_3 tau_0 tau_0>_1, which the
        # string equation ties back to <tau_1>_1 = y:
        #   105 y = 2 * 15 y + (1/2)(2 <T_0 T_0 T_0 T_1>_0 + 2 <T_0^3>_0 <T_1>_1),
        # i.e. (105 - 30 - 3) y = <T_0 T_0 T_0 T_1>_0.
        b = _brute(0, (0, 0, 0, 1)) * double_factorial(1)
        return b / (double_factorial(3) - 30 - 3)
    # string equation
    if 0 in key and (g, m) != (0, 3):
        rest = list(key)
        rest.remove(0)
        total = Fraction(0)
        for i in range(len(rest)):
            if rest[i] >= 1:
                total += _brute(g, tuple(sorted(rest[:i] + [rest[i] - 1] + rest[i + 1 :])))
        return total
    # dilaton equation
    if 1 in key and m >= 2:
        rest = list(key)
        rest.remove(1)
        return (2 * g - 2 + (m - 1)) * _brute(g, tuple(rest))
    if g == 0:
        return psi_genus0(key)
    # recursion on the smallest exponent (>= 2 at this point)
    low, rest = key[0], key[1:]
    k = low - 1

    def norm_val(gg: int, kk: tuple[int, ...]) -> Fraction:
        if not is_stable(gg, len(kk)) or not dimension_ok(gg, kk):
            return Fraction(0)
        v = _brute(gg, kk)
        for a in kk:
            v *= double_factorial(a)
        return v

    total = Fraction(0)
    for idx in range(len(rest)):
        merged = tuple(sorted(rest[:idx] + (rest[idx] + k,) + rest[idx + 1 :]))
        total += (2 * rest[idx] + 1) * norm_val(g, merged)
    for b in range(k):
        c = k - 1 - b
        total += Fraction(1, 2) * norm_val(g - 1, tuple(sorted(rest + (b, c))))
        for g1 in range(g + 1):
            g2 = g - g1
            idxs = range(len(rest))
            for r in range(len(rest) + 1):
                for I in combinations(idxs, r):
                    Iset = set(I)
                    left = tuple(sorted(tuple(rest[i] for i in I) + (b,)))
                    right = tuple(sorted(tuple(rest[i] for i in idxs if i not in Iset) + (c,)))
                    total += Fraction(1, 2) * norm_val(g1, left) * norm_val(g2, right)
    denom = 1
    for a in key:
        denom *= double_factorial(a)
    return total / denom
