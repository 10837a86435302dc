r"""
Vertex, edge, and leg contributions, and the decorated graph sum.

The higher genus potential with m insertions is assembled as

    F_{g,m} = sum over decorated stable graphs  1/|Aut|
              sum over flag values  prod(vertices) prod(edges) prod(legs),

with the three local factors taken verbatim from the classification
formula:

* a vertex of genus h, decoration p and valence v contributes the finite
  sum over extra tail insertions t_p(z) = sum_{i>=2} T_{p,i} z^i, where
  T_{p,i} = ((-1)^i / n) P~^i_{0,p} zeta^{-i p}, weighted by psi-class
  integrals and the pairing power n^{2h-2+v+k};
* an edge carrying flag values (b1, b2) between decorations (p1, p2)
  contributes the alternating bilinear combination of lifted entries of
  orders up to b1 + b2 + 1;
* a leg with insertion index c and flag a contributes
  ((-1)^a / n) K_{Inv(c)} / L^{Inv(c)} P~^a_{Inv(c),p} zeta^{-(a+Inv(c))p}.

Each leg's scalar prefactor K_{Inv(c)} / L^{Inv(c)} is kept apart from the
graph sum (it is flag and graph independent), so a potential is a pair
(prefactor monomial, core); the core of any potential lies in the ring
generated by L^{+-1} and the A-generators, which is the finite generation
statement the tests audit.

Everything here is exact; flag sums are finite because each vertex's
psi-integral vanishes outside its dimension, and tails contribute only in
z-degrees >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import DecoratedGraph, StableGraph, enumerate_decorated
from .pmatrix import PMatrixData
from .psi import psi_integral
from .ring import RingElement
from .series import Series


@dataclass
class Potential:
    """A potential as (scalar leg prefactor) x (core ring element)."""

    g: int
    insertions: tuple[int, ...]
    prefactor: RingElement  # a single monomial in the C generators and L
    core: RingElement

    def full(self) -> RingElement:
        return self.prefactor * self.core


class ContributionTables:
    """
    The local factors of the graph sum, written once over an entry table.

    Entries P~^k_{i,j} are read through :meth:`entry`; here they come from
    the ring lift, so every factor is a ring element.  :class:`SeriesTables`
    reads the same entries from the series oracle instead.
    """

    def __init__(self, pm: PMatrixData):
        self.pm = pm
        self.ctx = pm.ctx
        self.data = pm.data
        self.n = pm.ctx.n
        self.k_max = pm.col.k_max
        self._tails: dict = {}
        self._vertex: dict = {}
        self._edge: dict = {}
        self._leg: dict = {}

    def entry(self, k: int, i: int, j: int) -> RingElement:
        """P~^k_{i,j}: order k, row i, column j."""
        return self.pm.lifted[(k, i, j)]

    def unit(self) -> RingElement:
        return RingElement.scalar(Fraction(1))

    def zero(self) -> RingElement:
        return RingElement.zero()

    # -- local factors ------------------------------------------------------

    def tail(self, p: int, i: int):
        """T_{p,i}; zero in degrees 0 and 1."""
        if i < 2:
            return self.zero()
        if i > self.k_max:
            raise ValueError(f"tail order {i} exceeds the lifted depth {self.k_max}")
        key = (p, i)
        if key not in self._tails:
            w = self.data.zeta(-i * p) * Fraction((-1) ** i, self.n)
            self._tails[key] = self.entry(i, 0, p) * w
        return self._tails[key]

    def vertex(self, h: int, p: int, flags: tuple[int, ...]):
        """Genus-h vertex with decoration p and the given flag exponents."""
        key = (h, p, tuple(sorted(flags)))
        if key in self._vertex:
            return self._vertex[key]
        n = self.n
        v = len(flags)
        dim = 3 * h - 3 + v
        budget = dim - sum(flags)
        total = self.zero()
        for k in range(0, budget + 1):
            # tails of z-degree >= 2 must absorb the whole remaining degree
            target = dim + k - sum(flags)
            pairing_power = Fraction(n) ** (2 * h - 2 + v + k)
            # no cap at k_max: a tail deeper than the lifted table must raise
            # in tail(), not vanish from the sum
            for mult in _multisets(target, k, target):
                integral = psi_integral(h, flags + mult)
                if not integral:
                    continue
                weight = Fraction(1)
                seen: dict[int, int] = {}
                for r in mult:
                    seen[r] = seen.get(r, 0) + 1
                for cnt in seen.values():
                    for t in range(1, cnt + 1):
                        weight /= t
                term = self.unit() * (integral * weight * pairing_power)
                for r in mult:
                    term = term * self.tail(p, r)
                total = total + term
        self._vertex[key] = total
        return total

    def edge(self, b1: int, b2: int, p1: int, p2: int):
        key = (b1, b2, p1, p2)
        if key in self._edge:
            return self._edge[key]
        n = self.n
        if b1 + b2 + 1 > self.k_max:
            raise ValueError("edge needs a deeper lifted table")
        total = self.zero()
        for m in range(0, b2 + 1):
            for r in range(n):
                rinv = (-r) % n
                w = self.data.zeta(-(b1 + m + 1 + rinv) * p1 - (b2 - m + r) * p2) * Fraction((-1) ** m)
                total = total + self.entry(b1 + m + 1, rinv, p1) * self.entry(b2 - m, r, p2) * w
        total = total * Fraction((-1) ** (b1 + b2), n)
        self._edge[key] = total
        return total

    def leg_core(self, a: int, c: int, p: int):
        """Leg factor without the scalar K/L prefactor."""
        key = (a, c, p)
        if key not in self._leg:
            n = self.n
            cinv = (-c) % n
            w = self.data.zeta(-(a + cinv) * p) * Fraction((-1) ** a, n)
            self._leg[key] = self.entry(a, cinv, p) * w
        return self._leg[key]

    def leg_prefactor(self, c: int) -> RingElement:
        """K_{Inv(c)} / L^{Inv(c)} as a monomial in the C generators and L."""
        cinv = (-c) % self.n
        gens: dict = {}
        for i in range(1, cinv + 1):
            g = self.ctx.c_gen(i)
            gens[g] = gens.get(g, 0) + 1
        mono = (-cinv, tuple(sorted(gens.items())))
        return RingElement({mono: Fraction(1)})


class SeriesTables(ContributionTables):
    """The same local factors over the series oracle; the ring lift never enters."""

    def entry(self, k: int, i: int, j: int) -> Series:
        return self.pm.tables[j][k][i]

    def unit(self) -> Series:
        return Series.one()

    def zero(self) -> Series:
        return Series.zero()


def _multisets(total: int, k: int, cap: int):
    """Nondecreasing k-tuples of integers >= 2 with the given sum, each <= cap."""
    if k == 0:
        if total == 0:
            yield ()
        return

    def rec(rem: int, slots: int, lo: int):
        if slots == 1:
            if lo <= rem <= cap:
                yield (rem,)
            return
        for first in range(lo, min(cap, rem - 2 * (slots - 1)) + 1):
            for rest in rec(rem - first, slots - 1, first):
                yield (first,) + rest

    yield from rec(total, k, 2)


def _flag_slots(graph: StableGraph) -> list[tuple[str, int, int]]:
    """Flags as (kind, index, vertex): legs first, then half-edges in edge order."""
    out = [("leg", t, v) for t, v in enumerate(graph.legs)]
    for e, (u, v) in enumerate(graph.edges):
        out.append(("half", 2 * e, u))
        out.append(("half", 2 * e + 1, v))
    return out


def graph_contribution(tables: ContributionTables, dec: DecoratedGraph, insertions: tuple[int, ...]):
    """The core contribution of one decorated graph (leg prefactors excluded)."""
    graph, p = dec.graph, dec.decorations
    m = len(graph.legs)
    slots = _flag_slots(graph)
    dims = [3 * h - 3 + graph.valence(v) for v, h in enumerate(graph.genera)]
    total = tables.zero()

    def rec(idx: int, used: list[int], values: list[int]):
        nonlocal total
        if idx == len(slots):
            # a zero product ends the term: the ring is a domain, and a series
            # product with no known coefficient carries nothing
            term = tables.unit()
            for v, h in enumerate(graph.genera):
                flags = tuple(values[i] for i, (_, _, w) in enumerate(slots) if w == v)
                term = term * tables.vertex(h, p[v], flags)
                if term.is_zero():
                    return
            for e, (u, v) in enumerate(graph.edges):
                term = term * tables.edge(values[m + 2 * e], values[m + 2 * e + 1], p[u], p[v])
                if term.is_zero():
                    return
            for t in range(m):
                term = term * tables.leg_core(values[t], insertions[t], p[graph.legs[t]])
                if term.is_zero():
                    return
            total = total + term
            return
        _, _, v = slots[idx]
        for val in range(dims[v] - used[v] + 1):
            used[v] += val
            values.append(val)
            rec(idx + 1, used, values)
            values.pop()
            used[v] -= val

    rec(0, [0] * graph.num_vertices, [])
    return total * Fraction(1, dec.aut)


def _graph_sum(tables: ContributionTables, g: int, insertions: tuple[int, ...]):
    """Sum of graph_contribution over the decorated stable graphs of type (g, m)."""
    if 2 * g - 2 + len(insertions) <= 0:
        raise ValueError("unstable potential type")
    if g < 1:
        raise ValueError("the graph sum is used for g >= 1 only")
    core = tables.zero()
    for dec in enumerate_decorated(g, len(insertions), tables.n):
        core = core + graph_contribution(tables, dec, insertions)
    return core


def assemble_F(tables: ContributionTables, g: int, insertions: tuple[int, ...] | list[int]) -> Potential:
    """
    The potential F_{g,m}(phi_{c_1}, ..., phi_{c_m}) as a graph sum.

    Graph contributions are added in enumeration order as they are computed;
    the leg prefactors K_{Inv(c)} / L^{Inv(c)} are kept apart as one monomial.
    """
    insertions = tuple(insertions)
    core = _graph_sum(tables, g, insertions)
    pref = RingElement.scalar(Fraction(1))
    for c in insertions:
        pref = pref * tables.leg_prefactor(c)
    return Potential(g, insertions, pref, core)


def assemble_F_series(tables: ContributionTables, g: int, insertions: tuple[int, ...] | list[int]) -> Series:
    """
    The same graph sum evaluated purely at the series level.

    The shared skeleton runs over :class:`SeriesTables` (never the ring
    lift) and is multiplied by the leg prefactors as series, so agreement
    with the evaluated ring-level potential certifies the whole polynomial
    pipeline independently.
    """
    insertions = tuple(insertions)
    series_tables = SeriesTables(tables.pm)
    total = _graph_sum(series_tables, g, insertions)
    data = tables.data
    for c in insertions:
        cinv = (-c) % tables.n
        total = total * (data.K[cinv] / data.L**cinv)
    return total


def audit_generators(tables: ContributionTables, pot: Potential) -> dict:
    """
    Finite generation audit: the core must use only A-generators (and L
    powers); the prefactor only C-generators; vertex factors only L powers.
    """
    core_gens = pot.core.generators_used()
    pref_gens = pot.prefactor.generators_used()
    vertex_gens = set()
    for val in tables._vertex.values():
        vertex_gens |= val.generators_used()
    return {
        "core_ok": all(g[0] == "A" for g in core_gens),
        "prefactor_ok": all(g[0] == "C" for g in pref_gens),
        "vertex_ok": not vertex_gens,
        "core_gens": sorted(core_gens),
        "prefactor_gens": sorted(pref_gens),
    }
