r"""
Vertex, edge, and leg contributions, and the graph sum as a character sum.

The higher genus potential with m insertions is the decorated graph sum

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

The decorations are summed in closed form.  The lift is graded,
P~^k_{i,p} = sum_w zeta^{wp} E_{k,i,w} with rational E, so every local factor
is a character sum sum_u zeta^{u p} X_u in the decorations it touches, with
rational ring elements X_u, and sum_p zeta^{U.p} = n^V [U = 0] over vectors
U of per-vertex residues.  By Burnside ``assemble_F`` sums over undecorated
stable graphs only, each weighted n^V / Aut(G), reading the all-zero residue
component, with the flags summed edge by edge (:func:`graph_character_sum`).
The work of an edge is hoisted out of its residue loop: it is done once per
pair of states of the edge's ends, and every new state's value is one sum of
products, normalised once (:meth:`~orbigw.ring.RingElement.sum_of_products`).
An edge that closes a vertex is folded with that vertex's factor (vertex and
legs) once per state of the vertex, in the tables
(:meth:`ContributionTables.half_closed`), so every graph and potential of a
verdict shares the fold and the edge itself multiplies nothing.
The decorated sum, which reads every factor at its decorations and visits
every joint flag assignment, is the oracle of this sum and the route of the
series assembly; both live in the test suite (``tests/oracles.py``).

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
from itertools import product

from .graphs import StableGraph, aut_count, enumerate_stable_graphs
from .pmatrix import PMatrixData
from .psi import psi_integral
from .ring import RingElement


@dataclass
class Potential:
    """A potential as (scalar leg prefactor) x (core ring element)."""

    g: int
    insertions: tuple[int, ...]
    prefactor: RingElement  # a single monomial in the C generators and L
    core: RingElement

    def full(self) -> RingElement:
        return self.prefactor * self.core


# A character sum in a decoration p: {u: value} stands for sum_u zeta^{u p} value_u.
Char = dict


def _add_into(out: dict, key, x) -> None:
    out[key] = out[key] + x if key in out else x


def _append(out: dict, key, x) -> None:
    out.setdefault(key, []).append(x)


def _times(a: Char, b: Char, n: int) -> Char:
    """The product of two character sums in the same decoration."""
    out: Char = {}
    for u, x in a.items():
        for v, y in b.items():
            _add_into(out, (u + v) % n, x * y)
    return out


def _scaled(a: Char, c: Fraction) -> Char:
    return {u: x * c for u, x in a.items()}


class ContributionTables:
    """
    The local factors of the graph sum, written once over the graded lift.

    Every factor is a character sum in the decoration p of its vertex, a dict
    ``{u: value}`` standing for sum_u zeta^{u p} value_u (an edge's is keyed
    by the pair (u1, u2) of its end residues).  Entries P~^k_{i,p} are read
    through :meth:`graded` as their rational pieces, so every value is a
    rational ring element and no root of unity enters.  The series oracle of
    the tests overrides :meth:`graded`, :meth:`unit` and :meth:`zero`.
    """

    def __init__(self, pm: PMatrixData):
        self.pm = pm
        self.ctx = pm.ctx
        self.data = pm.data
        self.n = pm.ctx.n
        self.k_max = pm.col.k_max
        self._tails: dict = {}
        self._vertex: dict = {}
        self._closed: dict = {}
        self._half: dict = {}
        self._edge: dict = {}
        self._leg: dict = {}

    def graded(self, k: int, i: int) -> dict[int, RingElement]:
        """The nonzero pieces w of P~^k_{i,j} = sum_w zeta^{wj} graded[(k, i, w)]."""
        pieces = self.pm.graded
        return {w: pieces[(k, i, w)] for w in range(self.n) if pieces[(k, i, w)]}

    def unit(self) -> RingElement:
        return RingElement.scalar(Fraction(1))

    def zero(self) -> RingElement:
        return RingElement.zero()

    def _char(self, k: int, i: int, shift: int) -> Char:
        """P~^k_{i,p} zeta^{-shift p} as a character sum in p."""
        return {(w - shift) % self.n: piece for w, piece in self.graded(k, i).items()}

    # -- local factors ------------------------------------------------------

    def tail(self, i: int) -> Char:
        """T_{p,i}; zero in degrees 0 and 1."""
        if i < 2:
            return {}
        if i > self.k_max:
            raise ValueError(f"tail order {i} exceeds the lifted depth {self.k_max}")
        if i not in self._tails:
            self._tails[i] = _scaled(self._char(i, 0, i), Fraction((-1) ** i, self.n))
        return self._tails[i]

    def vertex(self, h: int, flags: tuple[int, ...]) -> Char:
        """Genus-h vertex with the given flag exponents."""
        key = (h, tuple(sorted(flags)))
        if key in self._vertex:
            return self._vertex[key]
        n = self.n
        v = len(flags)
        dim = 3 * h - 3 + v
        budget = dim - sum(flags)
        total: Char = {}
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
                term = {0: self.unit() * (integral * weight * pairing_power)}
                for r in mult:
                    term = _times(term, self.tail(r), n)
                for u, x in term.items():
                    _add_into(total, u, x)
        self._vertex[key] = total
        return total

    def edge(self, b1: int, b2: int) -> dict:
        """The edge factor, a character sum in both end decorations keyed (u1, u2)."""
        key = (b1, b2)
        if key in self._edge:
            return self._edge[key]
        n = self.n
        if b1 + b2 + 1 > self.k_max:
            raise ValueError("edge needs a deeper lifted table")
        total: dict = {}
        for m in range(0, b2 + 1):
            for r in range(n):
                rinv = (-r) % n
                left = self._char(b1 + m + 1, rinv, b1 + m + 1 + rinv)
                right = self._char(b2 - m, r, b2 - m + r)
                for u1, x in left.items():
                    for u2, y in right.items():
                        _add_into(total, (u1, u2), x * y * Fraction((-1) ** m))
        total = _scaled(total, Fraction((-1) ** (b1 + b2), n))
        self._edge[key] = total
        return total

    def closed_vertex(self, h: int, legs: tuple[int, ...], flags: tuple[int, ...]) -> Char:
        """
        A genus-h vertex with the given edge flags times its legs, whose
        insertions are ``legs``: the leg flags are summed within the room the
        edge flags leave.
        """
        key = (h, legs, flags)
        if key in self._closed:
            return self._closed[key]
        budget = 3 * h - 3 + len(flags) + len(legs) - sum(flags)
        total: Char = {}
        for leg_flags in (f for f in product(range(budget + 1), repeat=len(legs)) if sum(f) <= budget):
            term = self.vertex(h, flags + leg_flags)
            for c, a in zip(legs, leg_flags):
                term = _times(term, self.leg_core(a, c), self.n)
            for u, x in term.items():
                _add_into(total, u, x)
        self._closed[key] = total
        return total

    def half_closed(self, side: int, h: int, legs: tuple[int, ...], flags: tuple[int, ...], r: int, other: int) -> Char:
        """
        The last edge of a genus-h vertex with legs ``legs``, earlier flags
        ``flags`` and residue r, times the vertex's closed factor, summed over
        the vertex's flag on the edge and its residue there: ``{u: value}``
        keyed by the residue u at the other end, whose flag is ``other``.
        ``side`` is the vertex's place in the edge factor's (b1, b2), 0 or 1:
        under custom constants edge(b1, b2) is not the transpose of
        edge(b2, b1).
        """
        key = (side, h, legs, flags, r, other)
        if key in self._half:
            return self._half[key]
        pairs: dict = {}
        # the room 3h - 3 + valence left by the earlier flags; the valence counts this edge
        for b in range(3 * h - 2 + len(flags) + len(legs) - sum(flags) + 1):
            closed = self.closed_vertex(h, legs, tuple(sorted(flags + (b,))))
            for u, y in self.edge(*((b, other) if side == 0 else (other, b))).items():
                z = closed.get((-r - u[side]) % self.n)
                if z is not None:
                    _append(pairs, u[1 - side], (y, z))
        self._half[key] = {u: RingElement.sum_of_products(p) for u, p in pairs.items()}
        return self._half[key]

    def leg_core(self, a: int, c: int) -> Char:
        """Leg factor without the scalar K/L prefactor."""
        key = (a, c)
        if key not in self._leg:
            cinv = (-c) % self.n
            self._leg[key] = _scaled(self._char(a, cinv, a + cinv), Fraction((-1) ** a, self.n))
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


def graph_character_sum(tables: ContributionTables, graph: StableGraph, insertions: tuple[int, ...]) -> RingElement:
    """
    The contribution of one stable graph, summed over its decorations.

    Each factor is a character sum in its decorations, so a flag assignment's
    product is sum_U zeta^{U.p} X_U over vectors U of per-vertex residues, and
    sum_p zeta^{U.p} = n^V [U = 0].  By Burnside the decorated classes, each
    weighted 1/Aut(G, p), add up to the sum over all p divided by Aut(G): the
    graph contributes n^V / Aut(G) times X_0.

    The flags are summed edge by edge, keyed by the sorted flags and the
    residue of each open vertex; a vertex's last edge takes its closed factor
    (:meth:`ContributionTables.closed_vertex`) at the component cancelling
    its residue, and the vertex is forgotten.  An edge's terms depend only on
    the states of its two ends, so they are summed once per pair of end
    states.  An edge that closes one end is read from
    :meth:`ContributionTables.half_closed` at that end's state and relabeled
    onto the other end's new state; one that closes both ends is one sum of
    the half-closed vector against the other end's closed factor.  Open
    edges and loops pair the edge factor with the ends' new states.  Each
    new key sums its (state value, coefficient) products in one
    :meth:`RingElement.sum_of_products`, so it is normalised once.
    """
    n, V = tables.n, graph.num_vertices
    room = [3 * h - 3 + graph.valence(v) for v, h in enumerate(graph.genera)]
    last_edge = {v: e for e, edge in enumerate(graph.edges) for v in edge}
    legs = [tuple(sorted(c for c, w in zip(insertions, graph.legs) if w == v)) for v in range(V)]
    blank = ((), 0)
    unit = tables.unit()

    def ends(v: int, e: int, old: tuple[int, ...], r: int, values: tuple[int, ...]) -> dict:
        """
        {u: (new end, closed factor or None)}: vertex v, at flags ``old`` and
        residue r, takes the values of edge e with residues adding to u; where
        e closes v, only the u its closed factor cancels remain.
        """
        flags = tuple(sorted(old + values))
        if last_edge[v] != e:
            return {u: ((flags, (r + u) % n), None) for u in range(n)}
        closed = tables.closed_vertex(graph.genera[v], legs[v], flags)
        return {u: (blank, z) for u in range(n) if (z := closed.get((-r - u) % n)) is not None}

    def contract(e: int, a: int, b: int, end_a: tuple, end_b: tuple) -> dict:
        """{(new end a, new end b): coefficient} of edge e from ends a and b in the given states."""
        (fa, ra), (fb, rb) = end_a, end_b
        left, right = room[a] - sum(fa), room[b] - sum(fb)
        terms: dict = {}
        if a == b:
            # a loop takes both of its flags at its one vertex
            for b1 in range(left + 1):
                for b2 in range(left - b1 + 1):
                    at = ends(a, e, fa, ra, (b1, b2))
                    for (u1, u2), y in tables.edge(b1, b2).items():
                        hit = at.get((u1 + u2) % n)
                        if hit is not None:
                            end, z = hit
                            _append(terms, (end, end), (y, unit if z is None else z))
        elif e in (last_edge[a], last_edge[b]):
            # the closing end v is folded into the edge, once per state of v
            side = 0 if last_edge[a] == e else 1
            v, w = (a, b) if side == 0 else (b, a)
            (fv, rv), (fw, rw) = (end_a, end_b) if side == 0 else (end_b, end_a)
            for other in range(room[w] - sum(fw) + 1):
                at = ends(w, e, fw, rw, (other,))
                for u, y in tables.half_closed(side, graph.genera[v], legs[v], fv, rv, other).items():
                    hit = at.get(u)
                    if hit is not None:
                        end, z = hit
                        _append(terms, (blank, end) if side == 0 else (end, blank), (y, unit if z is None else z))
        else:
            at_b = [ends(b, e, fb, rb, (b2,)) for b2 in range(right + 1)]
            for b1 in range(left + 1):
                at_a = ends(a, e, fa, ra, (b1,))
                for b2, at in enumerate(at_b):
                    for (u1, u2), y in tables.edge(b1, b2).items():
                        _append(terms, (at_a[u1][0], at[u2][0]), (y, unit))
        return {new: RingElement.sum_of_products(pairs) for new, pairs in terms.items()}

    # the edgeless one-vertex graph is closed from the start
    start = unit if graph.edges else tables.closed_vertex(graph.genera[0], legs[0], ()).get(0, tables.zero())
    state = {(blank,) * V: start}
    for e, (a, b) in enumerate(graph.edges):
        coefficients: dict = {}
        grown: dict = {}
        for key, x in state.items():
            ab = (key[a], key[b])
            if ab not in coefficients:
                coefficients[ab] = contract(e, a, b, *ab)
            for (new_a, new_b), c in coefficients[ab].items():
                new = list(key)
                new[a], new[b] = new_a, new_b
                _append(grown, tuple(new), (x, c))
        # a key whose sum cancels is dropped
        state = {new: value for new, pairs in grown.items() if (value := RingElement.sum_of_products(pairs))}
    return state.get((blank,) * V, tables.zero()) * Fraction(n**V, aut_count(graph))


def _check_type(g: int, insertions: tuple[int, ...]) -> None:
    if 2 * g - 2 + len(insertions) <= 0:
        raise ValueError("unstable potential type")
    if g < 1:
        raise ValueError("the graph sum is used for g >= 1 only")


def assemble_F(tables: ContributionTables, g: int, insertions: tuple[int, ...] | list[int]) -> Potential:
    """
    The potential F_{g,m}(phi_{c_1}, ..., phi_{c_m}) as a graph sum.

    The sum runs over undecorated stable graphs in enumeration order, each
    through the character sum of :func:`graph_character_sum`; the leg prefactors
    K_{Inv(c)} / L^{Inv(c)} are kept apart as one monomial.
    """
    insertions = tuple(insertions)
    _check_type(g, insertions)
    core = tables.zero()
    for graph in enumerate_stable_graphs(g, len(insertions)):
        core = core + graph_character_sum(tables, graph, insertions)
    pref = RingElement.scalar(Fraction(1))
    for c in insertions:
        pref = pref * tables.leg_prefactor(c)
    return Potential(g, insertions, pref, core)


def audit_generators(tables: ContributionTables, pot: Potential) -> dict:
    """
    Finite generation audit: the core must use only A-generators (and L
    powers); the prefactor only C-generators; every component of every vertex
    factor only L powers.
    """
    core_gens = pot.core.generators_used()
    pref_gens = pot.prefactor.generators_used()
    vertex_gens = set()
    for char in tables._vertex.values():
        for val in char.values():
            vertex_gens |= val.generators_used()
    return {
        "core_ok": all(g[0] == "A" for g in core_gens),
        "prefactor_ok": all(g[0] == "C" for g in pref_gens),
        "vertex_ok": not vertex_gens,
        "core_gens": sorted(core_gens),
        "prefactor_gens": sorted(pref_gens),
    }
