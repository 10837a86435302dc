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
  contributes E(b1, b2) = ((-1)^{b1+b2} / n) B(b1 + 1, b2) - E(b1 + 1, b2 - 1),
  E(b, -1) = 0, over the pairing B(c, d) = sum_r S(c, Inv(r))_{p1} S(d, r)_{p2}
  of the shifted entries S(k, i) = P~^k_{i,p} zeta^{-(k+i)p}, which the
  unitarity check reads too (:func:`~orbigw.pmatrix.pairing`);
* a leg with insertion index c and flag a contributes
  ((-1)^a / n) K_{Inv(c)} / L^{Inv(c)} P~^a_{Inv(c),p} zeta^{-(a+Inv(c))p}.

The decorations are summed in closed form.  The lift is graded,
P~^k_{i,p} = sum_w zeta^{wp} E_{k,i,w} with rational E, so every local factor
is a character sum sum_u zeta^{u p} X_u in the decorations it touches, with
rational ring elements X_u, and sum_p zeta^{U.p} = n^V [U = 0] over vectors
U of per-vertex residues.  By Burnside ``assemble_F`` sums over undecorated
stable graphs only, each weighted n^V / Aut(G), reading the all-zero residue
component, with the flags summed edge by edge (:func:`graph_character_sum`).
Every constants policy gives a unitary column (:mod:`orbigw.pmatrix`), so
each edge factor is symmetric in its ends and a graph's value does not
depend on the vertex order of its representative.  Legs of equal insertion
are then one colour, and the graphs that differ only by permuting them are
one class, summed once with weight n^V prod_c k_c! / Aut(G)
(:mod:`orbigw.graphs`).

What the graphs share lives in :class:`ContributionTables`.  The local
factors (a vertex factor combines products of tails, each product formed
once), and the fold of a vertex's last edge with the vertex's factor
(vertex and legs) once per state of the vertex
(:meth:`ContributionTables.half_closed`), are shared by every graph and
potential of a verdict, so a closing edge multiplies nothing itself.  One
edge step from its two end states (:meth:`ContributionTables.step`) depends
only on the ends' local data, so it is computed once per potential and
shared by its graphs; a step's terms that reach one state are one sum of
products, normalised once (:meth:`~orbigw.ring.RingElement.sum_of_products`),
and so is every new state of a graph.  The state after a prefix of edges
depends only on the prefix, so a potential's graphs are walked depth first,
sorted by their edge steps, and each prefix they share is contracted once
(:func:`_walk`); every graph keeps its own vertex labels and edge order.
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

from .graphs import StableGraph, aut_count, enumerate_stable_graphs, leg_permutations
from .pmatrix import PMatrixData, pairing
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


# the state of a vertex before its first edge and after its last: no flags, residue 0
_BLANK = ((), 0)


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


class ContributionTables:
    """
    The local factors of the graph sum, written once over the graded lift.

    Every factor is a character sum in the decoration p of its vertex, a dict
    ``{u: value}`` standing for sum_u zeta^{u p} value_u (an edge's is keyed
    by the pair (u1, u2) of its end residues).  Entries P~^k_{i,p} are read
    through one shifted entry (:meth:`_char`) over their rational pieces
    (:meth:`graded`), so every value is a rational ring element and no root
    of unity enters.  The series oracle of the tests overrides
    :meth:`graded`, :meth:`unit` and :meth:`zero`.

    The factors are cached for the life of the tables, so every potential of
    a verdict shares them; the edge steps (:meth:`step`) are cached for one
    potential only.
    """

    def __init__(self, pm: PMatrixData):
        self.pm = pm
        self.ctx = pm.ctx
        self.data = pm.data
        self.n = pm.ctx.n
        self.k_max = pm.col.k_max
        self._products: dict = {}
        self._vertex: dict = {}
        self._closed: dict = {}
        self._half: dict = {}
        self._steps: dict = {}
        self._states: dict = {}
        self._one = self.unit()
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

    def _char(self, k: int, i: int) -> Char:
        """S(k, i) = P~^k_{i,p} zeta^{-(k+i)p} in p, the lift as every factor reads it; too deep raises."""
        if k > self.k_max:
            raise ValueError(f"order {k} exceeds the lifted depth {self.k_max}")
        return {(w - k - i) % self.n: piece for w, piece in self.graded(k, i).items()}

    # -- local factors ------------------------------------------------------

    def _tail_product(self, mult: tuple[int, ...]) -> Char:
        """prod_{r in mult} T_{p,r} (= leg_core(r, 0)) over a sorted multiset, grown from mult[:-1]'s."""
        if mult not in self._products:
            if not mult:
                self._products[mult] = {0: self._one}
            else:
                self._products[mult] = _times(self._tail_product(mult[:-1]), self.leg_core(mult[-1], 0), self.n)
        return self._products[mult]

    def vertex(self, h: int, flags: tuple[int, ...]) -> Char:
        """
        Genus-h vertex with the given flag exponents: a combination of the
        tail products (:meth:`_tail_product`), shared by every vertex, each
        scaled by its psi integral, multiset weight and pairing power.
        """
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
            # every multiset is summed: a tail deeper than the lifted table
            # raises in _char rather than vanishing from the sum
            for mult in _multisets(target, k):
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
                scalar = integral * weight * pairing_power
                for u, x in self._tail_product(mult).items():
                    _add_into(total, u, x * scalar)
        self._vertex[key] = total
        return total

    def edge(self, b1: int, b2: int) -> dict:
        """
        The edge factor keyed (u1, u2), zero entries dropped, by the recurrence
        E(b1, b2) = ((-1)^{b1+b2} / n) B(b1 + 1, b2) - E(b1 + 1, b2 - 1), E(b, -1) = 0,
        over the pairing B (:func:`~orbigw.pmatrix.pairing`); it reads orders up to b1 + b2 + 1.
        """
        if b2 < 0:
            return {}
        if (b1, b2) not in self._edge:
            total = {ab: -x for ab, x in self.edge(b1 + 1, b2 - 1).items()}
            sign = Fraction((-1) ** (b1 + b2), self.n)
            for ab, pairs in pairing(self._char, self.n, b1 + 1, b2).items():
                _add_into(total, ab, sum((x * y for x, y in pairs), self.zero()) * sign)
            self._edge[(b1, b2)] = {ab: x for ab, x in total.items() if x}
        return self._edge[(b1, b2)]

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

    def half_closed(self, h: int, legs: tuple[int, ...], flags: tuple[int, ...], r: int, other: int) -> Char:
        """
        The last edge of a genus-h vertex with legs ``legs``, earlier flags
        ``flags`` and residue r, times the vertex's closed factor, summed over
        the vertex's flag b on the edge and its residue there: ``{u: value}``
        keyed by the residue u at the other end, whose flag is ``other``.  The
        vertex is the edge factor's first end, edge(b, other); the factor is
        symmetric in its ends, so that is either end.
        """
        key = (h, legs, flags, r, other)
        if key in self._half:
            return self._half[key]
        pairs: dict = {}
        # the room 3h - 3 + valence left by the earlier flags; the valence counts this edge
        for b in range(3 * h - 2 + len(flags) + len(legs) - sum(flags) + 1):
            closed = self.closed_vertex(h, legs, tuple(sorted(flags + (b,))))
            for (u1, u2), y in self.edge(b, other).items():
                z = closed.get((-r - u1) % self.n)
                if z is not None:
                    _append(pairs, u2, (y, z))
        self._half[key] = {u: RingElement.sum_of_products(p) for u, p in pairs.items()}
        return self._half[key]

    def _grown(self, end: tuple, state: tuple, values: tuple[int, ...]) -> dict:
        """
        {u: (new state, closed factor or None)}: an end (see :meth:`step`) in
        ``state`` takes its edge's flag values with residues adding to u;
        where the edge closes the end, only the u its closed factor cancels
        remain.
        """
        (closes, h, legs, _), (old, r) = end, state
        n, states = self.n, self._states
        flags = tuple(sorted(old + values))
        if not closes:
            # one instance per state, so that the cached steps share them
            return {u: (states.setdefault(new := (flags, (r + u) % n), new), None) for u in range(n)}
        closed = self.closed_vertex(h, legs, flags)
        return {u: (_BLANK, z) for u in range(n) if (z := closed.get((-r - u) % n)) is not None}

    def step(self, edge: tuple, state_a: tuple, state_b: tuple) -> list | tuple:
        """
        One edge of the graph sum from ends a and b in given states: the
        triples (new state a, new state b, coefficient), with the edge
        factor's (b1, b2) at (a, b).  ``edge`` is (loop, end a, end b), and an
        end is (closes, h, legs, room): whether the edge is the vertex's last,
        its genus, its leg insertions and its room 3h - 3 + valence; a state
        is (sorted earlier flags, residue).  A loop's two ends are its one
        vertex.  If only one end closes, it is end a
        (:func:`_steps` orients the edge so).

        An open edge pairs the edge factor with both ends' new states: it
        multiplies nothing, and its triples, one per entry of every edge
        factor in reach, would be most of a cache, so they are built afresh.
        A loop takes both of its flags at its vertex.  An edge that closes
        end a is read from :meth:`half_closed` at a's state and relabeled onto
        b's new state; if it closes b too, each term is the half-closed value
        against b's closed factor.  These steps sum products and depend on the
        key alone, so every graph of a potential reuses them;
        :func:`_walk` drops them after its graphs.
        """
        n = self.n
        loop, end_a, end_b = edge
        left = end_a[3] - sum(state_a[0])
        if not (loop or end_a[0] or end_b[0]):
            # both ends take a state of their own for each (b1, u1, b2, u2)
            out = []
            at_b = [self._grown(end_b, state_b, (b2,)) for b2 in range(end_b[3] - sum(state_b[0]) + 1)]
            for b1 in range(left + 1):
                at_a = self._grown(end_a, state_a, (b1,))
                for b2, at in enumerate(at_b):
                    out.extend((at_a[u1][0], at[u2][0], y) for (u1, u2), y in self.edge(b1, b2).items())
            return out
        key = (edge, state_a, state_b)
        if key in self._steps:
            return self._steps[key]
        if loop:
            # flags (b1, b2) and (b2, b1) reach one state, so its terms are summed
            terms: dict = {}
            for b1 in range(left + 1):
                for b2 in range(left - b1 + 1):
                    at = self._grown(end_a, state_a, (b1, b2))
                    for (u1, u2), y in self.edge(b1, b2).items():
                        hit = at.get((u1 + u2) % n)
                        if hit is not None:
                            end, z = hit
                            _append(terms, end, (y, self._one if z is None else z))
            out = [(end, end, RingElement.sum_of_products(pairs)) for end, pairs in terms.items()]
        else:
            # the closing end a is folded into the edge, once per state of a
            (_, h, legs, _), (fa, ra) = end_a, state_a
            out, pairs = [], []
            for other in range(end_b[3] - sum(state_b[0]) + 1):
                at = self._grown(end_b, state_b, (other,))
                for u, y in self.half_closed(h, legs, fa, ra, other).items():
                    hit = at.get(u)
                    if hit is None:
                        continue
                    end, z = hit
                    if z is None:
                        # an open end b takes a state of its own for each (other, u)
                        out.append((_BLANK, end, y))
                    else:
                        pairs.append((y, z))
            if pairs:
                # an edge that closes both ends leaves both blank
                out.append((_BLANK, _BLANK, RingElement.sum_of_products(pairs)))
        self._steps[key] = tuple(out)
        return self._steps[key]

    def leg_core(self, a: int, c: int) -> Char:
        """Leg factor without the scalar K/L prefactor."""
        key = (a, c)
        if key not in self._leg:
            cinv = (-c) % self.n
            self._leg[key] = {u: x * Fraction((-1) ** a, self.n) for u, x in self._char(a, cinv).items()}
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


def _multisets(total: int, k: int):
    """Nondecreasing k-tuples of integers >= 2 with the given sum."""
    if k == 0:
        if total == 0:
            yield ()
        return

    def rec(rem: int, slots: int, lo: int):
        if slots == 1:
            if lo <= rem:
                yield (rem,)
            return
        for first in range(lo, rem - 2 * (slots - 1) + 1):
            for rest in rec(rem - first, slots - 1, first):
                yield (first,) + rest

    yield from rec(total, k, 2)


def _steps(graph: StableGraph, insertions: tuple[int, ...], interned: dict) -> tuple:
    """
    The edges of ``graph`` in its own order, as steps (a, b, edge) of the
    graph sum: ``edge`` is (loop, end a, end b) as :meth:`ContributionTables.step`
    reads it, and an edge that closes one end only is oriented with that end
    first, which the symmetric edge factor allows.  ``interned`` keeps one
    instance of each equal step: a potential's sequences are all held at
    once, so sharing the steps keeps them small, and equal steps are then
    identical.
    """
    last_edge = {v: e for e, edge in enumerate(graph.edges) for v in edge}
    # (genus, leg insertions, room 3h - 3 + valence) of each vertex
    local = [
        (h, tuple(sorted(c for c, w in zip(insertions, graph.legs) if w == v)), 3 * h - 3 + graph.valence(v))
        for v, h in enumerate(graph.genera)
    ]
    out = []
    for e, (a, b) in enumerate(graph.edges):
        if last_edge[b] == e != last_edge[a]:
            a, b = b, a
        step = (a, b, (a == b, (last_edge[a] == e,) + local[a], (last_edge[b] == e,) + local[b]))
        out.append(interned.setdefault(step, step))
    return tuple(out)


def _contract(tables: ContributionTables, state: dict, step: tuple) -> dict:
    """
    The states after one more edge.  ``state`` maps each key, the states of
    the graph's vertices, to its value; the edge's terms come from
    :meth:`ContributionTables.step` at the states of its two ends, read once
    per pair of end states, and each new key sums its (state value,
    coefficient) products in one :meth:`RingElement.sum_of_products`, so it
    is normalised once.
    """
    a, b, edge = step
    steps: dict = {}
    grown: dict = {}
    for key, x in state.items():
        ab = (key[a], key[b])
        if ab not in steps:
            steps[ab] = tables.step(edge, *ab)
        for new_a, new_b, c in steps[ab]:
            new = list(key)
            new[a], new[b] = new_a, new_b
            _append(grown, tuple(new), (x, c))
    # a key whose sum cancels is dropped
    return {new: value for new, pairs in grown.items() if (value := RingElement.sum_of_products(pairs))}


def _walk(tables: ContributionTables, graphs, insertions: tuple[int, ...]) -> RingElement:
    """
    The graph sum over ``graphs``, walked depth first so that each distinct
    prefix of steps (:func:`_steps`) is contracted once.

    A state key holds one state per vertex of the largest graph, blank where
    no step reaches, so the state after a prefix of edges depends on the
    prefix alone.  The graphs are sorted by their steps and a stack keeps
    the state after each edge of the previous graph: a graph pops back to
    the prefix it shares with that graph and contracts only the rest
    (:func:`_contract`).  No vertex is relabeled and no edge reordered, so
    each graph's value is the one its own edge order gives.  At the end of a
    graph the all-blank key is its X_0, weighted n^V prod_c k_c! / Aut(G)
    (:func:`graph_character_sum`).  The edge steps and their interned states
    serve these graphs only and are dropped after them.
    """
    n = tables.n
    interned: dict = {}
    walks = []
    for graph in graphs:
        if graph.colours is not None and len(set(zip(graph.colours, insertions))) != len(set(graph.colours)):
            raise ValueError(f"legs of one colour carry different insertions {insertions}")
        walks.append((_steps(graph, insertions, interned), graph))
    walks.sort(key=lambda walk: walk[0])
    blank = (_BLANK,) * max((graph.num_vertices for _, graph in walks), default=0)
    total = tables.zero()
    stack, previous = [{blank: tables.unit()}], ()
    for steps, graph in walks:
        if not steps:
            # the edgeless one-vertex graph is closed from the start
            value = tables.closed_vertex(graph.genera[0], tuple(sorted(insertions)), ()).get(0, tables.zero())
        else:
            shared = 0
            # equal steps are one instance
            for x, y in zip(previous, steps):
                if x is not y:
                    break
                shared += 1
            del stack[shared + 1 :]
            for step in steps[shared:]:
                stack.append(_contract(tables, stack[-1], step))
            previous = steps
            value = stack[-1].get(blank, tables.zero())
        total = total + value * Fraction(n**graph.num_vertices * leg_permutations(graph), aut_count(graph))
    tables._steps.clear()
    tables._states.clear()
    return total


def graph_character_sum(tables: ContributionTables, graph: StableGraph, insertions: tuple[int, ...]) -> RingElement:
    """
    The contribution of one stable graph, summed over its decorations: the
    walk (:func:`_walk`) over this graph alone.

    Each factor is a character sum in its decorations, so a flag assignment's
    product is sum_U zeta^{U.p} X_U over vectors U of per-vertex residues, and
    sum_p zeta^{U.p} = n^V [U = 0].  By Burnside the decorated classes, each
    weighted 1/Aut(G, p), add up to the sum over all p divided by Aut(G): the
    graph contributes n^V / Aut(G) times X_0.  A graph whose legs share
    colours stands for prod_c k_c! labelings
    (:func:`~orbigw.graphs.leg_permutations`), all with the same X_0, as the
    edge factors are symmetric in their ends, so it is weighted n^V prod_c
    k_c! / Aut(G); legs of one colour must carry one insertion.

    The flags are summed edge by edge in the graph's edge order, keyed by the
    sorted flags and the residue of each open vertex; a vertex's last edge
    takes its closed factor at the component cancelling its residue, and the
    vertex is forgotten.
    """
    return _walk(tables, (graph,), insertions)


def _check_type(g: int, insertions: tuple[int, ...]) -> None:
    if 2 * g - 2 + len(insertions) <= 0:
        raise ValueError("unstable potential type")
    if g < 1:
        raise ValueError("the graph sum is used for g >= 1 only")


def assemble_F(tables: ContributionTables, g: int, insertions: tuple[int, ...] | list[int]) -> Potential:
    """
    The potential F_{g,m}(phi_{c_1}, ..., phi_{c_m}) as a graph sum.

    The sum runs over undecorated stable graphs, each through the character
    sum of :func:`graph_character_sum`, in one depth-first walk
    (:func:`_walk`) that contracts each prefix of edges the graphs share
    once; the leg prefactors K_{Inv(c)} / L^{Inv(c)} are kept apart as one
    monomial.  The legs are coloured by insertion value, so the graphs that
    differ only by permuting equal insertions are one class, summed once.
    The insertions (each in 0..n-1) and the type are checked before any
    graph is enumerated.
    """
    insertions = tuple(insertions)
    for c in insertions:
        if not 0 <= c < tables.n:
            raise ValueError(f"insertion index {c} is outside 0..{tables.n - 1}")
    _check_type(g, insertions)
    core = _walk(tables, enumerate_stable_graphs(g, len(insertions), insertions), insertions)
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
