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
component, with the flags summed edge by edge (:func:`_walk_grades`).  The
legs of a graph are labeled, so equal insertions sit on distinct legs and
every labeled class is summed (:mod:`orbigw.graphs`).

The legged potentials F_{g,1} and F_{g,2} of genus g >= 2 are summed over
the leg-free graphs (:func:`assemble_potentials`).  Forgetting the legs of a
(g, m) stable graph and stabilising gives a (g, 0) stable graph, so every
(g, m) graph is a (g, 0) graph with its legs placed: at a vertex; on a
genus-0 vertex that splits an edge, with one leg or both; one each on two
such vertices, in either order; or both on a genus-0 vertex hung by a new
edge from a vertex, or from a genus-0 vertex that splits an edge.  By orbit
counting, the placements on a representative, weighted n^V / Aut(G0), sum to
the (g, m) classes weighted 1 / Aut, provided a graph's value does not
depend on the vertex order of its representative.  Every constants policy
gives a unitary column (:mod:`orbigw.pmatrix`), so where the lift is
unitary (n <= 5) each edge factor is symmetric in its ends and that holds.
The walk carries the legs still to be placed as a grade in its state keys
(:meth:`ContributionTables.step`), a placement is a cached dressed factor
(:meth:`ContributionTables.pendant`, :meth:`ContributionTables.dressed`) in
which each new vertex brings its factor and an n from its decoration sum,
and one walk over the (g, 0) graphs gives F_{g,2} and both F_{g,1}.  The independence is checked, not assumed:
the route is taken only when every edge factor the walk reads is symmetric,
compared exactly in the ring (:meth:`ContributionTables.symmetric`).  The
n >= 6 lifts fail that check, and their legged potentials are walked over
the labeled (g, m) graphs, as are those of genus 1, whose (1, 0) graphs are
not stable, and those of more than two legs.

What the graphs share lives in :class:`ContributionTables`, each value
memoized by its arguments for the lifetime its method declares
(:func:`_cached`).  The local factors (a vertex factor combines products of
tails, each product formed once) last as long as the tables, so every graph
and potential of a verdict shares them.  What the graphs of one walk share
lasts that walk: the fold of a vertex's last edge with the vertex's factor
(vertex and legs), once per state of the vertex
(:meth:`ContributionTables._folds`), so that a closing edge multiplies
nothing itself; and each step of a loop or of an edge that closes an end
(:meth:`ContributionTables.step`), which depends only on the ends' local
data, their states and the grade.  The step of an edge that closes neither
end multiplies nothing and is built afresh.  A step's terms that reach one
state are one sum of products, normalised once
(:meth:`~orbigw.ring.RingElement.sum_of_products`), and so is every new
state of a graph.  The state after a prefix of edges
depends only on the prefix, so a potential's graphs are walked depth first,
sorted by their edge steps, and each prefix they share is contracted once
(:func:`_walk_grades`); every graph keeps its own vertex labels and edge
order.
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

from collections import Counter
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import product
from math import comb

from .graphs import StableGraph, aut_count, enumerate_stable_graphs
from .pmatrix import PMatrixData, pairing
from .psi import psi_integral
from .ring import RingElement


class Potential:
    """A potential as (scalar leg prefactor) x (core ring element)."""

    __slots__ = ("g", "insertions", "prefactor", "core")

    def __init__(self, g: int, insertions: tuple[int, ...], prefactor: RingElement, core: RingElement):
        self.g = g
        self.insertions = insertions
        self.prefactor = prefactor  # a single monomial in the C generators and L
        self.core = core

    def full(self) -> RingElement:
        return self.prefactor * self.core


# A character sum in a decoration p: {u: value} stands for sum_u zeta^{u p} value_u.
Char = dict


# the state of a vertex before its first edge and after its last: no flags, residue 0
_BLANK = ((), 0)
# the grade of a walk without legs to place: none left, none free (ContributionTables.step)
_NO_LEGS = ((), 0)


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


# each memoized method of ContributionTables by name: whether its memo lasts one walk only
_PER_WALK: dict[str, bool] = {}
_MISSING = object()


def _cached(*, per_walk: bool):
    """
    Memoize a method of :class:`ContributionTables` by its positional
    arguments, in the tables' ``_memo[name]``, and register its lifetime:
    :func:`_walk_grades` empties a per-walk memo after its graphs, and the
    other memos last as long as the tables.
    """

    def memoize(method):
        name = method.__name__
        _PER_WALK[name] = per_walk

        @wraps(method)
        def cached(self, *args):
            memo = self._memo[name]
            value = memo.get(args, _MISSING)
            if value is _MISSING:
                value = memo[args] = method(self, *args)
            return value

        return cached

    return memoize


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

    Each memoized method declares its lifetime where it is defined
    (:func:`_cached`), and every value is kept by its arguments in one memo,
    ``_memo[name]``.  The local factors and what they are built from (the
    tail products, vertex, edge, leg, closed vertex, pendant and dressed
    factors) and the symmetry check last as long as the tables, so every
    potential of a verdict shares them.  What one walk's graphs share, the
    edge steps that sum products (:meth:`step`) and the folds, closings,
    dressings and loops they read, lasts one walk, as does the interning of
    its states (:meth:`_opened`).
    """

    def __init__(self, pm: PMatrixData):
        self.pm = pm
        self.ctx = pm.ctx
        self.data = pm.data
        self.n = pm.ctx.n
        self.k_max = pm.col.k_max
        self._memo: dict[str, dict] = {name: {} for name in _PER_WALK}
        self._states: dict = {}
        self._one = self.unit()
        self._vertex_gens: set = set()  # the generators of the first _vertex_read vertex factors
        self._vertex_read = 0

    def vertex_generators(self) -> set:
        """
        The generators the vertex factors built so far use.  Factors are only
        ever added, so each is decoded once however often an audit asks.
        """
        vertices = self._memo["vertex"]
        for char in list(vertices.values())[self._vertex_read :]:
            for val in char.values():
                self._vertex_gens |= val.generators_used()
        self._vertex_read = len(vertices)
        return self._vertex_gens

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

    @_cached(per_walk=False)
    def _tail_product(self, mult: tuple[int, ...]) -> Char:
        """prod_{r in mult} T_{p,r} (= leg_core(r, 0)) over a sorted multiset, grown from mult[:-1]'s."""
        if not mult:
            return {0: self._one}
        return _times(self._tail_product(mult[:-1]), self.leg_core(mult[-1], 0), self.n)

    @_cached(per_walk=False)
    def vertex(self, h: int, flags: tuple[int, ...]) -> Char:
        """
        Genus-h vertex with the given flag exponents (memoized as given, so
        callers sort them): a combination of the tail products
        (:meth:`_tail_product`), shared by every vertex, each scaled by its
        psi integral, multiset weight and pairing power.
        """
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
        return total

    @_cached(per_walk=False)
    def edge(self, b1: int, b2: int) -> dict:
        """
        The edge factor keyed (u1, u2), zero entries dropped, by the recurrence
        E(b1, b2) = ((-1)^{b1+b2} / n) B(b1 + 1, b2) - E(b1 + 1, b2 - 1), E(b, -1) = 0,
        over the pairing B (:func:`~orbigw.pmatrix.pairing`); it reads orders up to b1 + b2 + 1.
        """
        if b2 < 0:
            return {}
        total = {ab: -x for ab, x in self.edge(b1 + 1, b2 - 1).items()}
        sign = Fraction((-1) ** (b1 + b2), self.n)
        for ab, pairs in pairing(self._char, self.n, b1 + 1, b2).items():
            _add_into(total, ab, sum((x * y for x, y in pairs), self.zero()) * sign)
        return {ab: x for ab, x in total.items() if x}

    @_cached(per_walk=False)
    def closed_vertex(self, h: int, legs: tuple, flags: tuple[int, ...]) -> Char:
        """
        A genus-h vertex with the given edge flags times its legs: the leg
        flags are summed within the room the edge flags leave.  A leg is its
        insertion, or a pair of insertions for a genus-0 vertex carrying both,
        hung from this one by an edge (:meth:`pendant`).
        """
        budget = 3 * h - 3 + len(flags) + len(legs) - sum(flags)
        total: Char = {}
        for leg_flags in (f for f in product(range(budget + 1), repeat=len(legs)) if sum(f) <= budget):
            term = self.vertex(h, tuple(sorted(flags + leg_flags)))
            if term and legs:
                term = _times(term, self._legs(legs, leg_flags), self.n)
            for u, x in term.items():
                _add_into(total, u, x)
        return total

    @_cached(per_walk=False)
    def _legs(self, legs: tuple, flags: tuple[int, ...]) -> Char:
        """The product of the factors of ``legs`` at ``flags``, as :meth:`closed_vertex` reads them."""
        (c, *others), (a, *more) = legs, flags
        one = self.leg_core(a, c) if type(c) is int else self.pendant(a, c)
        return _times(one, self._legs(tuple(others), tuple(more)), self.n) if others else one

    @_cached(per_walk=False)
    def pendant(self, a: int, pair: tuple[int, int]) -> Char:
        """
        A genus-0 vertex carrying the legs ``pair``, hung by an edge whose flag
        at the other end is a: ``{u: value}`` keyed by the residue u at the
        other end.  The new vertex has room 0, so its flags are 0; its factor
        and its decoration sum each give n, and its residue cancels.
        """
        closed = self.closed_vertex(0, pair, (0,))
        pairs: dict = {}
        for (u, r), y in self.edge(a, 0).items():
            z = closed.get(-r % self.n)
            if z is not None:
                _append(pairs, u, (y, z))
        values = ((u, RingElement.sum_of_products(p)) for u, p in pairs.items())
        return {u: x * self.n for u, x in values if x}

    @_cached(per_walk=False)
    def dressed(self, b1: int, b2: int, chain: tuple) -> dict:
        """
        The edge factor E(b1, b2), keyed (u1, u2) like the edge, with its edge
        split by genus-0 vertices that carry legs: ``chain`` lists each new
        vertex's legs, as :meth:`closed_vertex` takes them, from the first end
        on.  A new vertex's flags are summed within its room, its residue
        cancels, and its decoration sum gives n.  The empty chain is the edge
        factor.
        """
        if not chain:
            return self.edge(b1, b2)
        n = self.n
        # the new vertex nearest the second end, of valence len(legs) + 2
        *nearer, legs = chain
        room = len(legs) - 1
        terms: dict = {}
        for x1 in range(room + 1):
            for x2 in range(room - x1 + 1):
                mid = self._split(b1, tuple(nearer), legs, x1, x2)
                for (r2, u2), w in self.edge(x2, b2).items():
                    for u1 in range(n):
                        y = mid.get((u1, r2))
                        if y is not None:
                            _append(terms, (u1, u2), (y, w))
        values = ((ab, RingElement.sum_of_products(p)) for ab, p in terms.items())
        return {ab: x * n for ab, x in values if x}

    @_cached(per_walk=False)
    def _split(self, b1: int, nearer: tuple, legs: tuple, x1: int, x2: int) -> dict:
        """
        The dressed edge of ``nearer`` from flag b1 to flag x1 at a new genus-0
        vertex with legs ``legs`` and flag x2 on its other side, times that
        vertex: keyed (u1, r2) by the residue r2 the rest of the edge must
        bring, so that the vertex's residue cancels.  Shared by every flag at
        the edge's second end.
        """
        n = self.n
        closed = self.closed_vertex(0, legs, tuple(sorted((x1, x2))))
        mid: dict = {}
        for (u1, r1), y in self.dressed(b1, x1, nearer).items():
            for t, z in closed.items():
                _append(mid, (u1, (-r1 - t) % n), (y, z))
        return {ur: RingElement.sum_of_products(p) for ur, p in mid.items()}

    @_cached(per_walk=True)
    def dressing(self, b1: int, b2: int, rest: tuple, left: tuple) -> dict:
        """
        The edge factor E(b1, b2) with each way legs of ``rest`` sit on its
        edge and leave the legs ``left`` (:func:`_chains`, :meth:`dressed`),
        times the labelings it stands for, summed.  Without legs it is the
        edge factor.
        """
        if not rest:
            return self.edge(b1, b2)
        terms: dict = {}
        for chain, _, mult, after in _chains(rest):
            if after == left:
                for ab, x in self.dressed(b1, b2, chain).items():
                    _append(terms, ab, (x, mult))
        return {ab: x for ab, pairs in terms.items() if (x := _scaled_sum(pairs))}

    @_cached(per_walk=True)
    def _looped(self, b1: int, b2: int, rest: tuple, left: tuple) -> Char:
        """
        ``{u: value}``: the edge factor of a loop with flags b1 and b2 at its
        vertex, dressed as :meth:`dressing` dresses it, summed over both
        orders of the flags and over the residue pairs adding to u, since a
        loop reads its flags and residues only through their multiset and
        sum.
        """
        pairs: dict = {}
        for x1, x2 in ((b1, b2), (b2, b1)) if b1 != b2 else ((b1, b2),):
            for (u1, u2), y in self.dressing(x1, x2, rest, left).items():
                _append(pairs, (u1 + u2) % self.n, (y, self._one))
        return {u: x for u, p in pairs.items() if (x := RingElement.sum_of_products(p))}

    @_cached(per_walk=False)
    def symmetric(self, depth: int) -> bool:
        """
        Whether E(b1, b2)[u1, u2] = E(b2, b1)[u2, u1] for every b1 + b2 <= depth,
        compared exactly in the ring: then a graph's value does not depend on
        the vertex order of its representative.
        """
        return all(
            self.edge(b1, b2) == {(u2, u1): x for (u1, u2), x in self.edge(b2, b1).items()}
            for b1 in range(depth + 1)
            for b2 in range(b1, depth - b1 + 1)
        )

    @_cached(per_walk=True)
    def _folds(self, h: int, legs: tuple, flags: tuple[int, ...], r: int, other: int, rest: tuple, avail: int) -> list:
        """
        The last edge of a genus-h vertex with legs ``legs``, earlier flags
        ``flags`` and residue r, times the vertex's closed factor, summed over
        the vertex's flag b on the edge and its residue there, with legs
        ``rest`` to place, at most ``avail`` of them, on the edge
        (:meth:`dressing`) and at the vertex (:meth:`_closing`).  The other
        end's flag is ``other``, and the vertex is the edge factor's first
        end, edge(b, other); the factor is symmetric in its ends, so that is
        either end.  A list of (u, grade, value) by the residue u at the other
        end, the ways that reach one (u, legs left) summed, the grade (legs
        left, ``avail`` less the legs used).
        """
        pairs: dict = {}
        room = 3 * h - 2 + len(flags) + len(legs) - sum(flags)
        for after, used in _groups(rest):
            # the vertex's own placements may raise its room by what the edge leaves
            for b in range(room + avail - used + 1) if used <= avail else ():
                closing = self._closing(h, legs, tuple(sorted(flags + (b,))), after, avail - used)
                for (u1, u2), y in self.dressing(b, other, rest, after).items() if closing else ():
                    for left, z in closing.get((-r - u1) % self.n, ()):
                        _append(pairs, (u2, left), (y, z))
        return [(u, (left, avail - len(rest) + len(left)), RingElement.sum_of_products(p)) for (u, left), p in pairs.items()]

    def _opened(self, state: tuple, values: tuple[int, ...]) -> list:
        """The new states of an open end in ``state`` taking flag values whose residues add to u, by u."""
        (old, r), n, states = state, self.n, self._states
        flags = tuple(sorted(old + values))
        # one instance per state, so that the cached steps share them
        return [states.setdefault(new := (flags, (r + u) % n), new) for u in range(n)]

    @_cached(per_walk=True)
    def _closing(self, h: int, legs: tuple, flags: tuple[int, ...], rest: tuple, avail: int) -> dict:
        """
        ``{u: ((legs left, value), ...)}``: a genus-h vertex closing with
        ``flags``, times its legs and what it takes of the legs ``rest`` still
        to be placed, at most ``avail`` of them (:func:`_placings`).
        """
        ways: dict = {}
        for kinds, used, mult, after in _placings(rest):
            if used <= avail:
                for u, z in self.closed_vertex(h, legs + kinds, flags).items():
                    _append(ways, (u, after), (z, mult))
        out: dict = {}
        for (u, after), zs in ways.items():
            if z := _scaled_sum(zs):
                _append(out, u, (after, z))
        return out

    def step(self, edge: tuple, state_a: tuple, state_b: tuple, grade: tuple) -> list | tuple:
        """
        One edge of the graph sum from ends a and b in given states: the
        quadruples (new state a, new state b, new grade, coefficient), with
        the edge factor's (b1, b2) at (a, b).  ``edge`` is (loop, end a, end
        b), and an end is (closes, h, legs, room): whether the edge is the
        vertex's last, its genus, its leg insertions and its room 3h - 3 +
        valence; a state is (sorted earlier flags, residue).  A loop's two
        ends are its one vertex.  If only one end closes, it is end a
        (:func:`_steps` orients the edge so).

        The grade is (rest, free): the legs still to be placed, sorted, and
        how many more legs may be placed beyond those the open vertices have
        claimed.  A leg placed at a vertex raises its room by one, so an open
        vertex may take flags beyond its room, claiming one leg for each flag
        over (:func:`_room`); the legs go on when the vertex closes
        (:meth:`_closing`), and on the edge itself (:meth:`dressing`).  So the
        flags an edge reads stay within the room of a stable graph with those
        legs, and no edge factor is read beyond b1 + b2 = 3h - 3 + m for genus
        h and m legs placed.  A walk without legs to place has the grade
        ((), 0) throughout and reads every end's room exactly.

        An open edge pairs the edge factor with both ends' new states: it
        multiplies nothing, and its quadruples, one per entry of every edge
        factor in reach, would be most of a memo, so they are built afresh.
        A loop, or an edge that closes an end, is :meth:`_shared_step`.
        """
        loop, end_a, end_b = edge
        if loop or end_a[0] or end_b[0]:
            return self._shared_step(edge, state_a, state_b, grade)
        left_a, left_b, pool = _room(edge, state_a, state_b, grade)
        # both ends take a state of their own for each (b1, u1, b2, u2)
        rest, out = grade[0], []
        at_b = [self._opened(state_b, (b2,)) for b2 in range(left_b + pool + 1)]
        groups = _groups(rest)
        for b1 in range(left_a + pool + 1):
            at_a = self._opened(state_a, (b1,))
            spare = pool if b1 <= left_a else pool + left_a - b1
            for b2 in range(left_b + spare + 1):
                most = spare if b2 <= left_b else spare + left_b - b2
                for after, used in groups:
                    if used <= most:
                        to, at, factor = (after, most - used), at_b[b2], self.dressing(b1, b2, rest, after)
                        out.extend((at_a[u1], at[u2], to, y) for (u1, u2), y in factor.items())
        return out

    @_cached(per_walk=True)
    def _shared_step(self, edge: tuple, state_a: tuple, state_b: tuple, grade: tuple) -> tuple:
        """
        A step (:meth:`step`) of a loop or of an edge that closes an end.  A
        loop takes both of its flags at its vertex.  An edge that closes end
        a is read from :meth:`_folds` at a's state and relabeled onto b's new
        state; if it closes b too, each term is the folded value against b's
        closed factor (:meth:`_closing`).  These steps sum products and depend
        on their arguments alone, so every graph of a walk shares them.
        """
        n = self.n
        (loop, end_a, end_b), (fa, ra), (fb, rb), rest = edge, state_a, state_b, grade[0]
        left_a, left_b, pool = _room(edge, state_a, state_b, grade)
        (closes_a, h, legs, _), (closes_b, h_b, legs_b, _) = end_a, end_b
        if loop:
            # flags (b1, b2) and (b2, b1) reach one state, so its terms are summed
            terms: dict = {}
            groups = _groups(rest)
            for b1 in range(left_a + pool + 1):
                for b2 in range(b1, left_a + pool - b1 + 1):
                    flags = tuple(sorted(fa + (b1, b2)))
                    most = pool - max(0, b1 + b2 - left_a)
                    for after, used in groups:
                        if used > (pool if closes_a else most):
                            continue
                        if closes_a:
                            closing = self._closing(h, legs, flags, after, pool - used)
                            for u, y in self._looped(b1, b2, rest, after).items() if closing else ():
                                for last, z in closing.get((-ra - u) % n, ()):
                                    _append(terms, (_BLANK, (last, pool - len(rest) + len(last))), (y, z))
                        else:
                            at, to = self._opened(state_a, (b1, b2)), (after, most - used)
                            for u, y in self._looped(b1, b2, rest, after).items():
                                _append(terms, (at[u], to), (y, self._one))
            return tuple((end, end, to, RingElement.sum_of_products(pairs)) for (end, to), pairs in terms.items())
        # the closing end a is folded into the edge, once per state of a
        out, pairs = [], {}
        for other in range(left_b + pool + 1):
            # b claims the legs it is short of first
            avail = pool if other <= left_b else pool + left_b - other
            if not closes_b:
                # an open end b takes a state of its own for each (other, u)
                at = self._opened(state_b, (other,))
                out.extend((_BLANK, at[u], to, y) for u, to, y in self._folds(h, legs, fa, ra, other, rest, avail))
                continue
            flags_b, closings = tuple(sorted(fb + (other,))), {}
            for u, (left, _), y in self._folds(h, legs, fa, ra, other, rest, avail):
                if left not in closings:
                    closings[left] = self._closing(h_b, legs_b, flags_b, left, pool - len(rest) + len(left))
                for last, z in closings[left].get((-rb - u) % n, ()):
                    _append(pairs, last, (y, z))
        # an edge that closes both ends leaves both blank
        for last, p in pairs.items():
            out.append((_BLANK, _BLANK, (last, pool - len(rest) + len(last)), RingElement.sum_of_products(p)))
        return tuple(out)

    @_cached(per_walk=False)
    def leg_core(self, a: int, c: int) -> Char:
        """Leg factor without the scalar K/L prefactor."""
        cinv = (-c) % self.n
        return {u: x * Fraction((-1) ** a, self.n) for u, x in self._char(a, cinv).items()}

    def leg_prefactor(self, c: int) -> RingElement:
        """K_{Inv(c)} / L^{Inv(c)} as a monomial in the C generators and L."""
        cinv = (-c) % self.n
        gens: dict = {}
        for i in range(1, cinv + 1):
            g = self.ctx.c_gen(i)
            gens[g] = gens.get(g, 0) + 1
        mono = (-cinv, tuple(sorted(gens.items())))
        return RingElement({mono: Fraction(1)})


def _room(edge: tuple, state_a: tuple, state_b: tuple, grade: tuple) -> tuple[int, int, int]:
    """
    The room ends a and b of a step (:meth:`ContributionTables.step`) have
    left, and the pool of legs the step may place: the grade's free legs and
    one claimed for each flag an end is short of.  A loop's ends are one
    vertex, so it claims for end a alone.
    """
    left_a, left_b = edge[1][3] - sum(state_a[0]), edge[2][3] - sum(state_b[0])
    pool = grade[1] + (-left_a if left_a < 0 else 0) + (-left_b if left_b < 0 and not edge[0] else 0)
    return left_a, left_b, pool


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


def _without(legs: tuple[int, ...], placed: tuple[int, ...]) -> tuple[int, ...]:
    """The sorted multiset ``legs`` less ``placed``."""
    rest = list(legs)
    for c in placed:
        rest.remove(c)
    return tuple(rest)


def _scaled_sum(pairs) -> RingElement:
    """The sum of x * k over pairs (x, k) of a ring element and an int."""
    if len(pairs) == 1 and pairs[0][1] == 1:
        return pairs[0][0]
    return RingElement.sum_of_products([(x, _SCALARS[k]) for x, k in pairs])


# the labelings of equal legs, 1 or 2, as ring elements
_SCALARS = {k: RingElement.scalar(k) for k in (1, 2)}


def _labelings(legs: tuple[int, ...], placed: tuple[int, ...]) -> int:
    """
    prod_c C(k_c, j_c): the ways to choose the labeled legs ``placed``, j_c
    of insertion c, among ``legs``, k_c of insertion c.
    """
    count = 1
    for c in set(placed):
        count *= comb(legs.count(c), placed.count(c))
    return count


@lru_cache(maxsize=None)
def _placings(rest: tuple[int, ...]) -> tuple:
    """
    What a closing vertex takes of the legs ``rest`` still to be placed (at
    most two, sorted), as (its new legs, legs used, the labelings of equal
    legs it stands for, legs left): nothing; one leg; both; or both on a
    genus-0 vertex hung from it by an edge (a pair,
    :meth:`ContributionTables.pendant`).
    """
    out = [((), 0, 1, rest)]
    out += [((c,), 1, rest.count(c), _without(rest, (c,))) for c in sorted(set(rest))]
    if len(rest) == 2:
        out += [(rest, 2, 1, ()), ((rest,), 2, 1, ())]
    return tuple(out)


@lru_cache(maxsize=None)
def _groups(rest: tuple[int, ...]) -> tuple:
    """The distinct (legs left, legs used) of :func:`_chains`."""
    return tuple((after, used) for used, after in sorted({(used, after) for _, used, _, after in _chains(rest)}))


@lru_cache(maxsize=None)
def _chains(rest: tuple[int, ...]) -> tuple:
    """
    How legs of ``rest`` sit on an edge, on genus-0 vertices that split it,
    as (each new vertex's legs from the edge's first end on, legs used,
    labelings, legs left): none; one new vertex, taking what a closing vertex
    takes (:func:`_placings`); or one leg on each of two, in either order.
    """
    out = [((), 0, 1, rest)] + [((kinds,), used, mult, left) for kinds, used, mult, left in _placings(rest)[1:]]
    if len(rest) == 2:
        x, y = rest
        # with equal legs the one order stands for two labelings
        out += [(((x,), (y,)), 2, 2, ())] if x == y else [(((x,), (y,)), 2, 1, ()), (((y,), (x,)), 2, 1, ())]
    return tuple(out)


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
    the graph's vertices and last the grade, to its value; the edge's terms
    come from :meth:`ContributionTables.step` at the states of its two ends
    and the grade, read once per such triple, and each new key sums its
    (state value, coefficient) products in one
    :meth:`RingElement.sum_of_products`, so it is normalised once.
    """
    a, b, edge = step
    steps: dict = {}
    grown: dict = {}
    for key, x in state.items():
        ends = (key[a], key[b], key[-1])
        if ends not in steps:
            steps[ends] = tables.step(edge, *ends)
        for new_a, new_b, grade, c in steps[ends]:
            new = list(key)
            new[a], new[b], new[-1] = new_a, new_b, grade
            grown.setdefault(tuple(new), []).append((x, c))
    # a key whose sum cancels is dropped
    return {new: value for new, pairs in grown.items() if (value := RingElement.sum_of_products(pairs))}


def _walk_grades(tables: ContributionTables, graphs, insertions: tuple[int, ...], grade: tuple) -> dict:
    """
    The graph sum over ``graphs``, walked depth first so that each distinct
    prefix of steps (:func:`_steps`) is contracted once: ``{rest: value}``
    by the legs ``rest`` left unplaced of those the starting ``grade``
    (rest, free) offers (see :meth:`ContributionTables.step`).

    A state key holds one state per vertex of the largest graph, blank where
    no step reaches, and then the grade, so the state after a prefix of edges
    depends on the prefix alone.  The graphs are sorted by their steps and a
    stack keeps the state after each edge of the previous graph: a graph
    pops back to the prefix it shares with that graph and contracts only the
    rest (:func:`_contract`).  No vertex is relabeled and no edge reordered,
    so each graph's value is the one its own edge order gives.  At the end of
    a graph every vertex is closed, and each key's value is its X_0 at that
    grade, weighted n^V / Aut(G).  The per-walk memos (:func:`_cached`) and
    the interned states serve these graphs only and are emptied after them.

    The weight is Burnside's.  Each factor is a character sum in its
    decorations, so a flag assignment's product is sum_U zeta^{U.p} X_U over
    vectors U of per-vertex residues, and sum_p zeta^{U.p} = n^V [U = 0].
    The decorated classes, each weighted 1/Aut(G, p), add up to the sum over
    all p divided by Aut(G): the graph contributes n^V / Aut(G) times X_0.
    The flags are summed edge by edge in the graph's edge order, keyed by the
    sorted flags and the residue of each open vertex; a vertex's last edge
    takes its closed factor at the component cancelling its residue, and the
    vertex is forgotten.
    """
    n = tables.n
    interned: dict = {}
    walks = [(_steps(graph, insertions, interned), graph) for graph in graphs]
    walks.sort(key=lambda walk: walk[0])
    blank = (_BLANK,) * max((graph.num_vertices for _, graph in walks), default=0)
    totals: dict = {}
    stack, previous = [{blank + (grade,): tables.unit()}], ()
    for steps, graph in walks:
        weight = Fraction(n**graph.num_vertices, aut_count(graph))
        if not steps:
            # the edgeless one-vertex graph is closed from the start
            closing = tables._closing(graph.genera[0], tuple(sorted(insertions)), (), *grade)
            for rest, value in closing.get(0, ()):
                _add_into(totals, rest, value * weight)
            continue
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
        for key, value in stack[-1].items():
            _add_into(totals, key[-1][0], value * weight)
    for name, per_walk in _PER_WALK.items():
        if per_walk:
            tables._memo[name].clear()
    tables._states.clear()
    return totals


def _walk(tables: ContributionTables, graphs, insertions: tuple[int, ...]) -> RingElement:
    """The graph sum over ``graphs``, whose legs carry ``insertions``: :func:`_walk_grades` with no legs to place."""
    return _walk_grades(tables, graphs, insertions, _NO_LEGS).get((), tables.zero())


def lift_depth(g: int, m: int) -> int:
    """
    The deepest order k of P~^k a potential F_{g,m} reads: 3g - 2 + m, the
    tail of its one-vertex graph (edges and legs stop at 3g - 3 + m).
    """
    return 3 * g - 2 + m


def _check_type(g: int, insertions: tuple[int, ...]) -> None:
    if 2 * g - 2 + len(insertions) <= 0:
        raise ValueError("unstable potential type")
    if g < 1:
        raise ValueError("the graph sum is used for g >= 1 only")


def assemble_F(tables: ContributionTables, g: int, insertions: tuple[int, ...] | list[int]) -> Potential:
    """
    The potential F_{g,m}(phi_{c_1}, ..., phi_{c_m}) as a graph sum: the one
    potential of :func:`assemble_potentials`.
    """
    insertions = tuple(insertions)
    return assemble_potentials(tables, g, (insertions,))[insertions]


def assemble_potentials(tables: ContributionTables, g: int, wanted) -> dict[tuple[int, ...], Potential]:
    """
    The potentials F_{g,m}(phi_{c_1}, ..., phi_{c_m}) of genus g, one per
    insertion tuple of ``wanted``, as graph sums, keyed by their tuples.

    Each sum runs over undecorated stable graphs, each through its character
    sum, in one depth-first walk (:func:`_walk_grades`) that contracts each
    prefix of edges the graphs share once; the leg prefactors
    K_{Inv(c)} / L^{Inv(c)} are kept apart as one monomial.

    For g >= 2, and legs that together are at most two, the legs are placed
    on the (g, 0) graphs instead: every (g, m) stable graph is one of them
    with its legs at vertices, on genus-0 vertices that split an edge, or on
    a genus-0 vertex hung from either (:meth:`ContributionTables.step`).
    Summed over the placements on a representative and weighted n^V /
    Aut(G0), that is the sum over the (g, m) graphs by orbit counting,
    provided a graph's value does not depend on its representative, which
    holds when the edge factors the walk reads are symmetric
    (:meth:`ContributionTables.symmetric`).  So one walk, graded by the legs
    placed so far, gives every potential of ``wanted``.  Where the check
    fails (the n >= 6 lifts), for g = 1, and where the tuples take more than
    two legs in all, each potential is walked over its own labeled (g, m)
    graphs.  The insertions (each in 0..n-1) and the types are checked
    before any graph is enumerated.
    """
    wanted = [tuple(insertions) for insertions in wanted]
    for insertions in wanted:
        for c in insertions:
            if not 0 <= c < tables.n:
                raise ValueError(f"insertion index {c} is outside 0..{tables.n - 1}")
        _check_type(g, insertions)
    # the fewest legs that hold every tuple, and the most any tuple places
    union: Counter = Counter()
    for insertions in wanted:
        union |= Counter(insertions)
    legs = tuple(sorted(union.elements()))
    most = max(map(len, wanted))
    # the walk reads edge factors with b1 + b2 <= 3g - 3 + most, the room of the dressed graph
    if g >= 2 and min(map(len, wanted)) > 0 and len(legs) <= 2 and tables.symmetric(3 * g - 3 + most):
        totals = _walk_grades(tables, enumerate_stable_graphs(g, 0), (), (legs, most))
        # a potential of one of two equal legs was reached by placing either
        cores = {w: totals.get(_without(legs, w), tables.zero()) / _labelings(legs, w) for w in wanted}
    else:
        cores = {w: _walk(tables, enumerate_stable_graphs(g, len(w)), w) for w in wanted}
    out = {}
    for insertions in wanted:
        pref = RingElement.scalar(Fraction(1))
        for c in insertions:
            pref = pref * tables.leg_prefactor(c)
        out[insertions] = Potential(g, insertions, pref, cores[insertions])
    return out


def audit_generators(tables: ContributionTables, pot: Potential) -> dict:
    """
    Finite generation audit: the core must use only A-generators (and L
    powers); the prefactor only C-generators; every component of every vertex
    factor only L powers.
    """
    core_gens = pot.core.generators_used()
    pref_gens = pot.prefactor.generators_used()
    return {
        "core_ok": all(g[0] == "A" for g in core_gens),
        "prefactor_ok": all(g[0] == "C" for g in pref_gens),
        "vertex_ok": not tables.vertex_generators(),
        "core_gens": sorted(core_gens),
        "prefactor_gens": sorted(pref_gens),
    }
