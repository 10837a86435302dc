r"""
Stable graphs, their canonical form and their automorphisms.

A stable graph is stored as vertex genera, a leg-to-vertex assignment and a
sorted multiset of edges (self loops allowed).  Its legs carry fixed labels
1..m (a labeled graph), and two graphs are one class when a vertex bijection
takes one to the other with every leg kept.  Stability demands
2 g(v) - 2 + n(v) > 0 at every vertex, where n(v) counts incident legs and
half-edges; the graph genus is h^1 + sum of vertex genera.

Automorphism counts follow the half-edge convention: a vertex bijection
that preserves genera and fixes every leg contributes prod m_{uv}! over
parallel classes times prod k_v! 2^{k_v} over loops (loops may swap their
two half-edges).  The graph sum runs over undecorated graphs, each weighted
n^V / Aut(G), with equal insertions on distinct labeled legs.  Where a
graph's value does not depend on its vertex order, the potentials of genus
g >= 2 with one or two legs read no (g, m) class at all: they place their
legs on the (g, 0) representatives (:mod:`orbigw.potentials`), and the
placements on each, weighted 1 / Aut(G0), count the (g, m) classes weighted
1 / Aut (the tests count both sides).  The (g, m) classes serve genus 1,
the lifts whose graph values depend on the representative (n >= 6), three
or more legs, and the oracles.  Decorated graphs and their automorphism
counts belong only to its oracle, the decorated sum, which finds them by
brute force over every vertex permutation (``tests/oracles.py``); the
Burnside check ties the two weightings together.

Canonical form, by individualization-refinement (McKay and Piperno,
"Practical graph isomorphism, II", JSC 60, 2014).  Each vertex starts from
the invariant (genus, sorted labels of the legs it carries, loops, degree);
rounds of refinement then add the multiset of (neighbour class, edge
multiplicity) until no class splits.  While a class has more than one member, the search
individualises each vertex of the first such class in turn (it moves ahead
of its class), refines again and recurses.  Every step commutes with
isomorphisms, so the leaves, each an ordering of the vertices, are canonical
as a set, and the canonical key (the first result of ``_search``) is the
least relabeled graph over them.  Two leaves give the same key exactly when
they differ by a vertex symmetry that keeps every leg, so the leaves that
reach the key are as many as those symmetries, and ``aut_count`` reads them
off the same search.  The enumerator keeps that leaf count for every
representative it returns, so ``aut_count`` of a representative searches
nothing; any other graph is searched afresh.

The enumerator starts from the one-vertex graph of type (g, m) and, level by
level, applies every one-edge degeneration to the canonical representatives
with one edge fewer: a loop at a vertex of positive genus, which lowers that
genus by one, or a split of a vertex into two stable vertices joined by the
new edge, the genus shared between them and each leg and half-edge at the
vertex either staying or moving.  Contracting any edge of a stable graph
gives a stable graph with one edge fewer, so every class is reached.  Each
unordered split is generated once: the vertex keeps the larger genus, and on
a tie it keeps its first flag (leg or half-edge).  The level is deduplicated
first as labeled graphs (moving either half of a loop gives the same one)
and then through the canonical key, and its representatives are the
canonical graphs themselves.  Its oracle, a naive enumerator deduplicating by
pairwise isomorphism search over all vertex permutations, lives in the test
suite (``tests/oracles.py``), which compares their classes on (0, 3),
(0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2) and (3, 0).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import factorial


class StableGraph:
    """
    A stable graph on vertices 0 .. V-1: their genera, the vertex of each leg,
    and the edges.  Immutable, equal and hashed by (genera, legs, edges).
    """

    __slots__ = ("genera", "legs", "edges")

    def __init__(self, genera: tuple[int, ...], legs: tuple[int, ...], edges: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "genera", genera)
        object.__setattr__(self, "legs", legs)  # legs[t] = vertex carrying the leg labeled t+1
        object.__setattr__(self, "edges", edges)  # sorted pairs (u <= v); loops have u == v

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name} = {value!r}: a StableGraph is immutable")

    def __eq__(self, other):
        if other.__class__ is not StableGraph:
            return NotImplemented
        return (self.genera, self.legs, self.edges) == (other.genera, other.legs, other.edges)

    def __hash__(self):
        return hash((self.genera, self.legs, self.edges))

    def __repr__(self) -> str:
        return f"StableGraph(genera={self.genera!r}, legs={self.legs!r}, edges={self.edges!r})"

    @property
    def num_vertices(self) -> int:
        return len(self.genera)

    def valence(self, v: int) -> int:
        n = sum(1 for l in self.legs if l == v)
        for (a, b) in self.edges:
            n += (a == v) + (b == v)
        return n

    def genus(self) -> int:
        return len(self.edges) - self.num_vertices + 1 + sum(self.genera)

    def is_stable(self) -> bool:
        return all(2 * g - 2 + self.valence(v) > 0 for v, g in enumerate(self.genera))

    def is_connected(self) -> bool:
        V = self.num_vertices
        seen = {0}
        frontier = [0]
        adj: dict[int, set[int]] = {v: set() for v in range(V)}
        for (a, b) in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        while frontier:
            v = frontier.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == V


def _relabeled(graph: StableGraph, perm) -> tuple:
    """(genera, legs, edges) of ``graph`` under the vertex relabeling v -> perm[v]."""
    genera = [0] * graph.num_vertices
    for v, g in enumerate(graph.genera):
        genera[perm[v]] = g
    legs = tuple(perm[v] for v in graph.legs)
    edges = tuple(sorted((a, b) if a <= b else (b, a) for a, b in ((perm[x], perm[y]) for x, y in graph.edges)))
    return tuple(genera), legs, edges


def _ranks(values: list) -> list[int]:
    index = {x: i for i, x in enumerate(sorted(set(values)))}
    return [index[x] for x in values]


def _search(graph: StableGraph) -> tuple[tuple, int]:
    """
    The individualization-refinement search (see the module docstring): the
    canonical key and the number of leaves that reach it.
    """
    V = graph.num_vertices
    carried: list[list[int]] = [[] for _ in range(V)]
    for t, v in enumerate(graph.legs):
        carried[v].append(t)
    loops = [0] * V
    degree = [0] * V
    nbrs: list[dict[int, int]] = [{} for _ in range(V)]
    for (a, b) in graph.edges:
        degree[a] += 1
        degree[b] += 1
        if a == b:
            loops[a] += 1
        else:
            nbrs[a][b] = nbrs[a].get(b, 0) + 1
            nbrs[b][a] = nbrs[b].get(a, 0) + 1
    best, hits = None, 0

    def visit(cls: list[int]):
        nonlocal best, hits
        # the ranks are 0, 1, ...: every class is a single vertex when the last is V - 1
        while max(cls) < V - 1:
            finer = _ranks([(cls[v], tuple(sorted((cls[w], k) for w, k in nbrs[v].items()))) for v in range(V)])
            if max(finer) == max(cls):
                break
            cls = finer
        if max(cls) == V - 1:
            key = _relabeled(graph, cls)
            if best is None or key < best:
                best, hits = key, 1
            elif key == best:
                hits += 1
            return
        target = min(c for c in cls if cls.count(c) > 1)
        for v in range(V):
            if cls[v] == target:
                visit(_ranks([(c, w != v) for w, c in enumerate(cls)]))

    visit(_ranks([(h, tuple(sorted(carried[v])), loops[v], degree[v]) for v, h in enumerate(graph.genera)]))
    return best, hits


def aut_count(graph: StableGraph) -> int:
    """
    Order of the automorphism group in the half-edge convention: for every
    admissible vertex permutation, parallel edges may be permuted, each loop
    may additionally swap its half-edges.  The admissible vertex
    permutations are counted as the search leaves that reach the canonical
    key; for an enumerated representative that count is read from the
    enumeration's own search.
    """
    loops: dict[int, int] = {}
    par: dict[tuple[int, int], int] = {}
    for (a, b) in graph.edges:
        if a == b:
            loops[a] = loops.get(a, 0) + 1
        else:
            par[(a, b)] = par.get((a, b), 0) + 1
    factor = 1
    for k in loops.values():
        factor *= factorial(k) * 2**k
    for mult in par.values():
        factor *= factorial(mult)
    leaves = _LEAVES.get(graph)
    return (_search(graph)[1] if leaves is None else leaves) * factor


# -- enumeration ----------------------------------------------------------------


def _degenerations(graph: StableGraph):
    """The stable graphs with one edge more that contract back to ``graph`` (see the module docstring)."""
    V = graph.num_vertices
    for v, h in enumerate(graph.genera):
        if h > 0:
            genera = graph.genera[:v] + (h - 1,) + graph.genera[v + 1:]
            yield StableGraph(genera, graph.legs, tuple(sorted(graph.edges + ((v, v),))))
        # the flags at v: (None, t) for the leg labeled t+1, (i, end) for a half-edge of edge i
        flags = [(None, t) for t, u in enumerate(graph.legs) if u == v]
        flags += [(i, end) for i, e in enumerate(graph.edges) for end in (0, 1) if e[end] == v]
        for kept in range(h - h // 2, h + 1):
            genera = graph.genera[:v] + (kept,) + graph.genera[v + 1:] + (h - kept,)
            # k of the flags move: both vertices are stable when
            # 2 (h - kept) - 1 + k > 0 and 2 kept - 1 + len(flags) - k > 0
            counts = range(max(0, 2 - 2 * (h - kept)), min(len(flags), 2 * kept - 2 + len(flags)) + 1)
            # on a tie of genera the vertex keeps its first flag, so each unordered split comes once
            movable = range(1 if 2 * kept == h else 0, len(flags))
            for moved in (c for k in counts for c in combinations(movable, k)):
                legs = list(graph.legs)
                edges = [list(e) for e in graph.edges]
                for i, x in (flags[f] for f in moved):
                    if i is None:
                        legs[x] = V
                    else:
                        edges[i][x] = V
                edges = sorted(tuple(sorted(e)) for e in edges + [[v, V]])
                yield StableGraph(genera, tuple(legs), tuple(edges))


def enumerate_stable_graphs(g: int, m: int) -> tuple[StableGraph, ...]:
    """
    One canonical representative per isomorphism class of stable graphs of
    type (g, m), its legs labeled 1..m.  The arguments are checked before
    the cached enumeration runs.
    """
    for name, value in (("g", g), ("m", m)):
        # bool is an int subclass, and so is refused here
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, not {type(value).__name__}")
    if g < 0 or m < 0:
        raise ValueError(f"graph type (g={g}, m={m}) needs g >= 0 and m >= 0")
    if 2 * g - 2 + m <= 0:
        raise ValueError("unstable type")
    return _enumerate(g, m)


# the search leaves reaching the canonical key, per enumerated representative
_LEAVES: dict[StableGraph, int] = {}


@lru_cache(maxsize=None)
def _enumerate(g: int, m: int) -> tuple[StableGraph, ...]:
    # canonical key -> search leaves reaching it; one vertex gives one leaf
    found: dict = {}
    level = {((g,), (0,) * m, ()): 1}
    while level:
        found |= level
        candidates = {d for key in level for d in _degenerations(StableGraph(*key))}
        level = dict(_search(d) for d in candidates)
    keys = sorted(found)
    graphs = tuple(StableGraph(*key) for key in keys)
    for graph in graphs:
        if graph.genus() != g or not graph.is_stable() or not graph.is_connected():
            raise AssertionError(f"enumerated graph {graph} is not a connected stable graph of genus {g}")
    _LEAVES.update(zip(graphs, (found[key] for key in keys)))
    return graphs
