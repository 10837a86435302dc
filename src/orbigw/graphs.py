r"""
Stable graphs, their canonical form and their automorphisms.

A stable graph is stored as vertex genera, a leg-to-vertex assignment, a
sorted multiset of edges (self loops allowed) and the colours of its legs.
Legs of one colour are interchangeable; ``colours`` None gives every leg a
colour of its own, so the legs carry fixed labels 1..m (a labeled graph).
Stability demands 2 g(v) - 2 + n(v) > 0 at every vertex, where n(v) counts
incident legs and half-edges; the graph genus is h^1 + sum of vertex genera.

Automorphism counts follow the half-edge convention: a vertex bijection
that preserves genera and the colours of the legs at each vertex
contributes prod m_{uv}! over parallel classes times prod k_v! 2^{k_v} over
loops (loops may swap their two half-edges) times prod l_{v,c}! over the
l_{v,c} legs of colour c at vertex v (equal legs at a vertex may be
permuted).  For a labeled graph the last product is 1.  The graph sum runs
over undecorated graphs, each weighted n^V prod_c k_c! / Aut(G), with k_c
legs of colour c (:func:`leg_permutations`; 1 for a labeled graph).  By
orbit-stabiliser that is the sum of n^V / Aut over the labeled graphs a
coloured class stands for, so where a graph's value does not depend on its
vertex order, legs coloured by insertion value sum equal insertions once
(the weighting admcycles uses; Delecroix, Schmitt and van Zelm,
arXiv:2002.01709).  Decorated graphs and their automorphism counts belong
only to its oracle, the decorated sum, which finds them by brute force over
every vertex permutation (``tests/oracles.py``); the Burnside check ties the
two weightings together.

Canonical form, by individualization-refinement (McKay and Piperno,
"Practical graph isomorphism, II", JSC 60, 2014).  Each vertex starts from
the invariant (genus, sorted colours of the legs it carries, loops, degree);
rounds of refinement then add the multiset of (neighbour class, edge
multiplicity) until no class splits.  While a class has more than one member, the search
individualises each vertex of the first such class in turn (it moves ahead
of its class), refines again and recurses.  Every step commutes with
isomorphisms, so the leaves, each an ordering of the vertices, are canonical
as a set, and the canonical key (the first result of ``_search``) is the
least relabeled graph over them, the vertices of equal-colour legs sorted.  Two
leaves give the same key exactly when they differ by a vertex symmetry that
keeps the colours of the legs at each vertex, so the leaves that reach the
key are as many as those symmetries, and ``aut_count`` reads them off the
same search.  The enumerator keeps that leaf count for every representative it
returns, so ``aut_count`` of a representative searches nothing; any other
graph is searched afresh.

The enumerator starts from the one-vertex graph of type (g, m), its legs
coloured as asked, and, level by level, applies every one-edge degeneration to the canonical representatives
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
(0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2) and (3, 0),
and groups the naive labeled classes by permutations of equal legs to check
the coloured classes and their weights.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import factorial


@dataclass(frozen=True)
class StableGraph:
    genera: tuple[int, ...]
    legs: tuple[int, ...]  # legs[t] = vertex carrying the leg labeled t+1
    edges: tuple[tuple[int, int], ...]  # sorted pairs (u <= v); loops have u == v
    colours: tuple[int, ...] | None = None  # colours[t] of leg t+1; None: all distinct

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
    colours = graph.colours or range(len(graph.legs))
    carried: list[list[int]] = [[] for _ in range(V)]
    for t, v in enumerate(graph.legs):
        carried[v].append(colours[t])
    # the leg positions of each colour that several legs share
    positions: dict[int, list[int]] = {}
    for t, c in enumerate(graph.colours or ()):
        positions.setdefault(c, []).append(t)
    shared = [ts for ts in positions.values() if len(ts) > 1]
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
            genera, legs, edges = _relabeled(graph, cls)
            if shared:
                legs = list(legs)
                for ts in shared:
                    for t, v in zip(ts, sorted(legs[t] for t in ts)):
                        legs[t] = v
                legs = tuple(legs)
            key = (genera, legs, edges)
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
    may additionally swap its half-edges, and the legs of one colour at one
    vertex may be permuted.  The admissible vertex permutations are counted
    as the search leaves that reach the canonical key; for an enumerated
    representative that count is read from the enumeration's own search.
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
    if graph.colours is not None:
        for k in Counter(zip(graph.legs, graph.colours)).values():
            factor *= factorial(k)
    leaves = _LEAVES.get(graph)
    return (_search(graph)[1] if leaves is None else leaves) * factor


def leg_permutations(graph: StableGraph) -> int:
    """prod_c k_c! over the k_c legs of each colour: the leg labelings a coloured graph stands for."""
    count = 1
    for k in Counter(graph.colours or ()).values():
        count *= factorial(k)
    return count


# -- enumeration ----------------------------------------------------------------


def _degenerations(graph: StableGraph):
    """The stable graphs with one edge more that contract back to ``graph`` (see the module docstring)."""
    V = graph.num_vertices
    for v, h in enumerate(graph.genera):
        if h > 0:
            genera = graph.genera[:v] + (h - 1,) + graph.genera[v + 1:]
            yield StableGraph(genera, graph.legs, tuple(sorted(graph.edges + ((v, v),))), graph.colours)
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
                yield StableGraph(genera, tuple(legs), tuple(edges), graph.colours)


def enumerate_stable_graphs(g: int, m: int, colours=None) -> tuple[StableGraph, ...]:
    """
    One canonical representative per isomorphism class of stable graphs of
    type (g, m) whose legs carry ``colours``, a sequence of m ints (default:
    all distinct, the labeled classes).  Colours are renumbered by first
    occurrence, and all-distinct colours give the labeled graphs.  The
    arguments are checked before the cached enumeration runs.
    """
    for name, value in (("g", g), ("m", m)):
        # bool is an int subclass, and so is refused here
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, not {type(value).__name__}")
    if g < 0 or m < 0:
        raise ValueError(f"graph type (g={g}, m={m}) needs g >= 0 and m >= 0")
    if 2 * g - 2 + m <= 0:
        raise ValueError("unstable type")
    return _enumerate(g, m, _renumbered(colours, m))


def _renumbered(colours, m: int) -> tuple[int, ...] | None:
    """``colours`` renumbered by first occurrence; None when no two legs share one."""
    if colours is None:
        return None
    colours = tuple(colours)
    for c in colours:
        if type(c) is not int:
            raise TypeError(f"leg colours must be ints, not {type(c).__name__}")
    if len(colours) != m:
        raise ValueError(f"{len(colours)} leg colours for {m} legs")
    first: dict[int, int] = {}
    for c in colours:
        first.setdefault(c, len(first))
    return None if len(first) == m else tuple(first[c] for c in colours)


# the search leaves reaching the canonical key, per enumerated representative
_LEAVES: dict[StableGraph, int] = {}


@lru_cache(maxsize=None)
def _enumerate(g: int, m: int, colours: tuple[int, ...] | None = None) -> tuple[StableGraph, ...]:
    # canonical key -> search leaves reaching it; one vertex gives one leaf
    found: dict = {}
    level = {((g,), (0,) * m, ()): 1}
    while level:
        found |= level
        candidates = {d for key in level for d in _degenerations(StableGraph(*key, colours))}
        level = dict(_search(d) for d in candidates)
    graphs = tuple(StableGraph(*key, colours) for key in sorted(found))
    for graph in graphs:
        if graph.genus() != g or not graph.is_stable() or not graph.is_connected():
            raise AssertionError(f"enumerated graph {graph} is not a connected stable graph of genus {g}")
    _LEAVES.update((StableGraph(*key, colours), leaves) for key, leaves in found.items())
    return graphs
