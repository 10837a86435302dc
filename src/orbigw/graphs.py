r"""
Stable graphs, their canonical form and their automorphisms.

A stable graph is stored as vertex genera, a leg-to-vertex assignment (legs
carry fixed labels 1..m), and a sorted multiset of edges (self loops
allowed).  Stability demands 2 g(v) - 2 + n(v) > 0 at every vertex, where
n(v) counts incident legs and half-edges; the graph genus is
h^1 + sum of vertex genera.

Automorphism counts follow the half-edge convention: a vertex bijection
that preserves genera and the pinned legs contributes prod m_{uv}! over
parallel classes times prod k_v! 2^{k_v} over loops (loops may swap their
two half-edges).  The graph sum runs over undecorated graphs, each weighted
n^V / Aut(G).  Decorated graphs and their automorphism counts belong only to
its oracle, the decorated sum, which finds them by brute force over every
vertex permutation (``tests/oracles.py``); the Burnside check ties the two
weightings together.

Canonical form.  Each vertex starts from the invariant (genus, labels of
the legs it carries, loops, degree); rounds of refinement then add the
multiset of (neighbour class, edge multiplicity) until no class splits.
Every step commutes with isomorphisms, so sorting the vertices by class is
canonical up to permutations inside blocks of equal class, and the canonical
key (``StableGraph.signature``) is the least relabeled graph over those
permutations only.  The vertex symmetries behind ``aut_count`` are searched
inside the same blocks.

The enumerator lists vertex genera up to order (non-increasing) and builds
edge layouts by backtracking with a half-edge budget: vertex v lacks
max(0, 3 - 2 g(v)) half-edges, and a partial layout is cut once the total it
lacks exceeds 2 (edges left) + m, or once its finished vertices lack more
than m.  It checks connectivity once per layout, places legs only where they
leave no vertex unstable, and deduplicates through the canonical key; its
representatives are the canonical graphs themselves.  Its oracle, a naive
enumerator deduplicating by pairwise isomorphism search over all vertex
permutations, lives in the test suite (``tests/oracles.py``), which
compares their classes on (0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3),
(2, 0), (2, 1), (2, 2) and (3, 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, permutations, product
from math import factorial


@dataclass(frozen=True)
class StableGraph:
    genera: tuple[int, ...]
    legs: tuple[int, ...]  # legs[t] = vertex carrying the leg labeled t+1
    edges: tuple[tuple[int, int], ...]  # sorted pairs (u <= v); loops have u == v

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

    def relabeled(self, perm: tuple[int, ...]) -> "StableGraph":
        """Apply the vertex relabeling v -> perm[v]."""
        genera = [0] * self.num_vertices
        for v, g in enumerate(self.genera):
            genera[perm[v]] = g
        legs = tuple(perm[v] for v in self.legs)
        edges = tuple(sorted(tuple(sorted((perm[a], perm[b]))) for (a, b) in self.edges))
        return StableGraph(tuple(genera), legs, edges)

    def signature(self) -> tuple:
        """
        Canonical key: the least relabeled (genera, legs, edges) over the
        relabelings that put the vertices in block order.
        """
        blocks = _blocks(self)
        runs, start = [], 0
        for block in blocks:
            runs.append(range(start, start + len(block)))
            start += len(block)
        return min((g.genera, g.legs, g.edges) for g in map(self.relabeled, _block_maps(blocks, runs)))

    def to_json(self) -> dict:
        return {
            "genera": list(self.genera),
            "legs": list(self.legs),
            "edges": [list(e) for e in self.edges],
        }


def _ranks(values: list) -> list[int]:
    index = {x: i for i, x in enumerate(sorted(set(values)))}
    return [index[x] for x in values]


def _blocks(graph: StableGraph) -> list[list[int]]:
    """
    The vertices grouped into classes of the refined invariant, classes in
    their canonical order (see the module docstring).
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
    cls = _ranks([(h, tuple(carried[v]), loops[v], degree[v]) for v, h in enumerate(graph.genera)])
    while True:
        finer = _ranks([(cls[v], tuple(sorted((cls[w], k) for w, k in nbrs[v].items()))) for v in range(V)])
        if max(finer) == max(cls):
            break
        cls = finer
    blocks: list[list[int]] = [[] for _ in range(max(cls) + 1)]
    for v, c in enumerate(cls):
        blocks[c].append(v)
    return blocks


def _block_maps(blocks: list[list[int]], targets: list):
    """Every vertex map sending each block bijectively onto its target."""
    V = sum(len(block) for block in blocks)
    choices = [[tuple(zip(block, p)) for p in permutations(target)] for block, target in zip(blocks, targets)]
    for pick in product(*choices):
        perm = [0] * V
        for pairs in pick:
            for v, w in pairs:
                perm[v] = w
        yield tuple(perm)


def vertex_symmetries(graph: StableGraph):
    """
    Vertex permutations preserving genera, legs pointwise and edges.

    A symmetry keeps every refined class, so only permutations inside the
    blocks are tried, and these already fix genera and legs.
    """
    blocks = _blocks(graph)
    return [perm for perm in _block_maps(blocks, blocks) if graph.relabeled(perm) == graph]


def aut_count(graph: StableGraph) -> int:
    """
    Order of the automorphism group in the half-edge convention: for every
    admissible vertex permutation, parallel edges may be permuted and each
    loop may additionally swap its half-edges.
    """
    loops: dict[int, int] = {}
    par: dict[tuple[int, int], int] = {}
    for (a, b) in graph.edges:
        if a == b:
            loops[a] = loops.get(a, 0) + 1
        else:
            par[(a, b)] = par.get((a, b), 0) + 1
    half_edge_factor = 1
    for k in loops.values():
        half_edge_factor *= factorial(k) * 2**k
    for mult in par.values():
        half_edge_factor *= factorial(mult)
    return len(vertex_symmetries(graph)) * half_edge_factor


# -- enumeration ----------------------------------------------------------------


def _edge_layouts(lack: list[int], E: int, m: int):
    """
    Sorted edge tuples of E edges (loops allowed) after which the vertices
    lack at most m half-edges in total, lack[v] being what vertex v needs to
    be stable.  Slots (a, b), a <= b, are filled in lexicographic order, and
    a partial layout is cut once what it lacks exceeds 2 (edges left) + m,
    as each further edge covers at most two, or once the vertices whose
    slots are all filled lack more than m.
    """
    V = len(lack)
    slots = [(a, b) for a in range(V) for b in range(a, V)]
    short = list(lack)
    edges: list[tuple[int, int]] = []
    deficit = sum(short)

    def rec(i: int, left: int, spare: int):
        # spare: the legs not yet owed to a vertex whose slots are all filled
        nonlocal deficit
        if left == 0:
            yield tuple(edges)
            return
        if i == len(slots):
            return
        a, b = slots[i]
        added = 0
        while True:
            rest = spare - max(0, short[a]) if b == V - 1 else spare
            if rest >= 0:
                yield from rec(i + 1, left - added, rest)
            if added == left:
                break
            for v in (a, b):
                deficit -= short[v] > 0
                short[v] -= 1
            edges.append((a, b))
            added += 1
            if deficit > 2 * (left - added) + m:
                break
        for _ in range(added):
            edges.pop()
            for v in (a, b):
                short[v] += 1
                deficit += short[v] > 0

    if deficit <= 2 * E + m:
        yield from rec(0, E, m)


def _leg_placements(short: list[int], m: int):
    """Leg tuples (legs[t] = vertex of leg t+1) that give every vertex v at least short[v] legs."""
    V = len(short)
    short = list(short)
    owed = sum(short)
    legs: list[int] = []

    def rec(t: int):
        nonlocal owed
        if t == m:
            yield tuple(legs)
            return
        for v in range(V):
            covers = short[v] > 0
            if owed - covers > m - t - 1:
                continue
            short[v] -= covers
            owed -= covers
            legs.append(v)
            yield from rec(t + 1)
            legs.pop()
            short[v] += covers
            owed += covers

    if owed <= m:
        yield from rec(0)


def enumerate_stable_graphs(g: int, m: int) -> tuple[StableGraph, ...]:
    """One canonical representative per isomorphism class of stable graphs of type (g, m)."""
    if g < 0 or m < 0:
        raise ValueError(f"graph type (g={g}, m={m}) needs g >= 0 and m >= 0")
    if 2 * g - 2 + m <= 0:
        raise ValueError("unstable type")
    return _enumerate(g, m)


@lru_cache(maxsize=None)
def _enumerate(g: int, m: int) -> tuple[StableGraph, ...]:
    found: set = set()
    for V in range(1, 2 * g - 2 + m + 1):
        for genera in combinations_with_replacement(range(g, -1, -1), V):
            if sum(genera) > g:
                continue
            lack = [max(0, 3 - 2 * h) for h in genera]
            for edges in _edge_layouts(lack, g - sum(genera) + V - 1, m):
                layout = StableGraph(genera, (), edges)
                if not layout.is_connected():
                    continue
                short = [max(0, lack[v] - layout.valence(v)) for v in range(V)]
                for legs in _leg_placements(short, m):
                    graph = StableGraph(genera, legs, edges)
                    if graph.genus() != g:
                        raise AssertionError(f"enumerated graph has genus {graph.genus()}, expected {g}")
                    found.add(graph.signature())
    return tuple(StableGraph(*key) for key in sorted(found))
