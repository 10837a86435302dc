r"""
Stable graphs with decorations and automorphisms.

A stable graph is stored as vertex genera, a leg-to-vertex assignment (legs
carry fixed labels 1..m), and a sorted multiset of edges (self loops
allowed).  Stability demands 2 g(v) - 2 + n(v) > 0 at every vertex, where
n(v) counts incident legs and half-edges; the graph genus is
h^1 + sum of vertex genera.

Automorphism counts follow the half-edge convention: a vertex bijection
that preserves genera, decorations, and the pinned legs contributes
prod m_{uv}! over parallel classes times prod k_v! 2^{k_v} over loops
(loops may swap their two half-edges).  The graph sum itself runs over
undecorated graphs, each weighted n^V / Aut(G); ``enumerate_decorated`` and
the decorated counts serve only its oracle, the decorated sum, and the
Burnside check that ties the two weightings together.

Two enumerators are kept separate on purpose.  The primary one generates
candidates with pruning and deduplicates through a canonical signature;
the naive one generates everything within bounds and deduplicates by
pairwise isomorphism search.  Their counts are compared in the tests for
(g, m) up to (3, 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
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

    def signature(self, decorations: tuple[int, ...] | None = None):
        """Lexicographic minimum over vertex relabelings; decorations ride along."""
        best = None
        for perm in permutations(range(self.num_vertices)):
            g2 = self.relabeled(perm)
            dec = None
            if decorations is not None:
                d2 = [0] * self.num_vertices
                for v, p in enumerate(decorations):
                    d2[perm[v]] = p
                dec = tuple(d2)
            key = (g2.genera, g2.legs, g2.edges, dec)
            if best is None or key < best:
                best = key
        return best

    def to_json(self) -> dict:
        return {
            "genera": list(self.genera),
            "legs": list(self.legs),
            "edges": [list(e) for e in self.edges],
        }


def vertex_symmetries(graph: StableGraph, decorations: tuple[int, ...] | None = None):
    """Vertex permutations preserving genera, legs pointwise, edges, decorations."""
    V = graph.num_vertices
    out = []
    for perm in permutations(range(V)):
        g2 = graph.relabeled(perm)
        if g2.genera != graph.genera or g2.legs != graph.legs or g2.edges != graph.edges:
            continue
        if decorations is not None:
            d2 = [0] * V
            for v, p in enumerate(decorations):
                d2[perm[v]] = p
            if tuple(d2) != decorations:
                continue
        out.append(perm)
    return out


def aut_count(graph: StableGraph, decorations: tuple[int, ...] | None = None) -> int:
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
    return len(vertex_symmetries(graph, decorations)) * half_edge_factor


# -- enumeration ----------------------------------------------------------------


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


@lru_cache(maxsize=None)
def enumerate_stable_graphs(g: int, m: int) -> tuple[StableGraph, ...]:
    """One representative per isomorphism class of stable graphs of type (g, m)."""
    if 2 * g - 2 + m <= 0:
        raise ValueError("unstable type")
    found: dict = {}
    max_V = 2 * g - 2 + m
    for V in range(1, max_V + 1):
        for genera in product(range(g + 1), repeat=V):
            if sum(genera) > g:
                continue
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
                    if not graph.is_connected() or not graph.is_stable():
                        continue
                    if graph.genus() != g:
                        raise AssertionError(f"enumerated graph has genus {graph.genus()}, expected {g}")
                    sig = graph.signature()
                    if sig not in found:
                        found[sig] = graph
    return tuple(found[k] for k in sorted(found))


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
        g2 = a.relabeled(perm)
        if g2.genera == b.genera and g2.legs == b.legs and g2.edges == b.edges:
            return True
    return False


@dataclass(frozen=True)
class DecoratedGraph:
    graph: StableGraph
    decorations: tuple[int, ...]
    aut: int


@lru_cache(maxsize=None)
def enumerate_decorated(g: int, m: int, n: int) -> tuple[DecoratedGraph, ...]:
    """
    One representative per isomorphism class of decorated stable graphs,
    decorations in {0..n-1}, with decorated automorphism counts.
    """
    out: list[DecoratedGraph] = []
    for graph in enumerate_stable_graphs(g, m):
        seen: set = set()
        for dec in product(range(n), repeat=graph.num_vertices):
            sig = graph.signature(dec)
            if sig in seen:
                continue
            seen.add(sig)
            out.append(DecoratedGraph(graph, dec, aut_count(graph, dec)))
    return tuple(out)
