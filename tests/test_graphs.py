from fractions import Fraction
from itertools import permutations
from math import factorial

from orbigw.graphs import (
    StableGraph,
    _isomorphic,
    aut_count,
    enumerate_decorated,
    enumerate_stable_graphs,
    enumerate_stable_graphs_naive,
)


def test_counts_match_between_generators():
    # class by class: every naive representative is isomorphic to exactly one
    # of the primary enumerator's, and the counts agree
    for (g, m) in [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (3, 0)]:
        primary = enumerate_stable_graphs(g, m)
        naive = enumerate_stable_graphs_naive(g, m)
        assert len(primary) == len(naive)
        for graph in naive:
            assert sum(_isomorphic(graph, rep) for rep in primary) == 1, ((g, m), graph)


def test_classical_counts():
    assert len(enumerate_stable_graphs(0, 3)) == 1
    assert len(enumerate_stable_graphs(1, 1)) == 2
    assert len(enumerate_stable_graphs(2, 0)) == 7
    # frozen counts established by the two independent generators agreeing
    assert len(enumerate_stable_graphs(2, 1)) == 16
    assert len(enumerate_stable_graphs(3, 0)) == 42
    # agrees class by class with the previous enumerator (which took 33 s)
    assert len(enumerate_stable_graphs(3, 1)) == 181


def test_decorated_counts_one_vertex():
    # the unique (0,3) graph has n decorated versions, all with trivial Aut
    for n in (2, 3, 5):
        dec = enumerate_decorated(0, 3, n)
        assert len(dec) == n
        assert all(d.aut == 1 for d in dec)


def test_structural_invariants():
    for (g, m) in [(1, 1), (2, 0), (2, 1)]:
        for graph in enumerate_stable_graphs(g, m):
            assert graph.genus() == g
            assert graph.is_stable() and graph.is_connected()
            assert len(graph.legs) == m


def test_known_aut_counts_genus2():
    auts = sorted(aut_count(gr) for gr in enumerate_stable_graphs(2, 0))
    assert auts == [1, 2, 2, 2, 8, 8, 12]


def test_loop_aut_example():
    # one genus-1 vertex with a self loop: the half-edge swap gives order 2
    graph = StableGraph((1,), (), ((0, 0),))
    assert aut_count(graph) == 2
    # uniform decoration keeps it
    assert aut_count(graph, (0,)) == 2


def test_burnside_orbit_stabilizer():
    for n in (2, 3, 4):
        for (g, m) in [(1, 1), (1, 2), (2, 0), (2, 1)]:
            for graph in enumerate_stable_graphs(g, m):
                total = Fraction(0)
                for d in enumerate_decorated(g, m, n):
                    if d.graph == graph:
                        total += Fraction(1, d.aut)
                assert total == Fraction(n**graph.num_vertices, aut_count(graph))


def test_symmetric_split_aut():
    # two genus-1 vertices joined by an edge; swapping the halves is the Z_2
    graph = StableGraph((1, 1), (), ((0, 1),))
    assert aut_count(graph, (0, 0)) == 2
    assert aut_count(graph, (0, 1)) == 1


def test_graph_json():
    graph = enumerate_stable_graphs(2, 0)[0]
    js = graph.to_json()
    assert set(js) == {"genera", "legs", "edges"}


def _relabel_decorations(decorations, perm):
    out = [0] * len(decorations)
    for v, p in enumerate(decorations):
        out[perm[v]] = p
    return tuple(out)


def test_canonical_key_under_random_relabelings(rng):
    for (g, m) in [(3, 0), (2, 2)]:
        for graph in enumerate_stable_graphs(g, m):
            key = graph.signature()
            # the representative is its own canonical form
            assert StableGraph(*key[:3]) == graph
            dec = tuple(rng.randrange(3) for _ in graph.genera)
            dec_key = graph.signature(dec)
            for _ in range(5):
                perm = list(range(graph.num_vertices))
                rng.shuffle(perm)
                other = graph.relabeled(tuple(perm))
                assert other.signature() == key
                assert other.signature(_relabel_decorations(dec, perm)) == dec_key


def _brute_force_aut(graph, decorations=None):
    """Every vertex permutation, times the half-edge factor counted edge by edge."""
    V = graph.num_vertices
    vertex = 0
    for perm in permutations(range(V)):
        if graph.relabeled(perm) != graph:
            continue
        if decorations is not None and _relabel_decorations(decorations, perm) != decorations:
            continue
        vertex += 1
    factor = 1
    for edge in set(graph.edges):
        k = graph.edges.count(edge)
        factor *= factorial(k) * (2**k if edge[0] == edge[1] else 1)
    return vertex * factor


def test_aut_count_matches_brute_force(rng):
    for (g, m) in [(3, 0), (2, 2), (3, 1)]:
        for graph in enumerate_stable_graphs(g, m):
            V = graph.num_vertices
            assert aut_count(graph) == _brute_force_aut(graph)
            for dec in [(0,) * V] + [tuple(rng.randrange(2) for _ in range(V)) for _ in range(2)]:
                assert aut_count(graph, dec) == _brute_force_aut(graph, dec)
