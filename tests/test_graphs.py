from fractions import Fraction

from orbigw.graphs import (
    StableGraph,
    aut_count,
    enumerate_decorated,
    enumerate_stable_graphs,
    enumerate_stable_graphs_naive,
)


def test_counts_match_between_generators():
    for (g, m) in [(0, 3), (0, 4), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0)]:
        assert len(enumerate_stable_graphs(g, m)) == len(enumerate_stable_graphs_naive(g, m))


def test_classical_counts():
    assert len(enumerate_stable_graphs(0, 3)) == 1
    assert len(enumerate_stable_graphs(1, 1)) == 2
    assert len(enumerate_stable_graphs(2, 0)) == 7
    # frozen counts established by the two independent generators agreeing
    assert len(enumerate_stable_graphs(2, 1)) == 16
    assert len(enumerate_stable_graphs(3, 0)) == 42


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
