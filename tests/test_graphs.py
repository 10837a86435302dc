from fractions import Fraction
from itertools import permutations

import pytest

from oracles import (
    _isomorphic,
    enumerate_decorated,
    enumerate_stable_graphs_naive,
    half_edge_factor,
    relabeled,
    signature,
    vertex_automorphisms,
)
from orbigw import graphs
from orbigw.graphs import StableGraph, _enumerate, aut_count, enumerate_stable_graphs, leg_permutations


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
    # agree class by class with the layout enumerator that preceded the
    # one-edge degenerations
    assert len(enumerate_stable_graphs(3, 1)) == 181
    assert len(enumerate_stable_graphs(4, 0)) == 379
    assert len(enumerate_stable_graphs(3, 2)) == 1355
    assert len(enumerate_stable_graphs(4, 1)) == 2666


def test_invalid_type_rejected_before_any_work():
    # a negative genus or leg count raises before the cached enumeration runs
    before = _enumerate.cache_info()
    for g, m in [(-1, 5), (2, -1)]:
        with pytest.raises(ValueError):
            enumerate_stable_graphs(g, m)
    assert _enumerate.cache_info() == before


@pytest.mark.parametrize(
    "args, error",
    [
        ((True, 3), TypeError),
        ((2.0, 1), TypeError),
        ((2.0, 0), TypeError),
        ((2, 1.0), TypeError),
        ((1, False), TypeError),
        (("2", 0), TypeError),
        ((1, 2, (1.0, 1.0)), TypeError),
        ((1, 2, (True, False)), TypeError),
        ((1, 2, ("a", "a")), TypeError),
        ((1, 2, (1,)), ValueError),
        ((1, 2, (1, 1, 1)), ValueError),
    ],
)
def test_non_int_type_or_colours_rejected_before_any_work(args, error):
    # a bool or float type never reaches the cached enumeration, where
    # 2.0 == 2 would be served the cached (2, m) classes
    before = _enumerate.cache_info()
    with pytest.raises(error):
        enumerate_stable_graphs(*args)
    assert _enumerate.cache_info() == before


def _relegged(graph: StableGraph, perm: tuple[int, ...]) -> StableGraph:
    """The labeled graph with the leg at position t moved to position perm[t]."""
    legs = [0] * len(graph.legs)
    for t, v in enumerate(graph.legs):
        legs[perm[t]] = v
    return StableGraph(graph.genera, tuple(legs), graph.edges)


@pytest.mark.parametrize(
    "g, colours",
    [(1, (0, 0)), (2, (0, 0)), (0, (0, 0, 1, 1)), (0, (0, 1, 0, 0)), (1, (0, 0, 0)), (1, (0, 1, 1)), (0, (0, 0, 1, 1, 2))],
)
def test_coloured_classes_match_grouped_naive_classes(g, colours):
    # the naive labeled classes, grouped by the permutations of equal legs,
    # are the coloured classes; each group's sum of 1/Aut is the coloured
    # class's prod k_c! / Aut, and its Aut is counted by brute force over
    # vertex and leg permutations
    m = len(colours)
    swaps = [p for p in permutations(range(m)) if all(colours[p[t]] == colours[t] for t in range(m))]
    groups: list[list[StableGraph]] = []
    for graph in enumerate_stable_graphs_naive(g, m):
        for group in groups:
            if any(_isomorphic(_relegged(graph, p), group[0]) for p in swaps):
                group.append(graph)
                break
        else:
            groups.append([graph])
    coloured = enumerate_stable_graphs(g, m, colours)
    assert len(coloured) == len(groups)
    matched = set()
    for rep in coloured:
        assert rep.colours == colours
        labeled = StableGraph(rep.genera, rep.legs, rep.edges)
        (i,) = [i for i, group in enumerate(groups) if any(_isomorphic(labeled, graph) for graph in group)]
        matched.add(i)
        weight = sum(Fraction(1, len(vertex_automorphisms(graph)) * half_edge_factor(graph)) for graph in groups[i])
        assert Fraction(leg_permutations(rep), aut_count(rep)) == weight, rep
        symmetries = sum(
            relabeled(labeled, perm) == _relegged(labeled, p) for perm in permutations(range(rep.num_vertices)) for p in swaps
        )
        assert aut_count(rep) == symmetries * half_edge_factor(labeled), rep
    assert len(matched) == len(groups)


def test_distinct_colours_are_the_labeled_classes():
    # all-distinct colours, in any values, give today's classes, keys and Aut
    for (g, m) in [(1, 2), (2, 2), (0, 5), (3, 1)]:
        labeled = enumerate_stable_graphs(g, m)
        assert enumerate_stable_graphs(g, m, tuple(range(10, 10 - m, -1))) is labeled
        assert all(graph.colours is None and leg_permutations(graph) == 1 for graph in labeled)
        brute = [len(vertex_automorphisms(graph)) * half_edge_factor(graph) for graph in labeled]
        assert [aut_count(graph) for graph in labeled] == brute
    # colours are renumbered by first occurrence
    assert enumerate_stable_graphs(2, 2, (7, 7)) is enumerate_stable_graphs(2, 2, [0, 0])


def test_enumeration_checks_every_representative(monkeypatch):
    # a degeneration that leaves a genus-0 vertex of valence 1 is reported,
    # by a raise that python -O keeps
    def broken(graph):
        return [StableGraph(graph.genera + (0,), graph.legs, ((0, 1),))] if not graph.edges else []

    monkeypatch.setattr(graphs, "_degenerations", broken)
    with pytest.raises(AssertionError, match="not a connected stable graph"):
        _enumerate.__wrapped__(2, 0)


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
    # every decoration keeps it
    assert all(d.aut == 2 for d in enumerate_decorated(2, 0, 3) if d.graph == graph)


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
    # two genus-1 vertices joined by an edge; swapping the halves is the Z_2,
    # which unequal decorations break
    graph = StableGraph((1, 1), (), ((0, 1),))
    assert aut_count(graph) == 2
    auts = {d.decorations: d.aut for d in enumerate_decorated(2, 0, 2) if d.graph == graph}
    assert auts == {(0, 0): 2, (0, 1): 1, (1, 1): 2}


def test_canonical_key_under_random_relabelings(rng):
    for (g, m) in [(3, 0), (2, 2), (4, 0)]:
        for graph in enumerate_stable_graphs(g, m):
            key = signature(graph)
            # the representative is its own canonical form
            assert StableGraph(*key) == graph
            for _ in range(5):
                perm = list(range(graph.num_vertices))
                rng.shuffle(perm)
                assert signature(relabeled(graph, tuple(perm))) == key


def test_cycle_of_eight_looped_vertices(rng):
    # eight genus-0 vertices in a cycle, each with a loop (genus 9): refinement
    # leaves one block of 8, and Aut is the dihedral group times the loop swaps
    cycle = [(v, v + 1) for v in range(7)] + [(0, 7)]
    graph = StableGraph((0,) * 8, (), tuple(sorted(cycle + [(v, v) for v in range(8)])))
    assert graph.genus() == 9 and graph.is_stable()
    assert aut_count(graph) == 16 * 2**8
    key = signature(graph)
    for _ in range(10):
        perm = list(range(8))
        rng.shuffle(perm)
        assert signature(relabeled(graph, tuple(perm))) == key


def test_aut_count_matches_brute_force():
    # every vertex permutation, times the half-edge factor counted edge by edge
    for (g, m) in [(3, 0), (2, 2), (3, 1)]:
        for graph in enumerate_stable_graphs(g, m):
            assert aut_count(graph) == len(vertex_automorphisms(graph)) * half_edge_factor(graph)


def test_aut_count_read_from_the_enumeration(rng, monkeypatch):
    # a representative's count comes from the enumeration's own search; a
    # shuffled relabeling is no representative, so it is searched afresh
    types = [(3, 0), (2, 2), (3, 1), (4, 0)]
    search = graphs._search
    expected = {}
    for (g, m) in types:
        for graph in enumerate_stable_graphs(g, m):
            perm = list(range(graph.num_vertices))
            rng.shuffle(perm)
            shuffled = relabeled(graph, tuple(perm))
            assert (shuffled in graphs._LEAVES) == (shuffled == graph)
            expected[graph] = search(shuffled)[1] * half_edge_factor(graph)
            assert aut_count(shuffled) == expected[graph]

    def forbidden(graph):
        raise AssertionError(f"{graph} searched again")

    monkeypatch.setattr(graphs, "_search", forbidden)
    for graph, count in expected.items():
        assert aut_count(graph) == count


def _placements(spots: list[bool], legs: tuple[int, ...]) -> dict:
    """
    The labeled leg placements of the leg-free graph sum on a graph with these
    vertex (True) and edge (False) spots, by the legs left unplaced: the
    walk's grade transitions without flags or residues, read from its own
    tables of what a closing vertex and an edge take.
    """
    from orbigw.potentials import _chains, _placings

    counts = {legs: 1}
    for at_vertex in spots:
        grown: dict = {}
        for rest, count in counts.items():
            for _, _, mult, left in _placings(rest) if at_vertex else _chains(rest):
                grown[left] = grown.get(left, 0) + count * mult
        counts = grown
    return counts


@pytest.mark.parametrize("h, one, two", [(2, Fraction(83, 12), Fraction(69, 2)), (3, Fraction(635, 12), Fraction(2675, 6))])
def test_leg_placements_on_leg_free_graphs_count_the_legged_classes(h, one, two):
    # by orbit counting, the placements of the legs on a representative of
    # each (h, 0) class, weighted 1 / Aut, count the (h, m) classes weighted
    # 1 / Aut: V + E places for one leg, (V + E)^2 + V + 3E for two labeled
    # legs; with equal legs the walk counts the labelings of each placement,
    # which leg_permutations weights in the coloured classes.  A placement
    # missing from the walk's tables, or counted twice, fails here
    sums: dict = {}
    for graph in enumerate_stable_graphs(h, 0):
        V, E = graph.num_vertices, len(graph.edges)
        spots = [True] * V + [False] * E
        for legs in [(1,), (1, 2), (1, 1)]:
            for rest, count in _placements(spots, legs).items():
                key = (legs, rest)
                sums[key] = sums.get(key, 0) + Fraction(count, aut_count(graph))
        assert _placements(spots, (1,))[()] == V + E
        assert _placements(spots, (1, 2))[()] == _placements(spots, (1, 1))[()] == (V + E) ** 2 + V + 3 * E
    classes = {m: sum(Fraction(1, aut_count(graph)) for graph in enumerate_stable_graphs(h, m)) for m in (1, 2)}
    coloured = sum(Fraction(leg_permutations(graph), aut_count(graph)) for graph in enumerate_stable_graphs(h, 2, (1, 1)))
    assert (classes[1], classes[2], coloured) == (one, two, two)
    assert sums[((1,), ())] == sums[((1, 2), (2,))] == sums[((1, 2), (1,))] == one
    # either of two equal legs placed alone: two labelings of each placement
    assert sums[((1, 1), (1,))] == 2 * one
    assert sums[((1, 2), ())] == sums[((1, 1), ())] == two
