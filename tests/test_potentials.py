from fractions import Fraction
from itertools import product

import pytest

from oracles import (
    Decorated,
    SeriesTables,
    assemble_F_series,
    edge_oracle,
    edges_symmetric,
    enumerate_decorated,
    graph_contribution,
    lifted_entry,
    relabeled,
    series_entry,
)
from orbigw.graphs import _enumerate, enumerate_stable_graphs
from orbigw.potentials import (
    ContributionTables,
    _multisets,
    _walk,
    _walk_grades,
    assemble_F,
    assemble_potentials,
    audit_generators,
)
from orbigw.ring import RingElement


def test_multiset_enumeration():
    assert list(_multisets(0, 0)) == [()]
    assert list(_multisets(4, 2)) == [(2, 2)]
    assert list(_multisets(7, 3)) == [(2, 2, 3)]
    assert list(_multisets(6, 2)) == [(2, 4), (3, 3)]


def test_tail_vanishing_and_value(tables3):
    # a vertex takes no tail of degree 0 or 1: every part of its tail multisets is at least 2
    assert all(min(mult) >= 2 for total in range(13) for k in range(1, 6) for mult in _multisets(total, k))
    # the tail T_{p,2} is the leg factor of insertion 0 and flag 2; its
    # character sum read at every decoration gives (-1)^2 zeta^{-2p} / n P~^2_{0,p}
    for p in range(3):
        want = lifted_entry(tables3.pm, 2, 0, p) * tables3.data.zeta(-2 * p) * Fraction(1, 3)
        assert Decorated(tables3)("leg_core", (2, 0), p) == want


@pytest.mark.parametrize("policy", ["symplectic", "zero", "custom"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_char_at_a_decoration_matches_entry(pmatrix_at, n, policy):
    # every factor is built from the shifted entry _char; read at p, it is
    # the column-p entry times zeta^{-(k+i)p}, over the lift and over the
    # series tables
    pm = pmatrix_at(n, policy)
    zeta = pm.data.zeta
    for tables, entry in ((ContributionTables(pm), lifted_entry), (SeriesTables(pm), series_entry)):
        at = Decorated(tables)
        for k, i, p in product(range(pm.col.k_max + 1), range(n), range(n)):
            got = at("_char", (k, i), p)
            assert (got - entry(pm, k, i, p) * zeta(-(k + i) * p)).is_zero(), (k, i, p)
        with pytest.raises(ValueError, match="exceeds the lifted depth"):
            tables._char(pm.col.k_max + 1, 0)


def test_vertex_trivalent_genus0(tables3):
    # all flags zero: only k = 0 contributes and the value is n^{2g-2+3} <tau_0^3> = n
    v = tables3.vertex(0, (0, 0, 0))
    assert v == {0: RingElement.scalar(Fraction(3))}
    # dimension violating flags vanish
    assert not tables3.vertex(0, (1, 0, 0))
    # vertex contributions contain no ring generators at all
    assert not v[0].generators_used()


def test_shallow_table_raises(data3):
    # <tau_0 tau_2>_1 needs the order-2 tail, which a depth-1 table lacks
    from orbigw.pmatrix import build_pmatrix

    shallow = ContributionTables(build_pmatrix(data3, 1, policy="zero"))
    with pytest.raises(ValueError):
        shallow.vertex(1, (0,))


def test_vertex_genus1(tables3):
    # one-valent genus-1 vertex, flag 0: k can be 0 (psi integral <tau_0>_1 = 0
    # by dimension) or 1 with one tail of degree 2
    # n^{2g-2+1+1} <tau_0 tau_2>_1 = n^2 / 24 times the tail, componentwise in
    # the character sum
    v = tables3.vertex(1, (0,))
    assert v == {u: x * Fraction(9, 24) for u, x in tables3.leg_core(2, 0).items()}


def test_edge_symmetry(tables3):
    # the character sum is symmetric under swapping the ends
    for b1 in range(2):
        for b2 in range(2):
            a = tables3.edge(b1, b2)
            b = tables3.edge(b2, b1)
            assert a == {(u2, u1): x for (u1, u2), x in b.items()}


@pytest.mark.parametrize(("n", "policy"), [(3, "zero"), (4, "zero"), (5, "zero"), (6, "zero"), (7, "zero"), (4, "custom")])
def test_edge_recurrence_matches_classification_formula(pmatrix_at, n, policy):
    # the recurrence over the pairing against the m-sum of the formula, read
    # from the graded pieces, for every edge a depth-7 table holds; at n = 6
    # and 7 the edge factors are not symmetric, so a slip of orientation in
    # the pairing or the recurrence shows there
    tables = ContributionTables(pmatrix_at(n, policy, 7))
    for b1 in range(7):
        for b2 in range(7 - b1):
            assert tables.edge(b1, b2) == edge_oracle(tables, b1, b2), (b1, b2)
    with pytest.raises(ValueError, match="exceeds the lifted depth"):
        tables.edge(3, 4)


@pytest.mark.parametrize("policy", ["symplectic", "zero", "custom"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_edge_factors_symmetric_under_every_policy(pmatrix_at, n, policy):
    # every policy's column is unitary, so edge(b1, b2) is the transpose of
    # edge(b2, b1) through b1 + b2 = 6, the most a genus-3 verdict reads
    tables = ContributionTables(pmatrix_at(n, policy, 7))
    assert edges_symmetric(tables, 6)


@pytest.mark.parametrize("policy", ["symplectic", "zero", "custom"])
def test_potentials_do_not_depend_on_vertex_order(pmatrix_at, policy, rng, monkeypatch):
    # every representative relabeled by a random vertex permutation gives the
    # same F_3, F_{2,2}(1, 1) and F_{2,2}(1, 2) at n = 3: the potentials are
    # graph invariants, whether the legs are placed on the (2, 0) graphs or
    # walked on the (2, 2) graphs
    import orbigw.potentials as potentials

    tables = ContributionTables(pmatrix_at(3, policy, 7))
    potentials_at = [(3, ()), (2, (1, 1)), (2, (1, 2))]
    want = {(g, ins): assemble_F(tables, g, ins).core for g, ins in potentials_at}
    real = potentials.enumerate_stable_graphs

    moved = []

    def shuffled(g, m):
        out = []
        for graph in real(g, m):
            perm = list(range(graph.num_vertices))
            rng.shuffle(perm)
            out.append(relabeled(graph, tuple(perm)))
            moved.append(out[-1] != graph)
        return tuple(out)

    monkeypatch.setattr(potentials, "enumerate_stable_graphs", shuffled)
    for _ in range(2):
        for g, ins in potentials_at:
            assert assemble_F(tables, g, ins).core == want[(g, ins)], (g, ins)
            if ins:
                assert _walk(tables, potentials.enumerate_stable_graphs(g, len(ins)), ins) == want[(g, ins)], (g, ins)
    assert sum(moved) > 100


def test_edge_membership(tables3):
    for e in tables3.edge(0, 0).values():
        for g in e.generators_used():
            assert g[0] == "A"


def test_leg_values(tables3):
    # flag 0, insertion 0: core reduces to normalization / n
    leg = tables3.leg_core(0, 0)
    assert leg == {0: RingElement.scalar(Fraction(1, 3))}
    pref = tables3.leg_prefactor(0)
    assert pref == RingElement.scalar(Fraction(1))
    pref1 = tables3.leg_prefactor(1)
    assert pref1.monomial_count() == 1
    (mono, c), = pref1.terms()
    assert c == 1 and pref1.den == 1 and mono[0] == -2  # K_2 / L^2 for n = 3


def test_assemble_F2_structure(tables3):
    pot = assemble_F(tables3, 2, ())
    audit = audit_generators(tables3, pot)
    assert audit["core_ok"] and audit["prefactor_ok"] and audit["vertex_ok"]
    assert pot.prefactor == RingElement.scalar(Fraction(1))
    gens = pot.core.generators_used()
    assert gens <= {("A", 1, 0)}  # S_3 = {A_1}
    ev = tables3.ctx.evaluator(tables3.data)
    series = ev.eval(pot.core)
    assert series.prec > 20  # a well defined series to substantial order


def test_graph_sum_order_independence(tables3):
    graphs = enumerate_stable_graphs(2, 0)
    total_fwd = RingElement.zero()
    for graph in graphs:
        total_fwd = total_fwd + _walk(tables3, (graph,), ())
    total_rev = RingElement.zero()
    for graph in reversed(graphs):
        total_rev = total_rev + _walk(tables3, (graph,), ())
    assert (total_fwd - total_rev).is_zero()
    assert (assemble_F(tables3, 2, ()).core - total_fwd).is_zero()


def test_dropping_any_graph_changes_F2(tables3):
    graphs = enumerate_stable_graphs(2, 0)
    assert len(graphs) == 7
    full = assemble_F(tables3, 2, ()).core
    for graph in graphs:
        partial = RingElement.zero()
        for other in graphs:
            if other != graph:
                partial = partial + _walk(tables3, (other,), ())
        assert not (full - partial).is_zero(), f"dropping {graph} is invisible"


@pytest.mark.parametrize("policy", ["symplectic", "zero", "custom"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_character_sum_matches_decorated_oracle(pmatrix_at, n, policy):
    # the character sum over undecorated graphs equals the decorated sum,
    # whose factors are read one decoration at a time with explicit zeta
    # weights, graph by graph, so errors cancelling between graphs show too,
    # and assemble_F with their total
    cases = [(2, ()), (1, (1,)), (1, (1, 2)), (2, (2,))]
    if n == 3:
        cases += [(1, (1, 1)), (2, (1, 1))]
    tables = ContributionTables(pmatrix_at(n, policy, 6 if n == 3 else 5))
    at = Decorated(tables)
    for g, insertions in cases:
        per_graph = {graph: RingElement.zero() for graph in enumerate_stable_graphs(g, len(insertions))}
        for dec in enumerate_decorated(g, len(insertions), n):
            per_graph[dec.graph] = per_graph[dec.graph] + graph_contribution(at, dec, insertions)
        want = RingElement.zero()
        for graph, contribution in per_graph.items():
            assert _walk(tables, (graph,), insertions) == contribution, (g, insertions, graph)
            want = want + contribution
        assert assemble_F(tables, g, insertions).core == want, (g, insertions)


def test_character_sum_matches_decorated_oracle_genus3(data3):
    # genus 3 brings 4-vertex graphs, loops at several vertices, and edges
    # that close one of their ends only; compared graph by graph at n = 3
    from orbigw.pmatrix import build_pmatrix

    tables = ContributionTables(build_pmatrix(data3, 7))
    at = Decorated(tables)
    graphs = enumerate_stable_graphs(3, 0)
    assert len(graphs) == 42 and max(graph.num_vertices for graph in graphs) == 4
    per_graph = {graph: RingElement.zero() for graph in graphs}
    for dec in enumerate_decorated(3, 0, 3):
        per_graph[dec.graph] = per_graph[dec.graph] + graph_contribution(at, dec, ())
    for graph, contribution in per_graph.items():
        assert _walk(tables, (graph,), ()) == contribution, graph


@pytest.mark.parametrize("n, policy", [(3, "symplectic"), (4, "custom")])
def test_step_cache_leaks_nothing(n, policy):
    # the edge steps are keyed by local end data alone and shared by every
    # graph of a potential: potentials assembled in either order on one
    # table, and graph by graph in reverse order, equal those of fresh
    # tables, so no step is read for a graph whose ends differ in genus,
    # legs or orientation
    from orbigw.genus0 import GenusZeroData, ModelConfig
    from orbigw.pmatrix import build_pmatrix

    custom = [Fraction(1, k + 1) for k in range(7)] if policy == "custom" else None
    pm = build_pmatrix(GenusZeroData.build(ModelConfig(n)), 7, policy, custom_constants=custom)
    potentials = [(3, ()), (2, (1, 1)), (2, (1, 2)), (2, (1,))]
    fresh = {(g, ins): assemble_F(ContributionTables(pm), g, ins).core for g, ins in potentials}
    for order in (potentials, potentials[::-1]):
        tables = ContributionTables(pm)
        for g, ins in order:
            assert assemble_F(tables, g, ins).core == fresh[(g, ins)], (order, g, ins)
    for g, ins in potentials:
        tables = ContributionTables(pm)
        graphs = enumerate_stable_graphs(g, len(ins))
        reverse = RingElement.zero()
        for graph in reversed(graphs):
            reverse = reverse + _walk(tables, (graph,), ins)
        assert reverse == fresh[(g, ins)], (g, ins)


@pytest.mark.parametrize("n, g, insertions", [(3, 3, ()), (3, 2, (1, 1)), (4, 2, (1, 2))])
def test_walk_does_not_depend_on_graph_order(pmatrix_at, rng, n, g, insertions):
    # the walk sorts the graphs itself: enumeration order, reversed and a
    # seeded shuffle give one potential, which is also the sum of one-graph
    # walks, each from a blank stack; the orders pop the stack where
    # prefixes diverge, between graphs of one vertex count or of two
    from orbigw.potentials import _walk

    tables = ContributionTables(pmatrix_at(n, "zero", 3 * g - 2 + len(insertions)))
    graphs = list(enumerate_stable_graphs(g, len(insertions)))
    want = RingElement.zero()
    for graph in graphs:
        want = want + _walk(tables, (graph,), insertions)
    shuffled = graphs[:]
    rng.shuffle(shuffled)
    assert shuffled != graphs
    for order in (graphs, graphs[::-1], shuffled):
        assert _walk(tables, order, insertions) == want
    assert assemble_F(tables, g, insertions).core == want


@pytest.mark.parametrize(
    "n, g, insertions, walked, edges", [(3, 3, (), 112, 157), (4, 2, (1, 2), 190, 244)]
)
def test_walk_contracts_each_shared_prefix_once(pmatrix_at, monkeypatch, n, g, insertions, walked, edges):
    # the edges a potential's walk contracts, against the edges of its graphs,
    # all of which the one-graph walks contract: lost sharing fails here.  The
    # state keys are padded to the largest graph, so a prefix shared by graphs
    # of different vertex counts is contracted once too
    import orbigw.potentials as potentials

    tables = ContributionTables(pmatrix_at(n, "zero", 3 * g - 2 + len(insertions)))
    contracted = []
    real = potentials._contract

    def counted(tables, state, step):
        contracted.append(step)
        return real(tables, state, step)

    monkeypatch.setattr(potentials, "_contract", counted)
    graphs = enumerate_stable_graphs(g, len(insertions))
    _walk(tables, graphs, insertions)
    assert len(contracted) == walked
    contracted.clear()
    for graph in graphs:
        _walk(tables, (graph,), insertions)
    assert len(contracted) == sum(len(graph.edges) for graph in graphs) == edges


@pytest.mark.parametrize(
    "n, h, legs, most, walked, edges",
    [(3, 2, (1, 1), 2, 11, 12), (4, 2, (1, 2), 2, 11, 12), (3, 3, (1, 2), 1, 112, 157)],
)
def test_graded_walk_contracts_each_shared_prefix_once(pmatrix_at, monkeypatch, n, h, legs, most, walked, edges):
    # the walk that places legs on the (h, 0) graphs shares their prefixes
    # as the walk without legs does: the grade is one more slot of the key
    import orbigw.potentials as potentials

    # the depth of two legs, which the oracle tests of the route build too
    tables = ContributionTables(pmatrix_at(n, "zero", 3 * h))
    contracted = []
    real = potentials._contract

    def counted(tables, state, step):
        contracted.append(step)
        return real(tables, state, step)

    monkeypatch.setattr(potentials, "_contract", counted)
    graphs = enumerate_stable_graphs(h, 0)
    _walk_grades(tables, graphs, (), (legs, most))
    assert len(contracted) == walked
    contracted.clear()
    for graph in graphs:
        _walk_grades(tables, (graph,), (), (legs, most))
    assert len(contracted) == sum(len(graph.edges) for graph in graphs) == edges


@pytest.mark.parametrize("insertions", [(3,), (4,), (-1,)])
def test_insertion_outside_the_sectors_is_refused(tables3, insertions):
    # at n = 3 the sectors are 0..2; the refusal comes before any graph is enumerated
    before = _enumerate.cache_info()
    with pytest.raises(ValueError, match=rf"^insertion index {insertions[0]} is outside 0\.\.2$"):
        assemble_F(tables3, 1, insertions)
    assert _enumerate.cache_info() == before


@pytest.mark.parametrize("n", [3, 4])
def test_folds_without_legs_match_double_sum(n):
    # an edge that closes one end, summed over that end's flag and residue
    # with no legs to place, against the double sum over edge and
    # closed_vertex written out here
    from orbigw.genus0 import GenusZeroData, ModelConfig
    from orbigw.pmatrix import build_pmatrix

    custom = [Fraction(1, k + 1) for k in range(7)]
    tables = ContributionTables(build_pmatrix(GenusZeroData.build(ModelConfig(n)), 7, "custom", custom_constants=custom))
    checked = 0
    for h, legs, flags in product((0, 1), ((), (1,), (2,), (1, 2)), ((), (0,), (1,), (0, 0), (0, 1))):
        room = 3 * h - 2 + len(flags) + len(legs) - sum(flags)
        if 2 * h - 1 + len(flags) + len(legs) <= 0 or room < 0:
            continue
        for r, other in product(range(n), range(7 - room)):
            want: dict = {}
            for b in range(room + 1):
                closed = tables.closed_vertex(h, legs, tuple(sorted(flags + (b,))))
                for (u, v), y in tables.edge(b, other).items():
                    if (-r - u) % n in closed:
                        want[v] = want.get(v, RingElement.zero()) + y * closed[(-r - u) % n]
            got = {v: x for v, _, x in tables._folds(h, legs, flags, r, other, (), 0)}
            assert {v: x for v, x in got.items() if x} == {v: x for v, x in want.items() if x}, (h, legs, flags, r, other)
            checked += bool(want)
    assert checked > 100


def test_one_point_potential_adds_prefactor(tables3):
    pot = assemble_F(tables3, 1, (1,))
    audit = audit_generators(tables3, pot)
    assert audit["prefactor_ok"] and audit["core_ok"]
    assert any(g[0] == "C" for g in pot.full().generators_used())


def test_edge_derivative_closed_form_odd(tables3):
    # the distinguished partial of an edge telescopes to a single product of
    # shifted entries; this is what turns edges into pairs of legs
    n, s = 3, 1
    pm = tables3.pm
    gen = ("A", s, 0)
    at = Decorated(tables3)
    for b1 in range(2):
        for b2 in range(2):
            for p1 in range(n):
                for p2 in range(n):
                    got = at("edge", (b1, b2), (p1, p2)).partial(gen)
                    w = tables3.data.zeta(-(b1 + s + 1) * p1 - (b2 + s + 1) * p2)
                    want = (
                        lifted_entry(pm, b1, s + 1, p1)
                        * lifted_entry(pm, b2, s + 1, p2)
                        * w
                        * Fraction((-1) ** (b1 + b2), n)
                    )
                    assert (got - want).is_zero(), (b1, b2, p1, p2)


def test_edge_derivative_closed_form_even(data4):
    from orbigw.pmatrix import build_pmatrix

    n, s = 4, 2
    pm = build_pmatrix(data4, 4, policy="zero")
    tables = ContributionTables(pm)
    gen = ("A", s - 1, 0)
    at = Decorated(tables)
    for b1 in range(2):
        for b2 in range(2):
            for p1 in range(n):
                for p2 in range(n):
                    got = at("edge", (b1, b2), (p1, p2)).partial(gen)
                    w1 = tables.data.zeta(-(b1 + s + 1) * p1 - (b2 + s) * p2)
                    w2 = tables.data.zeta(-(b1 + s) * p1 - (b2 + s + 1) * p2)
                    want = (
                        lifted_entry(pm, b1, s + 1, p1) * lifted_entry(pm, b2, s, p2) * w1
                        + lifted_entry(pm, b1, s, p1) * lifted_entry(pm, b2, s + 1, p2) * w2
                    ) * Fraction((-1) ** (b1 + b2), n)
                    assert (got - want).is_zero(), (b1, b2, p1, p2)


def test_series_assembly_cross_checks_ring_pipeline(tables3):
    # the graph sum computed purely with series must match the evaluated
    # ring-level potential, prefactors included
    ev = tables3.ctx.evaluator(tables3.data)
    for (g, ins) in [(2, ()), (1, (1,)), (1, (1, 2))]:
        ring_val = ev.eval(assemble_F(tables3, g, ins).full())
        series_val = assemble_F_series(tables3, g, ins)
        assert (ring_val - series_val).zero_order() is None, (g, ins)


def test_series_assembly_cross_checks_ring_pipeline_even(data4):
    from orbigw.pmatrix import build_pmatrix

    pm = build_pmatrix(data4, 4, policy="zero")
    tables = ContributionTables(pm)
    ev = pm.ctx.evaluator(data4)
    for (g, ins) in [(2, ()), (1, (2,))]:
        ring_val = ev.eval(assemble_F(tables, g, ins).full())
        series_val = assemble_F_series(tables, g, ins)
        assert (ring_val - series_val).zero_order() is None, (g, ins)


def _legged_against_legged_graphs(tables, h, monkeypatch, cases=(((1, 1), (1,)), ((1, 2), (1,), (2,)))):
    # one walk over the (h, 0) graphs gives F_{h,2} and its one-leg
    # potentials, with equal and with distinct insertions; each equals the
    # walk over its own (h, m) graphs exactly, numerators and denominator
    import orbigw.potentials as potentials

    enumerated = []
    real = potentials.enumerate_stable_graphs

    def spied(g, m):
        enumerated.append((g, m))
        return real(g, m)

    monkeypatch.setattr(potentials, "enumerate_stable_graphs", spied)
    for wanted in cases:
        enumerated.clear()
        got = assemble_potentials(tables, h, wanted)
        assert enumerated == [(h, 0)]
        for insertions, pot in got.items():
            want = _walk(tables, real(h, len(insertions)), insertions)
            assert (pot.core.nums, pot.core.den) == (want.nums, want.den), insertions


@pytest.mark.parametrize("policy", ["symplectic", "zero", "custom"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_legged_potentials_over_leg_free_graphs_genus2(pmatrix_at, monkeypatch, n, policy):
    _legged_against_legged_graphs(ContributionTables(pmatrix_at(n, policy, 6)), 2, monkeypatch)


def test_legged_potentials_over_leg_free_graphs_genus3(pmatrix_at, monkeypatch):
    # F_{3,2}(1, 1) with F_{3,1}(1), and F_{3,1}(2) walked alone
    _legged_against_legged_graphs(ContributionTables(pmatrix_at(3, "zero", 9)), 3, monkeypatch, (((1, 1), (1,)), ((2,),)))


def test_leg_free_walk_reads_no_edge_beyond_the_symmetry_check(pmatrix_at, monkeypatch):
    # the route checks E(b1, b2) against E(b2, b1) for b1 + b2 <= 3h - 3 + m;
    # the walk itself, dressed edges and pendants included, reads no deeper
    tables = ContributionTables(pmatrix_at(3, "zero", 9))
    read = []
    real = tables.edge

    def recorded(b1, b2):
        read.append(b1 + b2)
        return real(b1, b2)

    monkeypatch.setattr(tables, "edge", recorded)
    for h, legs, most in [(2, (1, 2), 2), (3, (1, 1), 2), (3, (1, 2), 1)]:
        read.clear()
        _walk_grades(tables, enumerate_stable_graphs(h, 0), (), (legs, most))
        assert read and max(read) <= 3 * h - 3 + most, (h, legs)


def test_asymmetric_edges_keep_the_legged_graphs(pmatrix_at):
    # at n = 6 the lift's edge factors are not symmetric from b1 + b2 = 3 on,
    # so a graph's value depends on its representative and the legs are not
    # placed on leg-free graphs: F_{2,2} and F_{2,1} are the walks over the
    # enumerated (2, m) graphs, which the pinned n = 6 verdict reads
    tables = ContributionTables(pmatrix_at(6, "zero", 6))
    assert not tables.symmetric(5) and tables.symmetric(2)
    walks = {}
    for insertions in [(2, 3), (3, 3), (2,)]:
        walks[insertions] = _walk(tables, enumerate_stable_graphs(2, len(insertions)), insertions)
        assert assemble_F(tables, 2, insertions).core == walks[insertions], insertions
    # the legs placed on the (2, 0) representatives regardless give another
    # F_{2,2}(2, 3), the potential the n = 6 verdict reads
    placed = _walk_grades(tables, enumerate_stable_graphs(2, 0), (), ((2, 3), 2))[()]
    assert placed != walks[(2, 3)]
