import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tightcuts.errors import (BadShore, BadVertex, GraphMismatch, GraphTooLarge,
                              LoopRejected)
from tightcuts.graphcore import (build_graph, contract, cut_edges, cuts_cross,
                                 edges_between, graph_from, graph_memo, is_laminar,
                                 make_cut, relabel_graph, removed_components,
                                 shore_contraction)
from tightcuts.matching import enumerate_tight_cuts


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def k4():
    return build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


# -- construction ----------------------------------------------------------


def test_build_graph_basics():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.n == 4 and g.m == 3
    assert g.vertices == frozenset({0, 1, 2, 3})
    assert g.neighbors(1) == (0, 2)
    assert g.degree(1) == 2


def test_edges_are_normalized_and_sorted():
    g = build_graph(3, [(2, 1), (1, 0)])
    assert g.edges == ((0, 1), (1, 2))


def test_parallel_edges_kept_and_counted():
    g = build_graph(2, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 3
    assert g.degree(0) == 3
    assert g.edges == ((0, 1), (0, 1), (0, 1))


def test_loops_rejected():
    with pytest.raises(LoopRejected):
        build_graph(3, [(1, 1)])


def test_bad_vertex_rejected():
    with pytest.raises(BadVertex):
        build_graph(3, [(0, 5)])
    with pytest.raises(BadVertex):
        graph_from([0, 1], [(0, 2)])


def test_vertex_cap():
    build_graph(64, [])  # at the cap is fine
    with pytest.raises(GraphTooLarge):
        build_graph(65, [])


def test_labels_and_display():
    g = graph_from([10, 20], [(10, 20)], labels={10: "a"})
    assert g.display(10) == "a"
    assert g.display(20) == "20"


def test_relabel_graph():
    g = build_graph(3, [(0, 1), (1, 2)])
    h = relabel_graph(g, {0: 5, 1: 6, 2: 7})
    assert h.vertices == frozenset({5, 6, 7})
    assert h.edges == ((5, 6), (6, 7))
    with pytest.raises(BadVertex):
        relabel_graph(g, {0: 5, 1: 5, 2: 7})  # not injective


# -- components ------------------------------------------------------------


def test_removed_components_parity():
    g = cycle(6)
    rep = removed_components(g, {0, 2})
    assert sorted(sorted(c) for c in rep.components) == [[1], [3, 4, 5]]
    assert rep.odd_count == 2 and rep.even_count == 0
    rep = removed_components(g, {0, 3})
    assert rep.odd_count == 0 and rep.even_count == 2


# -- cuts ------------------------------------------------------------------


def test_cut_identity_is_the_shore_pair():
    g = cycle(6)
    c1 = make_cut(g, {0, 1, 2})
    c2 = make_cut(g, {3, 4, 5})
    assert c1 == c2
    assert hash(c1) == hash(c2)
    assert c1 != make_cut(g, {1, 2, 3})


def test_trivial_cut_flag():
    g = cycle(6)
    assert make_cut(g, {0}).is_trivial
    assert make_cut(g, {1, 2, 3, 4, 5}).is_trivial
    assert not make_cut(g, {0, 1, 2}).is_trivial


def test_bad_shores():
    g = cycle(6)
    with pytest.raises(BadShore):
        make_cut(g, set())
    with pytest.raises(BadShore):
        make_cut(g, set(range(6)))
    with pytest.raises(BadVertex):
        make_cut(g, {0, 9})


def test_cut_edges_count_parallels():
    g = build_graph(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0)])
    c = make_cut(g, {0, 1})
    assert len(c.edge_indices) == 2
    assert sorted(cut_edges(g, {0, 1})) == [(0, 3), (1, 2)]


def test_edges_between_requires_disjoint_sets():
    g = cycle(6)
    assert edges_between(g, {0, 1}, {2, 3}) == ((1, 2),)
    with pytest.raises(BadShore):
        edges_between(g, {0, 1}, {1, 2})


def test_cross_and_laminar():
    g = cycle(8)
    nested = (make_cut(g, {0, 1, 2}), make_cut(g, {0, 1, 2, 3, 4}))
    disjoint = (make_cut(g, {0, 1}), make_cut(g, {4, 5}))
    crossing = (make_cut(g, {0, 1, 2, 3}), make_cut(g, {2, 3, 4, 5}))
    assert is_laminar(*nested) and not cuts_cross(*nested)
    assert is_laminar(*disjoint)
    assert cuts_cross(*crossing) and not is_laminar(*crossing)
    # complement-nested counts as laminar too
    assert is_laminar(make_cut(g, {0, 1, 2}), make_cut(g, {3, 4, 5}))


def test_cross_requires_same_graph():
    with pytest.raises(GraphMismatch):
        cuts_cross(make_cut(cycle(8), {0, 1}), make_cut(cycle(6), {0, 1}))


# -- contraction -----------------------------------------------------------


def test_contract_cycle():
    g = cycle(6)
    h = contract(g, {0, 1, 2})
    assert h.vertices == frozenset({3, 4, 5, 6})
    assert h.edges == ((3, 4), (3, 6), (4, 5), (5, 6))
    assert h.display(6) == "0+1+2"


def test_contract_makes_parallel_edges():
    h = contract(k4(), {2, 3})
    assert h.vertices == frozenset({0, 1, 4})
    assert h.edges == ((0, 1), (0, 4), (0, 4), (1, 4), (1, 4))


def test_contract_fresh_ids_never_collide():
    g = cycle(8)
    h = contract(g, {0, 1})
    assert max(h.vertices) == 8
    h2 = contract(h, {2, 3})
    assert max(h2.vertices) == 9
    assert 8 in h2.vertices  # earlier contraction vertex survives


def test_contract_explicit_id_and_tag():
    g = cycle(6)
    h = contract(g, {0, 1, 2}, tag="left", new_id=40)
    assert 40 in h.vertices
    assert h.display(40) == "left"
    with pytest.raises(BadVertex):
        contract(g, {0, 1, 2}, new_id=4)  # collides with a kept vertex


def test_shore_contraction_keeps_the_shore():
    g = cycle(6)
    h = shore_contraction(g, {0, 1, 2})
    assert {0, 1, 2} <= h.vertices and h.n == 4


def test_contract_identifies_disconnected_regions():
    # contraction is total vertex identification; a disconnected region
    # simply merges into the one fresh vertex
    g = cycle(6)
    h = contract(g, {0, 2})
    assert h.vertices == frozenset({1, 3, 4, 5, 6})
    assert h.edges == ((1, 6), (1, 6), (3, 4), (3, 6), (4, 5), (5, 6))


def test_graph_memo_lives_and_dies_with_its_graph():
    g1 = cycle(6)
    g2 = cycle(6)
    assert g1 == g2 and g1 is not g2
    calls = []
    assert graph_memo(g1, "probe", lambda: calls.append(1) or "x") == "x"
    assert graph_memo(g1, "probe", lambda: calls.append(1) or "z") == "x"
    assert graph_memo(g2, "probe", lambda: calls.append(1) or "y") == "y"
    assert len(calls) == 2
    # the engine and results holding Cut values point back at the graph;
    # the whole cycle is collected once the graph itself is dropped
    assert len(enumerate_tight_cuts(g1, nontrivial_only=True)) == 3
    assert "engine" in g1._cache
    ref = weakref.ref(g1)
    del g1
    gc.collect()
    assert ref() is None


# -- properties ------------------------------------------------------------


@st.composite
def small_graph_and_shore(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), min_size=1))
    size = draw(st.integers(min_value=1, max_value=n - 1))
    shore = frozenset(range(size))
    return build_graph(n, sorted(edges)), shore


@given(small_graph_and_shore())
@settings(max_examples=200, deadline=None)
def test_edge_partition_identity(case):
    g, shore = case
    rest = g.vertices - shore
    inside = sum(1 for u, v in g.edges if u in shore and v in shore)
    outside = sum(1 for u, v in g.edges if u in rest and v in rest)
    assert inside + outside + len(make_cut(g, shore).edge_indices) == g.m


@given(small_graph_and_shore())
@settings(max_examples=200, deadline=None)
def test_contract_drops_exactly_the_inside_edges(case):
    g, shore = case
    comps = removed_components(g, g.vertices - shore).components
    if len(comps) != 1:
        return  # contract requires a connected region
    inside = sum(1 for u, v in g.edges if u in shore and v in shore)
    h = contract(g, shore)
    assert h.m == g.m - inside
    assert h.n == g.n - len(shore) + 1
