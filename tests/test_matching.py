import gc
import random
import weakref
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import nx_is_matching_covered, to_networkx
from tightcuts.corpus import connected_graphs, gen_h_n, gen_named, splice_chain
from tightcuts.errors import (BadShore, EvenShore, GraphTooLarge, NotMatchingCovered,
                              TooSmall)
from tightcuts.graphcore import (MultiGraph, build_graph, contract, cut_edge_indices,
                                 edge_splice, make_cut, relabel_graph)
from tightcuts.matching import (_engine, barrier_classes, enumerate_perfect_matchings,
                                enumerate_tight_cuts, has_perfect_matching, is_bicritical,
                                is_matching_covered, is_tight, is_tight_by_enumeration,
                                odd_shores, subgraph_has_pm, tutte_violator)


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


# -- perfect matching counts (oracle: hand counts / permanents) ------------


@pytest.mark.parametrize("name,count", [
    ("k4", 3), ("c6", 2), ("k33", 6), ("petersen", 6),
])
def test_perfect_matching_counts(name, count):
    enum = enumerate_perfect_matchings(gen_named(name))
    assert len(enum) == count and not enum.truncated


def test_parallel_edges_give_distinct_matchings():
    g = build_graph(2, [(0, 1), (0, 1)])
    enum = enumerate_perfect_matchings(g)
    assert len(enum) == 2
    assert sorted(tuple(m.edge_indices) for m in enum) == [(0,), (1,)]


def test_enumeration_is_lexicographic_by_edge_index():
    got = [tuple(sorted(m.edge_indices)) for m in enumerate_perfect_matchings(gen_named("k4"))]
    assert got == sorted(got)
    assert got[0] == (0, 5)  # (0,1) with (2,3)


def test_enumeration_limit_and_truncation():
    enum = enumerate_perfect_matchings(gen_named("k4"), limit=1)
    assert len(enum) == 1 and enum.truncated
    enum = enumerate_perfect_matchings(gen_named("k4"), limit=3)  # all three: nothing left out
    assert len(enum) == 3 and not enum.truncated
    with pytest.raises(ValueError):
        enumerate_perfect_matchings(gen_named("k4"), limit=0)


def test_matching_objects():
    m = next(iter(enumerate_perfect_matchings(gen_named("c6"))))
    assert m.is_perfect
    assert m.covered == frozenset(range(6))


# -- existence -------------------------------------------------------------


def test_has_perfect_matching_basics():
    assert has_perfect_matching(cycle(6))
    assert not has_perfect_matching(cycle(5))
    assert not has_perfect_matching(build_graph(4, [(0, 1), (0, 2), (0, 3)]))
    assert has_perfect_matching(path(4))
    assert not has_perfect_matching(path(5))


def test_blossom_route_past_the_dp_limit():
    # 28 vertices exceeds the bitmask-DP cutoff, exercising the blossom path
    assert has_perfect_matching(cycle(28))
    assert not has_perfect_matching(path(29))
    assert subgraph_has_pm(cycle(28), {0, 1})
    assert not subgraph_has_pm(cycle(28), {0, 2})


def test_tutte_violator_agrees(corpus6):
    for g in corpus6:
        assert tutte_violator(g) is None
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    bad = tutte_violator(star)
    assert bad == frozenset({0})


def test_tutte_violator_cap():
    with pytest.raises(GraphTooLarge):
        tutte_violator(build_graph(22, []))


def test_subgraph_has_pm():
    g = cycle(6)
    assert subgraph_has_pm(g, {0, 1})
    assert not subgraph_has_pm(g, {0, 2})
    assert subgraph_has_pm(g, set())


# -- matching covered / bicritical -----------------------------------------


def test_is_matching_covered():
    assert is_matching_covered(cycle(6))
    assert is_matching_covered(gen_named("k4"))
    assert not is_matching_covered(path(4))  # middle edge in no matching
    assert not is_matching_covered(build_graph(4, [(0, 1), (2, 3)]))  # disconnected
    assert is_matching_covered(build_graph(2, [(0, 1)]))
    assert not is_matching_covered(build_graph(1, []))


def test_is_bicritical():
    assert is_bicritical(gen_named("k4"))
    assert is_bicritical(gen_named("petersen"))
    assert not is_bicritical(cycle(6))
    assert not is_bicritical(gen_named("k33"))
    with pytest.raises(TooSmall):
        is_bicritical(build_graph(2, [(0, 1)]))


def oracle_is_bicritical(g):
    """The definition: G - u - v has a perfect matching for every pair."""
    return all(subgraph_has_pm(g, pair) for pair in combinations(g.order, 2))


def test_is_bicritical_matches_the_all_pairs_oracle(corpus8, sample10):
    # is_bicritical reads the maximal-barrier partition; every connected graph
    # on 4-7 vertices brings the odd and the non-matching-covered ones
    graphs = [g for n in range(4, 8) for g in connected_graphs(n)] + corpus8 + sample10
    verdicts = [is_bicritical(g) for g in graphs]
    assert verdicts == [oracle_is_bicritical(g) for g in graphs]
    assert 0 < sum(verdicts) < len(graphs)
    assert all("bicritical" not in g._cache for g in graphs)


def nx_verdict(g):
    # a parallel copy lies in a perfect matching exactly when its twin does
    return nx_is_matching_covered(nx.Graph(to_networkx(g)))


def test_is_matching_covered_matches_networkx():
    for n in range(1, 7):
        for g in connected_graphs(n):
            assert is_matching_covered(g) == nx_verdict(g)


def test_tight_cut_contractions_match_networkx(corpus8, sample10):
    # contracting a shore leaves parallel edges wherever two cut edges share
    # their far end; the engine's masks collapse them
    contractions = parallels = 0
    for g in corpus8 + sample10:
        for cut in enumerate_tight_cuts(g, nontrivial_only=True):
            for side in (cut.shore, cut.complement):
                h = contract(g, side)
                assert is_matching_covered(h) == nx_verdict(h)
                contractions += 1
                parallels += len(set(h.edges)) < h.m
    assert contractions > 2000 and parallels > 500


def test_k4_splices_of_bicritical_graphs_match_networkx(corpus6, corpus8):
    # the splice the theorem sweep makes: K4 glued on a bicritical graph's first edge
    spliced = 0
    for g in corpus6 + corpus8:
        if g.n < 4 or not is_bicritical(g):
            continue
        u, v = g.edges[0]
        top = max(g.vertices)
        k4 = relabel_graph(gen_named("k4"), {0: u, 1: v, 2: top + 1, 3: top + 2})
        h = edge_splice(g, k4, u, v)
        assert is_matching_covered(h) == nx_verdict(h)
        spliced += 1
    assert spliced > 500


# -- tightness -------------------------------------------------------------


def test_tight_cut_in_c6():
    g = cycle(6)
    assert is_tight(g, {0, 1, 2}).tight
    verdict = is_tight(g, {0, 2, 4})
    assert not verdict.tight
    w = verdict.witness
    assert w.is_perfect
    cut = make_cut(g, {0, 2, 4})
    assert len(set(w.edge_indices) & set(cut.edge_indices)) >= 3


def test_tightness_validation():
    with pytest.raises(EvenShore):
        is_tight(cycle(6), {0, 1})
    with pytest.raises(NotMatchingCovered):
        is_tight(path(4), {0})
    with pytest.raises(BadShore):
        is_tight(cycle(6), set())


def test_both_tightness_routes_agree_on_small_corpus(corpus6):
    for g in corpus6:
        for shore in odd_shores(g):
            assert is_tight(g, shore).tight == is_tight_by_enumeration(g, shore).tight


def test_enumeration_route_ignores_a_poisoned_engine_memo():
    # one wrong subset-DP entry sinks the engine; the second route must not
    # share it, or a DP fault would pass the routes' cross-check
    pet = gen_named("petersen")
    g = MultiGraph(pet.vertices, pet.edges, pet.label_items)  # not the shared fixture
    assert is_matching_covered(g)
    _engine(g).pm_memo[g.full_mask] = False
    assert not has_perfect_matching(g)
    verdict = is_tight_by_enumeration(g, {0, 1, 2})
    assert not verdict.tight and verdict.witness.is_perfect
    # poisoned before any query: the engine now calls Petersen not matching
    # covered, and the second route must not take its precondition from it
    g = MultiGraph(pet.vertices, pet.edges, pet.label_items)
    i, j = g.index[g.edges[0][0]], g.index[g.edges[0][1]]
    _engine(g).pm_memo[g.full_mask & ~((1 << i) | (1 << j))] = False
    with pytest.raises(NotMatchingCovered):
        is_tight(g, {0, 1, 2})
    verdict = is_tight_by_enumeration(g, {0, 1, 2})
    assert not verdict.tight and verdict.witness.is_perfect


def test_enumeration_route_precondition():
    with pytest.raises(NotMatchingCovered):
        is_tight_by_enumeration(path(4), {0})  # middle edge in no matching
    with pytest.raises(NotMatchingCovered):
        is_tight_by_enumeration(build_graph(4, [(0, 1), (2, 3)]), {0})  # disconnected
    with pytest.raises(NotMatchingCovered):
        is_tight_by_enumeration(build_graph(3, [(0, 1), (1, 2)]), {0})  # odd order
    with pytest.raises(EvenShore):
        is_tight_by_enumeration(path(4), {0, 1})  # the shore is checked first
    assert is_tight_by_enumeration(build_graph(2, [(0, 1), (0, 1)]), {0}).tight


def test_memo_is_freed_with_its_graph_without_the_cyclic_gc():
    # nothing in the memo refers back to the graph, so dropping the last
    # reference frees the graph, its engine and its results at once
    pet = gen_named("petersen")
    g = MultiGraph(pet.vertices, pet.edges, pet.label_items)
    is_matching_covered(g)
    barrier_classes(g)
    enumerate_tight_cuts(g)
    witness = is_tight(g, {0, 1, 2}).witness
    assert witness.is_perfect and _engine(g).edge_ends is not None
    ref = weakref.ref(g)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del g, witness
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_witness_holds_the_first_pair_some_matching_holds(corpus6, corpus8, sample10):
    # oracle: full enumeration; the witness must contain the first pair (e, f)
    # of cut edges, in index order, that some perfect matching contains
    rng = random.Random(7)
    graphs = rng.sample(corpus6 + corpus8, 200) + rng.sample(sample10, 5)
    checked = 0
    for g in graphs:
        shores = [s for s in odd_shores(g) if not is_tight(g, s).tight]
        pms = [m.edge_indices for m in enumerate_perfect_matchings(g)]
        for shore in rng.sample(shores, min(len(shores), 3)):
            idxs = cut_edge_indices(g, shore)
            first = next((e, f) for a, e in enumerate(idxs) for f in idxs[a + 1:]
                         if any(e in m and f in m for m in pms))
            w = is_tight(g, shore).witness
            assert w.is_perfect
            assert set(first) <= w.edge_indices
            checked += 1
    assert checked > 300


def test_single_cut_tightness_past_the_dp_limit():
    # 42 vertices: every pair query and witness step goes through blossom
    g = gen_h_n(10)
    v_side = frozenset(v for v, lab in g.label_items if lab.startswith("v"))
    assert g.n == 42 and is_tight(g, v_side).tight
    shore = (v_side - {min(v_side)}) | {max(g.vertices)}
    verdict = is_tight(g, shore)
    assert not verdict.tight and verdict.witness.is_perfect


def test_odd_shores_counts_and_order():
    g = cycle(6)
    all_shores = list(odd_shores(g))
    assert len(all_shores) == 16           # sizes 1, 3, 5 through vertex 0
    assert all_shores[0] == frozenset({0})
    nontrivial = list(odd_shores(g, nontrivial_only=True))
    assert len(nontrivial) == 10           # size-3 shores through vertex 0
    assert all(len(s) == 3 for s in nontrivial)
    sizes = [len(s) for s in all_shores]
    assert sizes == sorted(sizes)


def test_enumerate_tight_cuts():
    g = cycle(6)
    nontrivial = enumerate_tight_cuts(g, nontrivial_only=True)
    assert len(nontrivial) == 3
    assert {c.small_shore for c in nontrivial} == {
        frozenset({0, 1, 2}), frozenset({0, 1, 5}), frozenset({0, 4, 5})}
    assert len(enumerate_tight_cuts(g)) == 9  # six trivial cuts join in
    assert enumerate_tight_cuts(gen_named("k4"), nontrivial_only=True) == []


def walked_tight_shores(g, nontrivial_only):
    """Oracle: test every odd shore through the lowest vertex, in odd_shores order.

    Runs on a fresh copy of g, so it shares no edge-pair table with the search.
    """
    h = MultiGraph(g.vertices, g.edges, g.label_items)
    eng = _engine(h)
    inc = eng.incidence()
    out = []
    for shore in odd_shores(h, nontrivial_only):
        mask = 0
        for v in shore:
            mask ^= inc[h.index[v]]
        if eng.first_pair(mask) is None:
            out.append(shore)
    return out


def assert_search_matches_walk(g):
    for nontrivial_only in (True, False):
        cuts = enumerate_tight_cuts(g, nontrivial_only)
        assert [c.shore for c in cuts] == walked_tight_shores(g, nontrivial_only)
        # every pair inside a returned cut is settled, so re-testing asks nothing
        eng = _engine(g)
        pm_entries, known = len(eng.pm_memo), list(eng.known)
        assert all(is_tight(g, c.shore).tight for c in cuts)
        assert len(eng.pm_memo) == pm_entries and eng.known == known


def test_tight_cut_search_matches_the_shore_walk(corpus6, corpus8, sample10, chains12):
    graphs = corpus6 + corpus8 + sample10 + chains12 + [gen_h_n(k) for k in range(1, 5)]
    for g in graphs:
        assert_search_matches_walk(g)


@given(st.randoms(use_true_random=False), st.sampled_from([12, 14, 16, 18]))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_tight_cut_search_matches_the_shore_walk_on_splice_chains(corpus6, rng, target):
    g = splice_chain(rng, [g for g in corpus6 if g.n >= 4], target)
    assert g.n == target and is_matching_covered(g)
    assert_search_matches_walk(g)


def test_tight_cut_search_past_ten_vertices():
    big = gen_h_n(5)  # 22 vertices: 2^20 odd shores through the lowest vertex
    cuts = enumerate_tight_cuts(big, nontrivial_only=True)
    assert big.n == 22 and len(cuts) == 54
    assert all(is_tight(big, c.shore).tight for c in cuts)
    g = gen_h_n(3)
    found = {c.shore for c in enumerate_tight_cuts(g)}
    others = [s for s in odd_shores(g) if s not in found]
    rng = random.Random(19)
    for shore in sorted(found, key=sorted) + rng.sample(others, 50):
        assert is_tight_by_enumeration(g, shore).tight == (shore in found)


def test_trivial_cuts_are_always_tight(corpus6):
    for g in corpus6:
        if g.n < 4:
            continue
        v = g.order[0]
        assert is_tight(g, {v}).tight


# -- property: existence routes agree --------------------------------------


@st.composite
def graphs_to_10(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs)))
    return build_graph(n, sorted(edges))


@given(graphs_to_10())
@settings(max_examples=150, deadline=None)
def test_pm_existence_routes_agree(g):
    dp = has_perfect_matching(g)
    gnx = nx.Graph(to_networkx(g))
    blossom = 2 * len(nx.max_weight_matching(gnx, maxcardinality=True)) == g.n
    assert dp == blossom
    if g.n <= 20:
        assert dp == (tutte_violator(g) is None)
