import gc
import weakref
from itertools import combinations

import pytest

from conftest import k44_path
from tightcuts.corpus import gen_h_n, gen_named
from tightcuts.elp import (all_two_separation_cuts, barrier_cuts, elp_set,
                           enumerate_nontrivial_barriers, is_barrier, is_barrier_cut,
                           two_separation_cuts, two_separations)
from tightcuts.errors import EmptySet, GraphMismatch, GraphTooLarge, NotTight, TrivialCut
from tightcuts.formats import parse_graph6
from tightcuts.graphcore import (MultiGraph, _component_masks, build_graph, make_cut,
                                 removed_components)
from tightcuts.matching import enumerate_tight_cuts


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


# -- barriers --------------------------------------------------------------


def test_is_barrier_on_c6():
    g = cycle(6)
    assert is_barrier(g, {0, 2})        # distance-2 pair
    assert is_barrier(g, {0, 2, 4})     # alternating triple
    assert is_barrier(g, {0})           # every singleton
    assert not is_barrier(g, {0, 3})    # antipodal pair leaves two even paths
    assert not is_barrier(g, {0, 1})
    with pytest.raises(EmptySet):
        is_barrier(g, set())


def test_enumerate_nontrivial_barriers_c6():
    g = cycle(6)
    barriers = enumerate_nontrivial_barriers(g)
    assert len(barriers) == 8
    sets = {b.vertices for b in barriers}
    assert frozenset({0, 2, 4}) in sets and frozenset({1, 3, 5}) in sets
    assert all(frozenset({i, (i + 2) % 6}) in sets for i in range(6))
    maximal = [b for b in barriers if b.maximal]
    assert {b.vertices for b in maximal} == {frozenset({0, 2, 4}), frozenset({1, 3, 5})}


def test_bicritical_graphs_have_no_nontrivial_barriers():
    assert enumerate_nontrivial_barriers(gen_named("k4")) == []
    assert enumerate_nontrivial_barriers(gen_named("petersen")) == []


def test_barrier_enumeration_cap():
    with pytest.raises(GraphTooLarge):
        enumerate_nontrivial_barriers(cycle(22))


def test_barrier_odd_components_witness():
    g = cycle(6)
    b = next(x for x in enumerate_nontrivial_barriers(g)
             if x.vertices == frozenset({0, 2}))
    assert sorted(map(sorted, b.odd_components)) == [[1], [3, 4, 5]]


# -- barrier cuts ----------------------------------------------------------


def test_barrier_cuts_c6():
    g = cycle(6)
    cuts = [e for e in barrier_cuts(g) if not e.cut.is_trivial]
    assert {e.cut.shore_pair for e in cuts} == {
        make_cut(g, {i, i + 1, i + 2}).shore_pair for i in range(3)}
    for e in cuts:
        assert e.kind == "barrier-cut"
        assert e.certificate.component in e.cut.shore_pair


def test_is_barrier_cut_c6():
    g = cycle(6)
    found = is_barrier_cut(g, {3, 4, 5})
    # either side of the cut may be the certified odd component
    assert found is not None and is_barrier(g, found.vertices)
    assert {frozenset({3, 4, 5}), frozenset({0, 1, 2})} & set(found.odd_components)
    assert is_barrier_cut(g, {0, 2, 4}) is None  # disconnected side


def test_is_barrier_cut_trivial_side():
    got = is_barrier_cut(gen_named("k4"), {0, 1, 2})
    assert got is not None and got.vertices == frozenset({3})


# -- 2-separations ---------------------------------------------------------


def test_two_separations_c6():
    seps = two_separations(cycle(6))
    assert {s.pair for s in seps} == {frozenset({0, 3}), frozenset({1, 4}),
                                      frozenset({2, 5})}
    for s in seps:
        assert sorted(len(c) for c in s.components) == [2, 2]


def test_two_separations_absent():
    assert two_separations(gen_named("k4")) == []
    assert two_separations(gen_named("petersen")) == []


def test_two_separations_h1():
    g = gen_h_n(1)
    seps = two_separations(g)
    assert len(seps) == 1
    assert {g.labels[v] for v in seps[0].pair} == {"v1", "u3"}


def all_pairs_two_separations(g):
    """Every pair's components walked, in `combinations` order: the walk
    `two_separations` ran before it skipped spanning-tree leaves, as
    (pair, components, pair mask, component masks)."""
    out = []
    for i, j in combinations(range(g.n), 2):
        pair = (1 << i) | (1 << j)
        comps = _component_masks(g, g.full_mask & ~pair)
        if len(comps) >= 2 and not any(c.bit_count() & 1 for c in comps):
            out.append((g.from_mask(pair), tuple(g.from_mask(c) for c in comps), pair,
                        tuple(comps)))
    return out


def test_two_separations_skip_only_tree_leaves(corpus8, sample10, chains12):
    # a leaf j of the BFS tree of G - i leaves G - i - j connected, so
    # skipping such pairs loses no separation and reorders nothing
    graphs = corpus8 + sample10 + chains12 + [gen_h_n(k) for k in range(1, 7)] + [k44_path(4)]
    found = 0
    for g in graphs:
        seps = [(s.pair, s.components, s.pair_mask, s.component_masks)
                for s in two_separations(g)]
        assert seps == all_pairs_two_separations(g)
        found += len(seps)
    assert found == 472  # 355 of them in corpus8


def test_two_separation_cuts_of_one_separation():
    g = cycle(6)
    sep = next(s for s in two_separations(g) if s.pair == frozenset({0, 3}))
    cuts = two_separation_cuts(g, sep)
    assert len(cuts) == 2
    assert {c.cut.shore_pair for c in cuts} == {
        make_cut(g, {0, 1, 2}).shore_pair, make_cut(g, {1, 2, 3}).shore_pair}
    for c in cuts:
        assert c.kind == "two-separation-cut"
        assert c.certificate.attach_vertex in sep.pair


def test_all_two_separation_cuts_dedupes():
    cuts = all_two_separation_cuts(cycle(6))
    assert len(cuts) == 3  # each tight cut arises from two separations


# -- ELP sets --------------------------------------------------------------


def test_elp_set_c6():
    g = cycle(6)
    cut = make_cut(g, {0, 1, 2})
    members = elp_set(g, cut)
    assert len(members) == 1
    assert members[0].cut.shore_pair == cut.shore_pair
    assert members[0].kind == "barrier-cut"


def test_elp_set_h2_v_side():
    g = gen_h_n(2)
    shore = {v for v in g.vertices if g.labels[v].startswith("v")}
    members = elp_set(g, make_cut(g, shore))
    got = {frozenset(g.labels[v] for v in m.cut.small_shore) for m in members}
    assert got == {frozenset({"u1", "u2", "u3"}), frozenset({"v3", "v4", "v5"})}


def test_elp_set_finds_a_cut_whose_first_barrier_is_not_sheltered():
    # the cut bounds an odd component of {0, 6, 7} and of {1, 2}; barrier_cuts
    # keeps {0, 6, 7} as its witness, and only {1, 2} is sheltered by C
    g = build_graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (2, 5), (2, 7),
                        (3, 6), (4, 7)])
    target = make_cut(g, {1, 2, 5})
    first = next(e for e in barrier_cuts(g) if e.cut == target)
    assert first.certificate.barrier.vertices == {0, 6, 7}
    members = elp_set(g, make_cut(g, {0, 3, 6}))
    got = {m.cut.small_shore: m.certificate.barrier.vertices for m in members}
    assert got == {frozenset({0, 3, 6}): {0, 6}, frozenset({1, 2, 5}): {1, 2},
                   frozenset({2, 4, 7}): {2, 4}}


def oracle_elp_shore_pairs(g, cut):
    """ELP(C) from the definitions, by brute force over vertex subsets.

    A sheltered barrier lies inside one shore of C, so only subsets of the
    shores are tried; 2-separation cuts come from every pair of vertices.
    """
    def member(shore):
        if 1 < len(shore) < g.n - 1:
            out.add(frozenset((shore, g.vertices - shore)))

    out = set()
    for side in cut.shore_pair:
        for size in range(2, len(side) + 1):
            for b in combinations(sorted(side), size):
                report = removed_components(g, b)
                if report.odd_count == size:
                    for comp in report.components:
                        if len(comp) % 2:
                            member(comp)
    for pair in combinations(g.order, 2):
        report = removed_components(g, pair)
        comps = report.components
        if len(comps) < 2 or report.odd_count:
            continue
        for k in range(1, len(comps)):
            for group in combinations(comps, k):
                for attach in pair:
                    shore = frozenset().union(*group) | {attach}
                    corners = (shore & cut.shore, shore - cut.shore,
                               cut.shore - shore, g.vertices - shore - cut.shore)
                    if not all(corners):  # C and the cut do not cross
                        member(shore)
    return out


def test_elp_set_matches_definition_on_corpus(corpus6, corpus8):
    cuts = 0
    for g in corpus6 + corpus8:
        for cut in enumerate_tight_cuts(g, nontrivial_only=True):
            members = [m.cut.shore_pair for m in elp_set(g, cut)]
            assert len(members) == len(set(members))
            assert set(members) == oracle_elp_shore_pairs(g, cut)
            cuts += 1
    assert cuts == 1784


def test_elp_set_validation():
    g = cycle(6)
    with pytest.raises(TrivialCut):
        elp_set(g, make_cut(g, {0}))
    with pytest.raises(NotTight) as err:
        elp_set(g, make_cut(g, {0, 2, 4}))
    assert err.value.witness.is_perfect
    other = cycle(6)
    assert other == g
    with pytest.raises(GraphMismatch):
        elp_set(g, make_cut(cycle(8), {0, 1, 2}))


def analysed_ref(g):
    """Fill g's elp memo, drop every result, and return a weak reference to g."""
    cut = enumerate_tight_cuts(g, nontrivial_only=True)[0]
    assert elp_set(g, cut) and all_two_separation_cuts(g)
    barrier_cuts(g)
    return weakref.ref(g)


def test_elp_memo_is_freed_with_its_graph_without_the_cyclic_gc():
    # the memoised cut lists keep shores, not Cuts, so nothing in the memo
    # refers back to the graph; GsQcd{ has non-trivial barrier-cuts, which
    # gen_h_n(2) lacks
    h = gen_h_n(2)
    graphs = [MultiGraph(h.vertices, h.edges, h.label_items), parse_graph6("GsQcd{")]
    refs = [analysed_ref(g) for g in graphs]
    assert barrier_cuts(graphs[1])
    enabled = gc.isenabled()
    gc.disable()
    try:
        del graphs
        assert [ref() for ref in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()


# -- structural property of barriers ---------------------------------------


def test_barriers_are_independent_with_no_even_components(corpus6):
    for g in corpus6:
        for b in enumerate_nontrivial_barriers(g):
            for u in b.vertices:
                assert b.vertices.isdisjoint(g.adjacency[u])
            assert all(len(c) % 2 == 1 for c in b.odd_components)
