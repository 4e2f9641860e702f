"""Barrier search inside the maximal-barrier partition, against oracles.

The oracles below are the searches the library ran before it used the
partition: an independent-set walk for barriers, a subset search over the
whole far side for barrier-cuts, component reports for every vertex pair for
2-separations, and a seeded shuffle of every non-trivial odd shore for the
exhaustive cut choice.  They share nothing with the engine's barrier code
beyond `removed_components`, and the engine must agree with them exactly:
same sets, witnesses, `maximal` flags, order and seeded choices.

The far-side search stays as the existence oracle for barrier-cuts only:
`is_barrier_cut` answers from the maximal-barrier partition, returning the
largest barrier (the class holding N(X), minus X) where the search finds the
smallest, so the two agree on whether a barrier exists, and the answer is
checked against its rule.
"""

import json
import random
from itertools import combinations

import pytest
from conftest import k44_path

from tightcuts.corpus import gen_h_n, gen_named, splice_chain
from tightcuts.decomp import decompose, find_nontrivial_tight_cut
from tightcuts.elp import (barrier_cuts, enumerate_nontrivial_barriers, is_barrier,
                           is_barrier_cut, two_separations)
from tightcuts.graphcore import MultiGraph, build_graph, make_cut, removed_components
from tightcuts.gscut import (barrier_cut_certificate_to_json_obj, classify_tight_cut,
                             validate_certificate_json_obj)
from tightcuts.matching import (barrier_classes, enumerate_tight_cuts, is_matching_covered,
                                is_tight, odd_shores)


# -- oracles ---------------------------------------------------------------


def oracle_barriers(g):
    """Walk every independent set; keep those that are barriers of size >= 2."""
    order = g.order
    found = []

    def extend(current, start):
        if len(current) >= 2 and removed_components(g, current).odd_count == len(current):
            found.append(frozenset(current))
        for k in range(start, g.n):
            v = order[k]
            if any(u in g.adjacency[v] for u in current):
                continue
            current.append(v)
            extend(current, k + 1)
            current.pop()

    extend([], 0)
    out = [(sorted(b), removed_components(g, b).components,
            not any(other > b for other in found)) for b in found]
    out.sort(key=lambda row: row[0])
    return out


def oracle_two_separations(g):
    out = []
    for pair in combinations(g.order, 2):
        report = removed_components(g, pair)
        if len(report.components) >= 2 and report.odd_count == 0:
            out.append((frozenset(pair), report.components))
    return out


def oracle_is_barrier_cut(g, shore):
    """Extend N(X) by every subset of the far side off N(X), smallest first."""
    shore = frozenset(shore)
    for side in (shore, g.vertices - shore):
        if len(side) % 2 == 0:
            continue
        if len(removed_components(g, g.vertices - side).components) != 1:
            continue
        nbhd = neighbourhood(g, side)
        pool = sorted(g.vertices - side - nbhd)
        for size in range(len(pool) + 1):
            for extra in combinations(pool, size):
                b = nbhd | frozenset(extra)
                report = removed_components(g, b)
                if report.odd_count == len(b):
                    return b, report.components
    return None


def neighbourhood(g, side):
    return frozenset().union(*(g.adjacency[v] for v in side)) - side


def oracle_exhaustive_cut(g, seed):
    """The tight non-trivial odd shores in odd_shores order, shuffled by the seed; the first."""
    shores = [s for s in odd_shores(g, nontrivial_only=True) if is_tight(g, s).tight]
    random.Random(seed).shuffle(shores)
    return shores[0] if shores else None


# -- inputs ----------------------------------------------------------------


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


PRISM = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                        (0, 3), (1, 4), (2, 5)])
def cube():
    return build_graph(8, [(i, i ^ (1 << k)) for i in range(8) for k in range(3)
                           if i < i ^ (1 << k)])


def fresh(g):
    """An equal graph instance with nothing memoised."""
    return MultiGraph(g.vertices, g.edges, g.label_items)


@pytest.fixture(scope="module")
def chains(corpus6):
    rng = random.Random(20261018)
    parts = [g for g in corpus6 if g.n >= 4]
    out = []
    for target in (14, 16, 18, 20):
        g = splice_chain(rng, parts, target)
        assert is_matching_covered(g)
        out.append(g)
    return out


# -- the engine against the oracles ----------------------------------------


def barrier_rows(g):
    return [(sorted(b.vertices), b.odd_components, b.maximal)
            for b in enumerate_nontrivial_barriers(g)]


def separation_rows(g):
    return [(s.pair, s.components) for s in two_separations(g)]


def test_barriers_and_separations_match_oracle_on_corpus8(corpus8):
    found = 0
    for g in corpus8:
        rows = barrier_rows(g)
        assert rows == oracle_barriers(g)
        assert separation_rows(g) == oracle_two_separations(g)
        found += len(rows)
    assert found > 1000


def test_barriers_and_separations_match_oracle_on_sample10(sample10):
    for g in sample10:
        assert barrier_rows(g) == oracle_barriers(g)
        assert separation_rows(g) == oracle_two_separations(g)


def test_barriers_and_separations_match_oracle_on_chains(chains):
    for g in chains:
        rows = barrier_rows(g)
        assert rows == oracle_barriers(g)
        assert separation_rows(g) == oracle_two_separations(g)
        assert two_separations(g)


def home_class(g, side):
    """The class of `barrier_classes` holding N(side), or None if N(side) meets two."""
    nbhd = neighbourhood(g, side)
    homes = [c for c in class_sets(g) if c & nbhd]
    return homes[0] if len(homes) == 1 else None


def checked_barrier_cut(g, shore):
    """`is_barrier_cut`'s answer, after checking one it returns against the rule."""
    got = is_barrier_cut(g, shore)
    if got is not None:
        sides = [s for s in make_cut(g, shore).shore_pair if s in got.odd_components]
        assert sides and got.vertices == home_class(g, sides[0]) - sides[0]
        assert removed_components(g, got.vertices).odd_count == len(got.vertices)
    return got


def test_is_barrier_cut_matches_oracle_on_tight_cuts(corpus8, sample10, chains):
    # trivial cuts included: theirs are the answers that need N(X) extended
    hits = misses = extended = 0
    for g in corpus8 + sample10 + chains + [cube()]:
        for cut in enumerate_tight_cuts(g):
            got = checked_barrier_cut(g, cut.shore)
            assert (got is None) == (oracle_is_barrier_cut(g, cut.shore) is None)
            hits += got is not None
            misses += got is None
            extended += got is not None and not any(
                got.vertices == neighbourhood(g, side) for side in cut.shore_pair)
    assert hits and misses and extended


def test_is_barrier_cut_matches_oracle_on_non_tight_shores(corpus8, sample10):
    rng = random.Random(31)
    checked = 0
    for g in rng.sample(corpus8, 150) + sample10[:50]:
        for shore in rng.sample(list(odd_shores(g)), 4):
            if is_tight(g, shore).tight:
                continue
            got = checked_barrier_cut(g, shore)
            assert (got is None) == (oracle_is_barrier_cut(g, shore) is None)
            checked += 1
    assert checked > 400


def rule_barrier_cut_pairs(g):
    """Tight cuts with a side K whose N(K) lies in one class M, |M - K| >= 2."""
    out = set()
    for cut in enumerate_tight_cuts(g):
        for side in cut.shore_pair:
            home = home_class(g, side)
            if home is not None and len(home - side) >= 2:
                out.add(cut.shore_pair)
    return out


def test_barrier_cuts_are_the_rule_cuts(corpus8, sample10, chains):
    # a tight cut's sides are odd and connected, so by the rule a side K
    # bounds a non-trivial barrier exactly when N(K) lies in one class M
    # with |M - K| >= 2
    found = 0
    for g in corpus8 + sample10 + chains:
        pairs = {elp.cut.shore_pair for elp in barrier_cuts(g)}
        assert pairs == rule_barrier_cut_pairs(g)
        found += len(pairs)
    assert found > 3000


def test_is_barrier_cut_past_the_subset_search():
    # a subset search of the class holding N(X) grows by 3 pool vertices a
    # block and takes minutes on this non-tight shore at 62 vertices
    g = k44_path(10)
    assert g.n == 62
    assert is_barrier_cut(g, {0, 4, 5, 6, 7}) is None
    cuts = enumerate_tight_cuts(g, nontrivial_only=True)
    assert len(cuts) == 9
    for cut in cuts:
        result = classify_tight_cut(g, cut.shore)
        assert result.verdict == "barrier-cut"
        side = next(c for c in result.barrier.odd_components if c in cut.shore_pair)
        obj = barrier_cut_certificate_to_json_obj(result.barrier, side)
        assert validate_certificate_json_obj(g, json.loads(json.dumps(obj)))


def test_exhaustive_cut_choice_matches_oracle(corpus8, sample10):
    rng = random.Random(47)
    graphs = rng.sample(corpus8, 150) + sample10[:40] + [gen_h_n(k) for k in (1, 2, 3)]
    for g in graphs:
        for seed in (0, 1, rng.randrange(1 << 31)):
            cut = find_nontrivial_tight_cut(g, "exhaustive", seed)
            want = oracle_exhaustive_cut(g, seed)
            assert (None if cut is None else cut.shore) == want


# -- the partition ---------------------------------------------------------


def class_sets(g):
    return [g.from_mask(c) for c in barrier_classes(g)]


def test_classes_partition_the_vertices_into_barriers(corpus8, sample10):
    for g in corpus8 + sample10[:100]:
        classes = class_sets(g)
        assert sum(len(c) for c in classes) == g.n
        assert frozenset().union(*classes) == g.vertices
        for c in classes:
            if len(c) >= 2:
                assert is_barrier(g, c)


@pytest.mark.parametrize("g", [gen_named("k4"), PRISM, gen_named("petersen")],
                         ids=["k4", "prism", "petersen"])
def test_bicritical_graphs_have_singleton_classes(g):
    assert sorted(map(sorted, class_sets(g))) == [[v] for v in g.order]


@pytest.mark.parametrize("g, colours", [
    (cycle(6), [{0, 2, 4}, {1, 3, 5}]),
    (gen_named("k33"), [{0, 1, 2}, {3, 4, 5}]),
    (cube(), [{0, 3, 5, 6}, {1, 2, 4, 7}]),
], ids=["c6", "k33", "cube"])
def test_bipartite_graphs_have_their_colour_classes(g, colours):
    assert sorted(map(sorted, class_sets(g))) == sorted(map(sorted, colours))


@pytest.mark.parametrize("strategy", ["exhaustive", "elp-first"])
def test_decompose_frees_every_node_memo(chains, strategy):
    # a node's analysis lives only while the node is split, the input's too;
    # the tree is the one a fresh instance decomposes to with the same seed
    for g in (gen_h_n(3), fresh(chains[0])):
        assert is_matching_covered(g)  # the input starts with a memo
        tree = decompose(g, strategy, 11)
        nodes = [tree]
        for node in nodes:
            nodes.extend(node.children)
        assert tree.graph is g and len(nodes) > 1
        assert all(not node.graph._cache for node in nodes)
        assert tree.to_json_obj() == decompose(fresh(g), strategy, 11).to_json_obj()
