import hashlib
import json
import random
from collections import Counter

import pytest

from conftest import k44_path
from tightcuts import matching
from tightcuts.corpus import gen_h_n, gen_named
from tightcuts.decomp import (_elp_first_candidates, brick_number, decompose,
                              find_nontrivial_tight_cut, is_brace, is_brick)
from tightcuts.elp import barrier_cuts
from tightcuts.errors import GraphMismatch, NotMatchingCovered, NotTight
from tightcuts.graphcore import MultiGraph, build_graph, contract, is_bipartite, make_cut
from tightcuts.matching import (enumerate_tight_cuts, is_matching_covered, is_tight,
                                is_tight_by_enumeration, tight_contractions)


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


# -- bricks and braces -----------------------------------------------------


def test_named_bricks_and_braces():
    assert is_brick(gen_named("k4")) and not is_brace(gen_named("k4"))
    assert is_brick(gen_named("petersen"))
    assert is_brace(gen_named("k33")) and not is_brick(gen_named("k33"))
    assert is_brace(gen_named("c4"))
    assert not is_brick(cycle(6)) and not is_brace(cycle(6))  # has tight cuts


def test_brick_and_brace_reject_uncovered_graphs():
    p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(NotMatchingCovered):
        is_brick(p4)
    with pytest.raises(NotMatchingCovered):
        is_brace(p4)


def test_is_brick_agrees_with_the_enumeration_definition(corpus6, corpus8, sample10, chains12):
    bricks = braces = 0
    for g in corpus6 + corpus8 + sample10 + chains12:
        leaf = not enumerate_tight_cuts(g, nontrivial_only=True)
        assert is_brick(g) == (leaf and not is_bipartite(g))
        assert is_brace(g) == (leaf and is_bipartite(g))
        bricks += is_brick(g)
        braces += is_brace(g)
    assert bricks > 100 and braces >= 8  # the corpus has 8, K2, C4 and K3,3 among them


# -- cut finding -----------------------------------------------------------


def test_no_cut_in_a_brick_or_brace():
    for name in ("k4", "k33", "petersen"):
        assert find_nontrivial_tight_cut(gen_named(name)) is None
        assert find_nontrivial_tight_cut(gen_named(name), "elp-first") is None


def test_found_cut_is_one_of_the_three():
    g = cycle(6)
    expected = {frozenset({0, 1, 2}), frozenset({0, 1, 5}), frozenset({0, 4, 5})}
    listed = [c.shore for c in enumerate_tight_cuts(g, nontrivial_only=True)]
    for strategy in ("exhaustive", "elp-first"):
        for seed in range(5):
            cut = find_nontrivial_tight_cut(g, strategy, seed)
            assert cut.small_shore in expected
    # the draw shuffles a copy, never the memoised list
    assert [c.shore for c in enumerate_tight_cuts(g, nontrivial_only=True)] == listed


def test_elp_first_finds_a_cut_exactly_when_one_exists(corpus8, sample10, chains12):
    found = 0
    for g in corpus8 + sample10 + chains12:
        cut = find_nontrivial_tight_cut(g, "elp-first")
        assert (cut is None) == (not enumerate_tight_cuts(g, nontrivial_only=True))
        found += cut is not None
    assert found > 1000


def test_elp_first_candidates_are_tight_by_enumeration(corpus8, sample10, chains12):
    rng = random.Random(11)
    checked = 0
    for g in rng.sample(corpus8, 300) + rng.sample(sample10, 50) + chains12:
        for shore in _elp_first_candidates(g):
            assert 3 <= shore.bit_count() <= g.n - 3  # non-trivial
            assert is_tight_by_enumeration(g, g.from_mask(shore)).tight
            checked += 1
    assert checked > 300


def bipartite_sample(count, seed=20261020):
    """Seeded matching covered bipartite graphs on 10 to 20 vertices."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        k = rng.randint(5, 10)
        p = rng.uniform(0.25, 0.6)
        g = build_graph(2 * k, [(i, k + j) for i in range(k) for j in range(k)
                                if rng.random() < p])
        if is_matching_covered(g):
            out.append(g)
    return out


def test_bipartite_tight_cuts_are_barrier_cuts(corpus8):
    # the fact elp-first's bipartite rule stands on: in a bipartite matching
    # covered graph every non-trivial tight cut is a barrier-cut, so listing
    # the tight cuts lists what the barrier walk did
    graphs = [g for g in corpus8 if is_bipartite(g)] + bipartite_sample(100)
    cuts = 0
    for g in graphs:
        tight = {c.shore_pair for c in enumerate_tight_cuts(g, nontrivial_only=True)}
        walked = {e.cut.shore_pair for e in barrier_cuts(g) if not e.cut.is_trivial}
        assert tight == walked
        cuts += len(tight)
    assert len(graphs) > 120 and cuts > 200


def k4_fan(k):
    """u = 0 and v = 1 joined through k disjoint K4s, u to one vertex of
    each and v to another: matching covered and non-bipartite."""
    edges = []
    for i in range(2, 4 * k + 2, 4):
        edges += [(a, b) for a in range(i, i + 4) for b in range(a + 1, i + 4)]
        edges += [(0, i), (1, i + 1)]
    return build_graph(4 * k + 2, edges)


def test_elp_first_lists_each_component_once_per_end():
    # 2-separations are {u, v}, with k components, and inside each K4 the
    # pair joined to u and v, with 2; rule 1 gives each component with
    # either end, 2k + 4k shores, linear in k, where the groupings of
    # {u, v}'s components alone number 2 * (2^(k-1) - 1)
    g = k4_fan(15)
    assert g.n == 62
    shores = _elp_first_candidates(g)
    # a K4 with u or v; the pair's 2-vertex component, or the rest, with an end
    assert Counter(s.bit_count() for s in shores) == Counter({5: 30, 3: 30, 59: 30})
    assert len({s if s & 1 else g.full_mask & ~s for s in shores}) == 60


def test_seed_determinism():
    g = gen_h_n(2)
    a = decompose(g, "exhaustive", seed=7)
    b = decompose(g, "exhaustive", seed=7)
    assert json.dumps(a.to_json_obj()) == json.dumps(b.to_json_obj())


def test_unknown_strategy():
    with pytest.raises(ValueError):
        find_nontrivial_tight_cut(cycle(6), "greedy")


# -- full decompositions ---------------------------------------------------


@pytest.mark.parametrize("name,bricks,leaves", [
    ("k4", 1, 1), ("petersen", 1, 1), ("k33", 0, 1), ("c6", 0, 2),
])
def test_named_decompositions(name, bricks, leaves):
    tree = decompose(gen_named(name))
    assert brick_number(tree) == bricks
    assert len(list(tree.leaves())) == leaves


def test_single_leaf_kinds():
    assert next(decompose(gen_named("k4")).leaves()).leaf_kind == "brick"
    assert next(decompose(gen_named("k33")).leaves()).leaf_kind == "brace"


def test_c6_splits_into_two_braces():
    tree = decompose(gen_named("c6"))
    kinds = [leaf.leaf_kind for leaf in tree.leaves()]
    assert kinds == ["brace", "brace"]
    # each side is a contracted quadrilateral with one doubled edge
    for leaf in tree.leaves():
        assert leaf.graph.n == 4 and leaf.graph.m == 4


@pytest.mark.parametrize("n,bricks", [(1, 2), (2, 4), (3, 6)])
def test_block_chain_brick_numbers(n, bricks):
    g = gen_h_n(n)
    assert brick_number(decompose(g)) == bricks
    assert brick_number(decompose(g, "elp-first")) == bricks


@pytest.mark.parametrize("g,seed,bricks,braces", [
    *(pytest.param(gen_h_n(n), n, 2 * n, 0, id=str(n)) for n in (5, 8, 12, 15)),
    pytest.param(k44_path(4), 4, 0, 4, id="k44-path"),
])
def test_elp_first_past_the_barrier_walk_cap(g, seed, bricks, braces):
    # gen_h_n(5) has 22 vertices, past the 20-vertex cap barrier subset walks
    # had, and gen_h_n(15) has 62; their nodes are all non-bipartite.  The
    # 26-vertex path of K_{4,4}s is bipartite with no 2-separation, so every
    # split comes from its tight cuts, and exhaustive must agree
    kinds = Counter(leaf.leaf_kind for leaf in decompose(g, "elp-first", seed).leaves())
    assert kinds == Counter(brick=bricks, brace=braces)
    if braces:
        assert Counter(leaf.leaf_kind for leaf in decompose(g).leaves()) == kinds


def test_elp_first_brick_numbers_match_exhaustive_on_the_corpus(corpus6, corpus8):
    for g in corpus6 + corpus8:
        assert brick_number(decompose(g, "elp-first")) == brick_number(decompose(g))


def test_h1_leaves_are_k4_with_a_tripled_edge():
    tree = decompose(gen_h_n(1))
    for leaf in tree.leaves():
        assert leaf.leaf_kind == "brick"
        assert leaf.graph.n == 4
        assert leaf.graph.m == 8  # six K4 edges with one tripled


def test_brick_number_is_strategy_and_seed_invariant_on_small_corpus(corpus6):
    for g in corpus6:
        baseline = brick_number(decompose(g))
        for strategy in ("exhaustive", "elp-first"):
            for seed in (1, 17):
                assert brick_number(decompose(g, strategy, seed)) == baseline


def tree_digest(graphs, strategy):
    trees = [decompose(g, strategy, seed).to_json_obj() for g in graphs for seed in (0, 1, 2)]
    return hashlib.sha256(json.dumps(trees, sort_keys=True).encode()).hexdigest()[:16]


def test_exhaustive_trees_are_pinned(chains12):
    # digest of the trees the exhaustive strategy gives since it shuffles its
    # list of tight cuts instead of every odd shore: the draw is as uniform,
    # but a seed picks another cut (it was cc7875ba20fc9bc8 under the old
    # rule); any change in which cut a seed picks, or in a tree's shape, moves it
    graphs = [gen_h_n(k) for k in (1, 2, 3)] + chains12
    assert tree_digest(graphs, "exhaustive") == "579dc1a5de37a43c"


def test_elp_first_trees_are_pinned(chains12):
    # digest of the trees elp-first gives since it lists one shore per
    # 2-separation component and end instead of every grouping of the
    # components, and a bipartite node's tight cuts instead of its barrier
    # walk: the candidate lists changed, so a seed picks another cut (it was
    # a4329cad55772c9f before, and 64f0a3e15f7017c7 when barrier-cuts and
    # 2-separation cuts were listed together); any change in its candidate
    # order or its shuffle moves the digest
    graphs = [gen_h_n(k) for k in (1, 2, 3)] + chains12
    assert tree_digest(graphs, "elp-first") == "184a759620d1e951"


def internal_nodes(tree):
    if tree.cut is not None:
        yield tree
        for child in tree.children:
            yield from internal_nodes(child)


def test_exhaustive_decomposition_past_the_subset_dp_limit():
    # gen_h_n(6) has 26 vertices, the last size the subset DP serves, and
    # gen_h_n(7) has 30, so its root's matching questions go to blossom
    for seed in (0, 1, 2):
        tree = decompose(gen_h_n(6), "exhaustive", seed)
        assert brick_number(tree) == 12
        for node in internal_nodes(tree):
            assert not node.cut.is_trivial
            assert is_tight(node.graph, node.cut.shore).tight
    assert brick_number(decompose(gen_h_n(7), "exhaustive", 0)) == 14


def test_tree_json_shape():
    obj = decompose(gen_named("c6")).to_json_obj()
    assert set(obj) == {"vertices", "edge_count", "cut_shore", "children"}
    assert len(obj["children"]) == 2
    assert obj["vertices"] == [f"v{i}" for i in range(1, 7)]
    for child in obj["children"]:
        assert child["leaf"] == "brace"
    assert json.loads(json.dumps(obj)) == obj


# -- the matching-covered flag a split hands down --------------------------


def test_tight_contractions_mark_both_sides_covered():
    g = cycle(6)
    cut = make_cut(g, {0, 1, 2})
    sides = tight_contractions(g, cut)
    assert sides == (contract(g, cut.complement), contract(g, cut.shore))
    for side in sides:
        assert side._cache == {"matching_covered": True}
    with pytest.raises(GraphMismatch):
        tight_contractions(cycle(8), cut)


def test_tight_contractions_refuse_a_non_tight_cut(monkeypatch):
    g = cycle(6)
    flagged = []
    real_memo = matching.graph_memo

    def recording_memo(h, key, compute):
        flagged.append((h, key))
        return real_memo(h, key, compute)

    monkeypatch.setattr(matching, "graph_memo", recording_memo)
    cut = make_cut(g, {0, 2, 4})  # every edge crosses it
    with pytest.raises(NotTight) as err:
        tight_contractions(g, cut)
    witness = err.value.witness
    assert witness.is_perfect
    assert len(witness.edge_indices & set(cut.edge_indices)) == 3
    assert flagged and all(h is g for h, _ in flagged)  # no contraction got a flag


def rebuilt_nodes(tree):
    """Every node's graph as a fresh instance, sharing no memo with the tree."""
    yield MultiGraph(tree.graph.vertices, tree.graph.edges, tree.graph.label_items)
    for child in tree.children:
        yield from rebuilt_nodes(child)


@pytest.mark.parametrize("strategy", ["exhaustive", "elp-first"])
def test_inherited_flag_is_true_at_every_node(strategy, corpus8, chains12):
    # each contraction is marked matching covered without a check; a fresh
    # copy of every node, with no memo, must pass the check itself
    nodes = 0
    for seed, g in enumerate(corpus8 + chains12 + [gen_h_n(k) for k in range(1, 5)]):
        for node in rebuilt_nodes(decompose(g, strategy, seed)):
            assert is_matching_covered(node)
            nodes += 1
    assert nodes > 5000  # 3,178 inputs and their contractions


def two_triangles():
    """Two triangles joined by one edge: connected, even, with a perfect
    matching, but no triangle edge at the joined vertex lies in one."""
    return build_graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])


def test_decompose_rejects_uncovered_graphs():
    # the root is the one node checked; two triangles pass every other test
    for g in (build_graph(4, [(0, 1), (1, 2), (2, 3)]), two_triangles()):
        for strategy in ("exhaustive", "elp-first"):
            with pytest.raises(NotMatchingCovered):
                decompose(g, strategy)
