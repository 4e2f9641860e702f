import hashlib
import json
import random

import pytest

from tightcuts import decomp
from tightcuts.corpus import gen_h_n, gen_named
from tightcuts.decomp import (_elp_first_candidates, brick_number, decompose,
                              find_nontrivial_tight_cut, is_brace, is_brick)
from tightcuts.errors import NotMatchingCovered
from tightcuts.graphcore import build_graph, is_bipartite
from tightcuts.matching import enumerate_tight_cuts, is_tight, is_tight_by_enumeration


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
    bricks = 0
    for g in corpus6 + corpus8 + sample10 + chains12:
        expected = not enumerate_tight_cuts(g, nontrivial_only=True) and not is_bipartite(g)
        assert is_brick(g) == expected
        bricks += expected
    assert bricks > 100


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
        for cut in _elp_first_candidates(g):
            assert not cut.is_trivial
            assert is_tight_by_enumeration(g, cut.shore).tight
            checked += 1
    assert checked > 300


def test_elp_first_walks_barriers_on_bipartite_nodes_only(monkeypatch):
    walked = []
    barrier_cuts = decomp.barrier_cuts

    def bipartite_only(g):
        assert is_bipartite(g), "barrier walk on a non-bipartite node"
        walked.append(g)
        return barrier_cuts(g)

    monkeypatch.setattr(decomp, "barrier_cuts", bipartite_only)
    for g in (gen_h_n(3), gen_named("petersen"), gen_named("k33"), cycle(8)):
        decompose(g, "elp-first")
    assert walked  # the bipartite ones without a 2-separation


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


@pytest.mark.parametrize("n", [5, 8, 12, 15])
def test_elp_first_past_the_barrier_walk_cap(n):
    # gen_h_n(5) has 22 vertices, past the 20-vertex cap on barrier subset
    # walks, and gen_h_n(15) has 62; their nodes are all non-bipartite
    assert brick_number(decompose(gen_h_n(n), "elp-first", n)) == 2 * n


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
    # digest of the trees elp-first gives since it lists the 2-separation
    # cuts alone when a node has any, and otherwise the components of its
    # maximal barriers: the candidate list changed, so a seed picks another
    # cut (it was 64f0a3e15f7017c7 when barrier-cuts and 2-separation cuts
    # were listed together); any change in its candidate order or its
    # shuffle moves the digest
    graphs = [gen_h_n(k) for k in (1, 2, 3)] + chains12
    assert tree_digest(graphs, "elp-first") == "a4329cad55772c9f"


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


def test_decompose_rejects_uncovered_graphs():
    with pytest.raises(NotMatchingCovered):
        decompose(build_graph(4, [(0, 1), (1, 2), (2, 3)]))
