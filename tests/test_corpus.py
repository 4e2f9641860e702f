import hashlib
import itertools
import random

import networkx as nx
import pytest

from conftest import nx_is_matching_covered, to_networkx
from tightcuts.corpus import (CorpusStream, _canonical_form, connected_graphs, edge_splice,
                              enumerate_matching_covered, gen_h_n, gen_h_n_prime,
                              gen_named)
from tightcuts.elp import two_separations
from tightcuts.errors import BadParameter, BadSplice, NeedExternalCorpus, UnknownGraph
from tightcuts.formats import write_graph6
from tightcuts.graphcore import build_graph, graph_from, relabel_graph
from tightcuts.matching import is_bicritical, is_matching_covered


def simple_nx(g):
    return nx.Graph(set(g.edges))


# -- chain-of-blocks family ------------------------------------------------


@pytest.mark.parametrize("n,vertices,edges", [(1, 6, 11), (2, 10, 21), (3, 14, 31)])
def test_gen_h_n_sizes(n, vertices, edges):
    g = gen_h_n(n)
    assert (g.n, g.m) == (vertices, edges)
    assert is_matching_covered(g)
    assert is_bicritical(g)


def test_gen_h_n_labels():
    g = gen_h_n(2)
    assert sorted(g.labels.values()) == sorted(
        [f"v{i}" for i in range(1, 6)] + [f"u{i}" for i in range(1, 6)])


def test_gen_h_n_rejects_bad_parameter():
    with pytest.raises(BadParameter):
        gen_h_n(0)


def test_gen_h_n_two_separation_family_sizes():
    for n in range(1, 5):
        assert len(two_separations(gen_h_n(n))) == 2 * n - 1


def test_h_1_is_a_splice_of_two_k4s():
    k4 = gen_named("k4")
    left = relabel_graph(k4, {0: 0, 1: 1, 2: 2, 3: 5})
    right = relabel_graph(k4, {0: 3, 1: 4, 2: 5, 3: 0})
    spliced = edge_splice(left, right, 0, 5)
    assert nx.is_isomorphic(simple_nx(spliced), simple_nx(gen_h_n(1)))


# -- chorded-path family ---------------------------------------------------


@pytest.mark.parametrize("n,vertices,edges", [(4, 12, 20), (6, 16, 28)])
def test_gen_h_n_prime_sizes(n, vertices, edges):
    g = gen_h_n_prime(n)
    assert (g.n, g.m) == (vertices, edges)
    assert is_matching_covered(g)
    assert two_separations(g) == []


def test_gen_h_n_prime_labels():
    g = gen_h_n_prime(4)
    labels = set(g.labels.values())
    assert {"u0", "u1", "u2"} <= labels
    assert {f"v{i}" for i in range(1, 10)} <= labels
    hub = next(v for v in g.vertices if g.labels[v] == "u0")
    assert len(g.adjacency[hub]) == 2


@pytest.mark.parametrize("bad", [2, 3, 5])
def test_gen_h_n_prime_rejects_bad_parameter(bad):
    with pytest.raises(BadParameter):
        gen_h_n_prime(bad)


# -- edge splicing ---------------------------------------------------------


def test_edge_splice_of_two_cycles_is_a_theta():
    other = graph_from(frozenset({0, 1, 6, 7, 8, 9}),
                       [(0, 6), (6, 7), (7, 8), (8, 9), (9, 1), (0, 1)])
    th = edge_splice(gen_named("c6"), other, 0, 1)
    assert (th.n, th.m) == (10, 11)  # shared edge kept once
    assert sorted(len(th.adjacency[v]) for v in th.vertices) == [2] * 8 + [3, 3]
    assert is_matching_covered(th)
    assert frozenset({0, 1}) in {s.pair for s in two_separations(th)}


def test_edge_splice_rejections():
    k4 = gen_named("k4")
    shifted = relabel_graph(k4, {0: 4, 1: 5, 2: 6, 3: 7})
    with pytest.raises(BadSplice):
        edge_splice(k4, shifted, 0, 1)  # right side misses the vertices
    overlapping = relabel_graph(k4, {0: 0, 1: 1, 2: 2, 3: 7})
    with pytest.raises(BadSplice):
        edge_splice(k4, overlapping, 0, 1)  # overlap is {0, 1, 2}
    k2 = build_graph(2, [(0, 1)])
    with pytest.raises(BadSplice):
        edge_splice(k4, k2, 0, 1)  # a side below 4 vertices
    no_edge = graph_from(frozenset({0, 1, 8, 9}), [(0, 8), (8, 1), (1, 9), (9, 0)])
    with pytest.raises(BadSplice):
        edge_splice(k4, no_edge, 0, 1)  # splice edge absent on one side


def test_edge_splice_rejects_odd_remainders():
    p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    other = graph_from(frozenset({1, 2, 4, 5}), [(4, 1), (1, 2), (2, 5)])
    with pytest.raises(BadSplice):
        edge_splice(p4, other, 1, 2)  # four singleton components, all odd


# -- named fixtures --------------------------------------------------------


def test_gen_named_aliases():
    assert gen_named("K3,3") == gen_named("k33")
    assert gen_named("K_4") == gen_named("k4")
    with pytest.raises(UnknownGraph):
        gen_named("grid")


def test_named_petersen_matches_reference():
    assert nx.is_isomorphic(simple_nx(gen_named("petersen")), nx.petersen_graph())


# -- isomorphism-free enumeration ------------------------------------------


def test_connected_graph_counts():
    assert [len(connected_graphs(n)) for n in range(1, 8)] == [1, 1, 2, 6, 21, 112, 853]


def test_connected_graphs_rejections():
    with pytest.raises(BadParameter):
        connected_graphs(0)
    with pytest.raises(NeedExternalCorpus):
        connected_graphs(9)


@pytest.mark.parametrize("n,classes", [(4, 6), (5, 21)])
def test_enumeration_against_brute_force(n, classes):
    # independent oracle: dedupe every labeled connected graph by exact
    # isomorphism, with no structural-hash shortcut
    pairs = list(itertools.combinations(range(n), 2))
    reps = []
    for bits in range(1 << len(pairs)):
        edges = [p for k, p in enumerate(pairs) if (bits >> k) & 1]
        gnx = nx.Graph(edges)
        gnx.add_nodes_from(range(n))
        if not nx.is_connected(gnx):
            continue
        if not any(nx.is_isomorphic(gnx, r) for r in reps):
            reps.append(gnx)
    assert len(reps) == classes == len(connected_graphs(n))


def test_enumeration_covers_the_graph_atlas():
    # independent oracle: the atlas of all graphs up to 7 vertices ships with
    # networkx; each connected one must match exactly one enumerated class
    def key(h):
        return h.number_of_nodes(), tuple(sorted((d, nx.triangles(h, v)) for v, d in h.degree()))

    buckets = {}
    for n in range(1, 8):
        for k, g in enumerate(connected_graphs(n)):
            h = nx.Graph(to_networkx(g))
            buckets.setdefault(key(h), []).append(((n, k), h))
    matched = set()
    for a in nx.graph_atlas_g()[1:]:
        if nx.is_connected(a):
            hits = [nk for nk, h in buckets[key(a)] if nx.is_isomorphic(a, h)]
            assert len(hits) == 1
            matched.add(hits[0])
    assert len(matched) == 1 + 1 + 2 + 6 + 21 + 112 + 853


def automorphism_count(gens, n):
    seen = {tuple(range(n))}
    stack = list(seen)
    while stack:
        p = stack.pop()
        for g in gens:
            q = tuple(g[x] for x in p)
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return len(seen)


def test_canonical_form_is_invariant_and_finds_the_group():
    # networkx's VF2 counts the automorphisms independently
    rng = random.Random(14)
    for g in connected_graphs(6):
        code, gens = _canonical_form(list(g.adj_masks))
        perm = list(range(6))
        rng.shuffle(perm)
        moved = relabel_graph(g, dict(enumerate(perm)))
        assert _canonical_form(list(moved.adj_masks))[0] == code
        h = simple_nx(g)
        aut = sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter())
        assert automorphism_count(gens, 6) == aut


def g6_digest(graphs):
    return hashlib.sha256("".join(write_graph6(g) + "\n" for g in graphs).encode()).hexdigest()


def test_class_list_is_pinned_at_7():
    assert g6_digest(connected_graphs(7)) == (
        "3281f929c85ff3da4ca376f05d6effb355736260f6549a0283f9dffd55e00bdb")


def test_class_list_is_pinned_at_8(corpus8):
    # the level is cached by the corpus8 fixture; the digest equals
    # classes8_sha256 in perfbench/data/expected.json
    assert g6_digest(connected_graphs(8)) == (
        "95a2c004264a5ff00ba99add1aa55ba82f9834f211f62adf518b5ac6f3d1de3b")


def test_level_cache_keeps_no_analysed_graph():
    list(CorpusStream(6))  # the matching-covered filter memoises on each graph
    assert all("_cache" not in g.__dict__ for g in connected_graphs(6))


def test_enumeration_members_are_pairwise_nonisomorphic():
    got = [to_networkx(g) for g in connected_graphs(5)]
    for a, b in itertools.combinations(got, 2):
        assert not nx.is_isomorphic(a, b)


# -- corpus streams --------------------------------------------------------


def test_matching_covered_counts_to_6():
    manifest = CorpusStream(6).manifest()
    assert manifest == {
        "source": "builtin-enumeration", "max_vertices": 6,
        "matching_covered_only": True, "checked": 119, "emitted": 27,
        "by_size": {"2": 1, "4": 2, "6": 24}}


def test_matching_covered_counts_to_8(corpus8):
    assert len(corpus8) == 3144
    manifest = enumerate_matching_covered(8).manifest()
    assert manifest["checked"] == 11236
    assert manifest["by_size"] == {"2": 1, "4": 2, "6": 24, "8": 3144}


def test_filter_agrees_with_independent_oracle():
    for n in (4, 6):
        for g in connected_graphs(n):
            assert is_matching_covered(g) == nx_is_matching_covered(nx.Graph(to_networkx(g)))


def test_unfiltered_stream_counts():
    manifest = CorpusStream(6, filter_matching_covered=False).manifest()
    assert manifest["emitted"] == 119
    assert manifest["by_size"] == {"2": 1, "4": 6, "6": 112}


def test_stream_parameter_validation():
    with pytest.raises(BadParameter):
        CorpusStream(3)
    with pytest.raises(BadParameter):
        CorpusStream(2)
    with pytest.raises(NeedExternalCorpus):
        CorpusStream(10)


def test_external_file_stream(tmp_path):
    path = tmp_path / "mini.g6"
    p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    path.write_text("".join(write_graph6(g) + "\n"
                            for g in (gen_named("k4"), gen_named("c6"), p4)))
    stream = CorpusStream(8, external_path=str(path))
    assert stream.source == "graph6-file"
    graphs = list(stream)
    assert [g.n for g in graphs] == [4, 6]  # the path is not matching covered
    assert stream.manifest()["checked"] == 3


def test_combined_stream_skips_small_file_entries(tmp_path):
    path = tmp_path / "mixed.g6"
    path.write_text("".join(write_graph6(g) + "\n"
                            for g in (gen_named("petersen"), gen_named("k4"))))
    stream = CorpusStream(10, external_path=str(path))
    assert stream.source == "builtin-enumeration+graph6-file"
    manifest = stream.manifest()
    # the file's K4 is ignored: sizes <= 8 come from the built-in enumeration
    assert manifest["by_size"]["10"] == 1
    assert manifest["by_size"]["4"] == 2
    assert manifest["checked"] == 11237
