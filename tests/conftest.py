"""Shared fixtures: small-graph corpora, the seeded 10-vertex sample and
seeded splice chains.

The corpora feed both the module tests and the acceptance suite.  The
10-vertex sample is selected by an independent networkx-based
matching-covered filter so that the package's own filter is never the thing
deciding what the package gets tested on.
"""

import random

import networkx as nx
import pytest

from tightcuts.corpus import connected_graphs, splice_chain
from tightcuts.formats import write_graph6
from tightcuts.graphcore import build_graph
from tightcuts.matching import is_matching_covered

SAMPLE10_SEED = 20260822
SAMPLE10_COUNT = 500
CHAINS12_SEED = 20261019


def to_networkx(g):
    h = nx.MultiGraph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    return h


def nx_is_matching_covered(gnx):
    """Independent matching-covered oracle built on networkx matchings."""
    n = gnx.number_of_nodes()
    if n % 2 or n < 2 or not nx.is_connected(gnx):
        return False
    found = nx.max_weight_matching(gnx, maxcardinality=True)
    if 2 * len(found) != n:
        return False
    covered = {frozenset(e) for e in found}  # edges already in a perfect matching
    for u, v in list(gnx.edges()):
        if frozenset((u, v)) in covered:
            continue
        h = nx.Graph(gnx)
        h.remove_nodes_from((u, v))
        rest = nx.max_weight_matching(h, maxcardinality=True)
        if 2 * len(rest) != n - 2:
            return False
        covered.update(frozenset(e) for e in rest)
    return True


def k44_path(blocks):
    """K_{4,4} blocks spliced in a path: a bipartite brace chain with no
    2-separation, 6 * blocks + 2 vertices and 12 * blocks + 4 edges.

    Each splice deletes a vertex x of the newest block, from the class whose
    neighbours lie in that block alone, and a vertex of the other class of a
    fresh K_{4,4}, then joins their neighbourhoods by a bijection.
    """
    edges = {(a, b) for a in range(4) for b in range(4, 8)}
    far = [4, 5, 6, 7]  # the newest block's class with no edge leaving it
    n = 8
    for _ in range(blocks - 1):
        x = far[-1]
        nbrs = sorted(a + b - x for a, b in edges if x in (a, b))
        edges = {e for e in edges if x not in e}
        near, far = range(n, n + 4), list(range(n + 4, n + 7))
        edges |= {(a, b) for a in near for b in far}
        edges |= set(zip(nbrs, near))
        n += 7
    dense = {v: i for i, v in enumerate(sorted({v for e in edges for v in e}))}
    return build_graph(len(dense), sorted((dense[a], dense[b]) for a, b in edges))


def by_label(g):
    return {lab: v for v, lab in g.label_items}


@pytest.fixture(scope="session")
def corpus6():
    return [g for n in (2, 4, 6) for g in connected_graphs(n)
            if is_matching_covered(g)]


@pytest.fixture(scope="session")
def corpus8():
    return [g for g in connected_graphs(8) if is_matching_covered(g)]


def generate_sample10():
    rng = random.Random(SAMPLE10_SEED)
    out = []
    while len(out) < SAMPLE10_COUNT:
        p = rng.uniform(0.28, 0.75)
        edges = [(i, j) for i in range(10) for j in range(i + 1, 10)
                 if rng.random() < p]
        gnx = nx.Graph(edges)
        gnx.add_nodes_from(range(10))
        if nx_is_matching_covered(gnx):
            out.append(build_graph(10, edges))
    return out


@pytest.fixture(scope="session")
def sample10():
    return generate_sample10()


@pytest.fixture(scope="session")
def sample10_path(tmp_path_factory, sample10):
    path = tmp_path_factory.mktemp("corpus") / "sample10.g6"
    path.write_text("".join(write_graph6(g) + "\n" for g in sample10))
    return path


@pytest.fixture(scope="session")
def chains12(corpus6):
    """Seeded splice chains of 12 and 14 vertices, built from corpus parts.

    Splicing chains 2-separations, which random G(10, p) graphs rarely have.
    """
    rng = random.Random(CHAINS12_SEED)
    parts = [g for g in corpus6 if g.n >= 4]
    out = [splice_chain(rng, parts, target) for target in (12, 14) for _ in range(15)]
    assert all(is_matching_covered(g) for g in out)
    return out
