"""Seeded input generators.  The same seed always gives the same inputs.

sample10 draws G(10, p) graphs and keeps the matching covered ones, judged by
a networkx oracle that shares no code with the library, so the library's own
filter never decides what it is benchmarked on.  splice_chains glues corpus
graphs along shared edges with the library's edge_splice; the brick number
is additive over such splices, so each chain's expected brick number is the
sum of its parts' recorded brick numbers.
"""

import random


def nx_is_matching_covered(gnx) -> bool:
    """Connected, even, and every edge in some perfect matching (blossom)."""
    import networkx as nx

    n = gnx.number_of_nodes()
    if n % 2 or n < 2 or not nx.is_connected(gnx):
        return False
    m = nx.max_weight_matching(gnx, maxcardinality=True)
    if 2 * len(m) != n:
        return False
    covered = {frozenset(e) for e in m}
    for u, v in gnx.edges():
        if frozenset((u, v)) in covered:
            continue
        h = gnx.copy()
        h.remove_nodes_from((u, v))
        rest = nx.max_weight_matching(h, maxcardinality=True)
        if 2 * len(rest) != n - 2:
            return False
        covered.update(frozenset(e) for e in rest)
        covered.add(frozenset((u, v)))
    return True


def sample10(seed: int, count: int) -> list:
    """graph6 lines of `count` matching covered G(10, p), p ~ U(0.28, 0.75)."""
    import networkx as nx

    rng = random.Random(f"sample10:{seed}")
    out = []
    while len(out) < count:
        p = rng.uniform(0.28, 0.75)
        gnx = nx.Graph()
        gnx.add_nodes_from(range(10))
        gnx.add_edges_from((i, j) for i in range(10) for j in range(i + 1, 10)
                           if rng.random() < p)
        if nx_is_matching_covered(gnx):
            line = nx.to_graph6_bytes(gnx, nodes=range(10), header=False)
            out.append(line.decode("ascii").strip())
    return out


def splice_chains(rng: random.Random, parts: dict, sizes: tuple, per_size: int) -> list:
    """(graph, expected brick number) for `per_size` chains at each size.

    parts maps a vertex count (4, 6 or 8) to a list of (graph, brick number).
    Each step draws a part size that still fits, a part of that size, an edge
    of the chain and an edge of the part, then splices them together.
    """
    from tightcuts.corpus import edge_splice
    from tightcuts.graphcore import relabel_graph

    out = []
    for target in sizes:
        for _ in range(per_size):
            size = rng.choice([s for s in parts if s <= target])
            g, bricks = rng.choice(parts[size])
            while g.n < target:
                size = rng.choice([s for s in parts if s - 2 <= target - g.n])
                part, part_bricks = rng.choice(parts[size])
                x, y = rng.choice(g.edges)
                if rng.random() < 0.5:
                    x, y = y, x
                a, b = rng.choice(part.edges)
                if rng.random() < 0.5:
                    a, b = b, a
                fresh = iter(range(max(g.vertices) + 1, max(g.vertices) + part.n))
                mapping = {v: next(fresh) for v in part.order if v not in (a, b)}
                mapping[a], mapping[b] = x, y
                g = edge_splice(g, relabel_graph(part, mapping), x, y)
                bricks += part_bricks
            out.append((g, bricks))
    return out
