"""Example-family generators, edge splicing, and desk-scale corpora.

The two parametric families live here (a chain of spliced K4 blocks, and a
near-path graph with one degree-2 hub path), together with named fixtures,
the edge-splice operation, and a corpus stream that enumerates all matching
covered simple graphs up to 8 vertices in-process and ingests graph6 files
beyond that.
"""

from __future__ import annotations

from typing import Optional

from .errors import BadParameter, BadSplice, NeedExternalCorpus, UnknownGraph
from .formats import read_graph6_file
from .graphcore import MultiGraph, build_graph, graph_from, removed_components
from .matching import is_matching_covered


def gen_h_n(n: int) -> MultiGraph:
    """Chain of 2n spliced K4 blocks on two stacked paths of 2n+1 vertices.

    Vertices are labeled v1..v(2n+1) and u1..u(2n+1); blocks hang on the odd
    positions.  4n+2 vertices, 10n+1 edges.
    """
    if n < 1:
        raise BadParameter("n must be >= 1")
    top = 2 * n + 1
    v = {i: i - 1 for i in range(1, top + 1)}
    u = {i: top + i - 1 for i in range(1, top + 1)}
    edges = []
    for i in range(1, top):
        edges.append((v[i], v[i + 1]))
        edges.append((u[i], u[i + 1]))
    for i in range(1, 2 * n, 2):
        edges.append((v[i], v[i + 2]))
        edges.append((v[i], u[i]))
        edges.append((v[i], u[i + 2]))
        edges.append((u[i], u[i + 2]))
    for i in range(1, 2 * n + 1):
        edges.append((v[i], u[i + 1]))
    edges.append((v[top], u[top]))
    labels = {v[i]: f"v{i}" for i in range(1, top + 1)}
    labels.update({u[i]: f"u{i}" for i in range(1, top + 1)})
    return build_graph(2 * top, edges, labels)


def gen_h_n_prime(n: int) -> MultiGraph:
    """Long chorded path v1..v(2n+1) plus a 2-vertex hub {u1, u2} joined
    through a degree-2 middle vertex u0; n must be even and >= 4.

    2n+4 vertices, 4n+4 edges.
    """
    if n < 4 or n % 2 == 1:
        raise BadParameter("n must be even and >= 4")
    top = 2 * n + 1
    v = {i: i - 1 for i in range(1, top + 1)}
    u1, u0, u2 = top, top + 1, top + 2
    edges = []
    for i in range(1, top):
        edges.append((v[i], v[i + 1]))
    edges.append((u1, u0))
    edges.append((u0, u2))
    for i in range(1, 2 * n, 2):
        edges.append((v[i], v[i + 2]))
    for i in range(2, n + 1, 2):
        edges.append((u1, v[2 * i]))
    for i in range(1, n, 2):
        edges.append((u2, v[2 * i]))
    edges.append((u1, v[1]))
    edges.append((u2, v[top]))
    labels = {v[i]: f"v{i}" for i in range(1, top + 1)}
    labels.update({u1: "u1", u0: "u0", u2: "u2"})
    return build_graph(top + 3, edges, labels)


def edge_splice(g1: MultiGraph, g2: MultiGraph, x, y) -> MultiGraph:
    """Glue two graphs along the shared edge xy; {x, y} separates the result.

    The inputs overlap in exactly {x, y}, each brings the edge xy, and the
    union keeps a single copy of it.  Each side must leave an even remainder
    so that {x, y} is a 2-separation of the result.
    """
    pair = (x, y) if x < y else (y, x)
    for g in (g1, g2):
        if x not in g.vertices or y not in g.vertices:
            raise BadSplice("both graphs must contain the splice vertices")
        if pair not in g.edges:
            raise BadSplice("the splice edge must be present in both graphs")
        if g.n < 4:
            raise BadSplice("each side needs at least 4 vertices")
    overlap = g1.vertices & g2.vertices
    if overlap != {x, y}:
        raise BadSplice(f"graphs overlap in {sorted(overlap)!r}, expected exactly the splice pair")
    edges = list(g1.edges) + list(g2.edges)
    edges.remove(pair)  # keep one copy of the shared edge
    labels = dict(g2.label_items)
    labels.update(g1.label_items)
    spliced = graph_from(g1.vertices | g2.vertices, edges, labels or None)
    report = removed_components(spliced, (x, y))
    if report.odd_count or len(report.components) < 2:
        raise BadSplice("the splice pair does not separate the result into even parts")
    return spliced


_NAMED = {}


def _register_named():
    _NAMED["k4"] = build_graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    _NAMED["c4"] = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    _NAMED["c6"] = build_graph(6, [(i, (i + 1) % 6) for i in range(6)],
                               {i: f"v{i + 1}" for i in range(6)})
    _NAMED["k33"] = build_graph(6, [(a, b + 3) for a in range(3) for b in range(3)])
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    _NAMED["petersen"] = build_graph(10, outer + inner + spokes)


_register_named()


def gen_named(name: str) -> MultiGraph:
    """Fixture graphs by name: k4, c4, c6, k33, petersen."""
    try:
        return _NAMED[name.lower().replace(",", "").replace("_", "")]
    except KeyError:
        raise UnknownGraph(f"unknown graph name {name!r}") from None


# -- isomorphism-free enumeration -----------------------------------------


def _to_networkx(g: MultiGraph):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(set(g.edges))
    return h


_LEVELS: dict = {}  # n -> the edge tuples of its classes, never analysed graphs


def connected_graphs(n: int) -> list:
    """All connected simple graphs on n vertices, one per isomorphism class.

    Built by attaching a new vertex with every nonempty neighborhood to each
    (n-1)-vertex class member, bucketing candidates by a structural hash and
    confirming with an exact isomorphism test.  Deterministic order.  Later
    calls rebuild fresh instances from the kept edges, so no memo outlives them.
    """
    if n < 1:
        raise BadParameter("n must be >= 1")
    if n > 8:
        raise NeedExternalCorpus("built-in enumeration stops at 8 vertices")
    if n in _LEVELS:
        return [build_graph(n, edges) for edges in _LEVELS[n]]
    import networkx as nx

    if n == 1:
        out = [build_graph(1, [])]
    else:
        out = []
        buckets = {}
        for base in connected_graphs(n - 1):
            base_edges = list(base.edges)
            new = n - 1
            for nbhd in range(1, 1 << (n - 1)):
                edges = base_edges + [(i, new) for i in range(n - 1) if (nbhd >> i) & 1]
                cand = build_graph(n, edges)
                cnx = _to_networkx(cand)
                key = (cand.m, nx.weisfeiler_lehman_graph_hash(cnx, iterations=3))
                bucket = buckets.setdefault(key, [])
                if any(nx.is_isomorphic(cnx, known) for _, known in bucket):
                    continue
                bucket.append((cand, cnx))
                out.append(cand)
    _LEVELS[n] = tuple(g.edges for g in out)
    return out


class CorpusStream:
    """Deterministic stream of corpus graphs with a matching-covered filter.

    source is "builtin-enumeration", "graph6-file", or both combined; the
    manifest reports per-size counts and how many candidates the filter saw.
    """

    def __init__(self, max_vertices: int, external_path: Optional[str] = None,
                 filter_matching_covered: bool = True):
        if max_vertices < 4 or max_vertices % 2 == 1:
            raise BadParameter("max_vertices must be even and >= 4")
        if max_vertices > 8 and external_path is None:
            raise NeedExternalCorpus(
                "built-in enumeration stops at 8 vertices; supply a graph6 file beyond that")
        self.max_vertices = max_vertices
        self.external_path = external_path
        self.filter_matching_covered = filter_matching_covered
        if external_path is None:
            self.source = "builtin-enumeration"
        elif max_vertices > 8:
            self.source = "builtin-enumeration+graph6-file"
        else:
            self.source = "graph6-file"
        self._stats = None

    def _candidates(self):
        if self.source != "graph6-file":
            for n in range(2, min(self.max_vertices, 8) + 1, 2):
                yield from connected_graphs(n)
        if self.external_path is not None:
            for g in read_graph6_file(self.external_path):
                if (self.source == "graph6-file" or g.n > 8) and g.n <= self.max_vertices:
                    yield g

    def __iter__(self):
        stats = {"checked": 0, "emitted": 0, "by_size": {}}
        for g in self._candidates():
            stats["checked"] += 1
            if self.filter_matching_covered and not is_matching_covered(g):
                continue
            stats["emitted"] += 1
            stats["by_size"][g.n] = stats["by_size"].get(g.n, 0) + 1
            yield g
        self._stats = stats

    def manifest(self) -> dict:
        """Counts per vertex class and filter statistics (runs the stream)."""
        if self._stats is None:
            for _ in self:
                pass
        return {
            "source": self.source,
            "max_vertices": self.max_vertices,
            "matching_covered_only": self.filter_matching_covered,
            "checked": self._stats["checked"],
            "emitted": self._stats["emitted"],
            "by_size": {str(k): v for k, v in sorted(self._stats["by_size"].items())},
        }


def enumerate_matching_covered(max_vertices: int, external_path: Optional[str] = None) -> CorpusStream:
    """Stream all matching covered simple graphs up to the size cap."""
    return CorpusStream(max_vertices, external_path, filter_matching_covered=True)
