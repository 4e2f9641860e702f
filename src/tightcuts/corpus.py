"""Example-family generators, splice chains, and desk-scale corpora.

The two parametric families live here (a chain of spliced K4 blocks, and a
near-path graph with one degree-2 hub path), together with named fixtures,
seeded splice chains built with `graphcore.edge_splice`, and a corpus stream
that enumerates all matching covered simple graphs up to 8 vertices
in-process and ingests graph6 files beyond that.
"""

from __future__ import annotations

from typing import Optional

from .errors import BadParameter, NeedExternalCorpus, UnknownGraph
from .formats import read_graph6_file
from .graphcore import MultiGraph, _bits, build_graph, edge_splice, relabel_graph
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


def splice_chain(rng, parts, target):
    """Splice seeded parts along seeded edges until the chain has target vertices."""
    g = rng.choice(parts)
    while g.n < target:
        part = rng.choice([p for p in parts if p.n - 2 <= target - g.n])
        x, y = rng.choice(g.edges)
        a, b = rng.choice(part.edges)
        fresh = iter(range(max(g.vertices) + 1, max(g.vertices) + part.n))
        mapping = {v: next(fresh) for v in part.order if v not in (a, b)}
        mapping[a], mapping[b] = x, y
        g = edge_splice(g, relabel_graph(part, mapping), x, y)
    return g


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
#
# Candidates are told apart by a canonical code from individualisation-
# refinement on adjacency bitmasks (McKay & Piperno, "Practical graph
# isomorphism, II", JSC 60, 2014).  Every choice in the search tree depends on
# the graph only up to isomorphism, so the largest leaf code is the same for
# isomorphic graphs, and a leaf code spells out the whole relabelled graph.


def _refine(adj: list, cells: list, splitters: list) -> None:
    """Split the ordered partition `cells` (vertex masks) in place until it
    is equitable, starting from the given splitter masks.

    A cell splits by how many neighbours its vertices have in a splitter, and
    the parts take its place in increasing count order.
    """
    n = len(adj)
    while splitters and len(cells) < n:
        w = splitters.pop()
        out = []
        for c in cells:
            if c & (c - 1):
                parts = {}
                rest = c
                while rest:
                    b = rest & -rest
                    rest ^= b
                    k = (adj[b.bit_length() - 1] & w).bit_count()
                    parts[k] = parts.get(k, 0) | b
                if len(parts) > 1:
                    split = [parts[k] for k in sorted(parts)]
                    splitters.extend(split)
                    out.extend(split)
                    continue
            out.append(c)
        cells[:] = out


def _leaf_code(adj: list, order: list) -> int:
    """The adjacency matrix relabelled by position in order, row by row."""
    n = len(order)
    moved = {1 << v: 1 << i for i, v in enumerate(order)}
    code = 0
    for v in order:
        row = 0
        a = adj[v]
        while a:
            b = a & -a
            a ^= b
            row |= moved[b]
        code = code << n | row
    return code


def _canonical_form(adj: list) -> tuple:
    """(code, generators) of the graph on vertices 0..n-1 with neighbour masks adj.

    code is the largest leaf code of the search tree: isomorphic graphs, and
    only they, share it.  A leaf with the first leaf's code yields an
    automorphism (a tuple v -> image), and the subtree it was found in is the
    image of one already searched.  On the first path, a vertex that such an
    automorphism maps onto a smaller one in the same cell is not branched on.
    The automorphisms found generate Aut(G).
    """
    n = len(adj)
    orbit = list(range(n))  # union-find; each orbit is rooted at its least vertex
    gens = []
    first_order = first_code = best = None

    def root(v):
        while orbit[v] != v:
            v = orbit[v]
        return v

    def visit(cells, on_first_path):
        nonlocal first_order, first_code, best
        if len(cells) == n:
            order = [c.bit_length() - 1 for c in cells]
            code = _leaf_code(adj, order)
            if first_order is None:
                first_order = order
                first_code = best = code
            elif code == first_code:
                gamma = [0] * n
                for a, b in zip(first_order, order):
                    gamma[a] = b
                    ra, rb = root(a), root(b)
                    orbit[max(ra, rb)] = min(ra, rb)
                gens.append(tuple(gamma))
                return True
            elif code > best:
                best = code
            return False
        t = next(i for i, c in enumerate(cells) if c & (c - 1))
        target = cells[t]
        for k, b in enumerate(_bits(target)):
            v = b.bit_length() - 1
            if on_first_path and k and root(v) != v:
                continue
            child = cells[:t] + [b, target ^ b] + cells[t + 1:]
            _refine(adj, child, [b])
            if visit(child, on_first_path and not k) and not on_first_path:
                return True
        return False

    cells = [(1 << n) - 1]
    _refine(adj, cells, [cells[0]])
    visit(cells, True)
    return best, gens


def _orbit_leaders(gens: list, k: int) -> list:
    """Per subset mask of range(k), the least mask in its orbit under the
    group that gens generate."""
    leader = [-1] * (1 << k)
    for s in range(1 << k):  # an orbit is first reached at its least mask
        if leader[s] < 0:
            leader[s] = s
            stack = [s]
            while stack:
                t = stack.pop()
                for g in gens:
                    u = sum(1 << g[v] for v in range(k) if t >> v & 1)
                    if leader[u] < 0:
                        leader[u] = s
                        stack.append(u)
    return leader


_LEVELS: dict = {}  # n -> the edge tuples of its classes, never analysed graphs


def _level(n: int) -> tuple:
    """Edge tuples of the n-vertex classes in enumeration order (memoised)."""
    if n in _LEVELS:
        return _LEVELS[n]
    if n == 1:
        kept = [()]
    else:
        kept = []
        seen = set()
        new = n - 1
        for base_edges in _level(n - 1):
            base = list(build_graph(new, base_edges).adj_masks)
            _, gens = _canonical_form(base)
            leader = _orbit_leaders(gens, new)
            for nbhd in range(1, 1 << new):
                if leader[nbhd] != nbhd:
                    continue  # an earlier neighbourhood gives the same graph
                adj = [a | (nbhd >> i & 1) << new for i, a in enumerate(base)]
                adj.append(nbhd)
                code, _ = _canonical_form(adj)
                if code not in seen:
                    seen.add(code)
                    kept.append(tuple(sorted(base_edges + tuple(
                        (i, new) for i in range(new) if nbhd >> i & 1))))
    _LEVELS[n] = tuple(kept)
    return _LEVELS[n]


def connected_graphs(n: int) -> list:
    """All connected simple graphs on n vertices, one per isomorphism class.

    Built by attaching a new vertex with every nonempty neighbourhood to each
    (n-1)-vertex class member in order, keeping the first candidate of each
    canonical code.  A neighbourhood that an automorphism of the base maps
    onto a smaller one is skipped, since the smaller one came first.
    Deterministic order.  Every call builds fresh instances from the kept
    edges, so no memo outlives them.
    """
    if n < 1:
        raise BadParameter("n must be >= 1")
    if n > 8:
        raise NeedExternalCorpus("built-in enumeration stops at 8 vertices")
    return [build_graph(n, edges) for edges in _level(n)]


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
