"""Loopless multigraph with cut algebra, contraction, edge splicing,
components and parity.

Vertices are ints with no structural meaning; edges are unordered pairs kept
as a sorted tuple so that the *index* of an edge is its stable reference
(parallel edges occupy distinct indices).  Everything is immutable, so derived
data and graph-level results keyed by name live on the instance; per-shore
answers are recomputed, and equal but distinct instances share nothing.  The
memo (`graph_memo`) lives until `drop_memo` or the instance itself frees it:
decomposition drops each node's memo once the node is split.  A memo value
that holds the graph closes a reference cycle, which only the cyclic
collector frees.  No memo value does: the matching engine holds the
graph's masks and edges, and tight cuts and elp's cut lists are kept as
shores, so reference counting frees the memo when the graph is freed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .errors import BadShore, BadSplice, BadVertex, GraphMismatch, GraphTooLarge, LoopRejected

MAX_VERTICES = 64


@dataclass(frozen=True)
class MultiGraph:
    vertices: frozenset
    edges: tuple  # ((u, v), ...) with u < v, sorted, parallels repeated
    label_items: tuple = ()  # ((vertex, label), ...) sorted by vertex

    # -- derived views ----------------------------------------------------

    @cached_property
    def n(self) -> int:
        return len(self.vertices)

    @cached_property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def order(self) -> tuple:
        """Vertices in sorted order; position in this tuple is the dense index."""
        return tuple(sorted(self.vertices))

    @cached_property
    def index(self) -> dict:
        return {v: i for i, v in enumerate(self.order)}

    @cached_property
    def labels(self) -> dict:
        return dict(self.label_items)

    @cached_property
    def adjacency(self) -> dict:
        adj = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return {v: tuple(sorted(ws)) for v, ws in adj.items()}

    @cached_property
    def adj_masks(self) -> tuple:
        """Dense-index neighbor bitmasks."""
        masks = [0] * self.n
        idx = self.index
        for u, v in self.edges:
            masks[idx[u]] |= 1 << idx[v]
            masks[idx[v]] |= 1 << idx[u]
        return tuple(masks)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def _cache(self) -> dict:
        # graph_memo's store: the matching engine and graph-level results
        return {}

    # -- basic queries ----------------------------------------------------

    def neighbors(self, v) -> tuple:
        if v not in self.vertices:
            raise BadVertex(f"unknown vertex {v!r}")
        return self.adjacency[v]

    def degree(self, v) -> int:
        """Degree counting parallel edges."""
        if v not in self.vertices:
            raise BadVertex(f"unknown vertex {v!r}")
        return sum(1 for u, w in self.edges if u == v or w == v)

    def display(self, v) -> str:
        """User-facing name of a vertex: its label if any, else its id."""
        return self.labels.get(v, str(v))

    def display_set(self, vs) -> list:
        return sorted(self.display(v) for v in vs)

    # -- mask conversions --------------------------------------------------

    def to_mask(self, vs: Iterable) -> int:
        idx = self.index
        mask = 0
        for v in vs:
            try:
                mask |= 1 << idx[v]
            except KeyError:
                raise BadVertex(f"unknown vertex {v!r}") from None
        return mask

    def from_mask(self, mask: int) -> frozenset:
        order = self.order
        out = []
        while mask:
            b = mask & -mask
            out.append(order[b.bit_length() - 1])
            mask ^= b
        return frozenset(out)

    def __getstate__(self):
        # drop cached derived data; only the defining fields travel
        return (self.vertices, self.edges, self.label_items)

    def __setstate__(self, state):
        object.__setattr__(self, "vertices", state[0])
        object.__setattr__(self, "edges", state[1])
        object.__setattr__(self, "label_items", state[2])


def graph_from(vertices: Iterable, edges: Iterable, labels: Optional[dict] = None) -> MultiGraph:
    """Build a MultiGraph from explicit vertex ids and edge pairs."""
    vset = frozenset(vertices)
    if len(vset) > MAX_VERTICES:
        raise GraphTooLarge(f"{len(vset)} vertices exceeds the cap of {MAX_VERTICES}")
    norm = []
    for u, v in edges:
        if u == v:
            raise LoopRejected(f"loop at vertex {u!r}")
        if u not in vset or v not in vset:
            raise BadVertex(f"edge ({u!r}, {v!r}) leaves the vertex set")
        norm.append((u, v) if u < v else (v, u))
    norm.sort()
    items = ()
    if labels:
        for v in labels:
            if v not in vset:
                raise BadVertex(f"label for unknown vertex {v!r}")
        items = tuple(sorted(labels.items()))
    return MultiGraph(vset, tuple(norm), items)


def build_graph(vertex_count: int, edge_list: Iterable, labels: Optional[dict] = None) -> MultiGraph:
    """Graph on vertices 0..vertex_count-1; parallel pairs give multi-edges."""
    if vertex_count < 0:
        raise BadVertex("negative vertex count")
    for u, v in edge_list:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise BadVertex(f"edge ({u}, {v}) out of range [0, {vertex_count})")
    return graph_from(range(vertex_count), edge_list, labels)


def relabel_graph(g: MultiGraph, mapping: dict) -> MultiGraph:
    """Rename vertices by an injective mapping (ids absent from it are kept)."""
    full = {v: mapping.get(v, v) for v in g.vertices}
    if len(set(full.values())) != len(full):
        raise BadVertex("relabeling is not injective")
    labels = {full[v]: lab for v, lab in g.label_items}
    return graph_from(full.values(), ((full[u], full[v]) for u, v in g.edges), labels or None)


# -- components ------------------------------------------------------------


@dataclass(frozen=True)
class ComponentReport:
    components: tuple  # (frozenset, ...) ordered by smallest member
    odd_count: int
    even_count: int


def _component_masks(g: MultiGraph, keep_mask: int) -> list:
    """Connected components of the induced subgraph on keep_mask, as masks."""
    adj = g.adj_masks
    out = []
    left = keep_mask
    while left:
        seed = left & -left
        comp = seed
        frontier = seed
        while frontier:
            nxt = 0
            f = frontier
            while f:
                b = f & -f
                nxt |= adj[b.bit_length() - 1]
                f ^= b
            nxt &= left & ~comp
            comp |= nxt
            frontier = nxt
        out.append(comp)
        left &= ~comp
    return out


def _bits(mask: int) -> list:
    """The single-bit masks of mask, lowest first."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b)
        mask ^= b
    return out


def removed_components(g: MultiGraph, removed: Iterable) -> ComponentReport:
    """Components of G - S with parity counts (S may be empty or everything)."""
    rm = frozenset(removed)
    extra = rm - g.vertices
    if extra:
        raise BadVertex(f"unknown vertices {sorted(extra)!r}")
    keep = g.full_mask & ~g.to_mask(rm)
    comps = [g.from_mask(m) for m in _component_masks(g, keep)]
    comps.sort(key=min)
    odd = sum(1 for c in comps if len(c) % 2 == 1)
    return ComponentReport(tuple(comps), odd, len(comps) - odd)


def is_connected(g: MultiGraph) -> bool:
    return g.n <= 1 or len(_component_masks(g, g.full_mask)) == 1


def is_bipartite(g: MultiGraph) -> bool:
    """Two-colorability by BFS over each component."""
    color = {}
    for v in g.order:
        if v in color:
            continue
        color[v] = 0
        queue = [v]
        while queue:
            u = queue.pop()
            for w in g.adjacency[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return False
    return True


# -- cuts ------------------------------------------------------------------


def _check_shore(g: MultiGraph, shore: Iterable) -> frozenset:
    s = frozenset(shore)
    extra = s - g.vertices
    if extra:
        raise BadVertex(f"unknown vertices {sorted(extra)!r}")
    if not s or s == g.vertices:
        raise BadShore("a shore must be a nonempty proper subset of the vertices")
    return s


@dataclass(frozen=True, eq=False)
class Cut:
    """Edge cut named by a shore; equality and hashing use the shore *pair*."""

    graph: MultiGraph
    shore: frozenset

    @cached_property
    def complement(self) -> frozenset:
        return self.graph.vertices - self.shore

    @cached_property
    def shore_pair(self) -> frozenset:
        return frozenset((self.shore, self.complement))

    @cached_property
    def edge_indices(self) -> tuple:
        return _crossing_edge_indices(self.graph, self.shore)  # make_cut checked the shore

    @cached_property
    def is_trivial(self) -> bool:
        return len(self.shore) == 1 or len(self.complement) == 1

    @cached_property
    def small_shore(self) -> frozenset:
        """Canonical representative: the lexicographically least shore."""
        a, b = sorted(self.shore_pair, key=lambda s: (len(s), sorted(s)))
        return a

    def __eq__(self, other):
        if not isinstance(other, Cut):
            return NotImplemented
        return self.graph == other.graph and self.shore_pair == other.shore_pair

    def __hash__(self):
        return hash((self.graph, self.shore_pair))

    def __repr__(self):
        names = ",".join(self.graph.display_set(self.small_shore))
        return f"Cut({{{names}}})"


def make_cut(g: MultiGraph, shore: Iterable) -> Cut:
    return Cut(g, _check_shore(g, shore))


def cut_edge_indices(g: MultiGraph, shore: Iterable) -> tuple:
    return _crossing_edge_indices(g, _check_shore(g, shore))


def _crossing_edge_indices(g: MultiGraph, shore: frozenset) -> tuple:
    mask = g.to_mask(shore)
    idx = g.index
    out = []
    for i, (u, v) in enumerate(g.edges):
        if ((mask >> idx[u]) & 1) != ((mask >> idx[v]) & 1):
            out.append(i)
    return tuple(out)


def cut_edges(g: MultiGraph, shore: Iterable) -> tuple:
    """The edge multiset with exactly one endpoint in the shore."""
    return tuple(g.edges[i] for i in cut_edge_indices(g, shore))


def edges_between(g: MultiGraph, left: Iterable, right: Iterable) -> tuple:
    """Edge multiset with one endpoint in each of two disjoint vertex sets."""
    a, b = frozenset(left), frozenset(right)
    if a & b:
        raise BadShore("edges_between needs disjoint sets")
    for s in (a, b):
        extra = s - g.vertices
        if extra:
            raise BadVertex(f"unknown vertices {sorted(extra)!r}")
    return tuple((u, v) for u, v in g.edges if (u in a and v in b) or (u in b and v in a))


def cuts_cross(a: Cut, b: Cut) -> bool:
    """True iff all four shore-intersection corners are nonempty."""
    if a.graph != b.graph:
        raise GraphMismatch("cuts live on different graphs")
    x, y = a.shore, b.shore
    v = a.graph.vertices
    return bool(x & y) and bool(x - y) and bool(y - x) and bool(v - (x | y))


def is_laminar(a: Cut, b: Cut) -> bool:
    return not cuts_cross(a, b)


# -- contraction -----------------------------------------------------------


def contract(g: MultiGraph, region: Iterable, tag: Optional[str] = None, new_id=None) -> MultiGraph:
    """Contract a nonempty vertex set to one fresh vertex, dropping loops.

    The fresh id defaults to max(V)+1 so it can never collide with anything in
    the graph's ancestry; pass new_id to reproduce a recorded contraction.
    The fresh vertex's label records the set it replaces (or the given tag).
    """
    x = frozenset(region)
    extra = x - g.vertices
    if extra or not x:
        raise BadShore("contraction region must be a nonempty subset of the vertices")
    if new_id is None:
        new_id = max(g.vertices) + 1
    elif new_id in g.vertices - x:
        raise BadVertex(f"replacement id {new_id!r} collides with a kept vertex")
    if tag is None:
        tag = "+".join(g.display_set(x))
    keep = g.vertices - x
    edges = []
    for u, v in g.edges:
        pu, pv = u in x, v in x
        if pu and pv:
            continue  # would be a loop
        if pu:
            edges.append((new_id, v))
        elif pv:
            edges.append((u, new_id))
        else:
            edges.append((u, v))
    labels = {v: lab for v, lab in g.label_items if v in keep}
    labels[new_id] = tag
    return graph_from(keep | {new_id}, edges, labels)


def shore_contraction(g: MultiGraph, shore: Iterable, tag: Optional[str] = None, new_id=None) -> MultiGraph:
    """Contract the *complement* of a shore: the shore-side graph of a cut."""
    s = _check_shore(g, shore)
    return contract(g, g.vertices - s, tag=tag, new_id=new_id)


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


# -- per-instance memo -----------------------------------------------------


def graph_memo(g: MultiGraph, key, compute):
    """Graph-level results keyed by name, freed with g; per-shore ones are recomputed."""
    cache = g._cache
    try:
        return cache[key]
    except KeyError:
        cache[key] = val = compute()
        return val


def drop_memo(g: MultiGraph):
    """Free g's matching engine and graph-level results; later queries recompute them."""
    g.__dict__.pop("_cache", None)
