"""Exact perfect-matching machinery and the tightness test, in two routes.

The workhorse is a per-graph engine holding dense bitmask adjacency and a
memoized "does this vertex subset have a perfect matching" table shared by
every query against the same graph.  Up to `_DP_LIMIT` vertices the answer
comes from a subset DP; past it each subset is one networkx blossom call, so
the pairwise tightness test stays polynomial on a single cut.  The engine
holds the graph's masks, edges and vertex index, not the graph, so it is
freed with the graph by reference counting.  It builds its dense edge table
on first use, so the matching-covered test, which reads only masks, never
builds it.

An odd cut is tight exactly when no two of its edges lie in a common perfect
matching.  The engine answers that pair question from an edge-pair table
built on the first tightness query: per edge e, the edges whose pair with e
is settled (`known`) and those found in a common perfect matching with e
(`compat`).  The table fills lazily, one pair at a time and only for pairs
inside a queried cut, so a cut already tested costs no further matching
query.

`enumerate_tight_cuts` does not test the odd shores one by one.  It is a
depth-first search that puts vertices 1..n-1, in dense-index order, on the
shore of vertex 0 or on the far side.  An edge joins the cut when its higher
end is placed opposite its lower end, and it stays in the cut of every
completion; so once two cut edges lie in a common perfect matching, no
completion is tight and the branch is dropped.  The pruning is exact: the
test is the pairwise criterion itself, asked on the same table.  A shore
that survives to depth n has had every pair of its cut edges settled, and is
kept when it is odd and within the size bounds.  The work grows with the
surviving branches, not with the 2^(n-2) odd shores.

The engine also owns the vertex-pair question "does G - u - v have a perfect
matching?".  `is_matching_covered` asks it once per edge, and
`barrier_classes` once per non-adjacent pair: in a matching covered graph
the maximal barriers partition V, and u, v share one exactly when the
answer is no (Lovász & Plummer, *Matching Theory*, 1986, 5.2).  So a graph
on 4 or more vertices is bicritical exactly when it is matching covered and
every class is a single vertex, which is how `is_bicritical` decides.

The matching-covered check is memoised per graph, and only this module sets
that memo.  `tight_contractions` sets it on both contractions of a tight
cut without a check: a tight-cut contraction of a matching covered graph is
matching covered (its docstring has the proof), so a decomposition checks
its input once and no node below it.

An all-subsets Tutte-condition checker provides the independent desk-scale
oracle, and full enumeration of perfect matchings backs the second tightness
route.  Both are plain walks over the graph that never ask the engine, so a
fault in the engine's memo cannot hide from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, islice
from typing import Iterable, Optional

from .errors import (EvenShore, GraphMismatch, GraphTooLarge, NotMatchingCovered, NotTight,
                     TooSmall)
from .graphcore import (Cut, MultiGraph, _bits, contract, graph_memo, is_connected, make_cut,
                        removed_components)

_DP_LIMIT = 26  # past this, pm_exists asks blossom instead of the subset DP
_TUTTE_LIMIT = 20


class _Engine:
    """Dense-index matching engine for one graph, kept in that graph's memo.

    It holds the graph's mask tuple, edge tuple and vertex index but not the
    graph, so the two form no reference cycle.  The dense edge table
    (`ends`) and the edge-pair table (`incidence`) are built on first use.
    """

    __slots__ = ("n", "adj", "full", "edges", "index", "edge_ends", "pm_memo", "inc", "known",
                 "compat")

    def __init__(self, g: MultiGraph):
        self.n = g.n
        self.adj = g.adj_masks
        self.full = g.full_mask
        self.edges = g.edges
        self.index = g.index
        self.edge_ends = None  # ends() builds it
        self.pm_memo = {0: True}
        self.known = None  # the edge-pair table; incidence() builds it

    def ends(self) -> list:
        """Per edge index, its dense (i, j) ends; built on the first call."""
        if self.edge_ends is None:
            idx = self.index
            self.edge_ends = [(idx[u], idx[v]) for u, v in self.edges]
        return self.edge_ends

    def pm_exists(self, mask: int) -> bool:
        """Perfect matching on the vertex subset given as a dense mask."""
        memo = self.pm_memo
        hit = memo.get(mask)
        if hit is not None:
            return hit
        if self.n > _DP_LIMIT:
            memo[mask] = ok = self._blossom(mask)
            return ok
        v = (mask & -mask).bit_length() - 1
        ok = False
        nb = self.adj[v] & mask
        rest = mask & ~(mask & -mask)
        while nb:
            wbit = nb & -nb
            if self.pm_exists(rest & ~wbit):
                ok = True
                break
            nb ^= wbit
        memo[mask] = ok
        return ok

    def _blossom(self, mask: int) -> bool:
        import networkx as nx

        h = nx.Graph()
        h.add_nodes_from(i for i in range(self.n) if (mask >> i) & 1)
        h.add_edges_from((i, j) for i, j in self.ends() if (mask >> i) & (mask >> j) & 1)
        return 2 * len(nx.max_weight_matching(h, maxcardinality=True)) == h.number_of_nodes()

    def incidence(self) -> list:
        """Per-vertex edge masks; the first call also builds the edge-pair table.

        known[e] holds the edges f whose pair with e is settled: those meeting
        e, which no matching holds together, and those already asked.  Asked
        pairs are recorded in both edges' rows, and compat[e] holds the asked
        f for which G - V(e) - V(f) has a perfect matching.
        """
        if self.known is None:
            ends = self.ends()
            self.inc = inc = [0] * self.n
            for e, (i, j) in enumerate(ends):
                inc[i] |= 1 << e
                inc[j] |= 1 << e
            self.known = [inc[i] | inc[j] for i, j in ends]
            self.compat = [0] * len(ends)
        return self.inc

    def ask(self, e: int, f: int) -> bool:
        """Settle the pair (e, f) in both rows: does a perfect matching hold both?

        incidence() has built the tables this reads.
        """
        i, j = self.edge_ends[e]
        k, m = self.edge_ends[f]
        self.known[e] |= 1 << f
        self.known[f] |= 1 << e
        if self.pm_exists(self.full & ~((1 << i) | (1 << j) | (1 << k) | (1 << m))):
            self.compat[e] |= 1 << f
            self.compat[f] |= 1 << e
            return True
        return False

    def first_pair(self, cut: int) -> Optional[tuple]:
        """The first pair (e, f), e < f, of the cut's edge mask that a perfect
        matching holds, or None exactly when the cut of an odd shore is tight.

        Pairs are settled lazily in order (lowest e, then lowest f), and only
        the unknown ones below the first known compatible pair are asked.
        """
        self.incidence()
        known, compat = self.known, self.compat
        while cut:
            ebit = cut & -cut
            cut ^= ebit
            e = ebit.bit_length() - 1
            hit = cut & compat[e]
            todo = cut & ~known[e]
            if hit:
                todo &= (hit & -hit) - 1
            while todo:
                fbit = todo & -todo
                todo ^= fbit
                f = fbit.bit_length() - 1
                if self.ask(e, f):
                    return e, f
            if hit:
                return e, (hit & -hit).bit_length() - 1
        return None

    def clash(self, new: int, cut: int) -> bool:
        """Does a perfect matching hold two edges of cut | new, one of them new?

        Unknown pairs are asked, and settled, until one fits, so a False
        answer leaves every pair that holds a new edge settled.
        """
        both = cut | new
        known, compat = self.known, self.compat
        while new:
            xbit = new & -new
            new ^= xbit
            x = xbit.bit_length() - 1
            if both & compat[x]:
                return True
            todo = both & ~known[x]
            while todo:
                fbit = todo & -todo
                todo ^= fbit
                if self.ask(x, fbit.bit_length() - 1):
                    return True
        return False

    def extract_pm(self, mask: int) -> Optional[frozenset]:
        """A concrete perfect matching on mask as edge indices, or None.

        Deterministic: the lowest uncovered vertex is matched along its
        lowest-index usable edge at every step.
        """
        ends = self.ends()
        chosen = []
        while mask:
            vbit = mask & -mask
            for e, (i, j) in enumerate(ends):
                pair = (1 << i) | (1 << j)
                if pair & vbit and pair & mask == pair and self.pm_exists(mask & ~pair):
                    chosen.append(e)
                    mask &= ~pair
                    break
            else:
                return None
        return frozenset(chosen)


def _engine(g: MultiGraph) -> _Engine:
    return graph_memo(g, "engine", lambda: _Engine(g))


def has_perfect_matching(g: MultiGraph) -> bool:
    """Exact perfect-matching existence (subset DP, blossom beyond the DP cap)."""
    return g.n % 2 == 0 and _engine(g).pm_exists(g.full_mask)


def subgraph_has_pm(g: MultiGraph, removed: Iterable) -> bool:
    """Perfect matching of G - removed; shares the per-graph memo."""
    rm = frozenset(removed)
    return (g.n - len(rm)) % 2 == 0 and _engine(g).pm_exists(g.full_mask & ~g.to_mask(rm))


def tutte_violator(g: MultiGraph) -> Optional[frozenset]:
    """A set S with more odd components in G-S than |S|, if any (brute force)."""
    if g.n > _TUTTE_LIMIT:
        raise GraphTooLarge(f"Tutte brute force is capped at {_TUTTE_LIMIT} vertices")
    order = g.order
    for mask in range(1 << g.n):
        s = frozenset(order[i] for i in range(g.n) if (mask >> i) & 1)
        if removed_components(g, s).odd_count > len(s):
            return s
    return None


# -- matchings as values ---------------------------------------------------


@dataclass(frozen=True)
class Matching:
    graph: MultiGraph
    edge_indices: frozenset

    @cached_property
    def edge_pairs(self) -> tuple:
        return tuple(sorted(self.graph.edges[i] for i in self.edge_indices))

    @cached_property
    def covered(self) -> frozenset:
        out = set()
        for i in self.edge_indices:
            u, v = self.graph.edges[i]
            assert u not in out and v not in out, "edges share an endpoint"
            out.add(u)
            out.add(v)
        return frozenset(out)

    @cached_property
    def is_perfect(self) -> bool:
        return self.covered == self.graph.vertices


@dataclass(frozen=True)
class MatchingEnumeration:
    matchings: tuple
    truncated: bool

    def __iter__(self):
        return iter(self.matchings)

    def __len__(self):
        return len(self.matchings)


def _perfect_matchings(g: MultiGraph):
    """Every perfect matching as a frozenset of edge indices, lexicographically.

    The lowest unmatched vertex is matched along each of its edges in index
    order; a branch ends when that vertex has no unmatched neighbour.
    """
    idx = g.index
    edges_at = [[] for _ in range(g.n)]
    for e, (u, v) in enumerate(g.edges):
        pair = (1 << idx[u]) | (1 << idx[v])
        edges_at[idx[u]].append((e, pair))
        edges_at[idx[v]].append((e, pair))

    def walk(mask, chosen):
        if not mask:
            yield frozenset(chosen)
            return
        for e, pair in edges_at[(mask & -mask).bit_length() - 1]:
            if pair & mask == pair:
                chosen.append(e)
                yield from walk(mask & ~pair, chosen)
                chosen.pop()

    if g.n % 2 == 0:
        yield from walk(g.full_mask, [])


def enumerate_perfect_matchings(g: MultiGraph, limit: Optional[int] = None) -> MatchingEnumeration:
    """All perfect matchings (parallel edges distinct), flagged if more than limit exist."""
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    pms = tuple(islice(_perfect_matchings(g), None if limit is None else limit + 1))
    truncated = limit is not None and len(pms) > limit
    return MatchingEnumeration(tuple(Matching(g, m) for m in pms[:limit]), truncated)


# -- matching covered, the maximal-barrier partition, bicritical ----------


def is_matching_covered(g: MultiGraph) -> bool:
    """Connected, >= 2 vertices, and every edge lies in some perfect matching."""

    def compute():
        if g.n < 2 or g.n % 2 == 1 or not is_connected(g):
            return False
        eng = _engine(g)
        return all(eng.pm_exists(eng.full & ~((1 << i) | jbit))  # each edge ij, i < j
                   for i, nb in enumerate(eng.adj) for jbit in _bits(nb & -(2 << i)))

    return graph_memo(g, "matching_covered", compute)


def barrier_classes(g: MultiGraph) -> tuple:
    """The maximal barriers of a matching covered graph as dense-index masks.

    They partition V, and u, v share one exactly when G - u - v has no
    perfect matching; adjacent vertices never do, since their edge lies in a
    perfect matching.  Ordered by lowest member.  The pair queries fill the
    graph's own subset memo.
    """
    _require_matching_covered(g)

    def compute():
        eng = _engine(g)
        classes = []
        left = eng.full
        while left:
            ubit = left & -left
            cls = ubit
            for vbit in _bits(left & ~ubit & ~eng.adj[ubit.bit_length() - 1]):
                if not eng.pm_exists(eng.full & ~(ubit | vbit)):
                    cls |= vbit
            classes.append(cls)
            left &= ~cls
        return tuple(classes)

    return graph_memo(g, "barrier_classes", compute)


def is_bicritical(g: MultiGraph) -> bool:
    """G - {u, v} has a perfect matching for every pair of distinct vertices.

    On 4 or more vertices that holds exactly when G is matching covered and
    every maximal barrier is a single vertex: a bicritical graph is
    connected, and each edge uv extends through a perfect matching of
    G - u - v.
    """
    if g.n < 4:
        raise TooSmall("bicriticality needs at least 4 vertices")
    return is_matching_covered(g) and all(c.bit_count() == 1 for c in barrier_classes(g))


# -- tightness -------------------------------------------------------------


@dataclass(frozen=True)
class TightnessVerdict:
    tight: bool
    witness: Optional[Matching]  # perfect matching meeting the cut != once


def _require_matching_covered(g: MultiGraph):
    if not is_matching_covered(g):
        raise NotMatchingCovered("operation requires a matching covered graph")


def is_tight(g: MultiGraph, shore: Iterable) -> TightnessVerdict:
    """Pairwise-deletion tightness test for an odd shore.

    An odd shore meets every perfect matching an odd number of times, so the
    cut fails to be tight exactly when two disjoint cut edges extend to a
    perfect matching of the rest; the witness returned is such a matching,
    built from the first such pair in edge-index order.
    """
    cut = make_cut(g, shore)
    if len(cut.shore) % 2 == 0:
        raise EvenShore("tightness is tested on odd shores")
    _require_matching_covered(g)
    eng = _engine(g)
    inc = eng.incidence()
    idx = g.index
    mask = 0
    for v in cut.shore:
        mask ^= inc[idx[v]]
    pair = eng.first_pair(mask)
    if pair is None:
        return TightnessVerdict(True, None)
    ends = eng.ends()
    (i, j), (k, m) = ends[pair[0]], ends[pair[1]]
    sub = eng.extract_pm(eng.full & ~((1 << i) | (1 << j) | (1 << k) | (1 << m)))
    return TightnessVerdict(False, Matching(g, sub | set(pair)))


def tight_contractions(g: MultiGraph, cut: Cut) -> tuple:
    """The contractions (G/X̄, G/X) of a tight cut with shore X, each marked
    matching covered in its memo.

    G must be matching covered, and then so is each contraction (Lovász
    1987): G/X̄ is connected because G is, and an edge e of G/X̄ is an edge
    of G, so it lies in a perfect matching M of G.  M meets the cut once, so
    M's edges inside X and its one cut edge form a perfect matching of G/X̄
    that holds e; likewise for G/X.  A cut that is not tight raises
    `NotTight` with a perfect matching meeting it more than once, before
    anything is contracted.
    """
    if cut.graph != g:
        raise GraphMismatch("cut belongs to a different graph")
    verdict = is_tight(g, cut.shore)
    if not verdict.tight:
        raise NotTight("tight-cut contraction needs a tight cut", verdict.witness)
    sides = contract(g, cut.complement), contract(g, cut.shore)
    for side in sides:
        graph_memo(side, "matching_covered", lambda: True)
    return sides


def is_tight_by_enumeration(g: MultiGraph, shore: Iterable) -> TightnessVerdict:
    """Independent tightness route: count cut edges in every perfect matching.

    The matchings come from `_perfect_matchings`, kept as one graph-level
    tuple; the engine's memo and edge-pair table are never read, not even
    for the precondition: the graph must be connected and even, and every
    edge must lie in one of those matchings.
    """
    cut = make_cut(g, shore)
    if len(cut.shore) % 2 == 0:
        raise EvenShore("tightness is tested on odd shores")
    pms = ()
    if g.n >= 2 and g.n % 2 == 0 and is_connected(g):
        pms = graph_memo(g, "perfect_matchings", lambda: tuple(_perfect_matchings(g)))
    if not pms or len(frozenset().union(*pms)) != g.m:
        raise NotMatchingCovered("operation requires a matching covered graph")
    cut_set = frozenset(cut.edge_indices)
    for m in pms:
        if len(m & cut_set) != 1:
            return TightnessVerdict(False, Matching(g, m))
    return TightnessVerdict(True, None)


def _shore_bounds(n: int, nontrivial_only: bool) -> tuple:
    """Least and greatest size of an odd shore that holds the first vertex."""
    return (3, n - 3) if nontrivial_only else (1, n - 1)


def odd_shores(g: MultiGraph, nontrivial_only: bool = False):
    """All odd shores up to complement, ordered by size then lexicographically."""
    order = g.order
    lo, hi = _shore_bounds(g.n, nontrivial_only)
    for size in range(lo, hi + 1, 2):
        for tail in combinations(order[1:], size - 1):
            yield frozenset((order[0],) + tail)


def enumerate_tight_cuts(g: MultiGraph, nontrivial_only: bool = False) -> list:
    """All tight cuts of a matching covered graph, one per shore pair, in odd_shores order."""
    _require_matching_covered(g)

    def compute():
        eng = _engine(g)
        inc = eng.incidence()
        n = g.n
        lo, hi = _shore_bounds(n, nontrivial_only)
        below = [0] * n  # per vertex, its edges to lower vertices
        for e, (i, j) in enumerate(eng.ends()):
            below[max(i, j)] |= 1 << e
        shores = []

        def place(v, shore, size, shore_inc, far_inc, cut):
            # vertices below v are placed; an edge enters the cut when its
            # higher end is, and a clash there kills every completion
            if v == n:
                if size & 1:
                    shores.append(shore)
                return
            if size < hi:
                new = below[v] & far_inc
                if not (new and eng.clash(new, cut)):
                    place(v + 1, shore | (1 << v), size + 1, shore_inc | inc[v], far_inc, cut | new)
            if v - size < n - lo:
                new = below[v] & shore_inc
                if not (new and eng.clash(new, cut)):
                    place(v + 1, shore, size, shore_inc, far_inc | inc[v], cut | new)

        place(1, 1, 1, inc[0], 0, 0)
        order = g.order
        members = sorted((tuple(i for i in range(n) if (s >> i) & 1) for s in shores),
                         key=lambda t: (len(t), t))
        return tuple(frozenset(order[i] for i in t) for t in members)

    # the memo keeps shores, not Cuts, which would hold g and close a cycle
    return [Cut(g, s) for s in graph_memo(g, ("tight_cuts", nontrivial_only), compute)]
