"""Exact perfect-matching machinery and the tightness test, in two routes.

The workhorse is a per-graph engine holding dense bitmask adjacency and a
memoized "does this vertex subset have a perfect matching" table shared by
every query against the same graph — the pairwise tightness test hits it
thousands of times with heavily overlapping subsets.  For graphs past the
subset-DP comfort zone, existence falls back to networkx's blossom matching.
An all-subsets Tutte-condition checker provides the independent desk-scale
oracle, and full enumeration of perfect matchings backs the second tightness
route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .errors import EvenShore, GraphTooLarge, NotMatchingCovered, TooSmall
from .graphcore import Cut, MultiGraph, graph_memo, is_connected, make_cut, removed_components

_DP_LIMIT = 26  # past this, has_perfect_matching uses blossom instead of subset DP
_TUTTE_LIMIT = 20


class _Engine:
    """Dense-index matching engine cached on one graph instance."""

    __slots__ = ("g", "n", "adj", "edge_ends", "edges_at", "full", "pm_memo", "pms")

    def __init__(self, g: MultiGraph):
        self.g = g
        self.n = g.n
        idx = g.index
        self.adj = list(g.adj_masks)
        self.edge_ends = [(idx[u], idx[v]) for u, v in g.edges]
        self.edges_at = [[] for _ in range(self.n)]
        for e, (i, j) in enumerate(self.edge_ends):
            self.edges_at[i].append(e)
            self.edges_at[j].append(e)
        self.full = g.full_mask
        self.pm_memo = {0: True}
        self.pms = None

    def pm_exists(self, mask: int) -> bool:
        """Perfect matching on the vertex subset given as a dense mask."""
        memo = self.pm_memo
        hit = memo.get(mask)
        if hit is not None:
            return hit
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

    def extract_pm(self, mask: int) -> Optional[frozenset]:
        """A concrete perfect matching on mask as edge indices, or None.

        Deterministic: the lowest uncovered vertex is matched along its
        lowest-index usable edge at every step.
        """
        chosen = []
        while mask:
            v = (mask & -mask).bit_length() - 1
            found = False
            for e in self.edges_at[v]:
                i, j = self.edge_ends[e]
                w = j if i == v else i
                wbit = 1 << w
                if not (mask & wbit):
                    continue
                sub = mask & ~((1 << v) | wbit)
                if self.pm_exists(sub):
                    chosen.append(e)
                    mask = sub
                    found = True
                    break
            if not found:
                return None
        return frozenset(chosen)

    def all_pms(self, limit: Optional[int] = None) -> tuple:
        """(list of edge-index frozensets, truncated flag), lexicographic order."""
        if self.pms is not None:
            if limit is not None and limit < len(self.pms):
                return self.pms[:limit], True
            return self.pms, False
        out = []
        truncated = False

        def rec(mask, chosen):
            nonlocal truncated
            if truncated:
                return
            if mask == 0:
                out.append(frozenset(chosen))
                if limit is not None and len(out) >= limit:
                    truncated = True
                return
            if not self.pm_exists(mask):
                return
            v = (mask & -mask).bit_length() - 1
            for e in self.edges_at[v]:
                i, j = self.edge_ends[e]
                w = j if i == v else i
                wbit = 1 << w
                if mask & wbit:
                    chosen.append(e)
                    rec(mask & ~((1 << v) | wbit), chosen)
                    chosen.pop()
                    if truncated:
                        return

        if self.n % 2 == 0:
            rec(self.full, [])
        if not truncated:
            self.pms = out  # complete enumeration is worth keeping
        return out, truncated


def _engine(g: MultiGraph) -> _Engine:
    return graph_memo(g, "engine", lambda: _Engine(g))


def _blossom_has_pm(g: MultiGraph) -> bool:
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(set(g.edges))
    return len(nx.max_weight_matching(h, maxcardinality=True)) * 2 == g.n


def has_perfect_matching(g: MultiGraph) -> bool:
    """Exact perfect-matching existence (subset DP, blossom beyond the DP cap)."""
    if g.n % 2 == 1:
        return False
    if g.n == 0:
        return True
    if g.n <= _DP_LIMIT:
        return _engine(g).pm_exists(g.full_mask)
    return _blossom_has_pm(g)


def subgraph_has_pm(g: MultiGraph, removed: Iterable) -> bool:
    """Perfect matching of G - removed; shares the per-graph memo."""
    rm = frozenset(removed)
    if (g.n - len(rm)) % 2 == 1:
        return False
    if g.n <= _DP_LIMIT:
        eng = _engine(g)
        return eng.pm_exists(g.full_mask & ~g.to_mask(rm))
    sub = MultiGraph(g.vertices - rm,
                     tuple((u, v) for u, v in g.edges if u not in rm and v not in rm))
    return _blossom_has_pm(sub)


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


def enumerate_perfect_matchings(g: MultiGraph, limit: Optional[int] = None) -> MatchingEnumeration:
    """All perfect matchings (parallel edges distinct), flagged if truncated."""
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    pms, truncated = _engine(g).all_pms(limit)
    return MatchingEnumeration(tuple(Matching(g, m) for m in pms), truncated)


# -- matching covered / bicritical ----------------------------------------


def is_matching_covered(g: MultiGraph) -> bool:
    """Connected, >= 2 vertices, and every edge lies in some perfect matching."""

    def compute():
        if g.n < 2 or g.n % 2 == 1 or not is_connected(g):
            return False
        if not has_perfect_matching(g):
            return False
        for u, v in set(g.edges):
            if not subgraph_has_pm(g, (u, v)):
                return False
        return True

    return graph_memo(g, "matching_covered", compute)


def is_bicritical(g: MultiGraph) -> bool:
    """G - {u, v} has a perfect matching for every pair of distinct vertices."""

    def compute():
        if g.n < 4:
            raise TooSmall("bicriticality needs at least 4 vertices")
        if g.n % 2 == 1:
            return False
        order = g.order
        for i, u in enumerate(order):
            for v in order[i + 1:]:
                if not subgraph_has_pm(g, (u, v)):
                    return False
        return True

    return graph_memo(g, "bicritical", compute)


# -- tightness -------------------------------------------------------------


@dataclass(frozen=True)
class TightnessVerdict:
    tight: bool
    witness: Optional[Matching]  # perfect matching meeting the cut != once


def _require_matching_covered(g: MultiGraph):
    if not is_matching_covered(g):
        raise NotMatchingCovered("operation requires a matching covered graph")


def _pair_witness(g: MultiGraph, idxs: tuple) -> Optional[Matching]:
    """A perfect matching holding two of the given cut edges (the first such
    pair in index order), or None exactly when their cut is tight."""
    eng = _engine(g)
    ends = eng.edge_ends
    for a in range(len(idxs)):
        i1, j1 = ends[idxs[a]]
        bits1 = (1 << i1) | (1 << j1)
        for b in range(a + 1, len(idxs)):
            i2, j2 = ends[idxs[b]]
            bits2 = (1 << i2) | (1 << j2)
            if bits1 & bits2:
                continue  # edges sharing an endpoint never co-occur
            rest = eng.full & ~(bits1 | bits2)
            if eng.pm_exists(rest):
                sub = eng.extract_pm(rest)
                assert sub is not None
                return Matching(g, sub | {idxs[a], idxs[b]})
    return None


def is_tight(g: MultiGraph, shore: Iterable) -> TightnessVerdict:
    """Pairwise-deletion tightness test for an odd shore.

    An odd shore meets every perfect matching an odd number of times, so the
    cut fails to be tight exactly when two disjoint cut edges extend to a
    perfect matching of the rest; the witness returned is such a matching.
    """
    cut = make_cut(g, shore)
    if len(cut.shore) % 2 == 0:
        raise EvenShore("tightness is tested on odd shores")
    _require_matching_covered(g)
    witness = _pair_witness(g, cut.edge_indices)
    return TightnessVerdict(witness is None, witness)


def is_tight_by_enumeration(g: MultiGraph, shore: Iterable) -> TightnessVerdict:
    """Independent tightness route: count cut edges in every perfect matching."""
    cut = make_cut(g, shore)
    if len(cut.shore) % 2 == 0:
        raise EvenShore("tightness is tested on odd shores")
    _require_matching_covered(g)
    cut_set = frozenset(cut.edge_indices)
    for m in _engine(g).all_pms()[0]:
        if len(m & cut_set) != 1:
            return TightnessVerdict(False, Matching(g, m))
    return TightnessVerdict(True, None)


def odd_shores(g: MultiGraph, nontrivial_only: bool = False):
    """All odd shores up to complement, ordered by size then lexicographically."""
    order = g.order
    rest = order[1:]
    lo = 3 if nontrivial_only else 1
    hi = g.n - 3 if nontrivial_only else g.n - 1
    from itertools import combinations

    for size in range(lo, hi + 1, 2):
        for tail in combinations(rest, size - 1):
            yield frozenset((order[0],) + tail)


def enumerate_tight_cuts(g: MultiGraph, nontrivial_only: bool = False) -> list:
    """All tight cuts of a matching covered graph, one per shore pair."""
    _require_matching_covered(g)

    def compute():
        out = []
        for shore in odd_shores(g, nontrivial_only):
            cut = Cut(g, shore)  # odd_shores yields only valid odd shores
            if _pair_witness(g, cut.edge_indices) is None:
                out.append(cut)
        return tuple(out)

    return list(graph_memo(g, ("tight_cuts", nontrivial_only), compute))
