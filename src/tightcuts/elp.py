"""Barriers, 2-separations, the cuts they induce, and ELP sets.

A barrier is a vertex set whose removal leaves exactly |B| odd components;
each odd component's boundary is a barrier-cut.  A 2-separation is a
2-vertex set whose removal disconnects the graph into all-even components;
grouping the components and adding either separation vertex gives the
2-separation cuts.  ELP(C) collects the non-trivial cuts of both kinds that
sit compatibly with a given non-trivial tight cut C.

Every barrier lies inside one maximal barrier, and the maximal barriers of a
matching covered graph partition its vertex set (`matching.barrier_classes`),
so barrier enumeration walks the subsets of one class at a time, and
`is_barrier_cut` counts odd components once per side.  `two_separations`
walks the components of G - {i, j} only when neither vertex is a leaf of a
BFS tree of the graph less the other.  Candidates are tested as dense-index
masks, counting odd components by popcount; frozensets are built only for
the barriers and 2-separations that are found.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Optional

from .errors import EmptySet, GraphMismatch, GraphTooLarge, NotTight, TrivialCut
from .graphcore import (Cut, MultiGraph, _bits, _component_masks, graph_memo, is_laminar,
                        make_cut, removed_components)
from .matching import _require_matching_covered, barrier_classes, is_tight

_BARRIER_ENUM_LIMIT = 20


@dataclass(frozen=True)
class Barrier:
    vertices: frozenset
    # every component of G - B, witnessing o(G - B) = |B|; all are odd, as G is
    # matching covered: B is matched into the odd ones, so an edge from B to
    # an even component would lie in no perfect matching
    odd_components: tuple
    maximal: Optional[bool] = None  # set by enumerate_nontrivial_barriers

    @property
    def is_trivial(self) -> bool:
        return len(self.vertices) == 1


@dataclass(frozen=True)
class TwoSeparation:
    pair: frozenset
    components: tuple  # all components of G - pair, each of even order
    pair_mask: int = field(compare=False)  # the same sets as dense-index masks
    component_masks: tuple = field(compare=False)

    def __repr__(self):
        return f"TwoSeparation({sorted(self.pair)!r})"


@dataclass(frozen=True)
class BarrierCutWitness:
    barrier: Barrier
    component: frozenset  # the odd component whose boundary is the cut


@dataclass(frozen=True)
class TwoSeparationCutWitness:
    separation: TwoSeparation
    group: tuple  # the components on the shore side
    attach_vertex: object  # the separation vertex joined to the group


@dataclass(frozen=True)
class ElpCut:
    cut: Cut
    kind: str  # "barrier-cut" | "two-separation-cut"
    certificate: object


def is_barrier(g: MultiGraph, vertices: Iterable) -> bool:
    """True iff removing the set leaves exactly that many odd components."""
    b = frozenset(vertices)
    if not b:
        raise EmptySet("a barrier is nonempty")
    return removed_components(g, b).odd_count == len(b)


def _barrier_value(g: MultiGraph, b: frozenset, maximal=None) -> Barrier:
    report = removed_components(g, b)
    return Barrier(b, report.components, maximal)


def _odd_count(g: MultiGraph, removed: int) -> int:
    """The number of odd components of G - removed, for a dense-index mask."""
    return sum(c.bit_count() & 1 for c in _component_masks(g, g.full_mask & ~removed))


def enumerate_nontrivial_barriers(g: MultiGraph) -> list:
    """All barriers of size >= 2 of a matching covered graph, sorted by vertices.

    Every barrier lies inside one maximal barrier, so the walk tries the
    subsets of size >= 2 of each class of `barrier_classes`; a barrier is
    maximal exactly when it is its whole class.  Exponential in the class
    size; hard-capped by vertex count.
    """
    if g.n > _BARRIER_ENUM_LIMIT:
        raise GraphTooLarge(f"barrier enumeration is capped at {_BARRIER_ENUM_LIMIT} vertices")
    _require_matching_covered(g)

    def compute():
        out = []
        for cls in barrier_classes(g):
            members = _bits(cls)
            for size in range(2, len(members) + 1):
                for combo in combinations(members, size):
                    b = sum(combo)
                    if _odd_count(g, b) == size:
                        out.append(_barrier_value(g, g.from_mask(b), b == cls))
        out.sort(key=lambda bar: sorted(bar.vertices))
        return tuple(out)

    return list(graph_memo(g, "nontrivial_barriers", compute))


def _barrier_cut_witnesses(g: MultiGraph, barriers: Iterable) -> list:
    """(shore, witness) per cut bounding an odd component of the barriers, first witness kept."""
    out = []
    seen = set()
    for barrier in barriers:
        for comp in barrier.odd_components:
            pair = frozenset((comp, g.vertices - comp))
            if pair not in seen:
                seen.add(pair)
                out.append((comp, BarrierCutWitness(barrier, comp)))
    return out


def _elp_cuts(g: MultiGraph, kind: str, witnessed: Iterable) -> list:
    # memos keep (shore, witness) pairs, never Cuts, which would hold g and
    # close a cycle; each shore is a nonempty proper subset by construction
    return [ElpCut(Cut(g, shore), kind, witness) for shore, witness in witnessed]


def barrier_cuts(g: MultiGraph) -> list:
    """Every cut bounding an odd component of a non-trivial barrier, deduplicated."""

    def compute():
        return tuple(_barrier_cut_witnesses(g, enumerate_nontrivial_barriers(g)))

    return _elp_cuts(g, "barrier-cut", graph_memo(g, "barrier_cuts", compute))


def is_barrier_cut(g: MultiGraph, shore: Iterable) -> Optional[Barrier]:
    """The largest barrier having one side of the cut as an odd component, if any.

    Let X be an odd side with G[X] connected, N = N(X) - X, and M the class
    of `barrier_classes` holding a vertex of N.  Some barrier B has X as an
    odd component exactly when N <= M and o(G - (M - X)) = |M - X|, and then
    M - X is one.  If: X is a component of G - (M - X).  Only if: B holds N
    and lies in one maximal barrier, so B <= M - X, and the cut is tight.  M
    is independent and G - M has |M| odd components; those meeting X lie in
    X, and no vertex of X & M has a neighbour off X.  A perfect matching
    matches each vertex of M into its own component of G - M, so it crosses
    the cut r - s times, r the components of G - M inside X and s = |X & M|.
    Tightness gives r = s + 1, so G - (M - X) has X and |M| - r other odd
    components, |M - X| in all.
    """
    cut = make_cut(g, shore)
    _require_matching_covered(g)
    for side in sorted(cut.shore_pair, key=lambda s: s != cut.shore):
        if len(side) % 2 == 0:
            continue
        x = g.to_mask(side)
        if len(_component_masks(g, x)) != 1:
            continue  # the side itself must be connected
        # nonempty: the graph is connected and X is proper
        nbhd = g.to_mask(frozenset().union(*(g.adjacency[v] for v in side))) & ~x
        home = next(c for c in barrier_classes(g) if c & nbhd)
        b = home & ~x
        if not nbhd & ~home and _odd_count(g, b) == b.bit_count():
            return _barrier_value(g, g.from_mask(b))
    return None


def _tree_inner(g: MultiGraph, i: int) -> int:
    """The non-leaf vertices of a BFS tree of G - i, as a dense-index mask.

    The tree grows from the lowest vertex of G - i, which it spans when
    G - i is connected; a vertex is inner when it claims a neighbour."""
    adj = g.adj_masks
    rest = g.full_mask & ~(1 << i)
    frontier = rest & -rest
    seen = (1 << i) | frontier
    inner = 0
    while frontier:
        level = frontier
        frontier = 0
        while level:
            vbit = level & -level
            level ^= vbit
            new = adj[vbit.bit_length() - 1] & ~seen
            if new:
                inner |= vbit
                seen |= new
                frontier |= new
    return inner


def two_separations(g: MultiGraph) -> list:
    """All 2-vertex sets whose removal leaves >= 2 components, all even.

    A matching covered graph on 4 or more vertices is 2-connected, so for
    each vertex i a BFS tree of G - i spans it.  When j is a leaf of that
    tree, the tree less j spans G - i - j, which is then connected; so a
    pair {i, j}, i < j, has its components walked only when j is inside the
    tree of G - i and i inside the tree of G - j.  Pairs come out in
    (i, j) order of dense index.
    """
    _require_matching_covered(g)

    def compute():
        out = []
        order = g.order
        inner = [_tree_inner(g, i) for i in range(g.n)]
        for i in range(g.n):
            for jbit in _bits(inner[i] & -(2 << i)):  # j > i
                j = jbit.bit_length() - 1
                if not (inner[j] >> i) & 1:
                    continue  # i is a leaf of G - j's tree
                pair = (1 << i) | jbit
                comps = _component_masks(g, g.full_mask & ~pair)
                if len(comps) >= 2 and not any(c.bit_count() & 1 for c in comps):
                    # components come out by lowest member, as removed_components orders them
                    out.append(TwoSeparation(frozenset((order[i], order[j])),
                                             tuple(g.from_mask(c) for c in comps),
                                             pair, tuple(comps)))
        return tuple(out)

    return list(graph_memo(g, "two_separations", compute))


def _two_separation_cut_witnesses(sep: TwoSeparation) -> list:
    comps = sep.components
    u, v = sorted(sep.pair)
    out = []
    rest = comps[1:]
    for pick in range(1 << len(rest)):
        group = [comps[0]] + [c for k, c in enumerate(rest) if (pick >> k) & 1]
        if len(group) == len(comps):
            continue  # the other group would be empty
        base = frozenset().union(*group)
        for attach in (u, v):
            out.append((base | {attach}, TwoSeparationCutWitness(sep, tuple(group), attach)))
    return out


def two_separation_cuts(g: MultiGraph, sep: TwoSeparation) -> list:
    """Cuts from grouping the components of G - {u, v} and attaching u or v.

    Every bipartition of the components into two nonempty groups gives two
    shores (group plus either separation vertex), each shore pair once:
    component 0 is always on the group side, so no complement of a shore is
    another shore, and a shore fixes its group and attach vertex.
    """
    return _elp_cuts(g, "two-separation-cut", _two_separation_cut_witnesses(sep))


def all_two_separation_cuts(g: MultiGraph) -> list:
    """Deduplicated 2-separation cuts over every 2-separation of the graph."""

    def compute():
        out = []
        seen = set()
        for sep in two_separations(g):
            for shore, witness in _two_separation_cut_witnesses(sep):
                pair = frozenset((shore, g.vertices - shore))
                if pair not in seen:
                    seen.add(pair)
                    out.append((shore, witness))
        return tuple(out)

    return _elp_cuts(g, "two-separation-cut", graph_memo(g, "all_two_separation_cuts", compute))


def elp_set(g: MultiGraph, cut: Cut) -> list:
    """Members of ELP(C): sheltered non-trivial barrier-cuts plus laminar
    non-trivial 2-separation cuts, one per shore pair (C itself may qualify)."""
    if cut.graph != g:
        raise GraphMismatch("cut belongs to a different graph")
    if cut.is_trivial:
        raise TrivialCut("ELP sets are defined for non-trivial cuts")
    verdict = is_tight(g, cut.shore)
    if not verdict.tight:
        raise NotTight("ELP sets are defined for tight cuts", verdict.witness)
    # a cut may bound odd components of several barriers and is a member when
    # any of them is sheltered, so the cuts come from the sheltered barriers
    # themselves, not from barrier_cuts' one witness per cut
    sheltered = [bar for bar in enumerate_nontrivial_barriers(g)
                 if bar.vertices <= cut.shore or bar.vertices <= cut.complement]
    out = [elp for elp in _elp_cuts(g, "barrier-cut", _barrier_cut_witnesses(g, sheltered))
           if not elp.cut.is_trivial]
    assert all(is_laminar(elp.cut, cut) for elp in out), "sheltered barrier-cut must be laminar"
    # a 2-separation cut is never trivial: each shore holds an even component
    # and a separation vertex
    seen = {elp.cut.shore_pair for elp in out}
    out += [elp for elp in all_two_separation_cuts(g)
            if elp.cut.shore_pair not in seen and is_laminar(elp.cut, cut)]
    return out
