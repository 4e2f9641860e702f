"""Tight cut decomposition into bricks and braces, and the brick number.

Splitting on any non-trivial tight cut and recursing on both contractions
terminates in leaves with no non-trivial tight cut; the count of non-bipartite
leaves is independent of every choice made on the way down, which is exactly
what the seeded strategies let tests exercise.

exhaustive draws from every non-trivial tight cut; elp-first draws from
2-separation cuts and barrier-cuts, which are tight by structure, listed as
shore masks by three rules that walk no barrier subsets and no groupings of
components.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .elp import two_separations
from .graphcore import Cut, MultiGraph, _bits, _component_masks, drop_memo, is_bipartite
from .matching import barrier_classes, enumerate_tight_cuts, tight_contractions


@dataclass(frozen=True)
class DecompositionTree:
    graph: MultiGraph
    cut: Optional[Cut]  # None at leaves
    children: tuple  # () or (shore-side tree, far-side tree)
    leaf_kind: Optional[str]  # "brick" | "brace" | None for internal nodes

    def leaves(self):
        if not self.children:
            yield self
        else:
            for child in self.children:
                yield from child.leaves()

    def to_json_obj(self) -> dict:
        node = {
            "vertices": sorted(self.graph.display(v) for v in self.graph.vertices),
            "edge_count": self.graph.m,
        }
        if self.cut is None:
            node["leaf"] = self.leaf_kind
        else:
            node["cut_shore"] = sorted(self.graph.display(v) for v in self.cut.shore)
            node["children"] = [c.to_json_obj() for c in self.children]
        return node


def _elp_first_candidates(g: MultiGraph) -> list:
    """Shore masks of non-trivial tight cuts of a matching covered graph,
    none exactly when it is a brick or a brace; the first rule that lists
    anything gives them.

    1. For each 2-separation {u, v}, each component of G - {u, v} with u,
       and with v: a 2-separation cut, never trivial, since the component
       is even and the far shore holds another one and the other end.
    2. On a bipartite graph, its non-trivial tight cuts.  Each is a
       barrier-cut: a shore X holds one more vertex of one colour class W
       than of the other, A; no perfect matching uses an edge from X & A
       to W - X, so a matching covered graph has none, and X is an odd
       component of G - (A - X), a barrier of at least 2 vertices.
    3. Otherwise, for each maximal barrier B of at least 2 vertices, the
       components of G - B with at least 3 vertices.

    Every component of G - B is odd (Lovász & Plummer, Matching Theory,
    1986, 5.2), so rule 3 lists non-trivial barrier-cuts.  It is empty only
    at bricks: if every component of G - B were a single vertex, G would be
    bipartite; if every maximal barrier is a single vertex, G is bicritical,
    and a bicritical graph with no 2-separation is a brick (ELP 1982).
    """
    shores = [comp | end for sep in two_separations(g) for comp in sep.component_masks
              for end in _bits(sep.pair_mask)]
    if shores:
        return shores
    if is_bipartite(g):
        return [g.to_mask(c.shore) for c in enumerate_tight_cuts(g, nontrivial_only=True)]
    return [comp for cls in barrier_classes(g) if cls.bit_count() >= 2
            for comp in _component_masks(g, g.full_mask & ~cls) if comp.bit_count() >= 3]


def find_nontrivial_tight_cut(g: MultiGraph, strategy: str = "exhaustive",
                              seed: int = 0) -> Optional[Cut]:
    """A seed-chosen non-trivial tight cut, or None for bricks and braces.

    Each strategy lists candidate shores, one per shore pair, and the seed
    shuffles the list once; the first is returned as a cut.  exhaustive
    lists every non-trivial tight cut, so each is equally likely to be
    drawn; elp-first lists `_elp_first_candidates`, which are always tight
    and always include one when any non-trivial tight cut exists.
    """
    if strategy == "exhaustive":
        shores = [g.to_mask(c.shore) for c in enumerate_tight_cuts(g, nontrivial_only=True)]
    elif strategy == "elp-first":
        first = {}  # per shore pair, keyed by its side holding index 0, its first shore
        for s in _elp_first_candidates(g):
            first.setdefault(s if s & 1 else g.full_mask & ~s, s)
        shores = list(first.values())
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    if not shores:
        return None
    random.Random(seed).shuffle(shores)
    return Cut(g, g.from_mask(shores[0]))


def decompose(g: MultiGraph, strategy: str = "exhaustive", seed: int = 0) -> DecompositionTree:
    """Recursively split on non-trivial tight cuts down to bricks and braces.

    The input is checked to be matching covered once, by the callees; each
    split checks its cut is tight (`NotTight` otherwise) and hands both
    contractions that fact, so no node below the root re-proves it.  Each
    node's memo, the input's included, is dropped once it is split.
    """
    cut = find_nontrivial_tight_cut(g, strategy, seed)
    sides = () if cut is None else tight_contractions(g, cut)
    drop_memo(g)  # the sides are built and bipartiteness reads no memo
    if cut is None:
        kind = "brace" if is_bipartite(g) else "brick"
        return DecompositionTree(g, None, (), kind)
    left = decompose(sides[0], strategy, (seed * 1000003 + 1) & 0x7FFFFFFF)
    right = decompose(sides[1], strategy, (seed * 1000003 + 2) & 0x7FFFFFFF)
    return DecompositionTree(g, cut, (left, right), None)


def brick_number(tree: DecompositionTree) -> int:
    return sum(1 for leaf in tree.leaves() if leaf.leaf_kind == "brick")


def is_brick(g: MultiGraph) -> bool:
    """Matching covered, no non-trivial tight cut, not bipartite."""
    return not _elp_first_candidates(g) and not is_bipartite(g)


def is_brace(g: MultiGraph) -> bool:
    """Matching covered, no non-trivial tight cut, bipartite."""
    return not _elp_first_candidates(g) and is_bipartite(g)
