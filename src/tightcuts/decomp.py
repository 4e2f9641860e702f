"""Tight cut decomposition into bricks and braces, and the brick number.

Splitting on any non-trivial tight cut and recursing on both contractions
terminates in leaves with no non-trivial tight cut; the count of non-bipartite
leaves is independent of every choice made on the way down, which is exactly
what the seeded strategies let tests exercise.

exhaustive draws from every non-trivial tight cut; elp-first draws from
2-separation cuts and barrier-cuts, which are tight by structure, and walks
barrier subsets only on bipartite nodes with no 2-separation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .elp import all_two_separation_cuts, barrier_cuts, two_separations
from .graphcore import Cut, MultiGraph, _component_masks, contract, drop_memo, is_bipartite
from .matching import _require_matching_covered, barrier_classes, enumerate_tight_cuts, is_tight


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
    """Non-trivial tight cuts of a matching covered graph, none exactly when
    it is a brick or a brace; the first non-empty rule gives them.

    1. The 2-separation cuts.
    2. On a bipartite graph, the non-trivial barrier-cuts, from the capped
       barrier walk.
    3. Otherwise, for each maximal barrier B of at least 2 vertices, the
       cuts bounding the components of G - B with at least 3 vertices.

    Every component of G - B is odd (Lovász & Plummer, Matching Theory,
    1986, 5.2), so rule 3 lists non-trivial barrier-cuts.  It is empty only
    at bricks: if every component of G - B were a single vertex, G would be
    bipartite; if every maximal barrier is a single vertex, G is bicritical,
    and a bicritical graph with no 2-separation is a brick (ELP 1982).
    """
    cuts = [e.cut for e in all_two_separation_cuts(g)]  # never trivial
    if cuts:
        return cuts
    if is_bipartite(g):
        return [e.cut for e in barrier_cuts(g) if not e.cut.is_trivial]
    return [Cut(g, g.from_mask(comp))
            for cls in barrier_classes(g) if cls.bit_count() >= 2
            for comp in _component_masks(g, g.full_mask & ~cls) if comp.bit_count() >= 3]


def find_nontrivial_tight_cut(g: MultiGraph, strategy: str = "exhaustive",
                              seed: int = 0) -> Optional[Cut]:
    """A seed-chosen non-trivial tight cut, or None for bricks and braces.

    Each strategy lists candidate cuts and the seed shuffles the list once;
    the first is returned.  exhaustive lists every non-trivial tight cut, so
    each is equally likely to be drawn; elp-first lists
    `_elp_first_candidates`, 2-separation cuts or else barrier-cuts, which
    are always tight and always include one when any non-trivial tight cut
    exists.
    """
    _require_matching_covered(g)
    if strategy == "exhaustive":
        # a fresh list each call, so the shuffle below leaves the memo as it is
        candidates = enumerate_tight_cuts(g, nontrivial_only=True)
    elif strategy == "elp-first":
        first = {}  # per shore pair, its first cut, in list order
        for c in _elp_first_candidates(g):
            first.setdefault(c.shore_pair, c)
        candidates = list(first.values())
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    if not candidates:
        return None
    random.Random(seed).shuffle(candidates)
    assert is_tight(g, candidates[0].shore).tight, "candidate cuts must be tight"
    return candidates[0]


def decompose(g: MultiGraph, strategy: str = "exhaustive", seed: int = 0) -> DecompositionTree:
    """Recursively split on non-trivial tight cuts down to bricks and braces.

    Each node's memo, the input's included, is dropped once its cut is chosen.
    """
    cut = find_nontrivial_tight_cut(g, strategy, seed)
    drop_memo(g)  # contraction and bipartiteness read no memo
    if cut is None:
        kind = "brace" if is_bipartite(g) else "brick"
        return DecompositionTree(g, None, (), kind)
    shore_side = contract(g, cut.complement)
    far_side = contract(g, cut.shore)
    left = decompose(shore_side, strategy, (seed * 1000003 + 1) & 0x7FFFFFFF)
    right = decompose(far_side, strategy, (seed * 1000003 + 2) & 0x7FFFFFFF)
    return DecompositionTree(g, cut, (left, right), None)


def brick_number(tree: DecompositionTree) -> int:
    return sum(1 for leaf in tree.leaves() if leaf.leaf_kind == "brick")


def is_brick(g: MultiGraph) -> bool:
    """Matching covered, no non-trivial tight cut, not bipartite.

    On a non-bipartite graph that is when elp-first's rules list nothing: no
    2-separation, and every maximal barrier a single vertex.  Both are
    tested without listing cuts, in polynomial time.
    """
    _require_matching_covered(g)
    return (not is_bipartite(g) and not two_separations(g)
            and all(cls.bit_count() == 1 for cls in barrier_classes(g)))


def is_brace(g: MultiGraph) -> bool:
    """Matching covered, no non-trivial tight cut, bipartite."""
    return not enumerate_tight_cuts(g, nontrivial_only=True) and is_bipartite(g)
