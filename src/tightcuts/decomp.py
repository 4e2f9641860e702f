"""Tight cut decomposition into bricks and braces, and the brick number.

Splitting on any non-trivial tight cut and recursing on both contractions
terminates in leaves with no non-trivial tight cut; the count of non-bipartite
leaves is independent of every choice made on the way down, which is exactly
what the seeded strategies let tests exercise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .elp import all_two_separation_cuts, barrier_cuts
from .graphcore import Cut, MultiGraph, contract, drop_memo, is_bipartite
from .matching import _require_matching_covered, enumerate_tight_cuts, is_tight


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


def find_nontrivial_tight_cut(g: MultiGraph, strategy: str = "exhaustive",
                              seed: int = 0) -> Optional[Cut]:
    """A seed-chosen non-trivial tight cut, or None for bricks and braces.

    Each strategy lists candidate cuts and the seed shuffles the list once;
    the first is returned.  exhaustive lists every non-trivial tight cut, so
    each is equally likely to be drawn; elp-first lists the barrier-cuts and
    2-separation cuts, which are always tight and always include one when any
    non-trivial tight cut exists.
    """
    _require_matching_covered(g)
    if strategy == "exhaustive":
        # a fresh list each call, so the shuffle below leaves the memo as it is
        candidates = enumerate_tight_cuts(g, nontrivial_only=True)
    elif strategy == "elp-first":
        cuts = [e.cut for e in barrier_cuts(g) if not e.cut.is_trivial]
        cuts += [e.cut for e in all_two_separation_cuts(g)]  # never trivial
        first = {}  # per shore pair, its first cut, in list order
        for c in cuts:
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
    """Matching covered, no non-trivial tight cut, not bipartite."""
    return not enumerate_tight_cuts(g, nontrivial_only=True) and not is_bipartite(g)


def is_brace(g: MultiGraph) -> bool:
    """Matching covered, no non-trivial tight cut, bipartite."""
    return not enumerate_tight_cuts(g, nontrivial_only=True) and is_bipartite(g)
