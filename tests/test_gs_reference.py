"""GS-cut recognition on masks, against the frozenset reference it replaced.

The reference below is the recognition the library ran before it worked on
dense-index masks: the family by set intersection, edge coverage over the
cut's edges, the chain by pair intersections, and the pair and tail
conditions on `removed_components` reports.  It reads the frozenset
`components` of each 2-separation, which `test_barriers` checks against
component reports, and it builds end separations with the public
`end_2_separations`.  `is_gs_cut` must return an equal certificate, or
None, on every non-trivial odd shore.
"""

from itertools import combinations

from tightcuts.elp import two_separations
from tightcuts.graphcore import make_cut, removed_components
from tightcuts.gscut import GSCertificate, associated_family, end_2_separations, is_gs_cut
from tightcuts.matching import odd_shores

# -- the reference ---------------------------------------------------------


def reference_family(g, x):
    return [sep for sep in two_separations(g) if len(sep.pair & x) == 1]


def reference_chain(family):
    """BFS paths between members sharing one vertex, or None if disconnected."""
    k = len(family)
    paths = {}
    for start in range(k):
        prev = {start: None}
        queue = [start]
        for cur in queue:
            for nxt in range(k):
                if nxt not in prev and len(family[cur].pair & family[nxt].pair) == 1:
                    prev[nxt] = cur
                    queue.append(nxt)
        if len(prev) != k:
            return None
        for goal in range(start + 1, k):
            path = [goal]
            while path[-1] != start:
                path.append(prev[path[-1]])
            paths[(start, goal)] = tuple(reversed(path))
    return paths


def in_one_shore(vset, x, xbar):
    return vset <= x or vset <= xbar


def edge_coverage_ok(g, x, family):
    touched = frozenset().union(*(sep.pair for sep in family))
    return all(u in touched or v in touched
               for u, v in (g.edges[i] for i in make_cut(g, x).edge_indices))


def pair_ok(g, x, f, f2):
    """Nested components Y < Y2 of G - F and G - F2: the piece between them
    has its odd components away from the common vertex, even ones in one shore."""
    (w,) = f.pair & f2.pair
    xbar = g.vertices - x
    opposite = xbar if w in x else x
    for y in f.components:
        for y2 in f2.components:
            if not y < y2:
                continue
            between = y2 - (y | f.pair)
            if not between:
                continue
            for comp in removed_components(g, g.vertices - between).components:
                if len(comp) % 2 == 1 and not comp <= opposite:
                    return False
                if len(comp) % 2 == 0 and not in_one_shore(comp, x, xbar):
                    return False
    return True


def tail_ok(g, x, family):
    """Components whose hull holds no other member lie inside one shore."""
    xbar = g.vertices - x
    for f in family:
        others = [sep.pair for sep in family if sep.pair != f.pair]
        for y in f.components:
            if not any(p <= y | f.pair for p in others) and not in_one_shore(y, x, xbar):
                return False
    return True


def reference_is_gs_cut(g, shore):
    x = frozenset(shore)
    family = reference_family(g, x)
    if not family or not edge_coverage_ok(g, x, family):
        return None
    chain = reference_chain(family)
    if chain is None:
        return None
    for f, f2 in combinations(family, 2):
        if len(f.pair & f2.pair) == 1 and not (pair_ok(g, x, f, f2) and pair_ok(g, x, f2, f)):
            return None
    if not tail_ok(g, x, family):
        return None
    ends = end_2_separations(g, family)
    end_idx = tuple(i for i, sep in enumerate(family)
                    if any(e.separation == sep for e in ends))
    witnesses = tuple((i, j, chain[(i, j)]) for (i, j) in sorted(chain))
    return GSCertificate(x, tuple(family), witnesses, end_idx)


# -- the engine against the reference --------------------------------------


def gs_hits(graphs):
    """Check every non-trivial odd shore; the number of GS-cuts found."""
    hits = 0
    for g in graphs:
        for shore in odd_shores(g, nontrivial_only=True):
            got = is_gs_cut(g, shore)
            assert got == reference_is_gs_cut(g, shore)
            hits += got is not None
    return hits


def test_mask_recognition_matches_reference_on_corpus8(corpus8):
    assert gs_hits(corpus8) == 708


def test_mask_recognition_matches_reference_on_sample10(sample10):
    assert gs_hits(sample10) == 12


def test_mask_recognition_matches_reference_on_chains(chains12):
    assert gs_hits(chains12) == 234


def test_associated_family_matches_reference(corpus6, chains12):
    for g in corpus6 + chains12:
        for shore in odd_shores(g, nontrivial_only=True):
            assert associated_family(g, shore) == reference_family(g, shore)
