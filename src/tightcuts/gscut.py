"""Generalized-separation cuts: recognition, certificates, classification.

A cut's associated family collects every 2-separation meeting its shore in
exactly one vertex.  The cut is a GS-cut when the family is nonempty, covers
the cut's edges, hangs together in a chain (consecutive members sharing one
vertex), and satisfies two component/shore compatibility conditions.  An
essential GS-cut is one that becomes a GS-cut after contracting a disjoint
family of sheltered non-trivial barriers, each contracted vertex landing in
an associated 2-separation.  Classification tries the barrier route first and
the essential route second; both produce re-validatable certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from .elp import (Barrier, TwoSeparation, enumerate_nontrivial_barriers, is_barrier,
                  is_barrier_cut, two_separations)
from .errors import (BadCertificate, BadSplice, NotMatchingCovered, NotTight,
                     SearchBudgetExceeded, TightcutsError, TrivialCut)
from .graphcore import (Cut, MultiGraph, _check_shore, _component_masks, contract,
                        edge_splice, make_cut, removed_components)
from .matching import _require_matching_covered, is_tight

DEFAULT_MAX_BARRIER_FAMILY = 4
DEFAULT_SEARCH_BUDGET = 20000


def _family(g: MultiGraph, x_mask: int) -> list:
    """`associated_family` of a shore given as a dense-index mask."""
    return [sep for sep in two_separations(g) if (sep.pair_mask & x_mask).bit_count() == 1]


def associated_family(g: MultiGraph, shore: Iterable) -> list:
    """The 2-separations meeting the shore in exactly one vertex."""
    return _family(g, g.to_mask(_check_shore(g, shore)))


@dataclass(frozen=True)
class GSCertificate:
    shore: frozenset
    family: tuple  # TwoSeparation values, deterministic order
    chain_witnesses: tuple  # ((i, j, path-as-index-tuple), ...) for i < j
    end_separations: tuple  # indices into family

    def family_pairs(self):
        return [sorted(sep.pair) for sep in self.family]


@dataclass(frozen=True)
class EndSeparation:
    separation: TwoSeparation
    clean_components: tuple  # components Y with no other family member inside Y + F


@dataclass(frozen=True)
class EssentialGSCertificate:
    shore: frozenset
    barriers: tuple  # Barrier values, pairwise disjoint, sheltered
    regions: tuple  # frozensets contracted for each barrier, same order
    contracted_ids: tuple  # replacement vertex ids, same order
    contracted_graph: MultiGraph
    shore_image: frozenset
    inner_certificate: GSCertificate
    b_assignments: tuple  # ((b_id, TwoSeparation of the contraction), ...)


@dataclass(frozen=True)
class TightCutClassification:
    cut: Cut
    verdict: str  # "barrier-cut" | "essential-gs-cut" | "unclassified"
    barrier: Optional[Barrier] = None
    essential: Optional[EssentialGSCertificate] = None
    transcript: tuple = ()


def _family_chain(family: list) -> Optional[dict]:
    """BFS paths in the member-intersection graph, or None if disconnected."""
    k = len(family)
    adjacent = {i: [] for i in range(k)}
    for i, j in combinations(range(k), 2):
        if family[i].pair_mask & family[j].pair_mask:
            adjacent[i].append(j)
            adjacent[j].append(i)
    paths = {}
    for start in range(k):
        prev = {start: None}
        queue = [start]
        while queue:
            cur = queue.pop(0)
            for nxt in adjacent[cur]:
                if nxt not in prev:
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


def _conditions_ok(g: MultiGraph, x_mask: int, family: list) -> bool:
    """Edge coverage, the pair condition and the tail condition, on masks.

    Coverage: every cut edge has an end in some family member.  Pair
    condition, for members F, F2 sharing a vertex w: for nested components
    Y < Y2 of G - F and G - F2, the piece of Y2 outside Y + F has its odd
    components on the shore away from w and each even one inside one shore.
    Tail condition: a component Y of G - F whose hull Y + F holds no other
    member lies inside one shore.
    """
    xbar_mask = g.full_mask & ~x_mask

    def one_shore(c):
        return not (c & x_mask and c & xbar_mask)

    touched = 0
    for sep in family:
        touched |= sep.pair_mask
    adj = g.adj_masks
    for i in range(g.n):
        if (x_mask >> i) & 1 and not (touched >> i) & 1 and adj[i] & xbar_mask & ~touched:
            return False
    for f, f2 in combinations(family, 2):
        common = f.pair_mask & f2.pair_mask
        if not common:
            continue
        opposite = xbar_mask if common & x_mask else x_mask
        for a, b in ((f, f2), (f2, f)):
            for y in a.component_masks:
                for y2 in b.component_masks:
                    if y == y2 or y & ~y2:
                        continue  # Y must be a proper subset of Y2
                    for c in _component_masks(g, y2 & ~(y | a.pair_mask)):
                        odd = c.bit_count() & 1
                        if (odd and c & ~opposite) or (not odd and not one_shore(c)):
                            return False
    for f in family:
        others = [sep.pair_mask for sep in family if sep is not f]
        for y in f.component_masks:
            hull = y | f.pair_mask
            if not one_shore(y) and not any(p & ~hull == 0 for p in others):
                return False
    return True


def end_2_separations(g: MultiGraph, family: list) -> list:
    """Family members whose intersections with all others sit in one vertex.

    Each comes with the components Y whose hull Y + F contains no other
    member — the side the chain does not continue into.
    """
    out = []
    pairs = [sep.pair for sep in family]
    for i, sep in enumerate(family):
        others = [p for j, p in enumerate(pairs) if j != i]
        if others:
            ok = any(all(p & sep.pair <= {w} for p in others) for w in sep.pair)
        else:
            ok = True  # a lone member is vacuously an end
        if not ok:
            continue
        clean = tuple(y for y in sep.components
                      if not any(p <= (y | sep.pair) for p in others))
        out.append(EndSeparation(sep, clean))
    return out


def is_gs_cut(g: MultiGraph, shore: Iterable) -> Optional[GSCertificate]:
    """Full definitional check; returns a certificate or None."""
    x = _check_shore(g, shore)
    _require_matching_covered(g)
    x_mask = g.to_mask(x)
    family = _family(g, x_mask)
    if not family or not _conditions_ok(g, x_mask, family):
        return None
    chain = _family_chain(family)
    if chain is None:
        return None
    ends = {e.separation for e in end_2_separations(g, family)}
    end_idx = tuple(i for i, sep in enumerate(family) if sep in ends)
    witnesses = tuple((i, j, chain[(i, j)]) for (i, j) in sorted(chain))
    return GSCertificate(x, tuple(family), witnesses, end_idx)


# -- essential GS-cuts -----------------------------------------------------


def _barrier_region(g: MultiGraph, barrier: frozenset, x: frozenset) -> Optional[frozenset]:
    """Everything on the barrier's side of the graph: the complement of the
    component of G - B holding the far shore (None if that shore is split)."""
    b = g.to_mask(barrier)
    x_mask = g.to_mask(x)
    far = g.full_mask & ~x_mask if b & x_mask == b else x_mask
    holders = [c for c in _component_masks(g, g.full_mask & ~b) if c & far]
    if len(holders) != 1 or far & ~holders[0]:
        return None
    return g.from_mask(g.full_mask & ~holders[0])


def _replay_contractions(g: MultiGraph, x: frozenset, regions: list, ids: list) -> tuple:
    """Contract each barrier region to its id in turn.

    Returns the contracted graph and the image of the shore x.  A region lies
    inside the shore that holds its barrier, so one inside x is replaced by
    its id there.
    """
    current = g
    image = set(x)
    for region, new_id in zip(regions, ids):
        current = contract(current, region, new_id=new_id)
        if region <= x:
            image -= region
            image.add(new_id)
    return current, frozenset(image)


def is_essential_gs_cut(g: MultiGraph, shore: Iterable,
                        max_family_size: int = DEFAULT_MAX_BARRIER_FAMILY,
                        budget: int = DEFAULT_SEARCH_BUDGET,
                        _transcript: Optional[list] = None) -> Optional[EssentialGSCertificate]:
    """Search for a disjoint sheltered barrier family whose contraction
    yields a GS-cut with every replacement vertex in an associated separation.

    The empty family is tried first (a GS-cut is already essential); then
    families by size and lexicographic order.  Deterministic.
    """
    x = _check_shore(g, shore)
    _require_matching_covered(g)
    transcript = _transcript if _transcript is not None else []

    direct = is_gs_cut(g, x)
    if direct is not None:
        return EssentialGSCertificate(
            shore=x, barriers=(), regions=(), contracted_ids=(),
            contracted_graph=g, shore_image=x, inner_certificate=direct,
            b_assignments=())
    transcript.append("empty barrier family: not a GS-cut as-is"
                      if associated_family(g, x) else
                      "empty barrier family: associated family is empty")

    xbar = g.vertices - x
    sheltered = [b for b in enumerate_nontrivial_barriers(g)
                 if b.vertices <= x or b.vertices <= xbar]
    if not sheltered:
        transcript.append("no sheltered non-trivial barriers to contract")
        return None

    examined = 0
    for size in range(1, max_family_size + 1):
        for combo in combinations(sheltered, size):
            examined += 1
            if examined > budget:
                raise SearchBudgetExceeded(
                    f"examined {examined - 1} barrier families without an answer",
                    transcript)
            if any(a.vertices & b.vertices for a, b in combinations(combo, 2)):
                continue
            # sheltered keeps enumerate_nontrivial_barriers' order, and so does combo
            regions = []
            for bar in combo:
                region = _barrier_region(g, bar.vertices, x)
                if region is None:
                    transcript.append(
                        f"family {[sorted(b.vertices) for b in combo]}: far shore split "
                        f"by barrier {sorted(bar.vertices)}")
                    regions = None
                    break
                regions.append(region)
            if regions is None:
                continue
            if any(r1 & r2 for r1, r2 in combinations(regions, 2)):
                transcript.append(
                    f"family {[sorted(b.vertices) for b in combo]}: regions overlap")
                continue
            # each fresh id exceeds every vertex before it: max(V)+1, ..., max(V)+size
            b_ids = list(range(max(g.vertices) + 1, max(g.vertices) + 1 + size))
            current, ximg = _replay_contractions(g, x, regions, b_ids)
            try:
                inner = is_gs_cut(current, ximg)
            except NotMatchingCovered:
                transcript.append(
                    f"family {[sorted(b.vertices) for b in combo]}: contraction "
                    "is not matching covered")
                continue
            if inner is None:
                continue
            covered = frozenset().union(*(sep.pair for sep in inner.family))
            if not all(b in covered for b in b_ids):
                transcript.append(
                    f"family {[sorted(b.vertices) for b in combo]}: a replacement "
                    "vertex lies in no associated 2-separation")
                continue
            assignments = []
            for b in b_ids:
                for sep in inner.family:
                    if b in sep.pair:
                        assignments.append((b, sep))
                        break
            return EssentialGSCertificate(
                shore=x, barriers=combo, regions=tuple(regions),
                contracted_ids=tuple(b_ids), contracted_graph=current,
                shore_image=ximg, inner_certificate=inner,
                b_assignments=tuple(assignments))
    transcript.append(
        f"exhausted {examined} barrier families up to size {max_family_size}")
    return None


def classify_tight_cut(g: MultiGraph, shore: Iterable,
                       max_family_size: int = DEFAULT_MAX_BARRIER_FAMILY,
                       budget: int = DEFAULT_SEARCH_BUDGET) -> TightCutClassification:
    """The main dichotomy: barrier-cut first, essential GS-cut second."""
    cut = make_cut(g, shore)
    _require_matching_covered(g)
    if cut.is_trivial:
        raise TrivialCut("classification applies to non-trivial cuts")
    verdict = is_tight(g, cut.shore)
    if not verdict.tight:
        raise NotTight("classification applies to tight cuts", verdict.witness)
    barrier = is_barrier_cut(g, cut.shore)
    if barrier is not None:
        return TightCutClassification(cut, "barrier-cut", barrier=barrier)
    transcript = ["no barrier has either side of the cut as an odd component"]
    essential = is_essential_gs_cut(g, cut.shore, max_family_size, budget,
                                    _transcript=transcript)
    if essential is not None:
        return TightCutClassification(cut, "essential-gs-cut", essential=essential,
                                      transcript=tuple(transcript))
    return TightCutClassification(cut, "unclassified", transcript=tuple(transcript))


def check_splice_tightness(g1: MultiGraph, g2: MultiGraph, x, y,
                           shore1: Iterable, shore2: Iterable) -> tuple:
    """Tightness of the two side cuts and of their union across a splice.

    Returns (tight in side one, tight in side two, tight in the spliced
    graph); the third coordinate should always equal the conjunction of the
    first two.
    """
    spliced = edge_splice(g1, g2, x, y)
    x1, x2 = frozenset(shore1), frozenset(shore2)
    for g, s in ((g1, x1), (g2, x2)):
        if not s <= g.vertices:
            raise BadSplice("each shore must live in its own side graph")
        if len(s) % 2 == 0:
            raise BadSplice("side shores must be odd")
        if x not in s or y in s:
            raise BadSplice("each side shore must contain x and avoid y")
    t1 = is_tight(g1, x1).tight
    t2 = is_tight(g2, x2).tight
    t3 = is_tight(spliced, x1 | x2).tight
    return (t1, t2, t3)


# -- JSON certificates -----------------------------------------------------


def _ids(vs) -> list:
    return sorted(vs)


def gs_certificate_to_json_obj(cert: GSCertificate) -> dict:
    return {
        "kind": "gs",
        "shore": _ids(cert.shore),
        "family": [_ids(sep.pair) for sep in cert.family],
        "chain_witnesses": [[i, j, list(path)] for i, j, path in cert.chain_witnesses],
        "end_separations": list(cert.end_separations),
    }


def essential_certificate_to_json_obj(cert: EssentialGSCertificate) -> dict:
    return {
        "kind": "essential-gs",
        "shore": _ids(cert.shore),
        "barriers": [_ids(b.vertices) for b in cert.barriers],
        "regions": [_ids(r) for r in cert.regions],
        "contracted_ids": list(cert.contracted_ids),
        "shore_image": _ids(cert.shore_image),
        "inner": gs_certificate_to_json_obj(cert.inner_certificate),
        "assignments": {str(b): _ids(sep.pair) for b, sep in cert.b_assignments},
    }


def barrier_cut_certificate_to_json_obj(barrier: Barrier, shore) -> dict:
    return {
        "kind": "barrier-cut",
        "shore": _ids(shore),
        "barrier": _ids(barrier.vertices),
    }


def two_separation_cut_certificate_to_json_obj(witness, shore) -> dict:
    return {
        "kind": "two-separation-cut",
        "shore": _ids(shore),
        "pair": _ids(witness.separation.pair),
        "group": [_ids(c) for c in witness.group],
        "attach": witness.attach_vertex,
    }


def validate_certificate_json_obj(g: MultiGraph, obj: dict) -> bool:
    """Re-validate any serialized certificate against the graph from scratch.

    Raises BadCertificate with a reason on failure, malformed input included;
    returns True on success.
    """
    try:
        return _validate_certificate(g, obj)
    except BadCertificate:
        raise
    except (TightcutsError, KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise BadCertificate(f"malformed certificate: {exc!r}") from exc


def _validate_certificate(g: MultiGraph, obj: dict) -> bool:
    if not isinstance(obj, dict):
        raise BadCertificate("a certificate is a JSON object")
    kind = obj.get("kind")
    if kind == "barrier-cut":
        shore = frozenset(obj["shore"])
        b = frozenset(obj["barrier"])
        if not is_barrier(g, b):
            raise BadCertificate("recorded set is not a barrier")
        comps = removed_components(g, b).components
        if shore not in comps or len(shore) % 2 == 0:
            raise BadCertificate("shore is not an odd component of the barrier removal")
        return True
    if kind == "two-separation-cut":
        pair = frozenset(obj["pair"])
        report = removed_components(g, pair)
        if report.odd_count or len(report.components) < 2:
            raise BadCertificate("recorded pair is not a 2-separation")
        group = [frozenset(c) for c in obj["group"]]
        for c in group:
            if c not in report.components:
                raise BadCertificate("group member is not a component of the removal")
        if len(group) >= len(report.components):
            raise BadCertificate("group must leave some component out")
        attach = obj["attach"]
        if attach not in pair:
            raise BadCertificate("attach vertex is outside the separation pair")
        shore = frozenset().union(*group) | {attach}
        if shore != frozenset(obj["shore"]):
            raise BadCertificate("shore does not match group plus attach vertex")
        return True
    if kind == "gs":
        shore = frozenset(obj["shore"])
        fresh = is_gs_cut(g, shore)
        if fresh is None:
            raise BadCertificate("shore is not a GS-cut on re-check")
        if [sorted(p) for p in obj["family"]] != fresh.family_pairs():
            raise BadCertificate("recorded family differs from the associated family")
        if list(obj["end_separations"]) != list(fresh.end_separations):
            raise BadCertificate("end separations differ from the family's ends")
        k = len(fresh.family)
        witnesses = obj["chain_witnesses"]
        if sorted((i, j) for i, j, _ in witnesses) != list(combinations(range(k), 2)):
            raise BadCertificate("chain witnesses do not cover every family pair once")
        for i, j, path in witnesses:
            if not path or path[0] != i or path[-1] != j:
                raise BadCertificate("chain witness endpoints are wrong")
            if not set(path) <= set(range(k)):
                raise BadCertificate("chain witness leaves the family")
            for a, b in zip(path, path[1:]):
                if len(fresh.family[a].pair & fresh.family[b].pair) != 1:
                    raise BadCertificate("chain witness has a bad link")
        return True
    if kind == "essential-gs":
        shore = frozenset(obj["shore"])
        xbar = g.vertices - shore
        barriers = [frozenset(b) for b in obj["barriers"]]
        regions = [frozenset(r) for r in obj["regions"]]
        ids = list(obj["contracted_ids"])
        if len(barriers) != len(regions) or len(regions) != len(ids):
            raise BadCertificate("barrier/region/id lists disagree in length")
        for a, b in combinations(range(len(barriers)), 2):
            if barriers[a] & barriers[b] or regions[a] & regions[b]:
                raise BadCertificate("barriers or regions overlap")
        for b, region in zip(barriers, regions):
            if len(b) < 2 or not (b <= shore or b <= xbar):
                raise BadCertificate("barrier is trivial or not sheltered")
            if not is_barrier(g, b):
                raise BadCertificate("recorded set is not a barrier")
            if _barrier_region(g, b, shore) != region:
                raise BadCertificate("region does not match the barrier's side")
        current, ximg = _replay_contractions(g, shore, regions, ids)
        if ximg != frozenset(obj["shore_image"]):
            raise BadCertificate("shore image does not match the contraction")
        inner = dict(obj["inner"])
        if inner.get("kind") != "gs":
            raise BadCertificate("inner certificate is not a GS certificate")
        if frozenset(inner.get("shore", ())) != ximg:
            raise BadCertificate("inner certificate names a different shore")
        _validate_certificate(current, inner)
        family = [frozenset(p) for p in inner["family"]]
        for b in ids:
            assigned = frozenset(obj["assignments"][str(b)])
            if assigned not in family:
                raise BadCertificate("assignment is not in the inner family")
            if b not in assigned:
                raise BadCertificate("replacement vertex missing from its assignment")
        return True
    raise BadCertificate(f"unknown certificate kind {kind!r}")
