"""End-to-end acceptance suite: one test and one printed PASS/FAIL line per
criterion (run with -s to watch them stream by).

Criteria 3 and 4 check the two-member ELP bound.  Its hypothesis is a GS-cut
whose associated family has at least two 2-separations; such cuts have at
least two ELP members.  A GS-cut whose family is a single 2-separation
{u, v} is itself a 2-separation cut of {u, v} (the tail condition puts every
component of G - {u, v} inside one shore), the other cut of the same
grouping crosses it, and so its ELP set may be just the cut itself.  For
those cuts the suite checks that shape instead: the cut is a 2-separation
cut of its one separation and lies in its own ELP set.

* criterion 3 — every tight GS-cut of the corpus, split by family size.
  Its companion test pins the singleton-ELP landscape: every singleton cut
  has a family of one, and the frozen <= 8-vertex totals are unchanged.
* criterion 4 — in the chains of 2 or more blocks the main cut has a family
  of 2n - 1 separations and exactly the two distinguished ELP members; the
  1-block chain's main cut has a family of one and is the last
  distinguished cut, whose complement is the first, so its ELP set has one
  member.
"""

import itertools
import json
import random
import time

from tightcuts.corpus import CorpusStream, edge_splice, gen_h_n, gen_h_n_prime, gen_named
from tightcuts.decomp import brick_number, decompose
from tightcuts.elp import (all_two_separation_cuts, elp_set,
                           enumerate_nontrivial_barriers, is_barrier, is_barrier_cut,
                           two_separation_cuts, two_separations)
from tightcuts.graphcore import make_cut, relabel_graph, removed_components
from tightcuts.gscut import (associated_family, barrier_cut_certificate_to_json_obj,
                             check_splice_tightness, classify_tight_cut,
                             essential_certificate_to_json_obj,
                             gs_certificate_to_json_obj, is_essential_gs_cut, is_gs_cut,
                             two_separation_cut_certificate_to_json_obj,
                             validate_certificate_json_obj)
from tightcuts.matching import (enumerate_tight_cuts, is_bicritical, is_matching_covered,
                                is_tight, is_tight_by_enumeration, odd_shores)

SPLICE_SEED = 20260822


def verdict_line(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {num}: {tag} — {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


def tight_gs_shores(g):
    """Non-trivial tight shores that carry a generalized-2-separation cut."""
    out = []
    for shore in odd_shores(g, nontrivial_only=True):
        if is_gs_cut(g, shore) is None:
            continue
        if is_tight(g, shore).tight:
            out.append(frozenset(shore))
    return out


def h_n_named_elp_shores(g, n):
    top = 2 * n + 1
    by = {lab: v for v, lab in g.label_items}
    first = frozenset(by[f"u{i}"] for i in (1, 2, 3))
    last = frozenset(by[f"v{i}"] for i in (top - 2, top - 1, top))
    return first, last


def h_n_expected_separations(g, n):
    by = {lab: v for v, lab in g.label_items}
    pairs = {frozenset((by[f"v{i}"], by[f"u{i + 2}"])) for i in range(1, 2 * n, 2)}
    pairs |= {frozenset((by[f"v{i + 2}"], by[f"u{i + 2}"])) for i in range(1, 2 * n - 2, 2)}
    return pairs


def test_criterion_1_classification_is_total(corpus6, corpus8, sample10_path):
    start = time.monotonic()
    stream = CorpusStream(10, external_path=str(sample10_path))
    big = [g for g in stream if g.n == 10]
    cuts = unclassified = 0
    for g in itertools.chain(corpus6, corpus8, big):
        for cut in enumerate_tight_cuts(g, nontrivial_only=True):
            cuts += 1
            if classify_tight_cut(g, cut.shore).verdict == "unclassified":
                unclassified += 1
    elapsed = time.monotonic() - start
    verdict_line(
        1, "every non-trivial tight cut classifies as barrier-cut or essential GS-cut",
        len(big) == 500 and unclassified == 0 and elapsed < 900,
        f"{cuts} cuts over {len(corpus6) + len(corpus8) + len(big)} graphs, "
        f"{unclassified} unclassified, {elapsed:.0f}s")


def test_criterion_2_structure_exists_and_elp_is_nonempty(corpus6, corpus8, sample10):
    no_structure = empty_elp = cuts = 0
    for g in itertools.chain(corpus6, corpus8, sample10):
        ntc = enumerate_tight_cuts(g, nontrivial_only=True)
        if ntc and not enumerate_nontrivial_barriers(g) and not two_separations(g):
            no_structure += 1
        for c in ntc:
            cuts += 1
            if len(elp_set(g, c)) < 1:
                empty_elp += 1
    verdict_line(
        2, "graphs with non-trivial tight cuts have non-trivial barriers or "
           "2-separations, and every such cut has a non-empty ELP set",
        no_structure == 0 and empty_elp == 0,
        f"{cuts} cuts, {no_structure} structureless graphs, {empty_elp} empty ELP sets")


def test_criterion_3_gs_cuts_want_two_elp_members(corpus6, corpus8, sample10):
    multi = multi_failures = single = single_failures = 0
    for g in itertools.chain(corpus6, corpus8, sample10):
        for shore in tight_gs_shores(g):
            cut = make_cut(g, shore)
            members = elp_set(g, cut)
            family = associated_family(g, shore)
            if len(family) >= 2:
                multi += 1
                multi_failures += len(members) < 2
                continue
            # a family of one: the cut is a 2-separation cut of that
            # separation and certifies itself
            single += 1
            own = {c.cut.shore_pair for c in two_separation_cuts(g, family[0])}
            in_elp = any(m.cut.shore_pair == cut.shore_pair for m in members)
            single_failures += not (cut.shore_pair in own and in_elp)
    verdict_line(
        3, "every non-trivial tight GS-cut whose family has at least two "
           "2-separations has at least 2 ELP members; every one with a family "
           "of one is a 2-separation cut of it and lies in its own ELP set",
        multi > 0 and multi_failures == 0 and single_failures == 0,
        f"{multi + single} GS-cuts: {multi} with a family of >= 2, "
        f"{multi_failures} with fewer than 2 ELP members; {single} with a "
        f"family of one, {single_failures} not a 2-separation cut in its own "
        "ELP set")


def test_criterion_3_companion_failure_landscape(corpus6, corpus8, sample10):
    """Pin the shape of every criterion-3 failure so drift is visible."""
    gs8 = fail8 = 0
    for g in itertools.chain(corpus6, corpus8, sample10):
        for shore in tight_gs_shores(g):
            cut = make_cut(g, shore)
            members = elp_set(g, cut)
            if g.n <= 8:
                gs8 += 1
                fail8 += len(members) < 2
            if len(members) >= 2:
                continue
            # every observed failure is the cut certifying only itself, and
            # its family is a single 2-separation (outside the bound)
            assert len(members) == 1
            assert members[0].cut.shore_pair == cut.shore_pair
            assert len(associated_family(g, shore)) == 1
            if g.n == 6:
                continue  # any two distinct non-trivial cuts on 6 vertices cross
            # at 8+ vertices every failing graph has exactly one 2-separation,
            # and it is the whole associated family of the failing cut
            seps = two_separations(g)
            assert len(seps) == 1
            assert [s.pair for s in associated_family(g, shore)] == [seps[0].pair]
    # frozen totals for the deterministic <= 8 corpus
    assert (gs8, fail8) == (718, 430)
    # the 6-vertex counting fact behind the n=6 failures
    for g in corpus6:
        if g.n < 6:
            continue
        ntc = enumerate_tight_cuts(g, nontrivial_only=True)
        for c in ntc:
            assert all(m.cut.shore_pair == c.shore_pair for m in elp_set(g, c))


def test_criterion_4_block_chain_families_and_sharpness():
    ok = True
    details = []
    for n in (1, 2, 3, 4):
        g = gen_h_n(n)
        shore = frozenset(v for v, lab in g.label_items if lab.startswith("v"))
        family_ok = {s.pair for s in two_separations(g)} == h_n_expected_separations(g, n)
        gs_ok = is_gs_cut(g, shore) is not None
        members = elp_set(g, make_cut(g, shore))
        first, last = h_n_named_elp_shores(g, n)
        first_pair = make_cut(g, first).shore_pair
        last_pair = make_cut(g, last).shore_pair
        set_ok = {m.cut.shore_pair for m in members} == {first_pair, last_pair}
        family = associated_family(g, shore)
        if n == 1:
            # the main cut is the last distinguished cut, a family-one GS-cut
            size_ok = shore == last and len(family) == 1 and len(members) == 1
        else:
            size_ok = (first_pair != last_pair and len(family) == 2 * n - 1
                       and len(members) == 2)
        bic_ok = is_bicritical(g)
        ok = ok and family_ok and gs_ok and set_ok and size_ok and bic_ok
        details.append(f"n={n}: |family|={len(family)}, |ELP|={len(members)}")
    verdict_line(
        4, "block chains: exact 2-separation family, GS main cut, ELP set of "
           "exactly the two distinguished cuts, of size 2 when the main cut's "
           "family has 2n-1 >= 3 members and 1 for the family-one 1-block "
           "chain, bicritical",
        ok, "; ".join(details))


def test_criterion_4_companion_one_block_degeneracy():
    """The 2-separation family matches a brute-force oracle for every chain
    length; the 1-block chain is degenerate because the two distinguished
    shores are complements of one another, so its ELP set has size 1."""
    for n in (1, 2, 3, 4):
        g = gen_h_n(n)
        # independent brute-force oracle for the 2-separation family
        brute = set()
        verts = sorted(g.vertices)
        for i, u in enumerate(verts):
            for v in verts[i + 1:]:
                rep = removed_components(g, (u, v))
                if len(rep.components) >= 2 and rep.odd_count == 0:
                    brute.add(frozenset((u, v)))
        assert {s.pair for s in two_separations(g)} == brute == \
            h_n_expected_separations(g, n)

        shore = frozenset(v for v, lab in g.label_items if lab.startswith("v"))
        members = elp_set(g, make_cut(g, shore))
        first, last = h_n_named_elp_shores(g, n)
        assert {m.cut.shore_pair for m in members} == \
            {make_cut(g, first).shore_pair, make_cut(g, last).shore_pair}
        assert is_gs_cut(g, shore) is not None
        assert is_bicritical(g)
        if n == 1:
            assert first == g.vertices - last  # the degenerate coincidence
            assert len(members) == 1
        else:
            assert len(members) == 2


def test_criterion_5_chorded_path_sharpness():
    ok = True
    details = []
    for n in (4, 6):
        g = gen_h_n_prime(n)
        by = {lab: v for v, lab in g.label_items}
        hub = frozenset((by["u1"], by["u2"]))
        shore = frozenset(by[f"v{i}"] for i in (1, 2, 3))
        cut = make_cut(g, shore)
        barrier_ok = is_barrier(g, hub)
        tight_ok = is_tight(g, shore).tight
        not_barrier_cut = is_barrier_cut(g, shore) is None
        not_gs = is_gs_cut(g, shore) is None
        ess = is_essential_gs_cut(g, shore)
        essential_ok = ess is not None and \
            [b.vertices for b in ess.barriers] == [hub]
        elp_ok = len(elp_set(g, cut)) == 1
        ok = ok and barrier_ok and tight_ok and not_barrier_cut and not_gs \
            and essential_ok and elp_ok
        details.append(f"n={n}: essential={essential_ok}, |ELP|={len(elp_set(g, cut))}")
    verdict_line(
        5, "chorded-path fixtures: hub barrier, tight main cut that is neither "
           "barrier-cut nor GS-cut yet essential after contracting the hub, "
           "singleton ELP set",
        ok, "; ".join(details))


def test_criterion_6_tightness_routes_agree(corpus6, corpus8, sample10):
    checked = disagreements = 0
    for g in itertools.chain(corpus6, corpus8):
        for shore in odd_shores(g):
            checked += 1
            if is_tight(g, shore).tight != is_tight_by_enumeration(g, shore).tight:
                disagreements += 1
    rng = random.Random(SPLICE_SEED + 1)
    sampled = 0
    for _ in range(10000):
        g = rng.choice(sample10)
        size = rng.choice((1, 3, 5))
        shore = frozenset(rng.sample(sorted(g.vertices), size))
        sampled += 1
        if is_tight(g, shore).tight != is_tight_by_enumeration(g, shore).tight:
            disagreements += 1
    verdict_line(
        6, "pairwise tightness test agrees with full matching enumeration",
        disagreements == 0,
        f"{checked} exhaustive shores + {sampled} sampled shores, "
        f"{disagreements} disagreements")


def test_criterion_7_decomposition_invariance(corpus6, corpus8):
    disagreements = graphs = 0
    for g in itertools.chain(corpus6, corpus8):
        graphs += 1
        numbers = {brick_number(decompose(g, strategy, seed))
                   for strategy in ("exhaustive", "elp-first")
                   for seed in range(10)}
        if len(numbers) != 1:
            disagreements += 1
    named_ok = True
    for name, kind in (("k4", "brick"), ("k33", "brace"), ("petersen", "brick")):
        tree = decompose(gen_named(name))
        leaves = list(tree.leaves())
        named_ok = named_ok and len(leaves) == 1 and leaves[0].leaf_kind == kind
    c6_ok = brick_number(decompose(gen_named("c6"))) == 0
    verdict_line(
        7, "brick number is seed- and strategy-invariant; named graphs "
           "decompose as expected",
        disagreements == 0 and named_ok and c6_ok,
        f"{graphs} graphs x 20 runs, {disagreements} disagreements")


def test_criterion_8_certificates_revalidate(corpus6, corpus8):
    emitted = 0

    def check(g, obj):
        nonlocal emitted
        emitted += 1
        assert validate_certificate_json_obj(g, json.loads(json.dumps(obj)))

    for g in itertools.chain(corpus6, corpus8):
        for cut in enumerate_tight_cuts(g, nontrivial_only=True):
            result = classify_tight_cut(g, cut.shore)
            if result.verdict == "barrier-cut":
                side = next(c for c in result.barrier.odd_components
                            if c in cut.shore_pair)
                check(g, barrier_cut_certificate_to_json_obj(result.barrier, side))
            elif result.verdict == "essential-gs-cut":
                check(g, essential_certificate_to_json_obj(result.essential))
                assert is_tight(g, result.essential.shore).tight
        for shore in tight_gs_shores(g):
            check(g, gs_certificate_to_json_obj(is_gs_cut(g, shore)))
    for g in corpus6:
        for member in all_two_separation_cuts(g):
            check(g, two_separation_cut_certificate_to_json_obj(
                member.certificate, member.cut.shore))
    verdict_line(
        8, "all emitted certificates re-validate from JSON; essential GS-cuts "
           "are tight",
        emitted > 0, f"{emitted} certificates")


def test_criterion_9_splice_tightness_conjunction(corpus6, corpus8):
    pool = [g for g in itertools.chain(corpus6, corpus8)
            if g.n >= 4 and is_bicritical(g)]
    rng = random.Random(SPLICE_SEED)

    def odd_side_shore(g, x, y):
        rest = sorted(g.vertices - {x, y})
        size = rng.choice(range(0, len(rest) + 1, 2))
        return frozenset(rng.sample(rest, size)) | {x}

    trials = conjunction_breaks = not_bicritical = 0
    for _ in range(200):
        g1 = rng.choice(pool)
        g2 = rng.choice(pool)
        a, b = rng.choice(sorted(g1.edges))
        c, d = rng.choice(sorted(g2.edges))
        if rng.random() < 0.5:
            c, d = d, c
        fresh = itertools.count(max(g1.vertices) + 1)
        mapping = {v: (a if v == c else b if v == d else next(fresh))
                   for v in sorted(g2.vertices)}
        g2r = relabel_graph(g2, mapping)
        t1, t2, t3 = check_splice_tightness(
            g1, g2r, a, b, odd_side_shore(g1, a, b), odd_side_shore(g2r, a, b))
        trials += 1
        if t3 != (t1 and t2):
            conjunction_breaks += 1
        spliced = edge_splice(g1, g2r, a, b)
        if not (is_bicritical(spliced) and is_matching_covered(spliced)):
            not_bicritical += 1
    verdict_line(
        9, "splice tightness is the conjunction of side tightness; spliced "
           "bicritical pairs stay bicritical and matching covered",
        trials == 200 and conjunction_breaks == 0 and not_bicritical == 0,
        f"{trials} seeded splices, {conjunction_breaks} conjunction breaks, "
        f"{not_bicritical} bicriticality losses")
