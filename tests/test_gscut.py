import json

import pytest

from tightcuts.corpus import gen_h_n, gen_h_n_prime, gen_named
from tightcuts.elp import all_two_separation_cuts, elp_set
from tightcuts.errors import (BadCertificate, BadSplice, NotTight, SearchBudgetExceeded,
                              TrivialCut)
from tightcuts.formats import parse_graph6
from tightcuts.graphcore import graph_from, relabel_graph
from tightcuts.gscut import (associated_family, barrier_cut_certificate_to_json_obj,
                             check_splice_tightness, classify_tight_cut,
                             end_2_separations, essential_certificate_to_json_obj,
                             gs_certificate_to_json_obj, is_essential_gs_cut, is_gs_cut,
                             two_separation_cut_certificate_to_json_obj,
                             validate_certificate_json_obj)
from tightcuts.matching import _engine, barrier_classes, enumerate_tight_cuts, is_tight, odd_shores


def labelled(g, vertices):
    return {g.labels[v] for v in vertices}


def h2_v_side():
    g = gen_h_n(2)
    return g, frozenset(v for v in g.vertices if g.labels[v].startswith("v"))


# -- associated families ---------------------------------------------------


def test_associated_family_c6():
    fam = associated_family(gen_named("c6"), {0, 1, 2})
    assert [sorted(s.pair) for s in fam] == [[0, 3], [1, 4], [2, 5]]


def test_associated_family_h2_v_side():
    g, shore = h2_v_side()
    fam = associated_family(g, shore)
    assert [sorted(labelled(g, s.pair)) for s in fam] == [
        ["u3", "v1"], ["u3", "v3"], ["u5", "v3"]]


def test_associated_family_empty_without_separations():
    assert associated_family(gen_named("k4"), {0, 1, 2}) == []


# -- the GS-cut predicate --------------------------------------------------


def test_c6_shore_is_not_a_gs_cut():
    # a full associated family alone is not enough
    assert is_gs_cut(gen_named("c6"), {0, 1, 2}) is None


def test_h2_v_side_certificate():
    g, shore = h2_v_side()
    cert = is_gs_cut(g, shore)
    assert cert is not None and cert.shore == shore
    assert [sorted(labelled(g, p)) for p in cert.family_pairs()] == [
        ["u3", "v1"], ["u3", "v3"], ["u5", "v3"]]
    assert cert.end_separations == (0, 2)
    assert cert.chain_witnesses == ((0, 1, (0, 1)), (0, 2, (0, 1, 2)), (1, 2, (1, 2)))


def test_h2_small_end_shore_is_a_gs_cut():
    assert is_gs_cut(gen_h_n(2), {0, 1, 2}) is not None


def test_negative_vectors_with_full_families():
    g = parse_graph6("EqGW")
    for shore in ({0, 1, 2}, {0, 1, 3}, {0, 2, 4}):
        assert len(associated_family(g, shore)) == 3
        assert is_gs_cut(g, shore) is None


# -- end separations -------------------------------------------------------


def test_end_2_separations_h2():
    g, shore = h2_v_side()
    ends = end_2_separations(g, associated_family(g, shore))
    got = [(sorted(labelled(g, e.separation.pair)),
            [sorted(labelled(g, c)) for c in e.clean_components]) for e in ends]
    assert got == [(["u3", "v1"], [["u1", "u2"]]),
                   (["u5", "v3"], [["v4", "v5"]])]


def test_lone_member_is_an_end_with_all_components_clean():
    g = gen_named("c6")
    fam = [s for s in associated_family(g, {0, 1, 2}) if s.pair == frozenset({0, 3})]
    ends = end_2_separations(g, fam)
    assert len(ends) == 1
    assert set(ends[0].clean_components) == set(fam[0].components)


# -- essential GS-cuts -----------------------------------------------------


def test_gs_cut_is_essential_with_no_contraction():
    g, shore = h2_v_side()
    cert = is_essential_gs_cut(g, shore)
    assert cert.barriers == () and cert.contracted_ids == ()
    assert cert.contracted_graph == g and cert.shore_image == shore
    assert cert.inner_certificate == is_gs_cut(g, shore)


def test_chorded_path_needs_one_barrier_contraction():
    g = gen_h_n_prime(4)
    cert = is_essential_gs_cut(g, {0, 1, 2})
    assert labelled(g, cert.barriers[0].vertices) == {"u1", "u2"}
    assert labelled(g, cert.regions[0]) == {"u0", "u1", "u2"}
    assert cert.contracted_ids == (12,)
    assert cert.shore_image == frozenset({0, 1, 2})
    assert [sorted(p) for p in cert.inner_certificate.family_pairs()] == [[2, 12]]
    assert cert.b_assignments[0][0] == 12
    assert cert.contracted_graph.n == g.n - 2


def test_larger_chorded_path_works_too():
    g = gen_h_n_prime(6)
    cert = is_essential_gs_cut(g, {0, 1, 2})
    assert cert is not None
    assert labelled(g, cert.barriers[0].vertices) == {"u1", "u2"}


def test_search_budget_is_enforced():
    g = gen_h_n_prime(4)
    with pytest.raises(SearchBudgetExceeded) as err:
        is_essential_gs_cut(g, {0, 1, 2}, budget=0)
    assert err.value.transcript
    assert any("associated family is empty" in line for line in err.value.transcript)


# -- the dichotomy ---------------------------------------------------------


def test_classify_barrier_cut_first():
    got = classify_tight_cut(gen_named("c6"), {0, 1, 2})
    assert got.verdict == "barrier-cut"
    assert sorted(got.barrier.vertices) == [3, 5]
    assert got.essential is None and got.transcript == ()


def test_classify_essential_with_transcript():
    got = classify_tight_cut(gen_h_n_prime(4), {0, 1, 2})
    assert got.verdict == "essential-gs-cut"
    assert got.transcript == (
        "no barrier has either side of the cut as an odd component",
        "empty barrier family: associated family is empty")
    assert got.essential.contracted_ids == (12,)


def test_classify_validates_its_input():
    g = gen_named("c6")
    with pytest.raises(TrivialCut):
        classify_tight_cut(g, {0})
    with pytest.raises(NotTight):
        classify_tight_cut(g, {0, 2, 4})


# -- splice tightness ------------------------------------------------------


def spliced_cycles():
    other = graph_from(frozenset({0, 1, 6, 7, 8, 9}),
                       [(0, 6), (6, 7), (7, 8), (8, 9), (9, 1), (0, 1)])
    return gen_named("c6"), other


def test_splice_tightness_conjunction_holds():
    k4 = gen_named("k4")
    left = relabel_graph(k4, {0: 0, 1: 1, 2: 2, 3: 5})
    right = relabel_graph(k4, {0: 3, 1: 4, 2: 5, 3: 0})
    t1, t2, t3 = check_splice_tightness(left, right, 0, 5, {0}, {0, 3, 4})
    assert (t1, t2, t3) == (True, True, True)


def test_splice_tightness_fails_with_a_loose_side():
    g1, g2 = spliced_cycles()
    t1, t2, t3 = check_splice_tightness(g1, g2, 0, 1, {0, 2, 4}, {0, 6, 7})
    assert (t1, t2, t3) == (False, True, False)
    assert t3 == (t1 and t2)


def test_splice_tightness_shore_validation():
    g1, g2 = spliced_cycles()
    with pytest.raises(BadSplice):
        check_splice_tightness(g1, g2, 0, 1, {0, 2}, {0, 6, 7})      # even
    with pytest.raises(BadSplice):
        check_splice_tightness(g1, g2, 0, 1, {2, 3, 4}, {0, 6, 7})   # misses x
    with pytest.raises(BadSplice):
        check_splice_tightness(g1, g2, 0, 1, {0, 1, 2}, {0, 6, 7})   # contains y
    with pytest.raises(BadSplice):
        check_splice_tightness(g1, g2, 0, 1, {0, 2, 4}, {0, 2, 4})   # wrong side


# -- JSON certificates -----------------------------------------------------


def roundtrip(obj):
    return json.loads(json.dumps(obj))


def test_barrier_cut_certificate_roundtrip():
    g = gen_named("c6")
    cls = classify_tight_cut(g, {0, 1, 2})
    obj = roundtrip(barrier_cut_certificate_to_json_obj(cls.barrier, {0, 1, 2}))
    assert validate_certificate_json_obj(g, obj)
    bad = dict(obj, barrier=[3, 4])
    with pytest.raises(BadCertificate):
        validate_certificate_json_obj(g, bad)
    bad = dict(obj, shore=[0, 1, 3])
    with pytest.raises(BadCertificate):
        validate_certificate_json_obj(g, bad)


def test_two_separation_cut_certificate_roundtrip():
    g = gen_named("c6")
    member = all_two_separation_cuts(g)[0]
    obj = roundtrip(two_separation_cut_certificate_to_json_obj(
        member.certificate, member.cut.shore))
    assert validate_certificate_json_obj(g, obj)
    with pytest.raises(BadCertificate):
        validate_certificate_json_obj(g, dict(obj, pair=[0, 2]))
    with pytest.raises(BadCertificate):
        validate_certificate_json_obj(g, dict(obj, attach=2))


def test_gs_certificate_roundtrip():
    g, shore = h2_v_side()
    obj = roundtrip(gs_certificate_to_json_obj(is_gs_cut(g, shore)))
    assert validate_certificate_json_obj(g, obj)
    with pytest.raises(BadCertificate):
        validate_certificate_json_obj(g, dict(obj, family=obj["family"][:-1]))
    bad = dict(obj, chain_witnesses=[[0, 2, [0, 2]]])
    with pytest.raises(BadCertificate):
        validate_certificate_json_obj(g, bad)


def test_essential_certificate_roundtrip():
    g = gen_h_n_prime(4)
    cert = is_essential_gs_cut(g, {0, 1, 2})
    obj = roundtrip(essential_certificate_to_json_obj(cert))
    assert validate_certificate_json_obj(g, obj)
    with pytest.raises(BadCertificate):
        validate_certificate_json_obj(g, dict(obj, regions=[[9, 10]]))
    with pytest.raises(BadCertificate):
        validate_certificate_json_obj(g, dict(obj, assignments={"12": [0, 1]}))
    with pytest.raises(BadCertificate):
        validate_certificate_json_obj(g, dict(obj, shore_image=[0, 1, 3]))


def test_unknown_certificate_kind():
    with pytest.raises(BadCertificate):
        validate_certificate_json_obj(gen_named("c6"), {"kind": "zebra"})


def gs_case():
    g, shore = h2_v_side()
    return g, roundtrip(gs_certificate_to_json_obj(is_gs_cut(g, shore)))


def essential_case():
    g = gen_h_n_prime(4)
    return g, roundtrip(essential_certificate_to_json_obj(is_essential_gs_cut(g, {0, 1, 2})))


def barrier_case():
    g = gen_named("c6")
    cls = classify_tight_cut(g, {0, 1, 2})
    return g, roundtrip(barrier_cut_certificate_to_json_obj(cls.barrier, {0, 1, 2}))


def without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


@pytest.mark.parametrize("case, tamper", [
    (gs_case, lambda o: dict(o, end_separations=[42])),
    (gs_case, lambda o: dict(o, end_separations=[0])),
    (gs_case, lambda o: dict(o, chain_witnesses=[])),
    (gs_case, lambda o: dict(o, chain_witnesses=o["chain_witnesses"][1:])),
    (gs_case, lambda o: dict(o, chain_witnesses=o["chain_witnesses"] + [[0, 1, [0, 1]]])),
    (gs_case, lambda o: dict(o, chain_witnesses=[[0, 1, [0, 1]], [0, 2, [0, -2, 2]],
                                                 [1, 2, [1, 2]]])),
    (gs_case, lambda o: dict(o, chain_witnesses=[[0, 1, []], [0, 2, [0, 1, 2]],
                                                 [1, 2, [1, 2]]])),
    (gs_case, lambda o: dict(o, chain_witnesses=[[0, 1]])),
    (gs_case, lambda o: dict(o, shore=None)),
    (gs_case, lambda o: without(o, "family")),
    (gs_case, lambda o: [o]),
    (gs_case, lambda o: None),
    (essential_case, lambda o: without(o, "regions")),
    (essential_case, lambda o: dict(o, assignments=[])),
    (essential_case, lambda o: dict(o, inner=dict(o["inner"], kind="barrier-cut"))),
    (essential_case, lambda o: dict(o, inner=dict(o["inner"], end_separations=[]))),
    (barrier_case, lambda o: dict(o, barrier=[])),
    (barrier_case, lambda o: dict(o, barrier=[99])),
    (barrier_case, lambda o: dict(o, shore=[[0]])),
], ids=["end-out-of-range", "end-missing", "no-witnesses", "witness-missing",
        "witness-repeated", "witness-negative-index", "witness-empty-path",
        "witness-short", "shore-none", "family-missing", "list", "null",
        "regions-missing", "assignments-list", "inner-kind", "inner-ends",
        "barrier-empty", "barrier-unknown-vertex", "shore-unhashable"])
def test_tampered_certificates_raise_bad_certificate(case, tamper):
    g, obj = case()
    assert validate_certificate_json_obj(g, obj)
    with pytest.raises(BadCertificate):
        validate_certificate_json_obj(g, tamper(obj))


# -- memo ------------------------------------------------------------------


GRAPH_LEVEL_MEMO_KEYS = {"engine", "matching_covered", "two_separations", "barrier_classes",
                         "nontrivial_barriers", "barrier_cuts", "all_two_separation_cuts",
                         ("tight_cuts", False), ("tight_cuts", True), "perfect_matchings"}


def test_memo_holds_graph_level_results_only():
    # per-shore answers are recomputed, so a full analysis leaves only
    # whole-graph results in the graph's memo
    g = gen_h_n(2)
    certs = []
    for cut in enumerate_tight_cuts(g, nontrivial_only=True):
        assert elp_set(g, cut)
        result = classify_tight_cut(g, cut.shore)
        assert result.verdict == "essential-gs-cut"
        certs.append(essential_certificate_to_json_obj(result.essential))
    for shore in odd_shores(g):
        cert = is_gs_cut(g, shore)
        if cert is not None:
            certs.append(gs_certificate_to_json_obj(cert))
    assert len(certs) == 9 + 13
    for obj in certs:
        assert validate_certificate_json_obj(g, roundtrip(obj))
    assert set(g._cache) <= GRAPH_LEVEL_MEMO_KEYS


@pytest.mark.parametrize("g", [gen_h_n(2), parse_graph6("GsQcd{")], ids=["h2", "GsQcd{"])
def test_repeat_tightness_queries_ask_nothing_new(g):
    # enumerate_tight_cuts settles every pair inside each tight cut, so the
    # tightness checks of is_tight, elp_set and classify_tight_cut on those
    # cuts are answered from the engine's edge-pair table alone; the barrier
    # classes, whose pair queries fill the subset memo, are asked up front
    cuts = enumerate_tight_cuts(g)
    barrier_classes(g)
    eng = _engine(g)
    pm_entries, known = len(eng.pm_memo), list(eng.known)
    verdicts = set()
    for cut in cuts:
        assert is_tight(g, cut.shore).tight
        if not cut.is_trivial:
            assert elp_set(g, cut)
            verdicts.add(classify_tight_cut(g, cut.shore).verdict)
    assert len(cuts) > g.n and verdicts
    assert len(eng.pm_memo) == pm_entries and eng.known == known
