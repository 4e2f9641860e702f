import json
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tightcuts.corpus import connected_graphs
from tightcuts.errors import ParseError
from tightcuts.formats import (graph_from_json_obj, graph_to_json, graph_to_json_obj,
                               parse_graph6, parse_graph_json, read_graph6_lines,
                               write_graph6)
from tightcuts.graphcore import build_graph, graph_from


def k4():
    return build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


# -- graph6 ----------------------------------------------------------------


def test_known_vectors():
    # K3 and K4 in standard graph6
    assert parse_graph6("Bw").edges == ((0, 1), (0, 2), (1, 2))
    assert parse_graph6("C~") == k4()
    assert write_graph6(k4()) == "C~"


def test_optional_header_prefix():
    assert parse_graph6(">>graph6<<Bw") == parse_graph6("Bw")


def test_roundtrip_matches_networkx():
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    line = write_graph6(g)
    back = nx.from_graph6_bytes(line.encode("ascii"))
    assert set(map(frozenset, back.edges())) == set(map(frozenset, g.edges))
    assert parse_graph6(line) == g


def test_long_form_sizes():
    path63 = build_graph(63, [(i, i + 1) for i in range(62)])
    line = write_graph6(path63)
    assert line.startswith("~")
    assert parse_graph6(line) == path63
    back = nx.from_graph6_bytes(line.encode("ascii"))
    assert back.number_of_edges() == 62

    path64 = build_graph(64, [(i, i + 1) for i in range(63)])
    assert parse_graph6(write_graph6(path64)) == path64


def test_long_form_past_the_cap_rejected():
    too_big = nx.to_graph6_bytes(nx.empty_graph(65), header=False).decode().strip()
    with pytest.raises(ParseError):
        parse_graph6(too_big)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_graph6("")
    with pytest.raises(ParseError):
        parse_graph6("C~extra")  # trailing adjacency bytes
    with pytest.raises(ParseError):
        parse_graph6("C")  # missing adjacency bytes
    with pytest.raises(ParseError):
        parse_graph6("C curly")  # invalid character (space)


def test_write_rejects_parallel_edges():
    g = build_graph(2, [(0, 1), (0, 1)])
    with pytest.raises(ParseError):
        write_graph6(g)


def matrix_graph6(g):
    """Oracle: graph6 through an n x n boolean matrix, the writer's first form."""
    n = g.n
    idx = g.index
    adj = [[False] * n for _ in range(n)]
    for u, v in g.edges:
        adj[idx[u]][idx[v]] = adj[idx[v]][idx[u]] = True
    head = [n] if n <= 62 else [126 - 63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    bits = [1 if adj[i][j] else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = head[:]
    for k in range(0, len(bits), 6):
        byte = 0
        for b in bits[k:k + 6]:
            byte = (byte << 1) | b
        out.append(byte)
    return "".join(chr(63 + b) for b in out)


def test_mask_writer_matches_the_matrix_writer():
    graphs = [g for n in range(1, 9) for g in connected_graphs(n)]
    rng = random.Random(5)
    for n in (40, 63, 64):  # 63 and 64 take the long-form header
        ids = rng.sample(range(1000), n)  # sparse, unsorted vertex ids
        graphs.append(graph_from(ids, {tuple(sorted(rng.sample(ids, 2))) for _ in range(3 * n)}))
    assert len(graphs) > 11000
    for g in graphs:
        assert write_graph6(g) == matrix_graph6(g)


def test_write_renumbers_sparse_ids():
    g = graph_from([3, 9], [(3, 9)])
    assert parse_graph6(write_graph6(g)) == build_graph(2, [(0, 1)])


def test_read_graph6_lines_skips_blanks_and_header():
    lines = ["", ">>graph6<<Bw", "C~", "   "]
    got = list(read_graph6_lines(lines))
    assert len(got) == 2 and got[1] == k4()


# -- JSON ------------------------------------------------------------------


def test_json_roundtrip_with_labels():
    g = graph_from([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3), (3, 0)],
                   labels={0: "a", 2: "c"})
    assert parse_graph_json(graph_to_json(g)) == g


def test_json_renumbers_and_keeps_old_ids_as_labels():
    g = graph_from([5, 9], [(5, 9)])
    obj = graph_to_json_obj(g)
    assert obj["n"] == 2 and obj["edges"] == [[0, 1]]
    back = graph_from_json_obj(obj)
    assert back.display(0) == "5" and back.display(1) == "9"


def test_json_errors():
    with pytest.raises(ParseError):
        parse_graph_json("not json at all {")
    for obj in (
        {"edges": []},                         # missing n
        {"n": 2, "edges": [[0, 0]]},           # loop
        {"n": 2, "edges": [[0, 5]]},           # out of range
        {"n": "two", "edges": []},             # wrong type
        {"n": 2, "edges": [[0]]},              # malformed pair
    ):
        with pytest.raises(ParseError):
            graph_from_json_obj(obj)


def test_json_text_roundtrip_is_plain_json():
    g = build_graph(4, [(0, 1), (2, 3)])
    obj = json.loads(graph_to_json(g))
    assert obj["n"] == 4


# -- property: codec agrees with networkx ----------------------------------


@st.composite
def simple_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return build_graph(n, sorted(edges))


@given(simple_graphs())
@settings(max_examples=200, deadline=None)
def test_graph6_roundtrip_and_networkx_agreement(g):
    line = write_graph6(g)
    assert parse_graph6(line) == g
    back = nx.from_graph6_bytes(line.encode("ascii"))
    assert back.number_of_nodes() == g.n
    assert set(map(frozenset, back.edges())) == set(map(frozenset, g.edges))
