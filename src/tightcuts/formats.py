"""Graph serialization: graph6 for simple graphs, JSON edge lists for multigraphs."""

from __future__ import annotations

import json
from typing import Iterable, Iterator

from .errors import ParseError
from .graphcore import MAX_VERTICES, MultiGraph, build_graph

_G6_HEADER = ">>graph6<<"


def _g6_decode_n(data: list) -> tuple:
    """Return (n, index of first adjacency byte)."""
    if not data:
        raise ParseError("empty graph6 line")
    if data[0] != 126 - 63:
        return data[0], 1
    if len(data) < 4:
        raise ParseError("truncated graph6 vertex count")
    if data[1] == 126 - 63:
        raise ParseError("graph6 vertex count beyond supported range")
    n = (data[1] << 12) | (data[2] << 6) | data[3]
    return n, 4


def parse_graph6(line: str) -> MultiGraph:
    """Parse one ASCII graph6 line into a simple graph on 0..n-1."""
    line = line.strip()
    if line.startswith(_G6_HEADER):
        line = line[len(_G6_HEADER):]
    if not line:
        raise ParseError("empty graph6 line")
    data = []
    for ch in line:
        o = ord(ch)
        if not 63 <= o <= 126:
            raise ParseError(f"invalid graph6 character {ch!r}")
        data.append(o - 63)
    n, at = _g6_decode_n(data)
    if n > MAX_VERTICES:
        raise ParseError(f"graph6 line has {n} vertices, cap is {MAX_VERTICES}")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - at != need:
        raise ParseError(f"graph6 line has {len(data) - at} adjacency bytes, expected {need}")
    bits = []
    for byte in data[at:]:
        bits.extend((byte >> k) & 1 for k in range(5, -1, -1))
    edges = []
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bits[pos]:
                edges.append((i, j))
            pos += 1
    return build_graph(n, edges)


def write_graph6(g: MultiGraph) -> str:
    """Encode a simple graph as one graph6 line (vertices renumbered sorted).

    Read from the dense adjacency masks, where parallel edges collapse, so
    a graph has one exactly when its masks count fewer than 2m edge ends.
    """
    n, adj = g.n, g.adj_masks
    if sum(a.bit_count() for a in adj) != 2 * g.m:
        raise ParseError("graph6 cannot encode parallel edges")
    if n <= 62:
        head = [n]
    else:
        head = [126 - 63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    # column j lists the bits of rows 0..j-1, lowest row first
    bits = "".join(format(adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))
    bits += "0" * (-len(bits) % 6)
    out = head + [int(bits[k:k + 6], 2) for k in range(0, len(bits), 6)]
    return "".join(chr(63 + b) for b in out)


def read_graph6_lines(lines: Iterable) -> Iterator:
    """Parse an iterable of graph6 lines, skipping blanks and the format header."""
    for raw in lines:
        line = raw.strip()
        if not line or line == _G6_HEADER:
            continue
        yield parse_graph6(line)


def read_graph6_file(path: str) -> list:
    try:
        with open(path, "r", encoding="ascii") as fh:
            return list(read_graph6_lines(fh))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not ASCII graph6: {exc}") from exc


# -- JSON edge lists -------------------------------------------------------


def graph_to_json_obj(g: MultiGraph) -> dict:
    """{"n": ..., "edges": [[u, v], ...], "labels": {...}} with dense renumbering."""
    idx = g.index
    obj = {"n": g.n, "edges": [[idx[u], idx[v]] for u, v in g.edges]}
    labels = {}
    for v in g.order:
        if v in g.labels:
            labels[str(idx[v])] = g.labels[v]
        elif idx[v] != v:
            labels[str(idx[v])] = str(v)  # keep the original id visible
    if labels:
        obj["labels"] = labels
    return obj


def graph_from_json_obj(obj: dict) -> MultiGraph:
    try:
        n = obj["n"]
        edges = [tuple(e) for e in obj["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad JSON graph object: {exc}") from exc
    if not isinstance(n, int):
        raise ParseError("JSON graph field 'n' must be an integer")
    labels_in = obj.get("labels") or {}
    labels = {}
    for k, v in labels_in.items():
        try:
            labels[int(k)] = str(v)
        except ValueError as exc:
            raise ParseError(f"bad label key {k!r}") from exc
    try:
        return build_graph(n, edges, labels or None)
    except Exception as exc:
        raise ParseError(f"bad JSON graph: {exc}") from exc


def parse_graph_json(text: str) -> MultiGraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("JSON graph input must be an object")
    return graph_from_json_obj(obj)


def graph_to_json(g: MultiGraph) -> str:
    return json.dumps(graph_to_json_obj(g), sort_keys=True)
