"""Regenerate the benchmark's committed data files from the library.

Run from the repository root (takes about two minutes, most of it in the
8-vertex enumeration):

    PYTHONHASHSEED=0 PYTHONPATH=src python3 perfbench/make_data.py

Writes, under perfbench/data/:
  classes8.g6   every connected simple graph on 8 vertices, one per
                isomorphism class, in connected_graphs(8) order (11,117 lines)
  corpus8.g6    the matching covered graphs up to 8 vertices, as
                `tightcuts verify --max-n 8` lists them (3,171 lines)
  expected.json digests, per-size counts, the edge-count histogram of each
                enumeration level, and per corpus line its number of
                non-trivial tight cuts and its brick number
"""

import hashlib
import json
import os
import sys
import warnings

warnings.filterwarnings("ignore", category=UserWarning, module="networkx.algorithms.graph_hashing")

from tightcuts.corpus import connected_graphs
from tightcuts.decomp import brick_number, decompose
from tightcuts.formats import write_graph6
from tightcuts.matching import enumerate_tight_cuts, is_matching_covered

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def digest(lines):
    return hashlib.sha256("".join(line + "\n" for line in lines).encode("ascii")).hexdigest()


def main():
    levels = {n: connected_graphs(n) for n in range(1, 9)}
    classes8 = [write_graph6(g) for g in levels[8]]
    corpus = [g for n in (2, 4, 6, 8) for g in levels[n] if is_matching_covered(g)]
    corpus_lines = [write_graph6(g) for g in corpus]
    bricks = []
    for g in corpus:
        exh = brick_number(decompose(g, "exhaustive"))
        if exh != brick_number(decompose(g, "elp-first")):
            sys.exit(f"decomposition strategies disagree on {write_graph6(g)}")
        bricks.append(exh)
    by_size = {}
    for g in corpus:
        by_size[str(g.n)] = by_size.get(str(g.n), 0) + 1
    histogram = {}
    for n in range(1, 8):
        hist = {}
        for g in levels[n]:
            hist[str(g.m)] = hist.get(str(g.m), 0) + 1
        histogram[str(n)] = dict(sorted(hist.items(), key=lambda kv: int(kv[0])))
    expected = {
        "level_counts": {str(n): len(gs) for n, gs in levels.items()},
        "level_edge_histogram": histogram,
        "classes8_sha256": digest(classes8),
        "corpus8_sha256": digest(corpus_lines),
        "corpus8_by_size": by_size,
        "corpus8_tight_cuts": [len(enumerate_tight_cuts(g, nontrivial_only=True))
                               for g in corpus],
        "corpus8_bricks": bricks,
    }
    os.makedirs(DATA, exist_ok=True)
    with open(os.path.join(DATA, "classes8.g6"), "w", encoding="ascii") as fh:
        fh.write("".join(line + "\n" for line in classes8))
    with open(os.path.join(DATA, "corpus8.g6"), "w", encoding="ascii") as fh:
        fh.write("".join(line + "\n" for line in corpus_lines))
    with open(os.path.join(DATA, "expected.json"), "w", encoding="ascii") as fh:
        json.dump(expected, fh, separators=(",", ":"))
        fh.write("\n")
    print(f"{len(classes8)} classes on 8 vertices, {len(corpus_lines)} matching covered "
          f"graphs, {sum(expected['corpus8_tight_cuts'])} non-trivial tight cuts")


if __name__ == "__main__":
    main()
