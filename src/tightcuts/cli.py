"""Command-line surface: analyze, classify, decompose, verify.

Human summaries go to stdout; --json switches to a machine report that
round-trips losslessly.  Exit codes: 0 success, 2 parse/usage, 3 bad cut,
4 invariance violation, 5 counterexample candidate, 6 size cap or search
budget exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from . import decomp, elp, gscut, matching
from .corpus import CorpusStream, gen_named
from .errors import (BadParameter, BadShore, BadVertex, EvenShore, GraphTooLarge,
                     NeedExternalCorpus, NotMatchingCovered, NotTight, ParseError,
                     SearchBudgetExceeded, TightcutsError, TrivialCut)
from .formats import parse_graph6, parse_graph_json, read_graph6_lines, write_graph6
from .graphcore import (MultiGraph, contract, edge_splice, edges_between, make_cut,
                        relabel_graph, removed_components)

VERSION = "0.1.0"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BAD_CUT = 3
EXIT_INVARIANCE = 4
EXIT_COUNTEREXAMPLE = 5
EXIT_LIMIT = 6

ALL_THEOREMS = ("1.1", "1.2", "1.3", "3.3", "props")


@dataclass
class Report:
    command: str
    input_digest: str
    version: str = VERSION
    timing_ms: int = 0
    findings: dict = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "command": self.command,
            "input_digest": self.input_digest,
            "version": self.version,
            "timing_ms": self.timing_ms,
            "findings": self.findings,
        }


def report_from_json_obj(obj: dict) -> Report:
    return Report(command=obj["command"], input_digest=obj["input_digest"],
                  version=obj["version"], timing_ms=obj["timing_ms"],
                  findings=obj["findings"])


def _digest(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()[:16]


def _read_input(args) -> tuple:
    """(graphs, raw bytes) from --input/--format; raises ParseError."""
    if args.input == "-":
        raw = sys.stdin.buffer.read()
    else:
        try:
            with open(args.input, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {args.input}: {exc}") from exc
    try:
        text = raw.decode("ascii" if args.format == "graph6" else "utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot decode {args.format} input: {exc}") from exc
    if args.format == "graph6":
        graphs = list(read_graph6_lines(text.splitlines()))
        if not graphs:
            raise ParseError("no graphs in graph6 input")
    else:
        graphs = [parse_graph_json(text)]
    return graphs, raw


def _resolve_shore(g: MultiGraph, spec: str) -> frozenset:
    """Map a comma-separated list of labels (or raw ids) to vertex ids."""
    by_label = {lab: v for v, lab in g.label_items}
    out = set()
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token in by_label:
            out.add(by_label[token])
            continue
        try:
            v = int(token)
        except ValueError:
            raise BadVertex(f"unknown vertex name {token!r}") from None
        if v not in g.vertices:
            raise BadVertex(f"unknown vertex id {v}")
        out.add(v)
    return frozenset(out)


def _names(g: MultiGraph, vs) -> list:
    return sorted(g.display(v) for v in vs)


# -- analyze ---------------------------------------------------------------


def _analyze_one(g: MultiGraph) -> dict:
    info = {"n": g.n, "edge_count": g.m}
    mc = matching.is_matching_covered(g)
    info["matching_covered"] = mc
    if not mc:
        return info
    info["bicritical"] = matching.is_bicritical(g) if g.n >= 4 else None
    seps = elp.two_separations(g)
    info["two_separations"] = [_names(g, s.pair) for s in seps]
    info["two_separation_cuts"] = [_names(g, e.cut.shore)
                                   for e in elp.all_two_separation_cuts(g)]
    if g.n <= elp._BARRIER_ENUM_LIMIT:
        barriers = elp.enumerate_nontrivial_barriers(g)
        info["nontrivial_barriers"] = [_names(g, b.vertices) for b in barriers]
        info["barrier_cuts"] = [_names(g, e.cut.shore) for e in elp.barrier_cuts(g)]
        info["nontrivial_tight_cuts"] = [
            {"shore": _names(g, c.small_shore), "elp_count": len(elp.elp_set(g, c))}
            for c in matching.enumerate_tight_cuts(g, nontrivial_only=True)]
    else:
        # past the enumeration cap, which elp_set's barrier-cuts need too
        info["nontrivial_barriers"] = info["nontrivial_tight_cuts"] = None
    return info


def cmd_analyze(args) -> int:
    start = time.monotonic()
    graphs, raw = _read_input(args)
    report = Report("analyze", _digest(raw))
    report.findings["graphs"] = [_analyze_one(g) for g in graphs]
    report.timing_ms = int((time.monotonic() - start) * 1000)
    if args.json:
        print(json.dumps(report.to_json_obj(), sort_keys=True))
    else:
        for k, info in enumerate(report.findings["graphs"]):
            print(f"graph {k}: n={info['n']} m={info['edge_count']} "
                  f"matching_covered={info['matching_covered']}")
            if info["matching_covered"]:
                print(f"  bicritical={info['bicritical']} "
                      f"two_separations={len(info['two_separations'])}")
                ntc = info.get("nontrivial_tight_cuts")
                if ntc is not None:
                    for c in ntc:
                        print(f"  tight cut {{{','.join(c['shore'])}}} elp={c['elp_count']}")
    return EXIT_OK


# -- classify --------------------------------------------------------------


def _certificate_obj(result) -> Optional[dict]:
    if result.verdict == "barrier-cut":
        return gscut.barrier_cut_certificate_to_json_obj(
            result.barrier, _barrier_side(result))
    if result.verdict == "essential-gs-cut":
        return gscut.essential_certificate_to_json_obj(result.essential)
    return None


def _barrier_side(result) -> frozenset:
    """The cut side that the found barrier leaves as an odd component."""
    for comp in result.barrier.odd_components:
        if comp in result.cut.shore_pair:
            return comp
    raise AssertionError("barrier certificate lost its component")


def cmd_classify(args) -> int:
    start = time.monotonic()
    graphs, raw = _read_input(args)
    g = graphs[0]
    try:
        shore = _resolve_shore(g, args.shore)
        result = gscut.classify_tight_cut(g, shore)
    except NotTight as exc:
        msg = {"error": "not a tight cut"}
        if exc.witness is not None:
            msg["witness_matching"] = [list(p) for p in exc.witness.edge_pairs]
        print(json.dumps(msg) if args.json else f"error: {msg['error']}", file=sys.stderr)
        return EXIT_BAD_CUT
    except (TrivialCut, BadShore, BadVertex, EvenShore, NotMatchingCovered) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CUT
    report = Report("classify", _digest(raw))
    cert = _certificate_obj(result)
    report.findings = {
        "shore": _names(g, result.cut.shore),
        "verdict": result.verdict,
        "certificate": cert,
        "transcript": list(result.transcript),
    }
    if result.verdict == "barrier-cut":
        report.findings["barrier"] = _names(g, result.barrier.vertices)
    elif result.verdict == "essential-gs-cut":
        report.findings["contracted_barriers"] = [
            _names(g, b.vertices) for b in result.essential.barriers]
    report.timing_ms = int((time.monotonic() - start) * 1000)
    if args.json:
        print(json.dumps(report.to_json_obj(), sort_keys=True))
    else:
        print(f"verdict: {result.verdict}")
        if result.verdict == "barrier-cut":
            print(f"barrier: {{{','.join(report.findings['barrier'])}}}")
        elif result.verdict == "essential-gs-cut":
            barriers = report.findings["contracted_barriers"]
            print(f"contracted barriers: {barriers if barriers else 'none (already GS)'}")
    return EXIT_OK if result.verdict != "unclassified" else EXIT_COUNTEREXAMPLE


# -- decompose -------------------------------------------------------------


def cmd_decompose(args) -> int:
    start = time.monotonic()
    graphs, raw = _read_input(args)
    g = graphs[0]
    try:
        runs = []
        for k in range(max(1, args.repeats)):
            # decompose frees its input's memo, so each repeat gets a fresh,
            # unanalysed copy and measures the same work
            fresh = MultiGraph(g.vertices, g.edges, g.label_items)
            tree = decomp.decompose(fresh, args.strategy, args.seed + k)
            runs.append((args.seed + k, tree, decomp.brick_number(tree)))
    except NotMatchingCovered as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CUT
    numbers = sorted({bn for _, _, bn in runs})
    report = Report("decompose", _digest(raw))
    first_tree = runs[0][1]
    report.findings = {
        "strategy": args.strategy,
        "seeds": [s for s, _, _ in runs],
        "brick_numbers": [bn for _, _, bn in runs],
        "brick_number": runs[0][2],
        "agreement": len(numbers) == 1,
        "leaves": [
            {"kind": leaf.leaf_kind, "n": leaf.graph.n}
            for leaf in first_tree.leaves()
        ],
        "tree": first_tree.to_json_obj(),
    }
    report.timing_ms = int((time.monotonic() - start) * 1000)
    if args.json:
        print(json.dumps(report.to_json_obj(), sort_keys=True))
    else:
        print(f"brick number: {runs[0][2]} over {len(runs)} run(s), "
              f"agreement={report.findings['agreement']}")
    if len(numbers) != 1:
        print("error: decompositions disagree on the brick number", file=sys.stderr)
        return EXIT_INVARIANCE
    return EXIT_OK


# -- verify ----------------------------------------------------------------


def _sweep_graph(g6: str, theorems: tuple) -> dict:
    """Per-graph theorem sweep; returns counters and failure records."""
    g = parse_graph6(g6)
    out = {"graph6": g6, "cuts": 0, "failures": []}

    def fail(theorem, detail, shore=None):
        rec = {"theorem": theorem, "graph6": g6, "detail": detail}
        if shore is not None:
            rec["shore"] = sorted(shore)
        out["failures"].append(rec)

    ntc = matching.enumerate_tight_cuts(g, nontrivial_only=True)
    out["cuts"] = len(ntc)
    if "1.1" in theorems and ntc:
        # a non-bicritical graph has a maximal barrier of >= 2 vertices
        if matching.is_bicritical(g) and not elp.two_separations(g):
            fail("1.1", "non-trivial tight cut but no non-trivial barrier or 2-separation")
    if "1.2" in theorems:
        for c in ntc:
            if len(elp.elp_set(g, c)) < 1:
                fail("1.2", "empty ELP set", c.small_shore)
    if "1.3" in theorems:
        for c in ntc:
            result = gscut.classify_tight_cut(g, c.shore)
            if result.verdict == "unclassified":
                fail("1.3", "tight cut is neither barrier-cut nor essential GS-cut",
                     c.small_shore)
    if "3.3" in theorems or "props" in theorems:
        gs_shores = []
        if elp.two_separations(g):  # a GS-cut's family is made of 2-separations
            gs_shores = [shore for shore in matching.odd_shores(g, nontrivial_only=True)
                         if gscut.is_gs_cut(g, shore) is not None]
        if "props" in theorems:
            for shore in gs_shores:
                if not matching.is_tight(g, shore).tight:
                    fail("props", "GS-cut that is not tight (prop 3.2)", shore)
        if "3.3" in theorems:
            for shore in gs_shores:
                if not matching.is_tight(g, shore).tight:
                    continue
                if len(elp.elp_set(g, make_cut(g, shore))) < 2:
                    fail("3.3", "non-trivial GS-cut with fewer than 2 ELP cuts", shore)
    if "props" in theorems:
        _sweep_props(g, ntc, fail)
    return out


def _sweep_props(g, ntc, fail):
    for barrier in (elp.enumerate_nontrivial_barriers(g)
                    if g.n <= elp._BARRIER_ENUM_LIMIT else ()):
        b = barrier.vertices
        if any(v in g.adjacency[u] for u, v in combinations(sorted(b), 2)):
            fail("props", "non-trivial barrier inducing an edge (prop 2.2)", b)
        if any(len(c) % 2 == 0 for c in barrier.odd_components):
            fail("props", "non-trivial barrier leaving an even component (prop 2.2)", b)
    for c, d in combinations(ntc, 2):
        x, y = c.shore, d.shore
        if len(x & y) % 2 == 0:
            continue
        if edges_between(g, x - y, y - x):
            fail("props", "crossing edges between opposite corners (prop 2.3)",
                 c.small_shore)
        if not matching.is_tight(g, x & y).tight:
            fail("props", "intersection of odd-overlap tight cuts not tight (prop 2.3)",
                 x & y)
        if x | y != g.vertices and not matching.is_tight(g, x | y).tight:
            fail("props", "union of odd-overlap tight cuts not tight (prop 2.3)", x | y)
    for c in ntc:
        for side in (c.shore, c.complement):
            sub = contract(g, g.vertices - side)
            if not matching.is_matching_covered(sub):
                fail("props", "contraction of a tight cut not matching covered (prop 2.4)",
                     c.small_shore)
            if len(removed_components(g, g.vertices - side).components) != 1:
                fail("props", "shore of a tight cut not connected (cor 2.5)", side)
    if g.n >= 4 and g.n % 2 == 0 and matching.is_bicritical(g) and g.edges:
        u, v = g.edges[0]
        top = max(g.vertices)
        k4 = relabel_graph(gen_named("k4"), {0: u, 1: v, 2: top + 1, 3: top + 2})
        spliced = edge_splice(g, k4, u, v)
        if not matching.is_bicritical(spliced):
            fail("props", "splice of bicritical graphs not bicritical (remark)")
        t1, t2, t3 = gscut.check_splice_tightness(
            g, k4, u, v, frozenset((u,)), frozenset((u, top + 1, top + 2)))
        if t3 != (t1 and t2):
            fail("props", "splice tightness conjunction fails (prop 3.1)")


def cmd_verify(args) -> int:
    start = time.monotonic()
    theorems = tuple(t.strip() for t in args.theorems.split(",") if t.strip())
    for t in theorems:
        if t not in ALL_THEOREMS:
            print(f"error: unknown theorem {t!r}", file=sys.stderr)
            return EXIT_PARSE
    try:
        lines = [write_graph6(g) for g in CorpusStream(args.max_n, args.input)]
    except (ParseError, NeedExternalCorpus, BadParameter, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if not lines:
        print("warning: empty corpus, vacuous pass", file=sys.stderr)
    jobs = args.jobs or os.cpu_count() or 1
    results = [None] * len(lines)
    if jobs <= 1:
        for k, line in enumerate(lines):
            results[k] = _sweep_graph(line, theorems)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for k, res in enumerate(pool.map(_sweep_graph, lines,
                                             [theorems] * len(lines),
                                             chunksize=max(1, len(lines) // (jobs * 8)))):
                results[k] = res
    failures = []
    cuts = 0
    per_theorem = {t: {"failures": 0} for t in theorems}
    for res in results:
        cuts += res["cuts"]
        for rec in res["failures"]:
            failures.append(rec)
            per_theorem.setdefault(rec["theorem"], {"failures": 0})
            per_theorem[rec["theorem"]]["failures"] += 1
    digest_src = "\n".join(lines).encode("ascii")
    report = Report("verify", _digest(digest_src))
    report.findings = {
        "theorems": list(theorems),
        "graphs": len(lines),
        "cuts": cuts,
        "per_theorem": per_theorem,
        "failures": failures,
    }
    report.timing_ms = int((time.monotonic() - start) * 1000)
    for k, rec in enumerate(failures):
        path = f"counterexample-{k}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rec, fh, indent=2, sort_keys=True)
    if args.json:
        print(json.dumps(report.to_json_obj(), sort_keys=True))
    else:
        print(f"verified {len(lines)} graphs, {cuts} non-trivial tight cuts")
        for t in theorems:
            n_fail = per_theorem.get(t, {}).get("failures", 0)
            print(f"  theorem {t}: {'PASS' if n_fail == 0 else f'{n_fail} FAILURES'}")
        if failures:
            print(f"  wrote {len(failures)} counterexample file(s)", file=sys.stderr)
    return EXIT_COUNTEREXAMPLE if failures else EXIT_OK


# -- entry point -----------------------------------------------------------


def _add_input_flags(p, required=True):
    p.add_argument("--input", required=required, default=None,
                   help="path to the graph input, or - for stdin")
    p.add_argument("--format", choices=("graph6", "json"), default="graph6")
    p.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tightcuts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="matching-covered status, barriers, cuts")
    _add_input_flags(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classify", help="classify a non-trivial tight cut")
    _add_input_flags(p)
    p.add_argument("--shore", required=True,
                   help="comma-separated vertex labels or ids of one shore")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("decompose", help="tight cut decomposition")
    _add_input_flags(p)
    p.add_argument("--strategy", choices=("exhaustive", "elp-first"), default="exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=1)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="theorem sweeps over a corpus")
    p.add_argument("--input", default=None,
                   help="graph6 corpus file (needed past 8 vertices)")
    p.add_argument("--format", choices=("graph6",), default="graph6")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-n", type=int, default=8, dest="max_n")
    p.add_argument("--theorems", default=",".join(ALL_THEOREMS))
    p.add_argument("--jobs", type=int, default=0, help="worker processes (0 = auto)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_n", None) is not None and args.command == "verify":
        if args.max_n > 8 and args.input is None:
            print("error: corpora past 8 vertices need --input", file=sys.stderr)
            return EXIT_PARSE
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (GraphTooLarge, SearchBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except TightcutsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CUT


if __name__ == "__main__":
    sys.exit(main())
