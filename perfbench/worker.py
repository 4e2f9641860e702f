"""One benchmark round, run by run.py in a fresh interpreter.

Reads a JSON round spec on stdin and prints one JSON line: the round's
set-up time, timed-phase wall time, per-op times, attempted and failed op
counts, peak RSS, counters and (when tracing) self time per span name.

Set-up is the library import plus input preparation.  The timed phase calls
the library's public functions in the order `tightcuts verify` and
`tightcuts decompose` call them.  The correctness gate runs after the timed
phase and the RSS reading; it is never timed.
"""

import hashlib
import json
import os
import random
import resource
import sys
import warnings
from itertools import combinations
from time import perf_counter

from spans import Recorder

warnings.filterwarnings("ignore", category=UserWarning,
                        module="networkx.algorithms.graph_hashing")

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# Known answers: connected graphs per vertex count (OEIS A001349), and the
# matching covered corpus up to 8 vertices with its non-trivial tight cuts.
LEVEL_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
CORPUS_BY_SIZE = {2: 1, 4: 2, 6: 24, 8: 3144}
CORPUS_TIGHT_CUTS = 1784

ENUM_LEVELS = (2, 4, 6, 7)  # live enumeration; level 8 comes from classes8.g6
EXH_SIZES, EXH_PER_SIZE, EXH_CHAINS = (12, 14, 16), 8, 3
ELP_SIZES, ELP_PER_SIZE, ELP_CHAINS = (14, 16, 18, 20), 36, 4


class GateError(Exception):
    """Committed data does not match its recorded digest or counts."""


class Round:
    def __init__(self, spec):
        self.rec = Recorder(spec["trace"])
        self.op_ms = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, what):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def result(self, setup_s, wall_s, rss_mb):
        return {"setup_s": setup_s, "wall_s": wall_s, "op_ms": self.op_ms,
                "attempted": self.attempted, "failed": self.failed,
                "errors": self.errors, "rss_mb": rss_mb, "counts": self.rec.counts,
                "self_s": self.rec.self_times()}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def load_lines(name, sha256):
    with open(os.path.join(DATA, name), encoding="ascii") as fh:
        text = fh.read()
    if hashlib.sha256(text.encode("ascii")).hexdigest() != sha256:
        raise GateError(f"{name} does not match its recorded digest")
    return text.split()


def load_expected():
    with open(os.path.join(DATA, "expected.json"), encoding="ascii") as fh:
        expected = json.load(fh)
    if {int(k): v for k, v in expected["level_counts"].items()} != LEVEL_COUNTS:
        raise GateError("expected.json level counts differ from OEIS A001349")
    if {int(k): v for k, v in expected["corpus8_by_size"].items()} != CORPUS_BY_SIZE:
        raise GateError("expected.json corpus counts differ from the known corpus")
    if sum(expected["corpus8_tight_cuts"]) != CORPUS_TIGHT_CUTS:
        raise GateError("expected.json tight-cut total differs from the known corpus")
    return expected


def load_corpus(expected):
    lines = load_lines("corpus8.g6", expected["corpus8_sha256"])
    by_size = {}
    for line in lines:
        n = ord(line[0]) - 63
        by_size[n] = by_size.get(n, 0) + 1
    if by_size != CORPUS_BY_SIZE:
        raise GateError("corpus8.g6 per-size counts are wrong")
    return lines


# -- enum8 ------------------------------------------------------------------


def nx_graph(g):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    return h


def level_problem(level, n, histogram):
    """Why an enumerated level is wrong, or None."""
    import networkx as nx

    if len(level) != LEVEL_COUNTS[n]:
        return f"level {n}: {len(level)} classes, expected {LEVEL_COUNTS[n]}"
    hist = {}
    for g in level:
        hist[str(g.m)] = hist.get(str(g.m), 0) + 1
    if hist != histogram:
        return f"level {n}: edge-count histogram differs"
    buckets = {}
    for g in level:
        h = nx_graph(g)
        if g.n != n or not nx.is_connected(h):
            return f"level {n}: a class is not connected on {n} vertices"
        key = (g.m, nx.weisfeiler_lehman_graph_hash(h, iterations=3))
        bucket = buckets.setdefault(key, [])
        if any(nx.is_isomorphic(h, other) for other in bucket):
            return f"level {n}: two classes are isomorphic"
        bucket.append(h)
    return None


def run_enum8(spec, t0):
    from inputs import nx_is_matching_covered
    from tightcuts import corpus, formats, matching

    expected = load_expected()
    lines8 = load_lines("classes8.g6", expected["classes8_sha256"])
    graphs8 = [formats.parse_graph6(line) for line in lines8]
    setup_s = perf_counter() - t0
    if spec["setup_only"]:
        return {"setup_s": setup_s}
    rnd = Round(spec)
    rec = rnd.rec

    start = perf_counter()
    with rec.span("driver"):
        levels = {}
        for n in ENUM_LEVELS:
            with rec.span("corpus.enum"):
                levels[n] = corpus.connected_graphs(n)
        filtered = []
        for g in [g for n in (2, 4, 6) for g in levels[n]] + graphs8:
            a = perf_counter()
            with rec.span("matching.mc_filter"):
                mc = matching.is_matching_covered(g)
            with rec.span("formats.write"):
                line = formats.write_graph6(g)
            rnd.op_ms.append((perf_counter() - a) * 1e3)
            filtered.append((g, mc, line))
    wall_s = perf_counter() - start
    rss = peak_rss_mb()

    histograms = expected["level_edge_histogram"]
    for n in range(1, 8):
        level = corpus.connected_graphs(n)
        rnd.attempted += len(level)
        problem = level_problem(level, n, histograms[str(n)])
        if problem:
            for _ in level:
                rnd.fail(problem)
    classes = sum(len(corpus.connected_graphs(n)) for n in range(2, 8))
    candidates = sum(len(corpus.connected_graphs(n - 1)) * ((1 << (n - 1)) - 1)
                     for n in range(2, 8))
    rec.count("corpus.classes", classes)
    rec.count("corpus.candidates", candidates)

    rng = random.Random(f"enum8-gate:{spec['seed']}")
    oracle_sample = set(rng.sample(range(len(graphs8)), 40))
    mc_by_size, mc_lines8 = {}, []
    for k, (g, mc, line) in enumerate(filtered):
        rec.count("matching.mc_checked")
        if mc:
            rec.count("matching.mc_passed")
            mc_by_size[g.n] = mc_by_size.get(g.n, 0) + 1
        if g.n == 8:
            j = k - (len(filtered) - len(graphs8))
            if line != lines8[j]:
                rnd.fail(f"write_graph6 changed class {lines8[j]}")
            if mc:
                mc_lines8.append(line)
            if j not in oracle_sample:
                continue
        if mc != nx_is_matching_covered(nx_graph(g)):
            rnd.fail(f"matching-covered verdict wrong on {line}")
    if mc_by_size != CORPUS_BY_SIZE:
        rnd.fail(f"matching covered counts {mc_by_size}, expected {CORPUS_BY_SIZE}")
    corpus8 = [line for line in load_corpus(expected) if line[0] == chr(63 + 8)]
    if mc_lines8 != corpus8:
        rnd.fail("8-vertex matching covered graphs differ from corpus8.g6")
    rnd.failed = min(rnd.failed, rnd.attempted)
    return rnd.result(setup_s, wall_s, rss)


# -- sweep ------------------------------------------------------------------


def barrier_side(result):
    """The cut side that the found barrier leaves as an odd component."""
    for comp in result.barrier.odd_components:
        if comp in result.cut.shore_pair:
            return comp
    return None


def sweep_graph(line, rec):
    """Theorems 1.1, 1.2, 1.3 and props on one graph6 line, as `tightcuts
    verify` runs them.  Returns (non-trivial tight cut count, problems)."""
    from tightcuts import corpus, elp, formats, graphcore, gscut, matching

    problems = []
    with rec.span("formats.parse"):
        g = formats.parse_graph6(line)
    with rec.span("matching.tight_cuts"):
        ntc = matching.enumerate_tight_cuts(g, nontrivial_only=True)
    rec.count("matching.tight_cuts", len(ntc))
    if ntc:
        with rec.span("elp.barriers"):
            barriers = elp.enumerate_nontrivial_barriers(g)
        if not barriers:
            with rec.span("elp.two_separations"):
                seps = elp.two_separations(g)
            if not seps:
                problems.append("1.1: tight cut without barrier or 2-separation")
    for c in ntc:
        with rec.span("elp.elp_set"):
            members = elp.elp_set(g, c)
        rec.count("elp.elp_members", len(members))
        if not members:
            problems.append("1.2: empty ELP set")
    for c in ntc:
        with rec.span("gscut.classify"):
            result = gscut.classify_tight_cut(g, c.shore)
        rec.count("gscut.verdict." + result.verdict)
        if result.verdict == "unclassified":
            problems.append("1.3: unclassified tight cut")
            continue
        with rec.span("gscut.cert"):
            if result.verdict == "barrier-cut":
                obj = gscut.barrier_cut_certificate_to_json_obj(
                    result.barrier, barrier_side(result))
            else:
                obj = gscut.essential_certificate_to_json_obj(result.essential)
            obj = json.loads(json.dumps(obj))
        with rec.span("gscut.validate"):
            valid = gscut.validate_certificate_json_obj(g, obj)
        if valid is not True:
            problems.append("certificate rejected")
        rec.count("gscut.certs_validated")

    gs_shores = []
    shores = 0
    with rec.span("gscut.is_gs_cut"):
        for shore in matching.odd_shores(g, nontrivial_only=True):
            shores += 1
            if gscut.is_gs_cut(g, shore) is not None:
                gs_shores.append(frozenset(shore))
    rec.count("matching.shores_tested", shores)
    rec.count("gscut.gs_hits", len(gs_shores))
    for shore in gs_shores:
        with rec.span("matching.is_tight"):
            tight = matching.is_tight(g, shore).tight
        if not tight:
            problems.append("props: GS-cut that is not tight")

    if g.n <= 20:
        with rec.span("elp.barriers"):
            barriers = elp.enumerate_nontrivial_barriers(g)
        for barrier in barriers:
            b = barrier.vertices
            if any(v in g.adjacency[u] for u, v in combinations(sorted(b), 2)):
                problems.append("props: barrier inducing an edge")
            if any(len(comp) % 2 == 0 for comp in barrier.odd_components):
                problems.append("props: barrier leaving an even component")
    for c, d in combinations(ntc, 2):
        x, y = c.shore, d.shore
        if len(x & y) % 2 == 0:
            continue
        with rec.span("graphcore.edges_between"):
            crossing = graphcore.edges_between(g, x - y, y - x)
        if crossing:
            problems.append("props: crossing edges between opposite corners")
        with rec.span("matching.is_tight"):
            if not matching.is_tight(g, x & y).tight:
                problems.append("props: intersection not tight")
            if x | y != g.vertices and not matching.is_tight(g, x | y).tight:
                problems.append("props: union not tight")
    for c in ntc:
        for side in (c.shore, c.complement):
            with rec.span("graphcore.contract"):
                sub = graphcore.contract(g, g.vertices - side)
            with rec.span("matching.is_matching_covered"):
                mc = matching.is_matching_covered(sub)
            if not mc:
                problems.append("props: contraction not matching covered")
            with rec.span("graphcore.removed_components"):
                parts = graphcore.removed_components(g, g.vertices - side).components
            if len(parts) != 1:
                problems.append("props: shore not connected")
    if g.n >= 4 and g.n % 2 == 0 and g.edges:
        with rec.span("matching.is_bicritical"):
            bicritical = matching.is_bicritical(g)
        if bicritical:
            u, v = g.edges[0]
            top = max(g.vertices)
            with rec.span("corpus.edge_splice"):
                k4 = graphcore.relabel_graph(corpus.gen_named("k4"),
                                             {0: u, 1: v, 2: top + 1, 3: top + 2})
                spliced = corpus.edge_splice(g, k4, u, v)
            with rec.span("matching.is_bicritical"):
                if not matching.is_bicritical(spliced):
                    problems.append("props: splice of bicritical graphs not bicritical")
            with rec.span("gscut.check_splice_tightness"):
                t1, t2, t3 = gscut.check_splice_tightness(
                    g, k4, u, v, frozenset((u,)), frozenset((u, top + 1, top + 2)))
            if t3 != (t1 and t2):
                problems.append("props: splice tightness conjunction fails")
    return len(ntc), problems


def run_sweep(spec, t0):
    from tightcuts import formats, matching

    expected = load_expected()
    lines = load_corpus(expected)
    r, slices = spec["slice"], spec["slices"]
    ops = [(line, cuts) for line, cuts in
           zip(lines[r::slices], expected["corpus8_tight_cuts"][r::slices])]
    ops += [(line, None) for line in spec["sample"]]
    setup_s = perf_counter() - t0
    if spec["setup_only"]:
        return {"setup_s": setup_s}
    rnd = Round(spec)
    rec = rnd.rec

    outcomes = []
    start = perf_counter()
    with rec.span("driver"):
        for line, _ in ops:
            a = perf_counter()
            try:
                with rec.span("op"):
                    outcome = sweep_graph(line, rec)
            except Exception as exc:  # a failed op is counted, never skipped
                outcome = (None, [f"{type(exc).__name__}: {exc}"])
            rnd.op_ms.append((perf_counter() - a) * 1e3)
            outcomes.append(outcome)
    wall_s = perf_counter() - start
    rss = peak_rss_mb()

    rng = random.Random(f"sweep-gate:{spec['seed']}:{r}")
    cross_check = set(rng.sample(range(len(ops)), min(20, len(ops))))
    for k, ((line, want), (cuts, problems)) in enumerate(zip(ops, outcomes)):
        rnd.attempted += 1
        if want is not None and cuts != want:
            problems = problems + [f"{cuts} non-trivial tight cuts, expected {want}"]
        if k in cross_check and not problems:
            g = formats.parse_graph6(line)
            shores = list(matching.odd_shores(g, nontrivial_only=True))
            for shore in rng.sample(shores, min(5, len(shores))):
                if (matching.is_tight(g, shore).tight
                        != matching.is_tight_by_enumeration(g, shore).tight):
                    problems = problems + ["tightness differs from the enumeration route"]
        if problems:
            rnd.fail(f"{line}: {problems[0]}")
    return rnd.result(setup_s, wall_s, rss)


# -- decomp-exh / decomp-elp --------------------------------------------------


def count_tree(tree, rec):
    stack = [tree]
    while stack:
        node = stack.pop()
        rec.count("decomp.nodes")
        if node.children:
            stack.extend(node.children)
        else:
            rec.count("decomp." + ("braces" if node.leaf_kind == "brace" else "bricks"))


def tree_problem(tree):
    """Why a decomposition tree is malformed, or None."""
    import networkx as nx

    from tightcuts import matching

    stack = [tree]
    while stack:
        node = stack.pop()
        g = node.graph
        if node.children:
            if node.cut.is_trivial:
                return "trivial cut in the tree"
            if g.n <= 12 and not matching.is_tight_by_enumeration(g, node.cut.shore).tight:
                return "tree cut is not tight by enumeration"
            stack.extend(node.children)
        elif (node.leaf_kind == "brace") != nx.is_bipartite(nx_graph(g)):
            return f"{node.leaf_kind} leaf has the wrong bipartiteness"
    return None


def run_decomp(spec, t0):
    from inputs import splice_chains
    from tightcuts import corpus, decomp, formats
    from tightcuts.graphcore import relabel_graph

    strategy = spec["strategy"]
    if strategy == "exhaustive":
        sizes, per_size, chains = EXH_SIZES, EXH_PER_SIZE, EXH_CHAINS
    else:
        sizes, per_size, chains = ELP_SIZES, ELP_PER_SIZE, ELP_CHAINS
    expected = load_expected()
    lines = load_corpus(expected)
    # The chains of a slice are the same for every seed; the seed relabels
    # their vertices and drives decompose's cut choices.  Few graphs carry
    # most of the time here, so fresh chains per seed would swamp the metrics
    # with input variance.
    build = random.Random(f"{strategy}:{spec['slice']}")
    by_size = {}
    for line, bricks in zip(lines, expected["corpus8_bricks"]):
        n = ord(line[0]) - 63
        if n >= 4:
            by_size.setdefault(n, []).append((line, bricks))
    parts = {n: [(formats.parse_graph6(line), bricks)
                 for line, bricks in build.sample(group, min(len(group), 64))]
             for n, group in by_size.items()}
    inputs = splice_chains(build, parts, sizes, per_size)
    inputs += [(corpus.gen_h_n(k), 2 * k) for k in range(1, chains + 1)]
    rng = random.Random(f"{strategy}:{spec['seed']}:{spec['slice']}")
    inputs = [(relabel_graph(g, dict(zip(g.order, rng.sample(g.order, g.n)))), bricks)
              for g, bricks in inputs]
    seeds = [rng.randrange(1 << 31) for _ in inputs]
    setup_s = perf_counter() - t0
    if spec["setup_only"]:
        return {"setup_s": setup_s}
    rnd = Round(spec)
    rec = rnd.rec

    outcomes = []
    start = perf_counter()
    with rec.span("driver"):
        for (g, _), seed in zip(inputs, seeds):
            a = perf_counter()
            try:
                with rec.span("decomp.decompose"):
                    tree = decomp.decompose(g, strategy, seed)
                outcome = (tree, decomp.brick_number(tree), None)
            except Exception as exc:  # a failed op is counted, never skipped
                outcome = (None, None, f"{type(exc).__name__}: {exc}")
            rnd.op_ms.append((perf_counter() - a) * 1e3)
            outcomes.append(outcome)
    wall_s = perf_counter() - start
    rss = peak_rss_mb()

    gate = random.Random(f"{strategy}-gate:{spec['seed']}:{spec['slice']}")
    deep_check = set(gate.sample(range(len(inputs)), min(3, len(inputs))))
    for k, ((g, want), (tree, bricks, error)) in enumerate(zip(inputs, outcomes)):
        rnd.attempted += 1
        if error is None and bricks != want:
            error = f"brick number {bricks}, expected {want}"
        if error is None:
            count_tree(tree, rec)
            if k in deep_check:
                error = tree_problem(tree)
        if error is not None:
            rnd.fail(f"{formats.graph_to_json(g)}: {error}")
    return rnd.result(setup_s, wall_s, rss)


WORKLOADS = {
    "enum8": run_enum8,
    "sweep": run_sweep,
    "decomp-exh": run_decomp,
    "decomp-elp": run_decomp,
}


def main():
    spec = json.loads(sys.stdin.read())
    t0 = perf_counter()
    import tightcuts  # noqa: F401  (the import is part of set-up)

    try:
        result = WORKLOADS[spec["workload"]](spec, t0)
    except GateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    # Skip interpreter teardown: freeing a large memo takes seconds and is
    # neither measured nor needed once the result is out.
    os._exit(main())
