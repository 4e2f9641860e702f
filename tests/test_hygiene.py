"""Import hygiene: every name a library module imports is used in it,
modules import only modules below them, only `matching` names its private
perfect-matching engine or networkx, the test oracles in `matching` never
name the engine, `decomp` reaches no barrier walk, grouping list or private
matching name, `elp.is_barrier_cut` walks no subsets, only `matching`
sets a graph's matching-covered memo, and every library name the benchmark
harness in `perfbench/` uses exists.

No linter ships with the project, so this walks each module's AST.  The
package `__init__` is left out of the unused-import scan, since its imports
are the public re-exports.
"""

import ast
import importlib
from pathlib import Path

import pytest

import tightcuts

SOURCES = sorted(Path(tightcuts.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
ENGINE_NAMES = {"_engine", "pm_exists"}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_flags_an_unused_name():
    src = "import os\nfrom typing import Iterable, Optional\nx: Optional[int] = os.sep\n"
    assert unused_imports(src) == [(2, "Iterable")]


# each module may import only the modules before it
LAYERS = ("errors", "graphcore", "formats", "matching", "elp", "gscut", "decomp", "corpus",
          "cli")


def package_imports(source: str) -> list:
    """(line, module) for every tightcuts module imported, at any depth of the
    file, relatively or by absolute name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            mods = [a.name.partition(".")[2] for a in node.names
                    if a.name.startswith("tightcuts.")]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0:
                if base != "tightcuts" and not base.startswith("tightcuts."):
                    continue
                base = base.partition(".")[2]
            # `from . import elp` and `from tightcuts import elp` name modules
            mods = [base] if base else [a.name for a in node.names]
        else:
            continue
        found.extend((node.lineno, mod) for mod in mods)
    return sorted(found)


def upward_imports(module: str, source: str) -> list:
    below = LAYERS[:LAYERS.index(module)]  # a module missing from LAYERS fails here
    return [(line, mod) for line, mod in package_imports(source) if mod not in below]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_modules_import_downward_only(path):
    assert upward_imports(path.stem, path.read_text(encoding="utf-8")) == []


def test_layer_scan_flags_upward_imports():
    src = ("from . import matching, decomp\n"
           "from .errors import BadSplice\n"
           "import tightcuts.corpus\n"
           "def f():\n"
           "    from .cli import main\n"
           "    from tightcuts import graphcore\n")
    assert upward_imports("gscut", src) == [(1, "decomp"), (3, "corpus"), (5, "cli")]
    assert upward_imports("errors", src) == [(1, "decomp"), (1, "matching"), (2, "errors"),
                                             (3, "corpus"), (5, "cli"), (6, "graphcore")]


def names_in(node) -> set:
    """Every name a node imports, reads or reaches as an attribute."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.alias):
            found.add(sub.name)
        elif isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def engine_names(source: str) -> list:
    """The engine names a module imports, reads or calls as an attribute."""
    return sorted(names_in(ast.parse(source)) & ENGINE_NAMES)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "matching.py"],
                         ids=lambda p: p.name)
def test_only_matching_names_the_engine(path):
    assert engine_names(path.read_text(encoding="utf-8")) == []


def test_engine_scan_flags_imports_and_attributes():
    src = "from .matching import _engine\nok = _engine(g).pm_exists(0)\n"
    assert engine_names(src) == ["_engine", "pm_exists"]


# the independent routes that cross-check the engine: none may lean on it
ORACLES = ("tutte_violator", "_perfect_matchings", "enumerate_perfect_matchings",
           "is_tight_by_enumeration")
ORACLE_BANNED = {"_engine", "_Engine", "pm_exists", "pm_memo", "is_matching_covered",
                 "_require_matching_covered"}


def oracle_engine_names(source: str) -> dict:
    """Per oracle function defined in the source, the engine names it uses."""
    return {node.name: sorted(names_in(node) & ORACLE_BANNED)
            for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and node.name in ORACLES}


def test_oracles_share_nothing_with_the_engine():
    path = next(p for p in MODULES if p.name == "matching.py")
    assert oracle_engine_names(path.read_text(encoding="utf-8")) == {
        name: [] for name in ORACLES}


def test_oracle_scan_flags_engine_names():
    src = ("def tutte_violator(g):\n"
           "    return _engine(g).pm_memo\n"
           "def is_tight(g):\n"
           "    return _engine(g)\n"
           "def is_tight_by_enumeration(g):\n"
           "    _require_matching_covered(g)\n"
           "    def walk():\n"
           "        return _Engine(g).pm_exists(0)\n"
           "    return walk()\n")
    assert oracle_engine_names(src) == {
        "tutte_violator": ["_engine", "pm_memo"],
        "is_tight_by_enumeration": ["_Engine", "_require_matching_covered", "pm_exists"]}


# decomp's elp-first rules are polynomial: no barrier subset walk, no list of
# 2-separation groupings, and no matching-covered check of its own (its
# callees raise NotMatchingCovered)
DECOMP_BANNED = {"enumerate_nontrivial_barriers", "barrier_cuts", "all_two_separation_cuts",
                 "two_separation_cuts", "_BARRIER_ENUM_LIMIT", "_require_matching_covered"}


def decomp_reach(source: str) -> dict:
    """The banned names a module uses, the names it imports from elp, and
    the private names it imports from matching."""
    tree = ast.parse(source)
    imported = {"elp": set(), "matching": set()}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("tightcuts.")
            if module in imported:
                imported[module].update(alias.name for alias in node.names)
    return {"banned": sorted(names_in(tree) & DECOMP_BANNED),
            "from_elp": sorted(imported["elp"]),
            "private_from_matching": sorted(n for n in imported["matching"] if n.startswith("_"))}


def test_decomp_reaches_only_the_polynomial_rules():
    path = next(p for p in MODULES if p.name == "decomp.py")
    assert decomp_reach(path.read_text(encoding="utf-8")) == {
        "banned": [], "from_elp": ["two_separations"], "private_from_matching": []}


def test_decomp_scan_flags_walks_and_private_names():
    # the imports decomp had while it walked barrier subsets
    src = ("from .elp import all_two_separation_cuts, barrier_cuts, two_separations\n"
           "from .matching import _require_matching_covered, barrier_classes, is_tight\n"
           "from . import elp\n"
           "def f(g):\n"
           "    return elp.enumerate_nontrivial_barriers(g), elp._BARRIER_ENUM_LIMIT\n")
    assert decomp_reach(src) == {
        "banned": ["_BARRIER_ENUM_LIMIT", "_require_matching_covered", "all_two_separation_cuts",
                   "barrier_cuts", "enumerate_nontrivial_barriers"],
        "from_elp": ["all_two_separation_cuts", "barrier_cuts", "two_separations"],
        "private_from_matching": ["_require_matching_covered"]}


# barrier-cut recognition is one component count per side against the
# class holding N(X): no subset walk
def barrier_cut_walks(source: str) -> list:
    """The subset-walk names that `is_barrier_cut`, as defined in the source, uses."""
    body = next(node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name == "is_barrier_cut")
    return sorted(names_in(body) & {"combinations"})


def test_is_barrier_cut_walks_no_subsets():
    path = next(p for p in MODULES if p.name == "elp.py")
    assert barrier_cut_walks(path.read_text(encoding="utf-8")) == []


def test_walk_scan_flags_the_subset_search():
    # the search is_barrier_cut ran before the maximal-barrier rule
    src = ("from itertools import combinations\n"
           "def is_barrier_cut(g, shore):\n"
           "    for side in sides:\n"
           "        pool = _bits(home & ~x & ~nbhd)\n"
           "        for size in range(len(pool) + 1):\n"
           "            for extra in combinations(pool, size):\n"
           "                b = nbhd | sum(extra)\n"
           "                if _odd_count(g, b) == b.bit_count():\n"
           "                    return _barrier_value(g, g.from_mask(b))\n"
           "def two_separations(g):\n"
           "    return list(combinations(g.order, 2))\n")
    assert barrier_cut_walks(src) == ["combinations"]


# a graph is marked matching covered only by `matching`: by its own check,
# or by `tight_contractions`, which hands a tight cut's contractions the flag
def covered_flag_writes(source: str) -> list:
    """Lines that pass the key "matching_covered" to `graph_memo`, or
    subscript a `_cache` with it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name != "graph_memo":
                continue
            keys = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "key"]
        elif isinstance(node, ast.Subscript):
            value = node.value
            if not (isinstance(value, ast.Attribute) and value.attr == "_cache"):
                continue
            keys = [node.slice]
        else:
            continue
        if any(isinstance(k, ast.Constant) and k.value == "matching_covered" for k in keys):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "matching.py"],
                         ids=lambda p: p.name)
def test_only_matching_sets_the_covered_flag(path):
    assert covered_flag_writes(path.read_text(encoding="utf-8")) == []


def test_covered_flag_scan():
    src = ("def split(g, cut):\n"
           "    for side in contract(g, cut.shore), contract(g, cut.complement):\n"
           "        graph_memo(side, 'matching_covered', lambda: True)\n"
           "        graphcore.graph_memo(side, key='matching_covered', compute=None)\n"
           "        side._cache['matching_covered'] = True\n"
           "    info['matching_covered'] = is_matching_covered(g)\n"
           "    return graph_memo(g, 'two_separations', list)\n")
    assert covered_flag_writes(src) == [3, 4, 5]


def names_networkx(source: str) -> bool:
    """Whether a module imports networkx or names it in code."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        if any(name.split(".")[0] == "networkx" for name in names):
            return True
    return False


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "matching.py"],
                         ids=lambda p: p.name)
def test_only_matching_names_networkx(path):
    # the blossom fallback past the subset-DP limit is the one networkx use
    assert not names_networkx(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("src,found", [
    ("import networkx as nx\n", True),
    ("from networkx.algorithms import isomorphism\n", True),
    ("def f():\n    import networkx\n", True),
    ("m = importlib.import_module('networkx')\n", True),
    ('"""Once bucketed with networkx hashes."""\nx = 1\n', False),
    ("nx = 1\n", False),
])
def test_networkx_scan(src, found):
    assert names_networkx(src) is found


PERFBENCH = sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))


def tightcuts_names(source: str) -> list:
    """(module, name) for every `from tightcuts.X import name`, and for every
    `X.name` where X came from `from tightcuts import X`."""
    tree = ast.parse(source)
    found = set()
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "tightcuts":
            modules.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tightcuts."):
            found.update((node.module.partition(".")[2], a.name) for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.add((modules[node.value.id], node.attr))
    return sorted(found)


def test_perfbench_names_resolve():
    # the benchmark reads these outside its per-op error handling, so a name
    # moved or renamed in the library fails here rather than in a worker
    names = {pair for path in PERFBENCH for pair in tightcuts_names(path.read_text(encoding="utf-8"))}
    assert len(names) >= 20  # the scan sees the harness's imports at all
    missing = [(mod, name) for mod, name in sorted(names)
               if not hasattr(importlib.import_module(f"tightcuts.{mod}"), name)]
    assert missing == []


def test_tightcuts_name_scan():
    src = ("from tightcuts.corpus import edge_splice\n"
           "def f(g):\n"
           "    from tightcuts import matching as m, elp\n"
           "    return m.odd_shores(g), elp.barrier_cuts(g), g.n, edge_splice\n")
    assert tightcuts_names(src) == [("corpus", "edge_splice"), ("elp", "barrier_cuts"),
                                    ("matching", "odd_shores")]
