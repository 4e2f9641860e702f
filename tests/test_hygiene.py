"""Import hygiene: every name a library module imports is used in it, only
`matching` names its private perfect-matching engine or networkx, and every
library name the benchmark harness in `perfbench/` uses exists.

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


def engine_names(source: str) -> list:
    """The engine names a module imports, reads or calls as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return sorted(found & ENGINE_NAMES)


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "matching.py"],
                         ids=lambda p: p.name)
def test_only_matching_names_the_engine(path):
    assert engine_names(path.read_text(encoding="utf-8")) == []


def test_engine_scan_flags_imports_and_attributes():
    src = "from .matching import _engine\nok = _engine(g).pm_exists(0)\n"
    assert engine_names(src) == ["_engine", "pm_exists"]


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
