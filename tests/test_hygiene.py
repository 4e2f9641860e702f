"""Import hygiene: every name a library module imports is used in it.

No linter ships with the project, so this walks each module's AST.  The
package `__init__` is left out, since its imports are the public re-exports.
"""

import ast
from pathlib import Path

import pytest

import tightcuts

MODULES = sorted(p for p in Path(tightcuts.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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
