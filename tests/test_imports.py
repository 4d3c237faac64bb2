"""Every name a ``wsnec`` module imports is read somewhere in that module.

No linter ships with the project, so this test is its unused-import check.
The package ``__init__`` imports to re-export, and ``flow_models``
re-exports ``BoundaryError`` by design (its callers catch it there).
"""

import ast
from pathlib import Path

import pytest

import wsnec

PACKAGE = Path(wsnec.__file__).resolve().parent
RE_EXPORTS = {("flow_models.py", "BoundaryError")}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_every_import_is_read(module):
    unused = unused_imports((PACKAGE / module).read_text(encoding="utf-8"))
    assert [u for u in unused if (module, u.split()[0]) not in RE_EXPORTS] == []


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c as d, e\n\ne()\n") == [
        "os (line 1)", "d (line 2)"]
