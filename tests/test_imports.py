"""Every name a ``wsnec`` module imports is read somewhere in that module,
and so is every private name it defines at module level.

No linter ships with the project, so this test is its unused-import and
dead-helper check. The package ``__init__`` imports to re-export, and
``flow_models`` re-exports ``BoundaryError`` by design (its callers catch it
there). A private name (one leading underscore) is the module's own, so one
that the module never reads is dead code.
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


def unread_private_names(source: str) -> list[str]:
    """Module-level ``_private`` functions, classes and assigned names that
    the module never reads."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.setdefault(node.name, node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined.setdefault(name.id, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in defined.items()
            if name.startswith("_") and not name.startswith("__") and name not in read]


MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__.py"])
def test_every_import_is_read(module):
    unused = unused_imports((PACKAGE / module).read_text(encoding="utf-8"))
    assert [u for u in unused if (module, u.split()[0]) not in RE_EXPORTS] == []


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c as d, e\n\ne()\n") == [
        "os (line 1)", "d (line 2)"]


@pytest.mark.parametrize("module", MODULES)
def test_every_private_name_is_read(module):
    assert unread_private_names((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unread_private_name():
    source = ("def _a():\n    return _C\n\n\ndef _b():\n    _d = 1\n\n\n"
              "class _E:\n    pass\n\n\n_C, (_F, g) = 1, (2, 3)\n_G: int = 4\n__all__ = []\n"
              "_H = 5\ndel _H\n")
    assert unread_private_names(source) == [
        "_a (line 1)", "_b (line 5)", "_E (line 9)", "_F (line 13)", "_G (line 14)",
        "_H (line 16)"]
