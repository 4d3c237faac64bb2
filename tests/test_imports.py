"""Every name a ``wsnec`` module imports is read somewhere in that module,
and so is every private name it defines at module level.

No linter ships with the project, so this test is its unused-import and
dead-helper check. Only the package ``__init__`` imports to re-export. A
private name (one leading underscore) is the module's own, so one that the
module never reads is dead code. Whether a number is in float range is
decided in ``energy_core`` alone: no other module reads ``FLOAT_MAX``, and
none names ``OverflowError``. A boundary ``name op threshold`` is checked
there alone too: no other module compares through ``operator.ge`` or
``operator.gt``. And ``energy_core`` is pure, so no module drops the result
of one of its functions that returns a value: a check's caller computes with
the value the check returned.
"""

import ast
from pathlib import Path

import pytest

import wsnec

PACKAGE = Path(wsnec.__file__).resolve().parent


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
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


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


def float_range_reads(module: str, source: str) -> list[str]:
    """Each ``FLOAT_MAX`` read outside ``energy_core`` and each ``OverflowError``, as
    a name, an attribute or an imported name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name for alias in node.names]
        else:
            names = [getattr(node, "id", None) or getattr(node, "attr", None)]
        for name in names:
            if name == "OverflowError" or (name == "FLOAT_MAX" and module != "energy_core.py"):
                found.append((node.lineno, name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


@pytest.mark.parametrize("module", MODULES)
def test_float_range_is_read_only_in_energy_core(module):
    assert float_range_reads(module, (PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_check_sees_a_float_range_read():
    source = ("from .energy_core import FLOAT_MAX as M\nimport sys\n\n"
              "def f(x):\n    try:\n        return x <= energy_core.FLOAT_MAX\n"
              "    except OverflowError:\n        return sys.float_info.max\n")
    assert float_range_reads("config.py", source) == [
        "FLOAT_MAX (line 1)", "FLOAT_MAX (line 6)", "OverflowError (line 7)"]
    assert float_range_reads("energy_core.py", source) == ["OverflowError (line 7)"]


def operator_bounds(source: str) -> list[str]:
    """Each reference to ``operator.ge`` or ``operator.gt``, as an attribute of the
    imported module (under any alias) or as an imported name."""
    tree = ast.parse(source)
    aliases = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name == "operator"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "operator":
            found += [(node.lineno, alias.name) for alias in node.names if alias.name in ("ge", "gt")]
        elif (isinstance(node, ast.Attribute) and node.attr in ("ge", "gt")
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            found.append((node.lineno, node.attr))
    return [f"operator.{name} (line {line})" for line, name in sorted(found)]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "energy_core.py"])
def test_boundaries_are_compared_only_in_energy_core(module):
    assert operator_bounds((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_the_check_sees_an_operator_bound():
    source = ("import operator\nimport operator as op\nfrom operator import ge, attrgetter\n\n"
              "HOLDS = {'>=': operator.ge, '>': op.gt, '<': operator.lt}\nx.gt\n")
    assert operator_bounds(source) == [
        "operator.ge (line 3)", "operator.ge (line 5)", "operator.gt (line 5)"]


def valued_functions(source: str) -> set[str]:
    """The module-level functions of ``source`` not annotated ``-> None``."""
    return {node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)
            and not (isinstance(node.returns, ast.Constant) and node.returns.value is None)}


def dropped_results(source: str, functions: set[str]) -> list[str]:
    """Each call of one of ``functions``, by name or as an attribute, that is a bare
    expression statement, so that its result is dropped."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            func = node.value.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in functions:
                found.append(f"{name} (line {node.lineno})")
    return found


ENERGY_CORE_VALUED = valued_functions((PACKAGE / "energy_core.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("module", MODULES)
def test_no_checked_value_is_dropped(module):
    assert dropped_results((PACKAGE / module).read_text(encoding="utf-8"), ENERGY_CORE_VALUED) == []


def test_the_check_sees_a_dropped_value():
    assert {"checked", "as_float", "finite", "within", "count"} <= ENERGY_CORE_VALUED
    assert "bound" not in ENERGY_CORE_VALUED
    assert valued_functions("def f() -> None:\n    pass\n\n\ndef g():\n    return 1\n") == {"g"}
    source = ("def f(d):\n    checked('d', d)\n    bound(d > 0, 'd > 0', d)\n"
              "    energy_core.checked('d', d)\n    d = checked('d', d)\n    return [checked('d', d)]\n")
    assert dropped_results(source, ENERGY_CORE_VALUED) == ["checked (line 2)", "checked (line 4)"]
