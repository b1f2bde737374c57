"""Source hygiene: every name a src module imports is used in that module,
every private module-level name is used somewhere in src, signed
permutations come from one table, and a table built once per argument is
a ``functools.cache`` function, not a hand-rolled module-level dict.

``__init__.py`` is skipped by the import check, since its imports are the
package's re-exports, and so is ``from __future__ import annotations``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pseudodet"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = ("from __future__ import annotations\n"
              "import math\nfrom os import path, sep as s\nprint(path)\n")
    assert unused_imports(source) == [(2, "math"), (3, "s")]


def _private_defined(stmt) -> set:
    """The ``_name``s (one leading underscore) a top-level statement
    defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target])
        names = {node.id for t in targets for node in ast.walk(t)
                 if isinstance(node, ast.Name)}
    else:
        return set()
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _referenced(stmt) -> set:
    """Every name a statement reads, as a name, an attribute or an
    imported name."""
    used = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def dead_private_names(sources: list) -> list:
    """``(source index, line, name)`` of each module-level ``_name`` that no
    top-level statement of ``sources`` references, other than the one
    that defines it (so a helper that only calls itself is dead)."""
    stmts = [(i, stmt) for i, source in enumerate(sources)
             for stmt in ast.parse(source).body]
    refs = [(_private_defined(stmt), _referenced(stmt)) for _, stmt in stmts]
    return sorted((i, stmt.lineno, name) for i, stmt in stmts
                  for name in _private_defined(stmt)
                  if not any(name in used and name not in defined
                             for defined, used in refs))


def test_no_dead_private_names():
    paths = sorted(SRC.glob("*.py"))
    dead = dead_private_names([p.read_text(encoding="utf-8") for p in paths])
    assert [(paths[i].name, line, name) for i, line, name in dead] == []


def test_a_dead_private_name_is_found():
    source = ("_A = 1\n_B: int = _A\n__all__ = []\n"
              "def _f(n):\n    return _f(n - 1)\n"
              "def g():\n    return _B\n")
    assert dead_private_names([source]) == [(0, 4, "_f")]
    assert dead_private_names([source, "from m import _f\n"]) == []


#: (module, function) of each use of ``permutations`` and ``_cycles`` that
#: src may make: the one signed-permutation table, and the partial
#: bijections of a multiset product, which carry no sign
PERMUTATION_USES = {("pseudochar", "_signed_perms", "permutations"),
                    ("pseudochar", "_signed_perms", "_cycles"),
                    ("multisets", "_generate_plans", "permutations")}


def permutation_uses(source: str) -> set:
    """``(function, name)`` for each read of ``permutations`` or
    ``_cycles``, as a name or an attribute, with the innermost ``def``
    around it (None at module level)."""
    found = set()

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Name) and isinstance(child.ctx,
                                                          ast.Load):
                name = child.id
            else:
                name = getattr(child, "attr", None)
            if name in ("permutations", "_cycles"):
                found.add((func, name))
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def test_one_permutation_table():
    """Signs and cycles of permutations are computed only in
    ``pseudochar._signed_perms``, so every permutation sum reads its
    table, under its cap."""
    uses = {(p.stem, func, name) for p in MODULES
            for func, name in permutation_uses(p.read_text(encoding="utf-8"))}
    assert uses <= PERMUTATION_USES


def test_a_second_permutation_walk_is_found():
    source = ("import itertools\nfrom itertools import permutations\n"
              "def _cycles(p):\n    return [p]\n"
              "def table(n):\n"
              "    return [_cycles(p) for p in permutations(range(n))]\n"
              "def other(n):\n    return itertools.permutations(range(n))\n"
              "ALL = list(map(_cycles, [()]))\n")
    assert permutation_uses(source) == {
        ("table", "_cycles"), ("table", "permutations"),
        ("other", "permutations"), (None, "_cycles")}


#: (module, name) of each module-level dict that src may fill on first
#: use: the plan cache, bounded by ``PLAN_CACHE_MAX``, and the registry
#: that keeps one object per ring.  Any other table built once per
#: argument is a ``functools.cache`` function.
FIRST_USE_TABLES = {("multisets", "_PLANS"), ("rings", "_RINGS")}


def _is_empty_dict(node) -> bool:
    """Whether an expression is ``{}`` or ``dict()``."""
    if isinstance(node, ast.Dict):
        return not node.keys
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "dict" and not node.args
            and not node.keywords)


def first_use_tables(source: str) -> list:
    """``(line, name)`` of each module-level name bound to an empty dict,
    with or without an annotation."""
    found = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign):
            targets = [stmt.target]
        else:
            continue
        if stmt.value is not None and _is_empty_dict(stmt.value):
            found.extend((stmt.lineno, node.id) for t in targets
                         for node in ast.walk(t)
                         if isinstance(node, ast.Name))
    return sorted(found)


def test_first_use_tables_are_the_named_ones():
    found = {(p.stem, name) for p in MODULES
             for _, name in first_use_tables(p.read_text(encoding="utf-8"))}
    assert found - FIRST_USE_TABLES == set()


def test_a_first_use_table_is_found():
    source = ("_T = {}\n_U: dict = dict()\n_V = {1: 2}\n_W = dict(a=1)\n"
              "_S: dict\n"
              "def f():\n    table = {}\n    return table\n"
              "_X = _Y = {}\n")
    assert first_use_tables(source) == [
        (1, "_T"), (2, "_U"), (9, "_X"), (9, "_Y")]
