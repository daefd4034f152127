"""Every function and class of the package has a caller.

A module-level def or class in src/lanetopo must be referenced, as a name
or an attribute, from another module of the package or from the rest of
its own module. A public one may instead be referenced from
tests/test_acceptance.py; a private (underscored) one has no caller
outside the package, so no test counts for it. Re-exporting a name from
lanetopo/__init__.py is not a use, nor is importing it without using it.
Every name a module other than __init__.py imports is read in that module.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lanetopo"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"


def defined_name(stmt):
    """The name a module-level def or class statement binds, else None."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return stmt.name
    return None


def references(tree) -> set[str]:
    """Names and attribute names used in tree, each statement's own name
    left out of the references inside it (recursion is not a use)."""
    out = set()
    for stmt in tree.body:
        used = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
        used |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
        out |= used - {defined_name(stmt)}
    return out


def modules():
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


def unreferenced(trees, used, private: bool) -> list[str]:
    """module.name of each public (or private) definition in trees that is
    not among the used names."""
    return [f"{module}.{name}" for module, tree in trees.items() for stmt in tree.body
            if (name := defined_name(stmt)) and name.startswith("_") == private
            and name not in used]


def test_every_public_definition_is_referenced():
    trees = modules()
    used = references(ast.parse(ACCEPTANCE.read_text()))
    for tree in trees.values():
        used |= references(tree)
    assert unreferenced(trees, used, private=False) == []


def test_every_private_definition_is_referenced_by_the_package():
    trees = modules()
    used = set().union(*map(references, trees.values()))
    assert unreferenced(trees, used, private=True) == []


def test_the_scan_sees_the_package():
    trees = modules()
    assert {"cli", "geometry", "metrics", "scene", "connect"} <= set(trees)
    assert "evaluate" in references(trees["cli"])
    # a definition's own body does not count as its use
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\ndef g():\n    return h.f\n")
    assert references(tree) == {"n", "h", "f"}
    assert "f" not in references(ast.parse("def f(n):\n    return f(n - 1)\n"))


def unused_imports(tree) -> list[str]:
    """Each name an import in tree binds that no name in tree reads, in
    order; a __future__ import binds nothing."""
    bound = [(alias.asname or alias.name).split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             or isinstance(node, ast.ImportFrom) and node.module != "__future__"
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_every_imported_name_is_used_in_its_module():
    tree = ast.parse("from __future__ import annotations\nimport a.b\nimport c\n"
                     "from d import e as f, g\nc.x(g)\n")
    assert unused_imports(tree) == ["a", "f"]
    unused = [f"{module}.{name}" for module, tree in modules().items()
              for name in unused_imports(tree)]
    assert unused == []
