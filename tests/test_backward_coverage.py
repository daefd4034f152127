"""Every hand-written backward pass is checked by gradcheck.

A def named backward or *_backward in src/lanetopo, outside gradcheck.py,
must be referenced from gradcheck.py, or from the body of another backward
that is. A method counts as referenced only through its class, as
Class.method, so an unrelated call of some other object's backward does
not cover it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lanetopo"


def is_backward(name: str) -> bool:
    return name == "backward" or name.endswith("_backward")


def backward_defs(trees) -> dict[str, ast.AST]:
    """Each backward def by its key: the function name, or Class.method."""
    out = {}
    for tree in trees:
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef) and is_backward(stmt.name):
                out[stmt.name] = stmt
            elif isinstance(stmt, ast.ClassDef):
                out.update((f"{stmt.name}.{item.name}", item) for item in stmt.body
                           if isinstance(item, ast.FunctionDef) and is_backward(item.name))
    return out


def references(node) -> set[str]:
    """Plain names, module attributes (mod.f counts as f) and Class.attr
    pairs used inside node."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
            if isinstance(sub.value, ast.Name):
                out.add(f"{sub.value.id}.{sub.attr}")
    return out


def unchecked(backwards: dict[str, ast.AST], roots: set[str]) -> set[str]:
    """Keys of the backwards not reached from the root references."""
    reached, frontier = set(), set(roots)
    while frontier:
        new = (frontier & set(backwards)) - reached
        reached |= new
        frontier = set().union(*(references(backwards[k]) for k in new))
    return set(backwards) - reached


def package():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_every_backward_is_reached_from_gradcheck():
    trees = package()
    checker = trees.pop("gradcheck.py")
    backwards = backward_defs(trees.values())
    assert unchecked(backwards, references(checker)) == set()


def test_the_scan_sees_direct_and_indirect_backwards():
    trees = package()
    checker = trees.pop("gradcheck.py")
    backwards = backward_defs(trees.values())
    # reached directly, as a method, and only through other backwards
    assert {"mlp_backward", "TopologyStack.backward", "layer_norm_backward",
            "softmax_backward", "_pair_backward"} <= set(backwards)
    direct = references(checker)
    assert "TopologyStack.backward" in direct
    assert not {"layer_norm_backward", "softmax_backward", "_pair_backward"} & direct


def test_an_unreferenced_backward_is_reported():
    tree = ast.parse(
        "def a_backward(x):\n    return b_backward(x)\n\n"
        "def b_backward(x):\n    return x\n\n"
        "def c_backward(x):\n    return x\n\n"
        "class Layer:\n    def backward(self, g):\n        return g\n")
    backwards = backward_defs([tree])
    assert set(backwards) == {"a_backward", "b_backward", "c_backward", "Layer.backward"}
    assert unchecked(backwards, references(ast.parse("a_backward(1)\nother.backward(2)"))) \
        == {"c_backward", "Layer.backward"}
