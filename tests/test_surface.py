"""No dead library surface: every public top-level name in `src/moegeo` has a caller there.

A public function or class counts as used when `src/` names it (as a name or
an attribute) outside its own definition, when it is a `@command` handler, or
when `bench/plan.json` traces it. A function that only a test calls fails here.
"""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "moegeo"


def _is_command(node):
    return any(isinstance(dec, ast.Call) and getattr(dec.func, "id", None) == "command"
               for dec in node.decorator_list)


def _public_definitions(trees):
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and not _is_command(node)):
                yield module, node


def _uses(tree, skip):
    """Names and attributes read anywhere in `tree` outside the node `skip`."""
    inside = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_public_definition_has_a_caller_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    plan = json.loads((ROOT / "bench" / "plan.json").read_text())
    traced = {name for layer in plan["layers"] for name in layer["functions"]}
    unused = []
    for module, node in _public_definitions(trees):
        if f"{module}.{node.name}" in traced:
            continue
        if not any(node.name in set(_uses(tree, node if name == module else None))
                   for name, tree in trees.items()):
            unused.append(f"{module}.{node.name}")
    assert unused == []
