"""No dead library surface: every public name in `src/moegeo` has a caller there.

A public function or class counts as used when `src/` names it (as a name or
an attribute) outside its own definition, when it is a `@command` handler, or
when `bench/plan.json` traces it. A traced definition that `src/` never names
is kept for the plan alone, so what it names gets no caller from it. A public
method or property of a class counts as used when `src/` reads it as an
attribute outside that class; dunders are exempt. A function or member that
only a test reads fails here.
"""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "moegeo"


def _is_command(node):
    return any(isinstance(dec, ast.Call) and getattr(dec.func, "id", None) == "command"
               for dec in node.decorator_list)


def _definitions(trees):
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}", node


def _outside(tree, skip):
    """Every node of `tree` outside the nodes `skip`."""
    inside = {id(n) for node in skip for n in ast.walk(node)}
    return (node for node in ast.walk(tree) if id(node) not in inside)


def _uses(tree, skip):
    """Names and attributes read anywhere in `tree` outside the nodes `skip`."""
    for node in _outside(tree, skip):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _has_caller(node, trees, skip):
    """Whether any tree names `node` outside itself and the nodes `skip`."""
    return any(node.name in set(_uses(tree, [node, *skip])) for tree in trees.values())


def _unused(trees, traced):
    """The public, untraced, non-command definitions with no caller, as module.name."""
    pinned = [node for name, node in _definitions(trees)
              if name in traced and not _has_caller(node, trees, [])]
    return [name for name, node in _definitions(trees)
            if not node.name.startswith("_") and not _is_command(node) and name not in traced
            and not _has_caller(node, trees, pinned)]


def _unread_members(trees):
    """The public methods and properties, as module.Class.name, that no attribute
    load in `trees` reads outside their own class."""
    unread = []
    for name, cls in _definitions(trees):
        if not isinstance(cls, ast.ClassDef):
            continue
        reads = {node.attr for tree in trees.values() for node in _outside(tree, [cls])
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        unread += [f"{name}.{member.name}" for member in cls.body
                   if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
                   and member.name not in reads]
    return unread


def _src_trees():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_every_public_definition_has_a_caller_in_src():
    trees = _src_trees()
    plan = json.loads((ROOT / "bench" / "plan.json").read_text())
    traced = {name for layer in plan["layers"] for name in layer["functions"]}
    assert _unused(trees, traced) == []


def test_a_plan_pin_is_no_caller():
    # `pinned` is traced and never called, so `helper`, which only it calls, is dead;
    # `shared` is also called from `entry`, which `main` calls
    trees = {"lib": ast.parse(
        "def pinned(): return helper() + shared()\n"
        "def helper(): return 1\n"
        "def shared(): return 2\n"
        "def entry(): return shared()\n"
        "def main(): return entry()\n"
        "main()\n")}
    assert _unused(trees, {"lib.pinned"}) == ["lib.helper"]
    assert _unused(trees, {"lib.pinned", "lib.helper"}) == []


def test_every_public_member_is_read_in_src_outside_its_class():
    assert _unread_members(_src_trees()) == []


def test_a_read_inside_its_own_class_is_no_read():
    # `size` is read only by its own class and `dead` is only stored to; `used` is
    # read outside, and dunders and private members are exempt
    trees = {"lib": ast.parse(
        "class A:\n"
        "    def __len__(self): return 0\n"
        "    def _helper(self): return self.size\n"
        "    @property\n"
        "    def size(self): return 1\n"
        "    def used(self): return 2\n"
        "    def dead(self): return self.used()\n"
        "A().used()\n"
        "A.dead = None\n")}
    assert _unread_members(trees) == ["lib.A.size", "lib.A.dead"]
