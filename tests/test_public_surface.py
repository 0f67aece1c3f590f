"""Every public function, class and method of agstab has a caller in ``src/``.

A definition counts as called when its name is read anywhere in
``src/agstab/*.py`` outside the definition itself: a module-level name
as a name or an attribute, a method as an attribute only.  Matching is
by bare name, so a method counts as called when any attribute of that
name is read.  The names that no code in ``src/``
reaches stay only when ``JUSTIFIED`` gives the reason: the perfbench hook
that would lose its target, or the documented feature they are.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "agstab"

JUSTIFIED = {
    "bounds.breakpoint_diagnostic": "documented feature: the inverted-interval diagnostic, acceptance C9",
    "curves.evaluation_code": "perfbench hook `curves.evaluation_code`",
    "linear.LinearCode.weighted_dual": "perfbench hook `linear.weighted_dual`",
    "linear.make_code": "perfbench hook `linear.make_code`",
    "pauli.check_error": "perfbench hook `pauli.check_error`",
    "symplectic.steane_compose": "perfbench hook `symplectic.steane_compose`",
}


def _public_definitions(module: str, body: list[ast.stmt], owner: str = ""):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = f"{owner}{node.name}"
            if not node.name.startswith("_"):
                yield f"{module}.{qualname}", node
            if isinstance(node, ast.ClassDef):
                yield from _public_definitions(module, node.body, f"{qualname}.")


def _references(tree: ast.AST, skip: ast.AST) -> Counter:
    """Names, and attributes as ``.name``, read in ``tree``, not counting those inside ``skip``."""
    found: Counter = Counter()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found[f".{node.attr}"] += 1
        stack.extend(ast.iter_child_nodes(node))
    return found


def _unreferenced() -> set[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    return {
        qualname
        for module, tree in trees.items()
        for qualname, node in _public_definitions(module, tree.body)
        if not any(_read(_references(other, node), qualname, node.name) for other in trees.values())
    }


def _read(found: Counter, qualname: str, name: str) -> int:
    method = qualname.count(".") > 1
    return found[f".{name}"] + (0 if method else found[name])


def test_every_public_name_without_a_caller_in_src_is_justified():
    # an entry whose name gained a caller, or went, is dropped from the list
    assert _unreferenced() == set(JUSTIFIED)


def test_each_justification_names_a_live_hook_or_a_documented_feature():
    hooks = (ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8")
    for name, reason in JUSTIFIED.items():
        if reason.startswith("perfbench hook "):
            assert f'("{reason.split("`")[1]}", ' in hooks, name
        else:
            assert reason.startswith("documented feature: "), name


def test_the_scan_finds_a_public_name_that_nothing_calls():
    tree = ast.parse(
        "def used():\n    return used()\n\n"
        "class K:\n    def m(self):\n        return used()\n\n"
        "def f(m):\n    return m\n"
    )
    defs = dict(_public_definitions("mod", tree.body))
    assert set(defs) == {"mod.used", "mod.K", "mod.K.m", "mod.f"}
    # recursion inside its own definition is not a caller, and a method is
    # called only through an attribute, not by a local of its name
    assert _read(_references(tree, defs["mod.used"]), "mod.used", "used") == 1
    assert _read(_references(tree, defs["mod.K"]), "mod.used", "used") == 1
    assert _read(_references(tree, defs["mod.K.m"]), "mod.K.m", "m") == 0
