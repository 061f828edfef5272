"""Every module-level private name defined in `src/pplab` is read somewhere in `src/pplab`.

A private helper that nothing reads is dead code: a second copy of a rule left
behind when its callers moved to the first.  A name counts as read where it is
loaded, as a plain name or as an attribute; importing it alone does not count,
and neither does a read in the tests.
"""
from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "pplab"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(tree: ast.Module) -> set[str]:
    """The private names a module binds at its top level: functions, classes and assignment targets."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return set(filter(_private, names))


def _loaded(tree: ast.Module) -> set[str]:
    """Every name a module reads, as a name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_private_module_level_name_is_read():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SOURCE.glob("*.py"))}
    loaded = set().union(*map(_loaded, trees.values()))
    unread = sorted(f"{module}: {name}" for module, tree in trees.items() for name in _defined(tree) - loaded)
    assert not unread, unread
