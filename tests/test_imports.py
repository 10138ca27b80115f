"""Every module of the package reads each name it imports, and some
module of the package reads each private name a module defines.

A name that is imported but only named in a docstring, or not at all, is
a dead dependency.  ``__init__.py`` re-exports by design and ``from
__future__ import annotations`` is a compiler directive, so both are
exempt.  A private module-level name that no code of the package loads
is a dead helper, even if a test still calls it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "asmgraph"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module):
    """The names the module's imports bind."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _read(tree: ast.Module) -> set[str]:
    """The names the module's code loads."""
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def test_modules_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unread = sorted(set(_imported(tree)) - _read(tree))
    assert not unread, f"{path.name} imports {unread} but never reads them"


def _private_names(tree: ast.Module):
    """The private names (one leading underscore) the module's top level
    defines or assigns."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def test_every_private_name_is_read():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    loaded = set().union(*map(_read, trees.values()))
    loaded |= {n.attr for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    unread = sorted(
        f"{name}.{private}" for name, tree in trees.items() for private in _private_names(tree)
        if private not in loaded
    )
    assert not unread, f"no code in the package loads {unread}"
