"""Every module of the package reads each name it imports, some module
of the package reads each private name a module defines, and each public
name a module defines is exported, read or registered.  No library path
calls HalfExpPoly's ring operations, and only exact's two readers call
as_integer_ratio().  Every name that the benchmark's traced run
wraps by string exists.

A name that is imported but only named in a docstring, or not at all, is
a dead dependency.  ``__init__.py`` re-exports by design and ``from
__future__ import annotations`` is a compiler directive, so both are
exempt.  A private module-level name that no code of the package loads
is a dead helper, even if a test still calls it.  A public one is also
dead unless ``__init__.py`` exports it or a decorator of its module
registers it, as ``verify._check`` registers each check.
"""

import ast
import importlib.util
from pathlib import Path
from random import Random

import pytest

from asmgraph import polynomials as poly, verify
from asmgraph.exact import _int_rows
from asmgraph.symbolic import HalfExpPoly
from asmgraph.tnn import random_rational_matrix

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


def _defined(tree: ast.Module):
    """(name, node) for each name the module's top level defines or
    assigns."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((n.id, node) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))


def _package():
    """Each module's tree by module name, and the names and attributes
    that some module's code loads."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.glob("*.py")}
    loaded = set().union(*map(_read, trees.values()))
    loaded |= {n.attr for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return trees, loaded


def test_every_private_name_is_read():
    trees, loaded = _package()
    unread = sorted(
        f"{module}.{name}" for module, tree in trees.items() for name, _ in _defined(tree)
        if name.startswith("_") and not name.startswith("__") and name not in loaded
    )
    assert not unread, f"no code in the package loads {unread}"


def _readers(node: ast.AST, name: str, scope: str):
    """The dotted scope (module, class, function) of each load of name
    under node, as a Name or as an attribute."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _readers(child, name, f"{scope}.{child.name}")
            continue
        if (isinstance(child, ast.Name) and child.id == name and isinstance(child.ctx, ast.Load)) or (
            isinstance(child, ast.Attribute) and child.attr == name
        ):
            yield scope
        yield from _readers(child, name, scope)


def test_only_the_constructor_and_sym_det_check_squareness():
    """A RationalMatrix is square once built, so no function that takes
    one checks it again.  Raw rows are checked by exact._read_rows, the
    reading of the constructor and of the evaluators' _pairs, and by
    sym_det, which checks its own."""
    trees, _ = _package()
    readers = {s for module, tree in trees.items() for s in _readers(tree, "_check_square", module)}
    assert readers == {"exact._read_rows", "polynomials.sym_det"}


def test_only_the_generators_build_trusted_matrices():
    """_trusted_matrix skips the RationalMatrix constructor's reading,
    so only the four generators whose rows are square tuples of
    Fractions by construction call it."""
    trees, _ = _package()
    readers = {s for module, tree in trees.items() for s in _readers(tree, "_trusted_matrix", module)}
    assert readers == {
        "tnn.random_rational_matrix", "tnn._bidiagonal_ratios", "tnn._two_block", "tnn._reweighted",
    }


def test_only_the_two_readers_take_integer_ratios():
    """Whether an entry is read by its as_integer_ratio() or through
    Fraction is decided in exact alone: _ratio reads raw rows and
    parameters, and _int_rows a RationalMatrix's Fractions."""
    trees, _ = _package()
    readers = {
        s for module, tree in trees.items() for s in _readers(tree, "as_integer_ratio", module)
    }
    assert readers == {"exact._ratio", "exact._int_rows"}


def _registered(node: ast.AST, tree: ast.Module) -> bool:
    """Whether a definition of the module is decorated by a call of a
    decorator the module defines, which registers it (verify's
    ``@_check``)."""
    own = {name for name, _ in _defined(tree)}
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id in own
        for d in getattr(node, "decorator_list", ())
    )


def test_every_public_name_is_exported_or_read():
    """A public name that the package neither exports, loads nor
    registers is reachable from tests alone: it belongs in the tests
    or in ``__init__.py``'s exports."""
    trees, loaded = _package()
    known = loaded | set(_imported(trees.pop("__init__")))
    del trees["__main__"]
    stray = sorted(
        f"{module}.{name}" for module, tree in trees.items() for name, node in _defined(tree)
        if not name.startswith("_") and name not in known and not _registered(node, tree)
    )
    assert not stray, f"neither exported nor loaded by the package: {stray}"


#: HalfExpPoly's ring operations, the tests' oracle, which no library path calls.
RING_OPERATIONS = ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "divexact")


def test_library_paths_use_no_ring_operation(monkeypatch):
    """With every ring operation of HalfExpPoly raising, B_n(q) four ways,
    the permanent, the determinants and both condensations, and the bq
    and dodgson checks of verify-all, still run: they compute on
    Kronecker ints alone, and an operation that crept back would fail
    here."""
    def refuse(name):
        def op(*args):
            raise AssertionError(f"HalfExpPoly.{name} ran on a library path")

        return op

    for name in RING_OPERATIONS:
        monkeypatch.setattr(HalfExpPoly, name, refuse(name))
    for n in range(1, 7):
        for f in (poly.bq_definition, poly.bq_product, poly.bq_qdet, poly.bq_recursion):
            assert f(n) == poly.bq_definition(n)
        poly.unsigned_permanent_q(n)
    rng, singular = Random(46), 0
    for n in range(2, 7):
        for _ in range(10):
            m = random_rational_matrix(n, rng)
            weighted = poly._q_weight_matrix(_int_rows(m.rows)[0])
            assert poly.q_dodgson_check(m).passed
            try:
                poly.dodgson(m)
                assert poly.q_dodgson_divided(m) == poly.sym_det(weighted)
            except poly.SingularInteriorError:
                singular += 1
    assert singular < 10
    for key in ("bq", "dodgson"):
        result = verify.ALL_CHECKS[key](0)
        assert result.passed, result.details


def test_every_traced_name_exists():
    """perfbench/spans.py wraps these names, given as strings, when a
    benchmark run is traced (``--trace 1``), so a rename in src/ would
    break that run alone.  The module is loaded by path and not installed."""
    path = PACKAGE.parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{layer}.{name}"
        for layer, names in spans.SPANS.items()
        for name in names
        if not hasattr(importlib.import_module(f"asmgraph.{layer}"), name)
    ]
    assert not missing, missing
    assert set(spans.HALF_EXP_POLY_OPS) <= set(vars(HalfExpPoly))
