"""Shared fixtures: small ASM menageries and frozen reference data."""

from collections import Counter

import pytest

from asmgraph import Rect, apply_rect, asm_leq, essential_points, validate_asm
from asmgraph.symbolic import _minors
from asmgraph.verify import A3_EDGES, A3_MATRICES, S4_SIGN_BETA

# The seven 3x3 ASMs, named by their one-line permutation where they
# have one; X is the unique proper element.
A3 = {name: validate_asm(rows) for name, rows in A3_MATRICES.items()}


def _old_covering_chain(a, b):
    """The covering-chain walk before corner-sum stepping, as an oracle.

    Each step lists the essential points of the current element, lowers
    it with apply_rect at each point in lex order and keeps the first
    result that asm_leq puts above a.  The caller ensures a <= b.  A
    lowering that returns its input raises AssertionError, so a broken
    essential-point test fails instead of looping forever.
    """
    chain = [b]
    while chain[-1] != a:
        current = chain[-1]
        for i, j in sorted(essential_points(current)):
            lower = apply_rect(current, Rect(i, i + 1, j, j + 1))
            if lower == current:
                raise AssertionError(f"apply_rect left {current.entries} at {(i, j)}")
            if asm_leq(a, lower):
                chain.append(lower)
                break
        else:
            raise AssertionError("no covering step stays above a")
    return chain[::-1]


def _counter_tally(n, steps, weigh):
    """The column-state tally as it was first written, one Counter per
    state, as an oracle of the plain-dict tally's values and term order."""
    paths = {(0,) * n: Counter({0: 1})}
    for i in range(n):
        layer = {}
        for state, poly in paths.items():
            for row, nxt in steps(state):
                e, f = weigh(i, row, state)
                out = layer.setdefault(nxt, Counter())
                for t, c in poly.items():
                    out[t + e] += c * f
        paths = layer
    return paths[(1,) * n]


def _laplace_det(rows, one):
    """The determinant as the last table of the minor kernel's
    all-row-sets pass, over any ring with unit ``one``: the oracle of
    the elimination in symbolic._det, and over HalfExpPoly of the
    Kronecker substitution in polynomials."""
    *_, (full, table) = _minors(rows, one)
    return table.get(full, one - one)


@pytest.fixture
def a3():
    return A3


@pytest.fixture
def a3_edges():
    return A3_EDGES


@pytest.fixture
def s4_sign_beta():
    return S4_SIGN_BETA


@pytest.fixture(scope="session")
def old_covering_chain():
    return _old_covering_chain


@pytest.fixture(scope="session")
def counter_tally():
    return _counter_tally


@pytest.fixture(scope="session")
def laplace_det():
    return _laplace_det


@pytest.fixture
def worked_5x5():
    """A < B < C, a covering chain of proper 5x5 ASMs."""
    a = validate_asm(
        [[0, 1, 0, 0, 0], [1, -1, 1, 0, 0], [0, 1, -1, 0, 1], [0, 0, 0, 1, 0], [0, 0, 1, 0, 0]]
    )
    b = validate_asm(
        [[0, 1, 0, 0, 0], [1, -1, 1, 0, 0], [0, 0, 0, 0, 1], [0, 1, -1, 1, 0], [0, 0, 1, 0, 0]]
    )
    c = validate_asm(
        [[0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [1, -1, 0, 0, 1], [0, 1, -1, 1, 0], [0, 0, 1, 0, 0]]
    )
    return a, b, c
