"""Shared fixtures: small ASM menageries and frozen reference data."""

from collections import Counter

import pytest

from asmgraph import HalfExpPoly, Rect, apply_rect, asm_leq, bq_definition, essential_points, validate_asm
from asmgraph.core import NonSquareError
from asmgraph.tnn import RationalMatrix
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
    state, as an oracle of the int tally's decoded terms."""
    paths = {0: Counter({0: 1})}
    for i in range(n):
        layer = {}
        for state, poly in paths.items():
            for row, nxt in steps(state):
                e, f = weigh(i, row, state)
                out = layer.setdefault(nxt, Counter())
                for t, c in poly.items():
                    out[t + e] += c * f
        paths = layer
    return paths[(1 << n) - 1]


def _minors(rows, one):
    """Yield (row mask, {column mask: minor}) for every row set: the
    all-minors oracle, by Laplace expansion over 2^n row sets.

    Bit r of a mask stands for row or column r (0-based).  Every minor
    is built from the stored minors one size smaller by Laplace
    expansion along the last row of its row set, starting from the
    empty minor ``one``; only nonzero minors are stored, so a column
    mask missing from a table is a zero minor.  Row sets come in order
    of size, so a caller may stop at the first table it rejects, and
    the last table holds the determinant.  Entries need only ``+``,
    ``-``, ``*`` and ``!=``.
    """
    n = len(rows)
    zero = one - one
    nonzero = [[(1 << c, x) for c, x in enumerate(row) if x != zero] for row in rows]
    level = {0: {0: one}}
    yield 0, level[0]
    for k in range(n):
        below, level = level, {}
        for rmask, smaller in below.items():
            for r in range(rmask.bit_length(), n):
                table = {}
                for cmask, v in smaller.items():
                    for bit, x in nonzero[r]:
                        if cmask & bit:
                            continue
                        key = cmask | bit
                        # Row r is row k of the set, and the column sits
                        # at position popcount(cmask below bit) of key.
                        if (k + (cmask & (bit - 1)).bit_count()) & 1:
                            table[key] = table.get(key, zero) - x * v
                        else:
                            table[key] = table.get(key, zero) + x * v
                table = {c: v for c, v in table.items() if v != zero}
                level[rmask | 1 << r] = table
                yield rmask | 1 << r, table


def _tnn_by_minors(rows):
    """Whether every minor of an int or Fraction matrix, of any shape,
    is >= 0: the oracle of tnn._neville."""
    return all(v >= 0 for _, table in _minors(rows, 1) for v in table.values())


def _laplace_det(rows, one):
    """The determinant as the last table of the minor kernel's
    all-row-sets pass, over any ring with unit ``one``: the oracle of
    the elimination in symbolic._det, and over HalfExpPoly of the
    Kronecker substitution in polynomials."""
    *_, (full, table) = _minors(rows, one)
    return table.get(full, one - one)


def _ring_product(n):
    """B_n(q) as the product of (1 - q^k)^(n-k) by HalfExpPoly's ring
    operations: the oracle of polynomials.bq_product on ints."""
    result = HalfExpPoly.one()
    for k in range(1, n):
        result = result * (HalfExpPoly.one() - HalfExpPoly.q_pow(k)) ** (n - k)
    return result


def _ring_recursion(n):
    """[None, B_1, ..., B_n] by the recursion B_k = B_(k-1)^2 (1 - q^(k-1))
    / B_(k-2) with HalfExpPoly's ring operations and divexact, seeded
    from the definition: the oracle of polynomials.bq_recursion on ints."""
    values = [None, bq_definition(1), bq_definition(2)]
    for k in range(3, n + 1):
        numerator = values[k - 1] * values[k - 1] * (HalfExpPoly.one() - HalfExpPoly.q_pow(k - 1))
        values.append(numerator.divexact(values[k - 2]))
    return values[: n + 1]


def _refused_by_the_constructor(f, rows, before=(), after=()):
    """Assert that f(*before, RationalMatrix(rows), *after) raises the one
    non-square error from RationalMatrix's own check: the constructor's
    frame is on the traceback and f's is not, so f never gets the rows
    and needs no square check of its own."""
    with pytest.raises(NonSquareError, match="^matrix must be square$") as info:
        f(*before, RationalMatrix(rows), *after)
    frames = [entry.name for entry in info.traceback]
    assert "__post_init__" in frames and f.__name__ not in frames


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


@pytest.fixture(scope="session")
def all_minors():
    return _minors


@pytest.fixture(scope="session")
def tnn_by_minors():
    return _tnn_by_minors


@pytest.fixture(scope="session")
def refused_by_the_constructor():
    return _refused_by_the_constructor


@pytest.fixture(scope="session")
def ring_product():
    return _ring_product


@pytest.fixture(scope="session")
def ring_recursion():
    return _ring_recursion


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
