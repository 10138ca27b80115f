"""The generators build their matrices without re-checking the axioms.

The ``Asm`` constructor runs the full axiom scan; enumeration, permutation
matrices and the rectangle moves produce ASMs by construction and skip
it.  Each test counts calls of ``Asm.__post_init__`` while a generator
runs, then checks every matrix it produced against the constructor.
``enumerate_permutations``, ``Permutation.inverse`` and
``asm_to_permutation`` skip the ``Permutation`` image check the same way.
A trusted ASM has the constructor's layout: three slots, no instance dict.
The samplers, the 2-block counterexamples and the q-reweightings build
each ``RationalMatrix`` once, from square tuples of Fractions, without
the constructor's reading of its rows.
"""

from fractions import Fraction
from random import Random

import pytest

from asmgraph import (
    Rect,
    apply_rect,
    asm_leq,
    beta,
    build_graph,
    corner_sum,
    covered_by,
    covering_chain,
    edges_from,
    enumerate_asms,
    iter_asms,
    permutation_to_asm,
    sfl_certificate,
)
from asmgraph.core import Asm, Permutation, asm_to_permutation
from asmgraph.enumeration import enumerate_permutations
from asmgraph.tnn import (
    RationalMatrix,
    _two_block,
    bidiagonal_product,
    counterexample_matrix,
    q_unweighted,
    q_weighted,
    random_rational_matrix,
    random_tnn,
)

A4 = enumerate_asms(4)
RECTS_4 = [
    Rect(i, j, k, l)
    for i in range(1, 4)
    for j in range(i + 1, 5)
    for k in range(1, 4)
    for l in range(k + 1, 5)
]


@pytest.fixture
def checks(monkeypatch):
    """The list of matrices the axiom check runs on."""
    calls = []
    check = Asm.__post_init__

    def counted(self):
        calls.append(self.entries)
        check(self)

    monkeypatch.setattr(Asm, "__post_init__", counted)
    return calls


def assert_trusted(checks, asms):
    assert checks == []
    for a in asms:
        assert Asm(a.entries) == a
        assert not hasattr(a, "__dict__")
        assert a._beta is None or a._beta == beta(Asm(a.entries))
        assert a._corner is None or a._corner == corner_sum(Asm(a.entries))


def test_iter_asms(checks):
    asms = list(iter_asms(5))
    assert len(asms) == 429
    assert_trusted(checks, asms)


def test_build_graph(checks):
    g = build_graph(4)
    assert_trusted(checks, g.nodes)


def test_rectangle_moves_over_a4(checks):
    out = []
    for a in A4:
        out += [e.target for e in edges_from(a)]
        out += covered_by(a)
        out += [apply_rect(a, r) for r in RECTS_4]
    assert_trusted(checks, out)


def test_certificates_and_chains_over_a4(checks):
    out = []
    for a in A4:
        for b in A4:
            if asm_leq(a, b):
                cert = sfl_certificate(a, b)
                out += [cert.source, cert.target, *covering_chain(a, b)]
    assert_trusted(checks, out)


def test_permutation_matrices(checks):
    out = [permutation_to_asm(w) for w in enumerate_permutations(5)]
    assert_trusted(checks, out)


def test_enumerate_permutations(monkeypatch):
    calls = []
    check = Permutation.__post_init__

    def counted(self):
        calls.append(self.images)
        check(self)

    monkeypatch.setattr(Permutation, "__post_init__", counted)
    perms = enumerate_permutations(5)
    inverses = [w.inverse() for w in perms]
    round_trips = [asm_to_permutation(permutation_to_asm(w)) for w in perms]
    assert calls == [] and len(set(perms)) == 120 and round_trips == perms
    for w, inv in zip(perms, inverses):
        assert [inv(w(i)) for i in range(1, 6)] == [1, 2, 3, 4, 5]
    for w in perms + inverses + round_trips:
        assert Permutation(w.images) == w and type(w.images) is tuple


def test_generated_rational_matrices(monkeypatch):
    """No generator reads its rows through the RationalMatrix
    constructor, and each matrix it makes is one the constructor would
    make: square, tuples of exact Fractions, equal to RationalMatrix(m.rows)."""
    reads = []
    read = RationalMatrix.__post_init__

    def counted(self):
        reads.append(self.rows)
        read(self)

    monkeypatch.setattr(RationalMatrix, "__post_init__", counted)
    # The 2-block matrices are memoized; a fresh memo builds them here.
    _two_block.cache_clear()
    out = [random_tnn(n, s) for n in range(9) for s in range(3)]
    out += [random_rational_matrix(n, Random(s)) for n in range(6) for s in range(3)]
    out.append(bidiagonal_product([1, 2, "1/3"], [3, 0.5, Fraction(2, 3)], [1, 4, "5/2"]))
    cells = {}
    for n in range(2, 6):
        for a in iter_asms(n):
            for c in covered_by(a):
                m, witness = counterexample_matrix(a, c)
                cells[n, witness] = m
    assert len(cells) == sum((n - 1) ** 2 for n in range(2, 6))
    out += cells.values()
    samples = [random_tnn(4, s) for s in range(3)] + list(cells.values())[:5]
    for q0 in (Fraction(1, 4), 1, 4, Fraction(9, 4)):
        out += [f(m, q0) for m in samples for f in (q_weighted, q_unweighted)]
    assert reads == []
    for m in out:
        assert type(m.rows) is tuple and all(type(row) is tuple for row in m.rows)
        assert all(len(row) == m.n for row in m.rows)
        assert all(type(x) is Fraction for row in m.rows for x in row)
        assert RationalMatrix(m.rows) == m
