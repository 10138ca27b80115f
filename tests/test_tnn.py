"""Tests for exact total nonnegativity and the order separation."""

import itertools
import pickle
import random
from dataclasses import fields
from fractions import Fraction
from math import comb, nan
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asmgraph import (
    AsmError,
    ComparableError,
    DEFAULT_Q_GRID,
    HalfExpPoly,
    IrrationalSqrtError,
    UndefinedEvaluationError,
    asm_leq,
    bidiagonal_product,
    counterexample_matrix,
    covered_by,
    dodgson,
    enumerate_asms,
    evaluate_difference,
    identity_asm,
    is_locally_tnn_at,
    is_tnn,
    iter_asms,
    q_dodgson_check,
    q_weighted,
    qtnn_scan,
    random_tnn,
    rational_matrix,
    reverse_asm,
    sym_det,
    validate_asm,
)
from asmgraph.core import NonSquareError, corner_sum
from asmgraph.lattice import SizeMismatchError
from asmgraph.symbolic import _int_rows
from asmgraph.tnn import (
    RationalMatrix,
    _neville,
    _two_block,
    det,
    q_unweighted,
    random_rational_matrix,
    rational_sqrt,
)

F = Fraction

#: Rows of two matrices that are not square: a short row, and 2x3.
_non_square = pytest.mark.parametrize(
    "rows", [((1, 2), (1,)), ((1, 2, 3), (1, 2, 3))], ids=["short-row", "2x3"]
)


def _every_minor_positive(all_minors, m):
    """Whether every minor of m is > 0 by the all-minors oracle.  Its
    tables leave zero minors out, so each row set's table must also
    hold all column sets of its size."""
    return all(
        len(table) == comb(m.n, rmask.bit_count()) and all(v > 0 for v in table.values())
        for rmask, table in all_minors(m.rows, 1)
    )


class _FractionSubclass(Fraction):
    """A Fraction subclass, which rational_matrix converts to Fraction."""


class TestRationalMatrix:
    def test_construction(self):
        m = rational_matrix([[1, "1/2"], [F(3), 0]])
        assert m.n == 2
        assert m.entry(1, 2) == F(1, 2)
        assert str(m) == "1 1/2\n3 0"

    def test_non_square(self):
        with pytest.raises(AsmError):
            rational_matrix([[1, 2], [3]])

    def test_fraction_entries_are_kept(self):
        x, y = F(3, 4), F(-5)
        m = rational_matrix([[x, y], [y, x]])
        assert m.rows[0][0] is x and m.rows[0][1] is y and m.rows[1][1] is x

    @pytest.mark.parametrize(
        "x", [7, "-7/3", 0.375, True, _FractionSubclass(2, 3)],
        ids=["int", "str", "float", "bool", "Fraction subclass"],
    )
    def test_other_entries_become_fractions(self, x):
        ((y,),) = rational_matrix([[x]]).rows
        assert type(y) is Fraction and y == Fraction(x)

    def test_ragged_fraction_rows(self):
        with pytest.raises(AsmError, match="^matrix must be square$"):
            rational_matrix([[F(1), F(2)], [F(3)]])

    @pytest.mark.parametrize(
        "rows",
        [[[1, 2, 3], [4, 5, 6]], [[1, 2]], [[1], [2]], [[1, 2], [3]], [[1], [2, 3]]],
        ids=["wide", "one-row", "one-column", "short-row", "long-row"],
    )
    @pytest.mark.parametrize(
        "call",
        [
            rational_matrix,
            RationalMatrix,
            det,
            lambda rows: sym_det([[HalfExpPoly.const(x) for x in row] for row in rows]),
        ],
        ids=["rational_matrix", "RationalMatrix", "det", "sym_det"],
    )
    def test_one_error_class_for_non_square(self, call, rows):
        with pytest.raises(NonSquareError, match="^matrix must be square$"):
            call([list(map(F, row)) for row in rows])

    def test_list_rows_build_the_tuple_matrix(self):
        """Rows given as lists are kept as tuples: the matrix equals,
        hashes and pickles like the one built from tuples."""
        rows = ((F(1), F(1, 2)), (F(3), F(0)))
        listed = RationalMatrix([list(row) for row in rows])
        assert type(listed.rows) is tuple and all(type(row) is tuple for row in listed.rows)
        assert listed == RationalMatrix(rows)
        assert hash(listed) == hash(RationalMatrix(rows))
        assert pickle.loads(pickle.dumps(listed)) == RationalMatrix(rows)

    def test_every_entry_becomes_a_fraction(self):
        """The constructor converts as rational_matrix does: an entry
        that is a Fraction is kept, and an int becomes a Fraction."""
        rows = ((1, F(2)), (F(3), 4))
        m = RationalMatrix(rows)
        assert m.rows[0][1] is rows[0][1] and m.rows[1][0] is rows[1][0]
        assert all(type(x) is Fraction for row in m.rows for x in row)
        assert type(m.entry(1, 1)) is Fraction and m == rational_matrix(rows)

    def test_unconverted_entries_read_as_converted(self):
        """A float given to the constructor reads as its exact value in
        is_tnn, dodgson, the q-condensation and evaluate_difference, as
        in rational_matrix: the constructor has made it that Fraction."""
        rows = ((0.5, 1), (1, 1))
        a, b = identity_asm(2), reverse_asm(2)
        for f in (is_tnn, dodgson, q_dodgson_check, lambda m: evaluate_difference(a, b, m)):
            assert f(RationalMatrix(rows)) == f(rational_matrix(rows))

    @pytest.mark.parametrize("x", [None, "x", nan], ids=["None", "str", "nan"])
    def test_malformed_entries_raise_as_in_evaluate_difference(self, x):
        """An entry that Fraction rejects raises its TypeError or
        ValueError when the matrix is built, one class on every path to
        a consumer, and never an AttributeError."""
        rows = ((x, 1), (1, 1))
        with pytest.raises((TypeError, ValueError)) as first:
            evaluate_difference(identity_asm(2), reverse_asm(2), RationalMatrix(rows))
        for f in (is_tnn, dodgson, q_dodgson_check):
            with pytest.raises(first.type):
                f(RationalMatrix(rows))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_converting_every_entry(self, data):
        """Against the conversion of every entry by Fraction(x)."""
        n = data.draw(st.integers(min_value=0, max_value=4))
        entry = st.one_of(
            st.fractions(),
            st.integers(),
            st.booleans(),
            st.fractions().map(str),
            st.floats(allow_nan=False, allow_infinity=False),
            st.fractions().map(lambda x: _FractionSubclass(x.numerator, x.denominator)),
        )
        rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        got = rational_matrix(rows).rows
        assert got == tuple(tuple(Fraction(x) for x in row) for row in rows)
        assert all(type(x) is Fraction for row in got for x in row)

    def test_entry_outside_1_to_n(self):
        m = rational_matrix([[1, 2], [3, 4]])
        assert (m.entry(1, 1), m.entry(2, 1)) == (1, 3)
        for i, j in [(0, 1), (1, 0), (-1, 1), (3, 1), (1, 3)]:
            with pytest.raises(IndexError, match=r"^index -?\d is outside 1\.\.2$"):
                m.entry(i, j)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: counterexample_matrix(reverse_asm(3), identity_asm(3))[0],
            lambda: q_weighted(rational_matrix([[1, 2], [3, 4]]), F(9, 4)),
            lambda: q_unweighted(rational_matrix([[1, 2], [3, 4]]), F(9, 4)),
            lambda: random_rational_matrix(3, random.Random(0)),
            lambda: random_tnn(4, seed=3),
            lambda: bidiagonal_product([1, 2], [3], ["1/3"]),
        ],
        ids=[
            "counterexample_matrix", "q_weighted", "q_unweighted",
            "random_rational_matrix", "random_tnn", "bidiagonal_product",
        ],
    )
    def test_built_matrices_are_exact(self, build):
        # These matrices skip the constructor's reading; an int entry or a
        # list row would still pass str, JSON and is_tnn, so the types are checked.
        m = build()
        assert type(m.rows) is tuple and all(type(row) is tuple for row in m.rows)
        assert all(type(x) is Fraction for row in m.rows for x in row)


class TestRowsAreReadOnce:
    """The constructor reads each row and entry once, so no consumer
    sees a str row, a float or a str entry."""

    @pytest.mark.parametrize(
        "call, rows, message",
        [
            (rational_matrix, ["12", "34"], r"row 1 '12'"),
            (RationalMatrix, "a", r"matrix 'a'"),
            (RationalMatrix, b"ab", r"matrix b'ab'"),
            (RationalMatrix, [b"12", b"34"], r"row 1 b'12'"),
            (RationalMatrix, [[1, 2], "34"], r"row 2 '34'"),
            (det, ["12", "34"], r"row 1 '12'"),
        ],
        ids=["rational_matrix", "str-matrix", "bytes-matrix", "bytes-rows", "second-row", "det"],
    )
    def test_string_rows_are_not_lists_of_digits(self, call, rows, message):
        with pytest.raises(AsmError, match=f"^{message} is not a sequence$"):
            call(rows)

    def test_string_rows_raise_as_in_asm(self):
        with pytest.raises(AsmError) as asm:
            validate_asm(["10", "01"])
        with pytest.raises(AsmError) as matrix:
            RationalMatrix(["10", "01"])
        assert str(matrix.value) == str(asm.value) == "row 1 '10' is not a sequence"

    def test_q_reweighting_of_a_float_entry(self):
        m = RationalMatrix(((1, 0.1), (0.1, 1)))
        exact = RationalMatrix(((1, F(0.1)), (F(0.1), 1)))
        q0 = F(9, 4)
        for f in (q_weighted, q_unweighted):
            got = f(m, q0)
            assert all(type(x) is Fraction for row in got.rows for x in row)
            assert got.rows == f(exact, q0).rows
        assert got.entry(1, 2) == F(0.1) * F(2, 3)
        assert is_locally_tnn_at(m, q0) is is_locally_tnn_at(exact, q0) is True

    def test_dodgson_of_one_entry_is_a_fraction(self):
        d = dodgson(RationalMatrix(((0.5,),)))
        assert type(d) is Fraction and d == F(1, 2)

    def test_str_entry_is_its_fraction(self):
        m = RationalMatrix((("1/2", 1), (1, 1)))
        exact = RationalMatrix(((F(1, 2), F(1)), (F(1), F(1))))
        assert m == exact and hash(m) == hash(exact)
        assert type(m.entry(1, 1)) is Fraction
        assert str(m).startswith("1/2 1")


class TestDet:
    def test_fixtures(self):
        assert det([]) == 1
        assert det([[F(5)]]) == 5
        assert det([[F(1), F(2)], [F(3), F(4)]]) == -2
        assert det([[F(1), F(2)], [F(2), F(4)]]) == 0
        assert det([[F(2), F(0), F(1)], [F(1), F(1), F(0)], [F(0), F(3), F(1)]]) == 5
        assert det([[F(0), F(1)], [F(1), F(0)]]) == -1

    def test_exact_fractions(self):
        assert det([[F(1, 2), F(1, 3)], [F(1, 4), F(1, 5)]]) == F(1, 10) - F(1, 12)

    @pytest.mark.parametrize(
        "rows",
        [[[1, 2, 3], [4, 5, 6]], [[1, 2]], [[1], [2]], [[1, 2], [3]], [[1], [2, 3]]],
        ids=["wide", "one-row", "one-column", "short-row", "long-row"],
    )
    def test_non_square(self, rows):
        with pytest.raises(AsmError, match="matrix must be square"):
            det(rows)


class TestIsTnn:
    def test_fixtures(self):
        assert is_tnn(rational_matrix([[1, 1], [1, 1]]))
        assert is_tnn(rational_matrix([[1, 2], [1, 3]]))
        assert not is_tnn(rational_matrix([[0, 1], [1, 0]]))
        assert not is_tnn(rational_matrix([[1, 3], [2, 1]]))
        assert is_tnn(rational_matrix([[1, 1, 1], [1, 2, 2], [1, 2, 3]]))

    @_non_square
    def test_non_square(self, rows):
        """No non-square matrix reaches is_tnn: it cannot be built."""
        with pytest.raises(AsmError, match="^matrix must be square$"):
            RationalMatrix(rows)


class TestRationalSqrt:
    def test_values(self):
        assert rational_sqrt(F(9, 4)) == F(3, 2)
        assert rational_sqrt(4) == 2
        assert rational_sqrt(0) == 0
        assert rational_sqrt(F(1, 16)) == F(1, 4)

    def test_errors(self):
        with pytest.raises(IrrationalSqrtError):
            rational_sqrt(2)
        with pytest.raises(IrrationalSqrtError):
            rational_sqrt(F(1, 2))
        with pytest.raises(IrrationalSqrtError, match="negative"):
            rational_sqrt(-4)


class TestQWeighting:
    def test_entry_formula(self):
        m = rational_matrix([[1, 1], [1, 1]])
        w = q_weighted(m, 4)  # sqrt = 2, so off-diagonal entries double
        assert w.rows == ((F(1), F(2)), (F(2), F(1)))

    def test_zero_q0_is_rejected(self):
        """As by q_unweighted: at q0 = 0 the weighting would keep only the
        diagonal, and a matrix that is not TNN would pass as locally TNN."""
        m = rational_matrix([[1, 2], [3, 4]])
        for f in (q_weighted, q_unweighted, is_locally_tnn_at):
            with pytest.raises(AsmError, match="^q0 must be positive$"):
                f(m, 0)

    @pytest.mark.parametrize("q0", [F(1, 4), F(1), F(4), F(9, 16)])
    def test_round_trip(self, q0):
        m = random_tnn(3, seed=2)
        assert q_unweighted(q_weighted(m, q0), q0) == m

    @_non_square
    @pytest.mark.parametrize("f", [q_weighted, q_unweighted, is_locally_tnn_at], ids=attrgetter("__name__"))
    def test_non_square(self, f, rows, refused_by_the_constructor):
        """The weights are zipped against the n x n gaps, so a 2x3 matrix
        would be cut to 2x2 and short rows would stay short; the
        constructor refuses both before f is called."""
        refused_by_the_constructor(f, rows, after=(4,))

    def test_errors(self):
        m = rational_matrix([[1]])
        with pytest.raises(IrrationalSqrtError):
            q_weighted(m, 2)
        with pytest.raises(AsmError, match="positive"):
            q_unweighted(m, 0)

    def test_locally_tnn(self):
        weighted = random_tnn(3, seed=5)
        local = q_unweighted(weighted, F(1, 4))
        assert is_locally_tnn_at(local, F(1, 4))
        assert not is_locally_tnn_at(rational_matrix([[0, 1], [1, 0]]), 1)

    def test_counterexample_is_its_own_unweighting_weighted(self):
        """The qTNN lemma of the tnn docstring, at every witness cell of
        the incomparable pairs for n <= 4 and a fixed stride of n = 5."""
        witnesses = {}
        for n in range(2, 6):
            asms = enumerate_asms(n)
            pairs = [(a, b) for a in asms for b in asms]
            for a, b in pairs[:: 101 if n == 5 else 1]:
                if not asm_leq(a, b):
                    witnesses.setdefault((n, counterexample_matrix(a, b)[1]), (a, b))
        # Every cell (k, l) with k, l < n is the witness of some pair.
        assert len(witnesses) == 1 + 4 + 9 + 16
        for a, b in witnesses.values():
            cm, _ = counterexample_matrix(a, b)
            for q in DEFAULT_Q_GRID:
                local = q_unweighted(cm, q)
                assert q_weighted(local, q) == cm
                assert is_locally_tnn_at(local, q)
                assert evaluate_difference(a, b, q_weighted(local, q)) < 0


class TestBidiagonal:
    def test_identity(self):
        n = 3
        count = n * (n - 1) // 2
        m = bidiagonal_product([1] * n, [0] * count, [0] * count)
        assert m == rational_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_2x2_closed_form(self):
        # L D U = [[d1, d1 u], [d1 t, d1 t u + d2]].
        m = bidiagonal_product([1, 1], [2], [3])
        assert m == rational_matrix([[1, 3], [2, 7]])
        m = bidiagonal_product([F(1, 2), F(3)], [F(1)], [F(2)])
        assert m == rational_matrix([[F(1, 2), F(1)], [F(1, 2), F(4)]])

    def test_param_count(self):
        with pytest.raises(AsmError, match="parameters"):
            bidiagonal_product([1, 1, 1], [1], [1, 1, 1])

    def test_total_positivity(self, all_minors):
        m = bidiagonal_product([1, 2, 1], [1, 1, 2], [3, 1, 1])
        assert _every_minor_positive(all_minors, m)


class TestRandomTnn:
    def test_deterministic(self):
        assert random_tnn(4, seed=7) == random_tnn(4, seed=7)
        assert random_tnn(4, seed=7) != random_tnn(4, seed=8)

    def test_size_zero_and_negative(self):
        """n = 0 is the empty matrix; a negative n is rejected by name
        before any draw, not read as a shorter parameter list."""
        assert random_tnn(0, seed=5).rows == ()
        for n in (-1, -3):
            with pytest.raises(ValueError, match=f"n={n}"):
                random_tnn(n, seed=0)

    @pytest.mark.parametrize("seed", range(100))
    def test_always_totally_positive(self, all_minors, seed):
        m = random_tnn(4, seed=seed)
        assert all(x > 0 for row in m.rows for x in row)
        assert _every_minor_positive(all_minors, m)


class TestEvaluateDifference:
    def test_2x2_is_determinant(self):
        a, b = identity_asm(2), reverse_asm(2)
        for seed in range(5):
            m = random_tnn(2, seed=seed)
            assert evaluate_difference(a, b, m) == det(m.rows)

    def test_nonnegative_on_tnn_when_comparable(self):
        pairs = [
            (a, b)
            for a in enumerate_asms(3)
            for b in enumerate_asms(3)
            if asm_leq(a, b)
        ]
        for seed in range(10):
            m = random_tnn(3, seed=seed)
            for a, b in pairs:
                assert evaluate_difference(a, b, m) >= 0

    def test_undefined_at_zero(self, a3):
        m = rational_matrix([[1, 1, 1], [1, 0, 1], [1, 1, 1]])
        with pytest.raises(UndefinedEvaluationError) as exc:
            evaluate_difference(a3["X"], a3["321"], m)
        assert exc.value.position == (2, 2)

    @_non_square
    def test_non_square(self, rows, refused_by_the_constructor):
        """Two rows match the 2x2 ASMs' size, yet the matrix is not 2x2:
        the 2x3 one would give 0 and the short row an IndexError; the
        constructor refuses both before evaluate_difference is called."""
        refused_by_the_constructor(evaluate_difference, rows, before=(identity_asm(2),) * 2)

    def test_size_mismatch(self, a3):
        with pytest.raises(SizeMismatchError):
            evaluate_difference(a3["X"], a3["321"], rational_matrix([[1, 1], [1, 1]]))
        with pytest.raises(SizeMismatchError):
            evaluate_difference(identity_asm(2), a3["X"], random_tnn(2, seed=0))


class TestCounterexample:
    def test_reverse_vs_identity(self):
        m, witness = counterexample_matrix(reverse_asm(4), identity_asm(4))
        assert witness == (1, 1)
        assert m.entry(1, 1) == 2
        assert all(
            m.entry(i, j) == (2 if (i, j) == (1, 1) else 1)
            for i in range(1, 5)
            for j in range(1, 5)
        )
        assert is_tnn(m)
        assert evaluate_difference(reverse_asm(4), identity_asm(4), m) == -1

    def test_231_vs_312(self, a3):
        m, witness = counterexample_matrix(a3["231"], a3["312"])
        assert witness == (2, 1)
        assert evaluate_difference(a3["231"], a3["312"], m) < 0

    def test_block_minors(self, all_minors):
        """Every minor is 0, 1 or 2; the tables leave the zeros out and
        hold the empty minor 1."""
        m, _ = counterexample_matrix(reverse_asm(3), identity_asm(3))
        assert {v for _, table in all_minors(m.rows, 1) for v in table.values()} <= {1, 2}

    def test_comparable_raises(self, a3):
        with pytest.raises(ComparableError):
            counterexample_matrix(a3["123"], a3["321"])
        with pytest.raises(ComparableError):
            counterexample_matrix(a3["X"], a3["X"])

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            counterexample_matrix(identity_asm(2), identity_asm(3))

    def test_all_incomparable_pairs_n3(self):
        asms = enumerate_asms(3)
        hit = 0
        for a in asms:
            for b in asms:
                if asm_leq(a, b):
                    continue
                m, _ = counterexample_matrix(a, b)
                assert is_tnn(m)
                assert evaluate_difference(a, b, m) < 0
                hit += 1
        assert hit > 0

    def test_sampled_incomparable_pairs_n4(self):
        asms = enumerate_asms(4)
        for a in asms[::5]:
            for b in asms[::6]:
                if asm_leq(a, b):
                    continue
                m, _ = counterexample_matrix(a, b)
                assert is_tnn(m)
                assert evaluate_difference(a, b, m) < 0


def _old_leq(a, b):
    """asm_leq before the shared scan: every corner sum of a is >= b's."""
    ca, cb = corner_sum(a), corner_sum(b)
    return all(
        ca.entries[i][j] >= cb.entries[i][j] for i in range(a.n) for j in range(a.n)
    )


def _old_witness(a, b):
    """counterexample_matrix's former rescan for its witness cell."""
    ca, cb = corner_sum(a), corner_sum(b)
    for i in range(1, a.n + 1):
        for j in range(1, a.n + 1):
            if ca.value(i, j) < cb.value(i, j):
                return i, j
    return None


def _check_one_scan(a, b):
    """asm_leq and counterexample_matrix agree with the old scans."""
    leq = _old_leq(a, b)
    assert asm_leq(a, b) == leq
    if leq:
        with pytest.raises(ComparableError):
            counterexample_matrix(a, b)
        return
    m, witness = counterexample_matrix(a, b)
    assert witness == _old_witness(a, b)
    k, l = witness
    assert m.rows == tuple(
        tuple(F(2) if i <= k and j <= l else F(1) for j in range(1, a.n + 1))
        for i in range(1, a.n + 1)
    )


ASMS5 = enumerate_asms(5)


class TestOneScanAgainstOldScans:
    def test_all_ordered_a4_pairs(self):
        asms = enumerate_asms(4)
        for a in asms:
            for b in asms:
                _check_one_scan(a, b)
        assert len(asms) ** 2 == 1764

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(ASMS5), st.sampled_from(ASMS5))
    def test_a5_pairs(self, a, b):
        _check_one_scan(a, b)


class TestQtnnScan:
    def test_comparable_clean(self, a3):
        report = qtnn_scan(a3["123"], a3["X"], samples=6, seed=3)
        assert report.comparable
        assert not report.has_violations
        assert len(report.results) == len(DEFAULT_Q_GRID)
        assert all(r.samples == 6 for r in report.results)

    def test_incomparable_always_violated(self, a3):
        report = qtnn_scan(a3["231"], a3["312"], samples=4, seed=1)
        assert not report.comparable
        assert report.has_violations
        for r in report.results:
            assert r.samples == 5  # the counterexample is prepended
            assert r.violations
            idx, value = r.violations[0]
            assert idx == 0 and value < 0

    def test_negative_samples_raise(self, a3):
        # A negative count would also drop the prepended counterexample.
        with pytest.raises(AsmError, match="nonnegative"):
            qtnn_scan(a3["231"], a3["312"], samples=-1)

    def test_no_samples_keep_the_counterexample(self, a3):
        report = qtnn_scan(a3["231"], a3["312"], samples=0)
        assert report.has_violations
        assert all(r.samples == 1 for r in report.results)

    def test_deterministic(self, a3):
        r1 = qtnn_scan(a3["231"], a3["312"], samples=3, seed=9)
        r2 = qtnn_scan(a3["231"], a3["312"], samples=3, seed=9)
        assert r1 == r2

    def test_custom_grid(self, a3):
        report = qtnn_scan(
            a3["123"], a3["321"], q_grid=[F(9, 4)], samples=3, seed=0
        )
        assert len(report.results) == 1
        assert report.results[0].q0 == F(9, 4)
        assert not report.has_violations

    @pytest.mark.parametrize("samples", [0, 1], ids=["samples0", "samples1"])
    @pytest.mark.parametrize(
        "q0, error, message",
        [
            (2, IrrationalSqrtError, "not a perfect rational square"),
            (-1, IrrationalSqrtError, "is negative"),
            (0, AsmError, "q0 must be positive"),
        ],
        ids=["q0=2", "q0=-1", "q0=0"],
    )
    def test_irrational_grid_point(self, a3, q0, error, message, samples):
        # A grid point is checked even when it draws no sample.
        with pytest.raises(error, match=message):
            qtnn_scan(a3["123"], a3["321"], q_grid=[q0], samples=samples, seed=0)


def _entries(nonnegative):
    low = 0 if nonnegative else -4
    return st.one_of(
        st.just(F(0)), st.fractions(min_value=low, max_value=6, max_denominator=5)
    )


@st.composite
def _rational_matrices(draw):
    """Square rational matrices, n <= 5, with zeros and denominators.

    Half of them are nonnegative, so their verdicts turn on minors of
    size 2 or more, not on a negative entry."""
    n = draw(st.integers(min_value=1, max_value=5))
    entries = _entries(draw(st.booleans()))
    row = st.lists(entries, min_size=n, max_size=n)
    return rational_matrix(draw(st.lists(row, min_size=n, max_size=n)))


@st.composite
def _near_tnn_matrices(draw):
    """Bidiagonal products with some zero parameters, so TNN but not
    always totally positive, some with one entry nudged, which may leave
    total nonnegativity by a little."""
    n = draw(st.integers(min_value=1, max_value=5))
    count = n * (n - 1) // 2
    positive = st.fractions(min_value=F(1, 9), max_value=9, max_denominator=9)
    params = st.lists(st.one_of(st.just(F(0)), positive), min_size=count, max_size=count)
    m = bidiagonal_product(
        draw(st.lists(positive, min_size=n, max_size=n)), draw(params), draw(params)
    )
    rows = [list(r) for r in m.rows]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i][j] += draw(st.fractions(min_value=-1, max_value=1, max_denominator=8))
    return rational_matrix(rows)


class TestIsTnnAgainstAllMinors:
    """is_tnn against the reference: every minor by the Laplace oracle."""

    @settings(max_examples=100, deadline=None)
    @given(_rational_matrices())
    def test_rational_matrices(self, tnn_by_minors, m):
        assert is_tnn(m) == tnn_by_minors(m.rows)

    @settings(max_examples=150, deadline=None)
    @given(_near_tnn_matrices())
    def test_near_tnn_matrices(self, tnn_by_minors, m):
        assert is_tnn(m) == tnn_by_minors(m.rows)

    def test_every_a4_counterexample(self, tnn_by_minors):
        asms = enumerate_asms(4)
        matrices = {
            counterexample_matrix(a, b)[0]
            for a in asms
            for b in asms
            if not asm_leq(a, b)
        }
        for m in matrices:
            verdict = is_tnn(m)
            assert verdict == tnn_by_minors(m.rows)
            assert verdict


@st.composite
def _neville_rows(draw):
    """Int or Fraction rows for _neville, up to 8 x 8 and of any shape:
    a bidiagonal product with small parameters, many of them 0, so TNN
    and often singular, cut to a rectangle, and then, each about half
    the time, given a zero row, a zero column and one entry moved by +-1."""
    n = draw(st.integers(min_value=1, max_value=7))
    count = n * (n - 1) // 2
    param = st.one_of(
        st.just(0), st.integers(1, 3), st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)
    )
    m = bidiagonal_product(*(draw(st.lists(param, min_size=k, max_size=k)) for k in (n, count, count)))
    rows = _int_rows(m.rows)[0] if draw(st.booleans()) else [list(row) for row in m.rows]
    width = draw(st.integers(min_value=1, max_value=n))
    rows = [row[:width] for row in rows[: draw(st.integers(min_value=1, max_value=n))]]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * width)
    if draw(st.booleans()):
        c = draw(st.integers(0, width))
        rows = [row[:c] + [0] + row[c:] for row in rows]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows[0]) - 1))
        rows[i][j] += draw(st.sampled_from([-1, 1]))
    return rows


class TestNevilleAgainstAllMinors:
    """The Neville elimination of is_tnn against the all-minors oracle."""

    @settings(max_examples=150, deadline=None)
    @given(_neville_rows())
    def test_near_tnn_rows(self, tnn_by_minors, rows):
        verdict = tnn_by_minors(rows)
        assert _neville(_int_rows(rows)[0]) is verdict
        if len(rows) == len(rows[0]):
            assert is_tnn(rational_matrix(rows)) is verdict

    def test_every_3x3_over_0_1_2(self, tnn_by_minors):
        tnn = 0
        for entries in itertools.product(range(3), repeat=9):
            rows = [list(entries[i : i + 3]) for i in (0, 3, 6)]
            verdict = _neville(rows)
            assert verdict is tnn_by_minors(rows), rows
            tnn += verdict
        assert tnn == 2210

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_tnn_at_32(self, seed):
        """A 32 x 32 sample is TNN, and one 2 x 2 minor made negative deep
        inside it is found: a_(i,j+1) is raised past a_ij a_(i+1,j+1) / a_(i+1,j)."""
        m = random_tnn(32, seed)
        assert is_tnn(m)
        rows = [list(row) for row in m.rows]
        i, j = 20, 9
        rows[i][j + 1] = rows[i][j] * rows[i + 1][j + 1] / rows[i + 1][j] + 1
        assert det([row[j : j + 2] for row in rows[i : i + 2]]) < 0
        assert not is_tnn(rational_matrix(rows))


class TestSharedCounterexample:
    """One checked 2-block matrix per witness cell, shared by its pairs."""

    @pytest.mark.parametrize("n, stride", [(4, 1), (5, 13)])
    def test_closed_form_on_one_matrix_per_cell(self, n, stride):
        """Every incomparable pair (of every stride-th ordered pair) takes
        the shared matrix of its witness cell, and the difference there is
        2^A~(a)(k,l) - 2^A~(b)(k,l) < 0."""
        asms = enumerate_asms(n)
        shared = {}
        for a, b in [(a, b) for a in asms for b in asms][::stride]:
            if asm_leq(a, b):
                continue
            m, (k, l) = counterexample_matrix(a, b)
            assert shared.setdefault((k, l), m) is m
            value = evaluate_difference(a, b, m)
            assert value == 2 ** corner_sum(a).value(k, l) - 2 ** corner_sum(b).value(k, l)
            assert value < 0
        assert len(shared) == (n - 1) ** 2

    def test_cell_matrices_against_all_minors(self, tnn_by_minors):
        """Every witness cell for n <= 6 gives a matrix that is TNN by the
        all-minors oracle.  An ASM and one it covers at the point (k, l)
        differ in the corner sum at (k, l) alone, so the pairs (a, c) with
        c in covered_by(a) reach every cell k, l < n."""
        matrices = {}
        for n in range(2, 7):
            for a in iter_asms(n):
                for c in covered_by(a):
                    m, witness = counterexample_matrix(a, c)
                    matrices[n, witness] = m
        assert len(matrices) == sum((n - 1) ** 2 for n in range(2, 7))
        for m in matrices.values():
            assert tnn_by_minors(m.rows)
            assert is_tnn(m)

    def test_memo_holds_sizes_up_to_the_guard(self):
        """The 2-block memo keeps the last 140 matrices used: the cells of
        one size share their matrices while at most 140 are in use, and
        a sweep over the 144 cells of n = 13 keeps 140 of them."""
        n = 13
        top, bottom = reverse_asm(n), identity_asm(n)
        m, witness = counterexample_matrix(top, bottom)
        assert counterexample_matrix(top, bottom)[0] is m
        assert m.rows[0][0] == 2 and witness == (1, 1)
        cells = [(k, l) for k in range(1, n) for l in range(1, n)]
        first = {cell: _two_block(n, *cell) for cell in cells[:140]}
        assert all(_two_block(n, *cell) is shared for cell, shared in first.items())
        for cell in cells:
            _two_block(n, *cell)
        assert _two_block.cache_info().currsize <= 140
        again = _two_block(n, *cells[0])
        assert again == first[cells[0]] and again is not first[cells[0]]

    def test_kept_verdict_leaves_the_plain_matrix(self, tnn_by_minors):
        """is_tnn keeps its verdict on the matrix, which equality, hash,
        repr, the fields and pickling do not see."""
        assert [f.name for f in fields(RationalMatrix)] == ["rows"]
        for rows in ([[1, 1], [1, 2]], [[0, 1], [1, 0]]):
            m, plain = rational_matrix(rows), rational_matrix(rows)
            verdict = is_tnn(m)
            assert is_tnn(m) is verdict is tnn_by_minors(plain.rows)
            assert m == plain and hash(m) == hash(plain) and repr(m) == repr(plain)
            back = pickle.loads(pickle.dumps(m))
            assert back == plain and is_tnn(back) is verdict

    def test_kept_ratios_leave_the_plain_matrix(self, a3):
        """evaluate_difference keeps the matrix's entries as integer
        ratios, which equality, hash, repr, the fields and pickling do not
        see; later calls read the kept table, and give what a fresh
        matrix gives."""
        assert [f.name for f in fields(RationalMatrix)] == ["rows"]
        a, b = a3["X"], a3["321"]
        for rows in ([[1, 2, 1], [F(1, 2), 3, 1], [1, 1, F(7, 3)]], [[2, 2, 1], [2, 2, 1], [1, 1, 1]]):
            m, plain = rational_matrix(rows), rational_matrix(rows)
            value = evaluate_difference(a, b, m)
            kept = m._ratios
            assert kept == [tuple((x.numerator, x.denominator) for x in row) for row in plain.rows]
            assert plain._ratios is None
            assert m == plain and hash(m) == hash(plain) and repr(m) == repr(plain)
            assert evaluate_difference(b, a, m) == -value == -evaluate_difference(a, b, plain)
            assert m._ratios is kept
            back = pickle.loads(pickle.dumps(m))
            assert back == plain and back._ratios == kept
            assert evaluate_difference(a, b, back) == value

    @pytest.mark.parametrize("bad, error", [(None, TypeError), ("x", ValueError), (nan, ValueError)])
    def test_bad_entry_raises_at_the_first_call(self, bad, error):
        """An entry that no Fraction can be made of raises Fraction's
        exception class at the first call that meets it, the
        constructor: no matrix holds it, so no evaluate_difference
        table can."""
        with pytest.raises(error):
            RationalMatrix(((F(1), bad), (F(0), F(1))))
