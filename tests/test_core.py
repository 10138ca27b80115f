"""Axioms, corner sums, permutation bridge, and the wire formats.

Oracles: the row-major axiom scan and the corner-sum boundary-and-step
check as they stood before the ``Asm`` constructor took over the axioms,
checked against the constructor, ``from_corner_sum`` and
``is_corner_sum``; the inversion count for the cycle-parity sign.  The
old scan still ends with the full column sums, a check the constructor
drops as unreachable, so the constructor matching it on every input is
the test of that proof.
"""

import copy
import itertools
import json
import pickle
from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

from asmgraph import (
    asm_from_json,
    asm_to_json,
    asm_to_permutation,
    corner_sum,
    enumerate_asms,
    format_asm_text,
    format_permutation,
    from_corner_sum,
    identity_asm,
    inversion_count,
    inversions,
    parse_asm_text,
    parse_permutation,
    permutation_to_asm,
    reverse_asm,
    sign,
    validate_asm,
)
from asmgraph.core import (
    Asm,
    AsmError,
    EntryOutOfRangeError,
    InvalidCornerSumError,
    NonSquareError,
    NotAPermutationError,
    Permutation,
    PrefixSumViolationError,
    TotalSumViolationError,
    is_corner_sum,
)
from asmgraph.enumeration import enumerate_permutations
from asmgraph.lattice import beta_permutation

CENTER = [[0, 1, 0], [1, -1, 1], [0, 1, 0]]


def _old_as_rows(rows):
    mat = []
    for i, row in enumerate(rows, start=1):
        out = []
        for j, x in enumerate(row, start=1):
            try:
                value = int(x)
            except (TypeError, ValueError, OverflowError):
                value = None
            if isinstance(x, bool) or value is None or value != x:
                raise AsmError(f"entry {x!r} at ({i},{j}) is not an integer")
            out.append(value)
        mat.append(out)
    return mat


def _old_validate(rows):
    """The axiom scan of the old validate_asm: the checked entries."""
    mat = _old_as_rows(rows)
    n = len(mat)
    if n == 0 or any(len(row) != n for row in mat):
        raise NonSquareError("matrix must be square and nonempty")
    col_sums = [0] * n
    for i, row in enumerate(mat, start=1):
        row_sum = 0
        for j, x in enumerate(row, start=1):
            if x not in (-1, 0, 1):
                raise EntryOutOfRangeError(i, j, x)
            col_sums[j - 1] += x
            if col_sums[j - 1] not in (0, 1):
                raise PrefixSumViolationError("column", i, j, col_sums[j - 1])
            row_sum += x
            if row_sum not in (0, 1):
                raise PrefixSumViolationError("row", i, j, row_sum)
        if row_sum != 1:
            raise TotalSumViolationError("row", i, row_sum)
    for j, s in enumerate(col_sums, start=1):
        if s != 1:
            raise TotalSumViolationError("column", j, s)
    return tuple(tuple(row) for row in mat)


def _old_check_corner_sum(rows):
    """The old corner-sum check (boundary values i, steps in {0, 1});
    returns the ASM entries of the inverse map."""
    mat = _old_as_rows(rows)
    n = len(mat)
    if n == 0 or any(len(row) != n for row in mat):
        raise NonSquareError("matrix must be square and nonempty")

    def c(i, j):
        return 0 if i == 0 or j == 0 else mat[i - 1][j - 1]

    for i in range(1, n + 1):
        if c(i, n) != i or c(n, i) != i:
            raise InvalidCornerSumError(f"boundary at {i}")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if c(i, j) - c(i, j - 1) not in (0, 1) or c(i, j) - c(i - 1, j) not in (0, 1):
                raise InvalidCornerSumError(f"step at ({i},{j})")
    return tuple(
        tuple(c(i, j) + c(i - 1, j - 1) - c(i, j - 1) - c(i - 1, j) for j in range(1, n + 1))
        for i in range(1, n + 1)
    )


_ENTRY = st.one_of(st.integers(-2, 2), st.sampled_from([1.0, 1.5, True, False]))
_RANDOM_MATRICES = st.integers(0, 4).flatmap(
    lambda rows: st.lists(st.lists(_ENTRY, max_size=4), min_size=rows, max_size=rows)
)


@st.composite
def _mutated_asms(draw):
    """A 1..4 ASM with up to two entries overwritten: valid and invalid
    matrices close to the axioms' boundary."""
    n = draw(st.integers(1, 4))
    rows = [list(r) for r in draw(st.sampled_from(enumerate_asms(n))).entries]
    for _ in range(draw(st.integers(0, 2))):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(_ENTRY)
    return rows


class TestValidation:
    def test_proper_3x3_is_valid(self):
        a = validate_asm(CENTER)
        assert a.n == 3 and a.is_proper()

    def test_permutation_matrix_is_valid(self):
        a = validate_asm([[0, 1], [1, 0]])
        assert a.is_permutation()

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            validate_asm([[1, 0], [0, 1], [0, 0]])
        with pytest.raises(NonSquareError):
            validate_asm([])

    def test_entry_out_of_range(self):
        with pytest.raises(EntryOutOfRangeError) as exc:
            validate_asm([[2, -1], [-1, 2]])
        assert exc.value.position == (1, 1)

    def test_prefix_sum_violation_names_first_cell(self):
        # Column 1 runs 0, -1: reported at (2, 1) on the column axis.
        with pytest.raises(PrefixSumViolationError) as exc:
            validate_asm([[0, 1], [-1, 1]])
        assert exc.value.axis == "column"
        assert exc.value.position == (2, 1)

    def test_row_prefix_violation(self):
        with pytest.raises(PrefixSumViolationError) as exc:
            validate_asm([[1, -1, 1], [0, 1, 0], [0, 1, 0]])
        # Row 1 runs 1, 0, 1 fine; column 2 runs -1 first.
        assert exc.value.axis == "column"

    def test_total_sum_violation(self):
        # A doubled column shows up as a column *prefix* leaving {0, 1}
        # before any total is summed.
        with pytest.raises(PrefixSumViolationError) as exc:
            validate_asm([[1, 0], [1, 0]])
        assert exc.value.axis == "column" and exc.value.position == (2, 1)
        with pytest.raises(TotalSumViolationError) as exc:
            validate_asm([[0, 0], [0, 0]])
        assert exc.value.axis == "row"
        assert exc.value.index == 1

    def test_all_zero_row_rejected(self):
        with pytest.raises(TotalSumViolationError):
            validate_asm([[1, 0, 0], [0, 0, 0], [0, 0, 1]])

    def test_asm_argument_is_checked(self):
        # The Asm constructor checks the axioms, so no invalid Asm exists.
        with pytest.raises(EntryOutOfRangeError) as exc:
            Asm(((2,),))
        assert exc.value.position == (1, 1)
        with pytest.raises(PrefixSumViolationError) as exc:
            Asm(((1, 0), (1, 0)))
        assert exc.value.axis == "column" and exc.value.position == (2, 1)

    @pytest.mark.parametrize("bad", [5, "10", [1], [[1], "0"], [[0, 1], (1, 0), 7]])
    def test_non_sequence_matrix_or_row_is_rejected(self, bad):
        with pytest.raises(AsmError, match="is not a sequence"):
            Asm(bad)

    def test_entries_are_stored_as_int_tuples(self):
        a = Asm([[0, 1.0], [1, 0]])
        assert a.entries == ((0, 1), (1, 0))
        assert all(type(x) is int for row in a.entries for x in row)
        assert isinstance(a.entries, tuple) and all(isinstance(r, tuple) for r in a.entries)

    @given(st.one_of(_RANDOM_MATRICES, _mutated_asms()))
    def test_constructor_matches_the_old_scan(self, rows):
        try:
            expected = _old_validate(rows)
        except AsmError as exc:
            with pytest.raises(AsmError) as got:
                Asm(rows)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
        else:
            assert Asm(rows).entries == expected

    @pytest.mark.parametrize("bad", [1.9, 0.5, True, False])
    def test_non_integer_entry_is_rejected(self, bad):
        # Truncating would turn [[1.9]] into the 1x1 identity.
        with pytest.raises(AsmError, match=r"at \(1,2\) is not an integer"):
            validate_asm([[1, bad], [0, 1]])

    def test_integral_float_is_accepted(self):
        assert validate_asm([[1.0, 0], [0, 1]]).entries == ((1, 0), (0, 1))

    def test_valid_asm_argument_is_returned_as_is(self):
        a = Asm(((0, 1, 0), (1, -1, 1), (0, 1, 0)))
        assert validate_asm(a) is a

    @pytest.mark.parametrize(
        "rebuild", [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy]
    )
    def test_pickle_and_copy_check_the_axioms(self, rebuild):
        """Pickling and copying rebuild an ASM through the constructor, so
        a value forged past it comes back as an error, not as an Asm."""
        forged = object.__new__(Asm)
        object.__setattr__(forged, "entries", ((1, 1), (0, 0)))
        with pytest.raises(PrefixSumViolationError) as exc:
            rebuild(forged)
        assert exc.value.axis == "row" and exc.value.position == (1, 2)
        a = Asm(((0, 1, 0), (1, -1, 1), (0, 1, 0)))
        corner_sum(a)
        back = rebuild(a)
        assert back == a and back is not a
        assert back._beta is None and back._corner is None


class TestCornerSum:
    def test_proper_center(self):
        c = corner_sum(validate_asm(CENTER))
        assert c.entries == ((0, 1, 1), (1, 1, 2), (1, 2, 3))

    def test_boundary_convention(self):
        c = corner_sum(validate_asm(CENTER))
        assert c.value(0, 2) == 0 and c.value(2, 0) == 0

    def test_identity_gives_min_table(self):
        c = corner_sum(identity_asm(4))
        for i in range(1, 5):
            for j in range(1, 5):
                assert c.value(i, j) == min(i, j)

    def test_4312(self):
        a = permutation_to_asm((4, 3, 1, 2))
        assert corner_sum(a).entries == (
            (0, 0, 0, 1),
            (0, 0, 1, 2),
            (1, 1, 2, 3),
            (1, 2, 3, 4),
        )

    def test_round_trip_center(self):
        a = validate_asm(CENTER)
        assert from_corner_sum(corner_sum(a)) == a

    def test_kept_corner_sum_leaves_the_plain_asm(self):
        """corner_sum keeps its result on the ASM and returns that object
        again; equality, hash, repr, str, the fields and pickling still
        see the entries alone."""
        assert [f.name for f in fields(Asm)] == ["entries"]
        for a in enumerate_asms(4):
            plain = Asm(a.entries)
            c = corner_sum(a)
            assert corner_sum(a) is c
            assert c == corner_sum(Asm(a.entries))
            n = a.n
            assert c.entries == tuple(
                tuple(
                    sum(a.entries[p][q] for p in range(i) for q in range(j))
                    for j in range(1, n + 1)
                )
                for i in range(1, n + 1)
            )
            assert a == plain and hash(a) == hash(plain)
            assert repr(a) == repr(plain) and str(a) == str(plain)
            back = pickle.loads(pickle.dumps(a))
            assert back == a and hash(back) == hash(a) and repr(back) == repr(a)
            assert corner_sum(back) == c

    def test_from_corner_sum_raw_rows(self):
        assert from_corner_sum([[0, 1, 1], [1, 1, 2], [1, 2, 3]]) == validate_asm(CENTER)

    def test_from_corner_sum_rejects_non_integer(self):
        with pytest.raises(AsmError, match="not an integer"):
            from_corner_sum([[0.5, 1], [1, 2]])

    def test_from_corner_sum_rejects_bad_boundary(self):
        with pytest.raises(InvalidCornerSumError):
            from_corner_sum([[1, 1, 1], [1, 2, 2], [1, 2, 2]])

    def test_from_corner_sum_rejects_bad_step(self):
        with pytest.raises(InvalidCornerSumError):
            from_corner_sum([[0, 0, 1], [0, 2, 2], [1, 2, 3]])

    def test_round_trip_all_of_a4(self):
        for a in enumerate_asms(4):
            assert from_corner_sum(corner_sum(a)) == a

    def test_criterion_matches_validation(self):
        # Perturb genuine corner-sum matrices; the characterisation and
        # "inverse then validate" must agree on every mutant.
        for a in enumerate_asms(3):
            base = [list(r) for r in corner_sum(a).entries]
            for (i, j, d) in itertools.product(range(3), range(3), (-1, 1)):
                mutant = [row[:] for row in base]
                mutant[i][j] += d
                ok = is_corner_sum(mutant)
                try:
                    from_corner_sum(mutant)
                    ok2 = True
                except InvalidCornerSumError:
                    ok2 = False
                assert ok == ok2


    def test_a4_mutants_against_the_old_check(self):
        # Every +-1 mutant of every A4 corner-sum matrix, boundary row
        # and column included.
        accepted = 0
        for a in enumerate_asms(4):
            base = [list(r) for r in corner_sum(a).entries]
            for i, j, d in itertools.product(range(4), range(4), (-1, 1)):
                mutant = [row[:] for row in base]
                mutant[i][j] += d
                try:
                    expected = _old_check_corner_sum(mutant)
                except InvalidCornerSumError:
                    assert not is_corner_sum(mutant)
                    with pytest.raises(InvalidCornerSumError) as exc:
                        from_corner_sum(mutant)
                    assert isinstance(exc.value.__cause__, AsmError)
                else:
                    accepted += 1
                    assert is_corner_sum(mutant)
                    assert from_corner_sum(mutant).entries == expected
        # The valid mutants are the covering moves: each of the 84 covers
        # of A4 once from each end.
        assert accepted == 2 * 84

    def test_from_corner_sum_keeps_non_square_error(self):
        with pytest.raises(NonSquareError):
            from_corner_sum([[0, 1], [1, 2], [1, 2]])
        with pytest.raises(NonSquareError):
            from_corner_sum([])


class TestPermutationBridge:
    def test_matrix_of_4312(self):
        a = permutation_to_asm((4, 3, 1, 2))
        assert a.entries == ((0, 0, 0, 1), (0, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0))

    def test_round_trip(self):
        w = Permutation((3, 1, 4, 2, 5))
        assert asm_to_permutation(permutation_to_asm(w)) == w

    def test_proper_asm_is_not_a_permutation(self):
        with pytest.raises(NotAPermutationError):
            asm_to_permutation(validate_asm(CENTER))

    def test_bad_one_line(self):
        with pytest.raises(NotAPermutationError):
            Permutation((1, 1, 3))

    def test_inversions(self):
        assert inversions(Permutation((1, 2, 3, 4))) == []
        assert inversion_count(Permutation((4, 3, 2, 1))) == 6
        assert sign(Permutation((4, 3, 2, 1))) == 1
        assert inversions(Permutation((2, 1, 4, 3))) == [(1, 2), (3, 4)]
        assert sign(Permutation((2, 1, 4, 3))) == 1
        assert sign(Permutation((2, 1, 3))) == -1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sign_is_the_inversion_parity(self, n):
        for w in enumerate_permutations(n):
            assert sign(w) == (-1) ** inversion_count(w)

    def test_inverse(self):
        w = Permutation((4, 3, 1, 2))
        assert w.inverse().images == (3, 4, 2, 1)

    @pytest.mark.parametrize("bad", [(True, 2), (2, False), (1.5, 2.7), ("2", "1"), "21", (None, 1)])
    def test_non_integer_image_is_rejected(self, bad):
        with pytest.raises(AsmError, match="not an integer"):
            Permutation(bad)
        with pytest.raises(AsmError, match="not an integer"):
            permutation_to_asm(bad)

    def test_integral_float_image_is_read_as_int(self):
        w = Permutation((2.0, 1.0))
        assert w == Permutation((2, 1)) and w.images == (2, 1)
        assert str(w) == "21" and type(beta_permutation(w)) is int
        assert permutation_to_asm((1.0, 2.0)) == identity_asm(2)

    def test_empty_permutation_matrix_is_rejected(self):
        """The empty permutation has no ASM, as the Asm constructor has
        none for the 0 x 0 matrix."""
        for make, arg in [(permutation_to_asm, ()), (identity_asm, 0), (reverse_asm, 0), (reverse_asm, -2)]:
            with pytest.raises(NonSquareError, match="matrix must be square and nonempty"):
                make(arg)


class TestOneBasedAccessors:
    """Outside its range each 1-based accessor raises IndexError, where
    it would read one of Python's negative indices or wrap past n."""

    A = Asm([[0, 1, 0], [1, -1, 1], [0, 1, 0]])

    def test_asm_entry(self):
        assert (self.A.entry(1, 2), self.A.entry(2, 2), self.A.entry(3, 3)) == (1, -1, 0)
        for i, j in [(-1, 2), (0, 0), (1, 0), (4, 1), (1, 4)]:
            with pytest.raises(IndexError, match=r"^index -?\d is outside 1\.\.3$"):
                self.A.entry(i, j)

    def test_corner_sum_value(self):
        c = corner_sum(self.A)
        assert (c.value(0, 3), c.value(3, 0), c.value(0, 0), c.value(3, 3)) == (0, 0, 0, 3)
        for i, j in [(-1, 3), (3, -1), (4, 1), (1, 4)]:
            with pytest.raises(IndexError, match=r"^index -?\d is outside 0\.\.3$"):
                c.value(i, j)

    def test_permutation_call(self):
        w = Permutation((3, 1, 2))
        assert [w(i) for i in (1, 2, 3)] == [3, 1, 2]
        for i in (-1, 0, 4):
            with pytest.raises(IndexError, match=rf"^index {i} is outside 1\.\.3$"):
                w(i)


class TestFormats:
    def test_text_round_trip(self):
        a = validate_asm(CENTER)
        assert parse_asm_text(format_asm_text(a)) == a

    def test_text_format_shape(self):
        assert format_asm_text(identity_asm(2)) == "2\n1 0\n0 1\n"

    def test_text_rejects_length_mismatch(self):
        with pytest.raises(AsmError, match=r"^expected 3\*3 entries after the size line$"):
            parse_asm_text("3\n1 0 0\n0 1 0\n")

    @pytest.mark.parametrize("text, n", [("0", 0), ("-2 1 0 0 1", -2)], ids=["zero", "negative"])
    def test_text_rejects_a_nonpositive_size_line(self, text, n):
        with pytest.raises(AsmError, match=rf"^size line must be a positive integer, got {n}$"):
            parse_asm_text(text)

    @pytest.mark.parametrize("text", ["", " \n\t\n"], ids=["empty", "blank"])
    def test_text_rejects_empty_input(self, text):
        with pytest.raises(AsmError, match="^empty input$"):
            parse_asm_text(text)

    def test_text_rejects_a_non_integer_token(self):
        with pytest.raises(AsmError, match="^non-integer token in matrix text: "):
            parse_asm_text("2\n1 0\nx 1\n")

    def test_json_round_trip(self):
        a = validate_asm(CENTER)
        assert asm_from_json(asm_to_json(a)) == a

    def test_json_shape(self):
        d = json.loads(asm_to_json(identity_asm(2)))
        assert d == {"n": 2, "entries": [[1, 0], [0, 1]]}

    def test_permutation_string_round_trip(self):
        w = Permutation((4, 3, 1, 2))
        assert parse_permutation(format_permutation(w)) == w
        assert parse_permutation("4,3,1,2") == w

    @pytest.mark.parametrize("n", [10, 12])
    def test_permutation_commas_from_n_10(self, n):
        """From n = 10 on, images are comma-separated, and parse back."""
        w = Permutation((2, 1, *range(n, 2, -1)))
        text = format_permutation(w)
        assert text == ",".join(map(str, w.images))
        assert parse_permutation(text) == w

    @pytest.mark.parametrize("text", ["1,x", "1,,2", "x,1", "4x12", ""])
    def test_unparsable_permutation_is_an_asm_error(self, text):
        with pytest.raises(AsmError, match="cannot parse permutation"):
            parse_permutation(text)

    @pytest.mark.parametrize(
        "doc", [{"n": 2, "entries": 5}, {"n": 1, "entries": [1]}, {"n": 0}, [[1]]]
    )
    def test_json_shape_errors(self, doc):
        with pytest.raises(AsmError):
            asm_from_json(json.dumps(doc))

    def test_json_n_must_match(self):
        for n in (2, True):
            with pytest.raises(AsmError, match="'n' disagrees"):
                asm_from_json(json.dumps({"n": n, "entries": [[1]]}))
        assert asm_from_json(json.dumps({"n": 1.0, "entries": [[1]]})) == identity_asm(1)

    def test_validation_happens_on_parse(self):
        with pytest.raises(PrefixSumViolationError):
            parse_asm_text("2\n0 1\n-1 1\n")


@given(st.permutations(list(range(1, 7))))
def test_permutation_matrix_always_validates(images):
    a = permutation_to_asm(tuple(images))
    assert validate_asm([list(r) for r in a.entries]) == a
    assert asm_to_permutation(a).images == tuple(images)


@given(st.permutations(list(range(1, 7))))
def test_sign_multiplicativity_with_inverse(images):
    w = Permutation(tuple(images))
    assert sign(w) == sign(w.inverse())


def test_reverse_asm():
    assert reverse_asm(3) == validate_asm([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
