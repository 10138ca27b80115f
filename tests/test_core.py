"""Axioms, corner sums, permutation bridge, and the wire formats."""

import json

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

CENTER = [[0, 1, 0], [1, -1, 1], [0, 1, 0]]


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
        # The Asm constructor checks nothing, so validate_asm must.
        with pytest.raises(EntryOutOfRangeError) as exc:
            validate_asm(Asm(((2,),)))
        assert exc.value.position == (1, 1)
        with pytest.raises(PrefixSumViolationError) as exc:
            validate_asm(Asm(((1, 0), (1, 0))))
        assert exc.value.axis == "column" and exc.value.position == (2, 1)

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
        import itertools

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

    def test_inverse(self):
        w = Permutation((4, 3, 1, 2))
        assert w.inverse().images == (3, 4, 2, 1)


class TestFormats:
    def test_text_round_trip(self):
        a = validate_asm(CENTER)
        assert parse_asm_text(format_asm_text(a)) == a

    def test_text_format_shape(self):
        assert format_asm_text(identity_asm(2)) == "2\n1 0\n0 1\n"

    def test_text_rejects_length_mismatch(self):
        with pytest.raises(Exception):
            parse_asm_text("3\n1 0 0\n0 1 0\n")

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
