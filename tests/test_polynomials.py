"""Tests for B_n(q) and Dodgson condensation."""

import pickle
import random
from dataclasses import fields
from fractions import Fraction
from math import factorial, lcm, prod
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import asmgraph.enumeration
import asmgraph.polynomials
from asmgraph import (
    AsmError,
    HalfExpPoly,
    SingularInteriorError,
    SizeLimitExceededError,
    bq_definition,
    bq_product,
    bq_qdet,
    bq_recursion,
    dodgson,
    q_dodgson_check,
    q_dodgson_divided,
    random_tnn,
    rational_matrix,
    sym_det,
    unsigned_permanent_q,
)
from asmgraph.core import sign
from asmgraph.enumeration import enumerate_permutations
from asmgraph.lattice import beta_permutation
from asmgraph.polynomials import (
    BQ_METHODS, _condense, _decode, _exact_quotient, _kronecker, _q_weight_matrix,
)
from asmgraph.symbolic import NonExactDivisionError, _det, _int_rows
from asmgraph.tnn import RationalMatrix, det

F = Fraction

#: Rows that make no square matrix, which RationalMatrix rejects.
_NON_SQUARE = pytest.mark.parametrize("rows", [((1, 2, 3), (1, 2, 3)), ((5, 7),)], ids=["2x3", "1x2"])

B3_STR = "1 - 2q + 2q^3 - q^4"
B4_STR = (
    "1 - 3q + q^2 + 4q^3 - 2q^4 - 2q^5 - 2q^6 + 4q^7 + q^8 - 3q^9 + q^10"
)


def _random_rational_rows(n, rng, lo=-9, hi=9):
    return [
        [F(rng.randint(lo, hi), rng.randint(1, 5)) for _ in range(n)]
        for _ in range(n)
    ]


def _sylvester(order):
    """The Sylvester +-1 Hadamard matrix of order 1, 2, 4, 8, ..., whose
    determinant meets Hadamard's bound order^(order/2) with equality."""
    rows = [[1]]
    while len(rows) < order:
        rows = [row + row for row in rows] + [row + [-x for x in row] for row in rows]
    return rows


# Doubled exponents of both signs and parities, coefficients up to 10^6.
_POLY = st.dictionaries(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-(10**6), max_value=10**6),
    max_size=3,
).map(HalfExpPoly)


# Nonnegative doubled exponents, and coefficients small enough that the
# product of two such polynomials fits width 6: |c| <= 3 * 3 * 3 < 2^5.
_SMALL_POLYS = st.dictionaries(
    st.integers(min_value=0, max_value=4), st.integers(min_value=-3, max_value=3), max_size=3
).map(HalfExpPoly)


def _one_monomial_at_a_time(n, signed):
    """The sum over S_n as it was first written, one ring addition per
    permutation; kept as the oracle of the single-pass tally."""
    total = HalfExpPoly.zero()
    for w in enumerate_permutations(n):
        total = total + HalfExpPoly.q_pow(beta_permutation(w), sign(w) if signed else 1)
    return total


@pytest.mark.parametrize("n", range(1, 7))
def test_tally_matches_monomial_sum(n):
    assert bq_definition(n) == _one_monomial_at_a_time(n, signed=True)
    assert unsigned_permanent_q(n) == _one_monomial_at_a_time(n, signed=False)


def _s_n_tally(n: int, size_limit: int | None, signed: bool) -> HalfExpPoly:
    """The single-pass tally over S_n that B_n(q) used before the
    column-state walk; kept as that walk's oracle."""
    tally: dict[int, int] = {}
    for w in enumerate_permutations(n, size_limit=size_limit):
        t = 2 * beta_permutation(w)
        tally[t] = tally.get(t, 0) + (sign(w) if signed else 1)
    return HalfExpPoly(tally)


@pytest.mark.parametrize("n", range(1, 9))
def test_state_tally_matches_the_s_n_tally(n):
    assert bq_definition(n) == _s_n_tally(n, None, signed=True)
    assert unsigned_permanent_q(n) == _s_n_tally(n, None, signed=False)


@pytest.mark.parametrize("n", range(1, 10))
def test_tally_keeps_the_counter_term_order(n, monkeypatch, counter_tally):
    """The decoded int tally against the Counter one on the same table and
    weights: the same nonzero terms, in ascending exponent, so that
    B_n(q) has bq_qdet's repr."""
    tally = asmgraph.polynomials._tally
    oracles = []

    def also_counter(n, steps, weigh, width):
        oracles.append(counter_tally(n, steps, weigh))
        return tally(n, steps, weigh, width)

    monkeypatch.setattr(asmgraph.polynomials, "_tally", also_counter)
    for p, oracle in zip([bq_definition(n), unsigned_permanent_q(n)], oracles, strict=True):
        assert p.terms == {t: c for t, c in oracle.items() if c}
        assert list(p.terms) == sorted(p.terms)
    assert repr(bq_definition(n)) == repr(bq_qdet(n))


def test_tally_builds_no_permutation(monkeypatch):
    """The tally walks its own table of permutation rows: it builds no
    permutation and no ASM successor table."""

    def refuse(p):
        raise AssertionError("the B_n(q) tally built a permutation or an ASM successor table")

    monkeypatch.setattr(asmgraph.enumeration, "_trusted_permutation", refuse)
    monkeypatch.setattr(asmgraph.enumeration, "_step_table", refuse)
    assert bq_definition(8) == bq_product(8)
    assert unsigned_permanent_q(8).evaluate_q(F(1)) == factorial(8)


class TestBq:
    def test_small_strings(self):
        assert str(bq_definition(1)) == "1"
        assert str(bq_definition(2)) == "1 - q"
        assert str(bq_definition(3)) == B3_STR
        assert str(bq_definition(4)) == B4_STR

    @pytest.mark.parametrize("n", range(1, 8))
    def test_four_methods_agree(self, n):
        reference = bq_definition(n)
        assert bq_product(n) == reference
        assert bq_qdet(n) == reference
        assert bq_recursion(n) == reference

    @pytest.mark.parametrize("n", range(1, 9))
    def test_qdet_matches_product(self, n):
        assert bq_qdet(n) == bq_product(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_recursion_has_the_qdet_term_order(self, n):
        """The recursion's exact divisions give their quotients in
        ascending exponent, as the decoded q-determinant has them."""
        assert repr(bq_recursion(n)) == repr(bq_qdet(n))

    def test_recursion_seeds_itself(self, monkeypatch):
        """The recursion runs no tally of the definition, so the bq
        check's four ways share no B_k."""

        def refuse(*args, **kwargs):
            raise AssertionError("the recursion ran the definition's tally")

        monkeypatch.setattr(asmgraph.polynomials, "_beta_tally", refuse)
        assert bq_recursion(8) == bq_product(8)

    def test_method_table(self):
        assert set(BQ_METHODS) == {"def", "prod", "qdet", "rec"}
        assert all(BQ_METHODS[k](3) == bq_definition(3) for k in BQ_METHODS)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_degree_and_values(self, n):
        p = bq_product(n)
        assert p.has_integer_exponents()
        assert p.degree_twice == 2 * (n * (n * n - 1) // 6)
        assert p.evaluate_q(F(0)) == 1
        assert p.evaluate_q(F(1)) == 0

    @pytest.mark.parametrize("n", range(2, 7))
    def test_palindromic_up_to_sign(self, n):
        coeffs = bq_product(n).coeffs_q()
        d = n * (n * n - 1) // 6
        sgn = -1 if (n * (n - 1) // 2) % 2 else 1
        for k in range(d + 1):
            assert coeffs.get(k, 0) == sgn * coeffs.get(d - k, 0)

    def test_matches_s4_table(self, s4_sign_beta):
        signed = HalfExpPoly.zero()
        unsigned = HalfExpPoly.zero()
        for sgn, bta in s4_sign_beta.values():
            signed = signed + HalfExpPoly.q_pow(bta, sgn)
            unsigned = unsigned + HalfExpPoly.q_pow(bta)
        assert bq_definition(4) == signed
        assert unsigned_permanent_q(4) == unsigned

    def test_guards(self):
        with pytest.raises(ValueError):
            bq_product(0)
        with pytest.raises(ValueError):
            bq_qdet(0)
        with pytest.raises(ValueError):
            bq_recursion(0)
        with pytest.raises(SizeLimitExceededError):
            bq_definition(10)
        with pytest.raises(AsmError, match="guard"):
            bq_qdet(11)
        with pytest.raises(SizeLimitExceededError):
            unsigned_permanent_q(10)


def _at(p, width):
    """p, with nonnegative doubled exponents, at q^(1/2) = 2^width."""
    return sum(c << width * t for t, c in p.terms.items())


class TestIntRoutes:
    """The product, the recursion and the exact quotient on ints, against
    HalfExpPoly's ring operations."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_product_matches_the_ring_oracle(self, n, ring_product):
        assert bq_product(n) == ring_product(n)

    def test_recursion_matches_the_ring_oracle(self, ring_recursion):
        """Values and repr: the oracle's divexact gives its quotients in
        ascending exponent too."""
        oracle = ring_recursion(16)
        for n in range(1, 17):
            assert repr(bq_recursion(n)) == repr(oracle[n]), n

    @pytest.mark.parametrize("n", range(1, 11))
    def test_product_has_the_qdet_term_order(self, n):
        assert repr(bq_product(n)) == repr(bq_qdet(n))

    def test_exact_division(self):
        z = HalfExpPoly({1: 1})
        a, b = z * z - HalfExpPoly.const(3), z + HalfExpPoly.const(1)
        assert _exact_quotient((_at(a, 4), _at(b, 4)), _at(b, 4), 4) == _at(a, 4)
        assert _exact_quotient((0,), _at(b, 4), 4) == 0

    def test_remainder_raises(self):
        """z^2 + 1 over z + 1 leaves 2 at every width."""
        with pytest.raises(NonExactDivisionError, match="remainder"):
            _exact_quotient((_at(HalfExpPoly({0: 1, 2: 1}), 4),), _at(HalfExpPoly({0: 1, 1: 1}), 4), 4)

    @pytest.mark.parametrize(
        "factors, divisor, width",
        [((3, 3), 9, 3), ((256,), 2, 4)],
        ids=["constant 2^w + 1 over z + 1", "z^2 over 2"],
    )
    def test_forged_zero_remainder_raises(self, factors, divisor, width):
        """Integers that divide while the polynomials do not.  At width 3,
        the constants 3 and 3 make the constant 9 = 2^3 + 1, and z + 1 is
        9 too; at width 4, z^2 is 256 and the constant 2 divides it, but
        not in Z[z].  The divmod passes, and only the confirmation at the
        second width catches it."""
        assert prod(factors) % divisor == 0
        with pytest.raises(NonExactDivisionError, match="not the numerator"):
            _exact_quotient(factors, divisor, width)

    @settings(deadline=None, max_examples=200)
    @given(_SMALL_POLYS, _SMALL_POLYS, _SMALL_POLYS)
    def test_quotient_or_error_against_the_ring(self, a, b, d):
        """Over factors and divisors that fit width 6, the quotient is
        exact whenever it is returned, and a divisor that is a factor
        always divides."""
        if d.is_zero():
            d = HalfExpPoly.one()
        factors = _at(a, 6), _at(b, 6)
        try:
            quotient = _exact_quotient(factors, _at(d, 6), 6)
        except NonExactDivisionError:
            pass
        else:
            assert _decode(quotient, 6, 0) * d == a * b
        assert _decode(_exact_quotient((*factors, _at(d, 6)), _at(d, 6), 6), 6, 0) == a * b


class TestUnsignedPermanent:
    def test_small(self):
        assert str(unsigned_permanent_q(1)) == "1"
        assert str(unsigned_permanent_q(2)) == "1 + q"

    def test_n4_fixtures(self):
        p = unsigned_permanent_q(4)
        assert p.coefficient_q(0) == 1
        assert p.coefficient_q(3) == 4
        assert p.coefficient_q(10) == 1
        assert p.evaluate_q(F(1)) == 24


class TestSymDet:
    def test_empty_and_scalar(self):
        assert sym_det([]) == HalfExpPoly.one()
        assert sym_det([[HalfExpPoly.const(7)]]) == HalfExpPoly.const(7)

    def test_matches_numeric_det_on_constants(self):
        rng = random.Random(3)
        for n in (2, 3, 4):
            for _ in range(5):
                rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
                sd = sym_det([[HalfExpPoly.const(x) for x in row] for row in rows])
                assert sd == HalfExpPoly.const(int(det(rows)))

    def test_non_square(self):
        with pytest.raises(AsmError):
            sym_det([[HalfExpPoly.one()], [HalfExpPoly.one()]])

    @settings(deadline=None)
    @given(st.data())
    def test_matches_the_poly_kernel(self, laplace_det, data):
        n = data.draw(st.integers(min_value=0, max_value=6))
        # About one row in five is a zero row.
        rows = [
            [data.draw(_POLY) for _ in range(n)]
            if data.draw(st.integers(min_value=0, max_value=4))
            else [HalfExpPoly.zero()] * n
            for _ in range(n)
        ]
        assert sym_det(rows) == laplace_det(rows, HalfExpPoly.one())

    @pytest.mark.parametrize("order", [1, 2, 4, 8])
    def test_sylvester_matrices_meet_the_bound(self, order, laplace_det):
        """Hadamard's inequality holds with equality here, so the width
        has no slack to spare; the first row negated flips the sign."""
        plus = _sylvester(order)
        one = HalfExpPoly.one()
        for rows in (plus, [[-x for x in plus[0]], *plus[1:]]):
            constants = [[HalfExpPoly.const(x) for x in row] for row in rows]
            value = sym_det(constants)
            assert value == laplace_det(constants, one)
            assert abs(value.coefficient_q(0)) == order ** (order // 2) == abs(det(rows))
            weighted = _q_weight_matrix(rows)
            assert sym_det(weighted) == laplace_det(weighted, one)
            shifted = [[HalfExpPoly.q_pow_twice(-5) * x for x in row] for row in weighted]
            assert sym_det(shifted) == laplace_det(shifted, one)


def _five_det_slices(rows, det=_det):
    """Interior minor and Dodgson numerator from five ``det`` calls on
    contiguous slices: the condensation before the bordered elimination,
    kept as the oracle of _condense over ints, and with a Laplace ``det``
    over any ring."""
    head, tail, inner = slice(1, None), slice(None, -1), slice(1, -1)
    nw, se, ne, sw, interior = (
        det([row[c] for row in rows[r]])
        for r, c in ((tail, tail), (head, head), (tail, head), (head, tail), (inner, inner))
    )
    return interior, nw * se - ne * sw


def _five_slices(rows, one, laplace_det):
    """Interior minor and Dodgson numerator from five Laplace
    determinants on contiguous slices, over any ring with unit ``one``:
    the oracle of _condense."""
    return _five_det_slices(rows, lambda sub: laplace_det(sub, one))


def _condensation_cases(n, rng):
    """Small random integer matrices, each also with a zero row, with a
    zero diagonal and, for n >= 3, with a zero interior row."""
    for _ in range(3):
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        yield rows
        zero_row = [row[:] for row in rows]
        zero_row[rng.randrange(n)] = [0] * n
        yield zero_row
        yield [[0 if i == j else x for j, x in enumerate(row)] for i, row in enumerate(rows)]
        if n >= 3:
            singular = [row[:] for row in rows]
            singular[1][1:-1] = [0] * (n - 2)
            yield singular


class TestCondense:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_the_laplace_slices(self, n, laplace_det):
        """Interior and numerator of _condense, and the determinant of
        _det, over ints and over the q-weighted HalfExpPoly matrix
        (Kronecker-encoded, then decoded), against five Laplace slices
        and the Laplace determinant; the Desnanot-Jacobi identity ties
        the three together."""
        rng = random.Random(700 + n)
        singular = []
        for rows in _condensation_cases(n, rng):
            weighted = _q_weight_matrix(rows)
            encoded, width, low = _kronecker(weighted, products=2)

            def decode(value, size):
                return _decode(value, width, size * low)

            for matrix, one, ints, read in (
                (rows, 1, rows, lambda value, size: value),
                (weighted, HalfExpPoly.one(), encoded, decode),
            ):
                interior, numerator = _condense(ints)
                singular.append(numerator is None)
                # A zero interior gives no numerator; Desnanot-Jacobi makes it 0.
                numerator = 0 if numerator is None else numerator
                interior, numerator = read(interior, n - 2), read(numerator, 2 * n - 2)
                determinant = read(_det(ints), n)
                assert (interior, numerator) == _five_slices(matrix, one, laplace_det)
                assert determinant == laplace_det(matrix, one)
                assert determinant * interior == numerator
                assert singular[-1] == (interior == one - one)
        assert any(singular) == (n >= 3) and not all(singular)


@st.composite
def _condensable(draw):
    """Int matrices n = 2..10, entries -3..3; for n >= 3 about one in
    three has a zero interior row, so a zero interior."""
    n = draw(st.integers(min_value=2, max_value=10))
    row = st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    if n >= 3 and draw(st.integers(min_value=0, max_value=2)) == 0:
        rows[draw(st.integers(min_value=1, max_value=n - 2))][1:-1] = [0] * (n - 2)
    return rows


def _zero_interior_rows(n, seed):
    """A seeded n x n int matrix, entries -3..3, whose interior has a
    zero row, so a zero interior minor."""
    rng = random.Random(seed)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    rows[n // 2][1:-1] = [0] * (n - 2)
    return rows


class TestCondenseAgainstFiveSlices:
    @settings(max_examples=200, deadline=None)
    @given(_condensable())
    def test_one_elimination_matches_five(self, rows):
        """The bordered elimination gives the five slices' values, with
        no numerator when the interior minor is 0, and takes no slice."""
        with mock.patch.object(asmgraph.polynomials, "_det", wraps=_det) as spy:
            interior, numerator = _condense(rows)
        expected_interior, expected_numerator = _five_det_slices(rows)
        assert interior == expected_interior
        assert numerator == (expected_numerator if interior else None)
        assert spy.call_count == 0

    @pytest.mark.parametrize("n", range(3, 11))
    def test_zero_interior_row_takes_the_slices(self, n):
        """On a zero interior dodgson and q_dodgson_divided raise with no
        _det call, and q_dodgson_check alone takes the four corner slices.
        Its right side is 0 then (Desnanot-Jacobi), but it is computed,
        not assumed: a _det off by one shows in it."""
        rows = _zero_interior_rows(n, 900 + n)
        encoded, width, low = _kronecker(_q_weight_matrix(rows), products=2)
        for ints in (rows, encoded):
            assert _condense(ints) == (0, None)
            assert _five_det_slices(ints) == (0, 0)
        m = rational_matrix(rows)
        with mock.patch.object(asmgraph.polynomials, "_det", wraps=_det) as spy:
            for divide in (dodgson, q_dodgson_divided):
                with pytest.raises(SingularInteriorError):
                    divide(m)
            assert spy.call_count == 0
            report = q_dodgson_check(m)
            assert spy.call_count == 4
        assert report.passed and report.lhs.is_zero()

        def shifted(rows):
            return _det(rows) + 1

        with mock.patch.object(asmgraph.polynomials, "_det", shifted):
            report = q_dodgson_check(m)
        numerator = _five_det_slices(encoded, shifted)[1]
        assert report.rhs == _decode(numerator, width, (2 * n - 2) * low)


class TestDodgson:
    def test_tiny(self):
        assert dodgson(rational_matrix([[7]])) == 7
        assert dodgson(rational_matrix([[1, 2], [3, 4]])) == -2

    def test_empty_matrix(self):
        assert dodgson(rational_matrix([])) == det([]) == 1

    def test_matches_det_on_random_matrices(self):
        rng = random.Random(11)
        checked = 0
        for n in (2, 3, 4, 5):
            for _ in range(8):
                m = rational_matrix(_random_rational_rows(n, rng))
                try:
                    value = dodgson(m)
                except SingularInteriorError:
                    continue
                assert value == det(m.rows)
                checked += 1
        assert checked > 20

    def test_matches_det_on_tnn_samples(self):
        for seed in range(6):
            m = random_tnn(4, seed=seed)
            assert dodgson(m) == det(m.rows)

    def test_singular_interior(self):
        with pytest.raises(SingularInteriorError):
            dodgson(rational_matrix([[1, 2, 3], [4, 0, 5], [6, 7, 8]]))

    @_NON_SQUARE
    def test_non_square(self, rows, refused_by_the_constructor):
        refused_by_the_constructor(dodgson, rows)

    @settings(deadline=None)
    @given(st.data())
    def test_matches_det_wherever_the_interior_is_nonsingular(self, data):
        # Small entries with mixed denominators, so that the common scale
        # is often above 1 and interiors are sometimes singular.
        n = data.draw(st.integers(min_value=1, max_value=6))
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        rows = [[data.draw(entry) for _ in range(n)] for _ in range(n)]
        interior = [row[1 : n - 1] for row in rows[1 : n - 1]]
        if interior and det(interior) == 0:
            with pytest.raises(SingularInteriorError):
                dodgson(rational_matrix(rows))
        else:
            assert dodgson(rational_matrix(rows)) == det(rows)


class TestQDodgson:
    def test_2x2_hand_identity(self):
        # |A_q| = m11 m22 - q m12 m21 and the interior is empty, so the
        # check reduces to the definition of the 2x2 q-determinant.
        report = q_dodgson_check(rational_matrix([[1, 2], [3, 4]]))
        assert report.passed
        assert report.scale == 1
        assert report.lhs == HalfExpPoly({0: 4, 2: -6})

    def test_all_ones_is_bq(self):
        for n in (2, 3, 4, 5):
            m = rational_matrix([[1] * n for _ in range(n)])
            report = q_dodgson_check(m)
            assert report.passed
            assert q_dodgson_divided(m) == bq_product(n)

    def test_random_integer_matrices(self):
        rng = random.Random(23)
        for n in (2, 3, 4):
            for _ in range(6):
                rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
                m = rational_matrix(rows)
                report = q_dodgson_check(m)
                assert report.passed
                assert report.scale == 1
                assert report.lhs == sym_det(_q_weight_matrix(rows)) * sym_det(
                    _q_weight_matrix([row[1 : n - 1] for row in rows[1 : n - 1]])
                )

    def test_rational_entries_are_scaled(self):
        m = rational_matrix([[F(1, 2), 1, 2], [1, 3, F(1, 3)], [2, 1, 1]])
        report = q_dodgson_check(m)
        assert report.passed
        assert report.scale == 6

    def test_random_rational_matrices(self):
        rng = random.Random(5)
        for n in (2, 3, 4):
            for _ in range(4):
                m = rational_matrix(_random_rational_rows(n, rng, lo=-3, hi=3))
                assert q_dodgson_check(m).passed

    def test_divided_recovers_qdet(self):
        rng = random.Random(9)
        for _ in range(6):
            rows = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            m = rational_matrix(rows)
            try:
                divided = q_dodgson_divided(m)
            except SingularInteriorError:
                assert rows[1][1] == 0
                continue
            assert divided == sym_det(_q_weight_matrix(rows))

    def test_divided_has_the_sym_det_term_order(self):
        """The quotient's repr is that of the direct q-determinant of the
        same scaled, weighted matrix: terms in ascending exponent."""
        m = rational_matrix([[1, 2], [3, 4]])
        assert repr(q_dodgson_divided(m)) == "HalfExpPoly({0: 4, 2: -6})"
        rng = random.Random(13)
        for n in (2, 3, 4, 5, 6):
            for _ in range(4):
                m = rational_matrix(_random_rational_rows(n, rng))
                expected = sym_det(_q_weight_matrix(_int_rows(m.rows)[0]))
                assert repr(q_dodgson_divided(m)) == repr(expected)

    def test_divided_value_at_one(self):
        m = rational_matrix([[F(1, 2), 1], [1, 3]])
        scale = lcm(*(x.denominator for row in m.rows for x in row))
        assert q_dodgson_divided(m).evaluate_q(F(1)) == scale**2 * det(m.rows)

    def test_divided_singular_interior(self):
        with pytest.raises(SingularInteriorError):
            q_dodgson_divided(rational_matrix([[1, 2, 3], [4, 0, 5], [6, 7, 8]]))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_whole_weighting_carries_the_q_power(self, n):
        """Minors of the whole q-weighted matrix against each submatrix
        weighted by itself: the interior and diagonal minors agree, and
        each antidiagonal minor carries q^{(n-1)/2}, so the pair carries
        the identity's q^{n-1}."""
        rng = random.Random(100 + n)
        head, tail, inner = slice(1, None), slice(None, n - 1), slice(1, n - 1)
        shift = HalfExpPoly.q_pow_twice(n - 1)
        nonzero = 0
        for _ in range(5):
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            weighted = _q_weight_matrix(rows)
            for (r, c), factor in [
                ((inner, inner), HalfExpPoly.one()),
                ((head, head), HalfExpPoly.one()),
                ((tail, tail), HalfExpPoly.one()),
                ((head, tail), shift),
                ((tail, head), shift),
            ]:
                whole = sym_det([row[c] for row in weighted[r]])
                own = sym_det(_q_weight_matrix([row[c] for row in rows[r]]))
                assert whole == factor * own
                nonzero += not own.is_zero()
        assert nonzero > 20

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_the_poly_condensation(self, n, laplace_det):
        """Both sides and the quotient against condensation on the
        HalfExpPoly matrix; small entries make singular interiors, and a
        zero diagonal moves the least exponent off 0."""
        rng = random.Random(300 + n)
        singular = 0
        for trial in range(12):
            rows = _random_rational_rows(n, rng, lo=-2, hi=2)
            if trial % 3 == 0:
                for i in range(n):
                    rows[i][i] = F(0)
            m = rational_matrix(rows)
            weighted = _q_weight_matrix(_int_rows(m.rows)[0])
            interior, numerator = _five_slices(weighted, HalfExpPoly.one(), laplace_det)
            report = q_dodgson_check(m)
            assert report.rhs.terms == numerator.terms
            assert report.lhs.terms == (laplace_det(weighted, HalfExpPoly.one()) * interior).terms
            if interior.is_zero():
                singular += 1
                with pytest.raises(SingularInteriorError):
                    q_dodgson_divided(m)
            else:
                assert q_dodgson_divided(m) == numerator.divexact(interior)
        assert singular < 12

    def test_too_small(self):
        with pytest.raises(AsmError):
            q_dodgson_check(rational_matrix([[1]]))
        with pytest.raises(AsmError):
            q_dodgson_divided(rational_matrix([[1]]))

    @_NON_SQUARE
    def test_check_rejects_non_square(self, rows, refused_by_the_constructor):
        refused_by_the_constructor(q_dodgson_check, rows)

    @_NON_SQUARE
    def test_divided_rejects_non_square(self, rows, refused_by_the_constructor):
        refused_by_the_constructor(q_dodgson_divided, rows)


_BOTH_ORDERS = pytest.mark.parametrize("first", ["check", "divided"])


class TestKeptCondensation:
    """q_dodgson_check and q_dodgson_divided share one condensation, kept
    on the matrix, which equality, hash, repr, the fields and pickling
    do not see."""

    ROWS = [[F(1, 2), 2, -1, 3], [3, F(5, 3), 1, 0], [2, -1, F(7, 4), 1], [1, 1, 2, F(1, 5)]]

    @staticmethod
    def _both(m, first):
        """The report and the quotient, the one named first called first."""
        if first == "check":
            report = q_dodgson_check(m)
            return report, q_dodgson_divided(m)
        quotient = q_dodgson_divided(m)
        return q_dodgson_check(m), quotient

    @_BOTH_ORDERS
    def test_leaves_the_plain_matrix(self, first):
        assert [f.name for f in fields(RationalMatrix)] == ["rows"]
        m, plain = rational_matrix(self.ROWS), rational_matrix(self.ROWS)
        self._both(m, first)
        assert m._q_condensed is not None and plain._q_condensed is None
        assert m == plain and hash(m) == hash(plain) and repr(m) == repr(plain)

    @_BOTH_ORDERS
    def test_pickles_after_each_call(self, first):
        m = rational_matrix(self.ROWS)
        fresh = self._both(rational_matrix(self.ROWS), first)
        calls = (q_dodgson_check, q_dodgson_divided)
        for call in calls if first == "check" else calls[::-1]:
            call(m)
            back = pickle.loads(pickle.dumps(m))
            assert back == m and back._q_condensed == m._q_condensed
            assert self._both(back, first) == fresh

    @_BOTH_ORDERS
    def test_one_condensation_per_matrix(self, first):
        """One _condense call for the check and the quotient on one
        matrix, and one per matrix on two equal but distinct ones."""
        with mock.patch.object(asmgraph.polynomials, "_condense", wraps=_condense) as spy:
            self._both(rational_matrix(self.ROWS), first)
            assert spy.call_count == 1
        a, b = rational_matrix(self.ROWS), rational_matrix(self.ROWS)
        with mock.patch.object(asmgraph.polynomials, "_condense", wraps=_condense) as spy:
            if first == "check":
                q_dodgson_check(a), q_dodgson_divided(b)
            else:
                q_dodgson_divided(a), q_dodgson_check(b)
            assert spy.call_count == 2

    @_BOTH_ORDERS
    def test_results_match_a_fresh_matrix(self, first):
        """On nonsingular interiors; zero ones have their own test."""
        rng = random.Random(41)
        for n in (2, 3, 4, 5, 6):
            for _ in range(3):
                rows = _random_rational_rows(n, rng)
                if det([row[1:-1] for row in rows[1:-1]]) == 0:
                    continue
                m = rational_matrix(rows)
                report, quotient = self._both(m, first)
                assert report == q_dodgson_check(rational_matrix(rows))
                assert repr(quotient) == repr(q_dodgson_divided(rational_matrix(rows)))
                assert self._both(m, first) == (report, quotient)

    @pytest.mark.parametrize("rows", [((1, 2, 3), (1, 2, 3)), ((5, 7),), ((4,),), ()])
    def test_bad_input_keeps_nothing(self, rows):
        """A non-square matrix cannot be built; a 1x1 or 0x0 one raises
        in both calls and keeps nothing."""
        rows = tuple(tuple(map(F, row)) for row in rows)
        if any(len(row) != len(rows) for row in rows):
            with pytest.raises(AsmError, match="^matrix must be square$"):
                RationalMatrix(rows)
            return
        m = RationalMatrix(rows)
        for call in (q_dodgson_check, q_dodgson_divided):
            with pytest.raises(AsmError):
                call(m)
            assert m._q_condensed is None

    @_BOTH_ORDERS
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_zero_interior_in_either_order(self, first, n):
        """On a zero interior the quotient raises with no _det call, and
        each check takes the four corner slices, whichever came first."""
        rows = _zero_interior_rows(n, 900 + n)
        m = rational_matrix(rows)
        with mock.patch.object(asmgraph.polynomials, "_det", wraps=_det) as spy:
            for call in (["check", "divided"] if first == "check" else ["divided", "check"]) * 2:
                before = spy.call_count
                if call == "divided":
                    with pytest.raises(SingularInteriorError):
                        q_dodgson_divided(m)
                    assert spy.call_count == before
                else:
                    report = q_dodgson_check(m)
                    assert spy.call_count == before + 4
                    assert report.passed and report.lhs.is_zero()
        assert report == q_dodgson_check(rational_matrix(rows))
