"""The integer-ratio evaluators against the Fraction code they replaced.

Monomial values, q-deformed 2x2 minors, certificate sums and the
bidiagonal sampler all run on (numerator, denominator) pairs of ints.
The per-factor Fraction versions are kept here as oracles: on every
input both must give the same value or raise the same exception class.
So are the readers of one entry, _ratio and _int_rows, against the
property readers they replaced.
The samplers draw through one bit drawer, checked here against the
random.randint calls they replaced.
"""

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asmgraph import (
    AsmError,
    LaurentMonomial,
    Rect,
    UndefinedEvaluationError,
    asm_leq,
    bidiagonal_product,
    enumerate_asms,
    evaluate_certificate_q,
    identity_asm,
    random_tnn,
    rational_matrix,
    sfl_certificate,
)
from asmgraph import tnn
from asmgraph.symbolic import (
    EdgeFactorization,
    SflCertificate,
    _int_rows,
    _randints,
    _random_positive_rows,
    _ratio,
    _Ratios,
)
from asmgraph.tnn import RANDOM_TNN_BOUND, RationalMatrix, _longest_word, random_rational_matrix

F = Fraction


# ---------------------------------------------------------------------------
# the Fraction oracles
# ---------------------------------------------------------------------------

def old_monomial_evaluate(m, rows):
    result = Fraction(m.coeff)
    for (i, j), e in m.powers:
        base = Fraction(rows[i - 1][j - 1])
        if base == 0 and e < 0:
            raise UndefinedEvaluationError((i, j))
        result *= base**e
    return result


def old_minor_evaluate_q(minor, rows, q):
    if len(minor.rows) != 2:
        raise ValueError("q-deformation implemented for 2x2 minors")
    (i, j), (k, l) = minor.rows, minor.cols
    area = (j - i) * (l - k)

    def m(p, c):
        return Fraction(rows[p - 1][c - 1])

    return m(i, k) * m(j, l) - Fraction(q) ** area * m(i, l) * m(j, k)


def old_evaluate_certificate_q(cert, rows, q):
    q = Fraction(q)
    base = cert.beta_pair[0]
    total = Fraction(0)
    for t, s in enumerate(cert.steps):
        total += (
            q ** (base + t)
            * old_monomial_evaluate(s.prefix, rows)
            * old_minor_evaluate_q(s.minor, rows, q)
            / old_monomial_evaluate(s.divisor, rows)
        )
    return total


def old_bidiagonal_product(diag, lower_params, upper_params):
    n = len(diag)
    word = _longest_word(n)
    if len(lower_params) != len(word) or len(upper_params) != len(word):
        raise AsmError(f"need {len(word)} lower and upper parameters for n={n}")
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = Fraction(1)
    for idx, t in zip(word, lower_params):
        t = Fraction(t)
        for r in range(n):
            m[r][idx - 1] += t * m[r][idx]
    for i in range(n):
        d = Fraction(diag[i])
        for r in range(n):
            m[r][i] *= d
    for idx, t in zip(reversed(word), upper_params):
        t = Fraction(t)
        for r in range(n):
            m[r][idx] += t * m[r][idx - 1]
    return rational_matrix(m)


def old_random_tnn(n, seed):
    rng = random.Random(seed)
    count = n * (n - 1) // 2

    def draw():
        return Fraction(rng.randint(1, RANDOM_TNN_BOUND), rng.randint(1, RANDOM_TNN_BOUND))

    diag = [draw() for _ in range(n)]
    lower = [draw() for _ in range(count)]
    upper = [draw() for _ in range(count)]
    return old_bidiagonal_product(diag, lower, upper)


def old_random_positive_rows(n, rng):
    rows = [[F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)] for _ in range(n)]
    return [[(x.numerator, x.denominator) for x in row] for row in rows]


def old_random_rational_matrix(n, rng):
    return RationalMatrix(
        tuple(tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)) for _ in range(n))
    )


def old_ratio(x):
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator, x.denominator


def old_int_rows(rows):
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (scale // x.denominator) for x in row] for row in rows], scale


class _FractionSubclass(Fraction):
    pass


def outcome(f, *args):
    """The value with its type, or the class of the exception raised."""
    try:
        value = f(*args)
    except Exception as exc:  # the class is what gets compared
        return type(exc)
    return type(value), value


def entry_types(m):
    return {type(x) for row in m.rows for x in row}


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)

#: Matrix cells of every accepted type, with zeros and negatives.
_cells = st.one_of(
    st.just(0),
    st.integers(min_value=-4, max_value=4),
    _small_fractions,
    st.integers(min_value=-16, max_value=16).map(lambda k: k / 4),
    _small_fractions.map(str),
)


@st.composite
def _matrices(draw, min_n=1, max_n=4):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    row = st.lists(_cells, min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


def _laurent(n):
    """Monomials on the cells of an n x n matrix, exponents -3..3 with
    zero exponents kept."""
    index = st.integers(min_value=1, max_value=n)
    powers = st.dictionaries(
        st.tuples(index, index), st.integers(min_value=-3, max_value=3), max_size=5
    )
    return st.builds(
        lambda coeff, p: LaurentMonomial(coeff, tuple(sorted(p.items()))),
        st.one_of(_small_fractions, st.integers(min_value=-3, max_value=3)),
        powers,
    )


@st.composite
def _rects(draw, n):
    """Rectangles of any shape inside an n x n matrix, n >= 2."""
    pair = st.lists(
        st.integers(min_value=1, max_value=n), min_size=2, max_size=2, unique=True
    ).map(sorted)
    (i, j), (k, l) = draw(pair), draw(pair)
    return Rect(i, j, k, l)


_qs = st.one_of(st.just(F(0)), _small_fractions, _small_fractions.map(str))


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

class TestRatio:
    """_ratio reads an int or a Fraction by its as_integer_ratio() and
    sends anything else through Fraction(), as the isinstance reader did."""

    @pytest.mark.parametrize(
        "x",
        [0, -7, 3**50, True, False, F(-3, 4), F(0), _FractionSubclass(2, 6), "-7/3", " 5 ",
         "1e-3", 0.375, -2.5, Decimal("1.25"), Decimal("-0"), None, "x", math.nan, math.inf,
         -math.inf, Decimal("NaN"), [1]],
        ids=lambda x: f"{type(x).__name__}:{x!r}",
    )
    def test_matches_the_isinstance_reader(self, x):
        got = outcome(_ratio, x)
        assert got == outcome(old_ratio, x)
        if isinstance(got, tuple):
            (p, r) = got[1]
            assert type(p) is type(r) is int and r > 0 and math.gcd(p, r) == 1


class TestIntRows:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=0, max_value=5).flatmap(
            lambda n: st.lists(
                st.lists(
                    st.one_of(st.integers(-50, 50), st.fractions(max_denominator=60)),
                    min_size=n, max_size=n,
                ),
                min_size=n, max_size=n,
            )
        )
    )
    def test_matches_the_property_reader(self, rows):
        """Rows that mix int and Fraction entries, 0 x 0 too."""
        got = _int_rows(rows)
        assert got == old_int_rows(rows)
        assert all(type(x) is int for row in got[0] for x in row) and type(got[1]) is int

    @pytest.mark.parametrize("x", [0.5, Decimal("1.5")])
    def test_other_entries_raise_as_before(self, x):
        """A float or a Decimal entry reads exactly by its own
        as_integer_ratio(), where the property reader raised
        AttributeError.  A str or None entry never reaches _int_rows: a
        RationalMatrix's constructor has made every entry a Fraction,
        and tests/test_tnn.py checks how it reads those."""
        rows = [[F(1, 3), x], [2, 1]]
        # 1/3 and x over the lcm 6 of their denominators.
        scaled = {0.5: 3, Decimal("1.5"): 9}[x]
        assert _int_rows(rows) == ([[2, scaled], [12, 6]], 6)
        assert outcome(old_int_rows, rows) == AttributeError


class TestMonomialEvaluate:
    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_fraction_oracle(self, data):
        rows = data.draw(_matrices())
        m = data.draw(_laurent(len(rows)))
        assert outcome(m.evaluate, rows) == outcome(old_monomial_evaluate, m, rows)

    def test_zero_rules(self):
        # A zero base with a positive exponent zeroes the value but the
        # scan goes on, so a later zero base with e < 0 still raises.
        m = LaurentMonomial(F(1), (((1, 1), 1), ((1, 2), -1)))
        with pytest.raises(UndefinedEvaluationError) as exc:
            m.evaluate([[0, 0], [1, 1]])
        assert exc.value.position == (1, 2)
        assert m.evaluate([[0, 2], [1, 1]]) == 0
        assert old_monomial_evaluate(m, [[0, 2], [1, 1]]) == 0

    def test_cell_outside_the_matrix(self):
        m = LaurentMonomial(F(1), (((1, 1), 0), ((1, 3), 1)))
        assert outcome(m.evaluate, [[0, 1]]) == outcome(old_monomial_evaluate, m, [[0, 1]])
        assert outcome(m.evaluate, [[0, 1]]) is IndexError

    def test_malformed_cell(self):
        m = LaurentMonomial(F(1), (((1, 1), -1), ((1, 2), 1)))
        for rows in ([[0, "x"]], [[1, None]], [[1, float("nan")]]):
            got = outcome(m.evaluate, rows)
            assert got == outcome(old_monomial_evaluate, m, rows)
            assert got in (UndefinedEvaluationError, ValueError, TypeError)

    def test_zero_exponent_on_zero_base(self):
        m = LaurentMonomial(F(3), (((1, 1), 0),))
        assert m.evaluate([[0]]) == old_monomial_evaluate(m, [[0]]) == 3


class TestEvaluateCertificateQ:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_synthetic_certificates(self, data):
        """Hand-made steps: any ASM of the matrix's size with any
        rectangle, on matrices with zero cells and at times one malformed
        cell, any base beta and q = 0, so every exception of the old loop
        that a step can still reach is reachable."""
        rows = data.draw(_matrices(min_n=2))
        n = len(rows)
        if data.draw(st.booleans()):
            cell = st.integers(min_value=0, max_value=n - 1)
            i, j = data.draw(cell), data.draw(cell)
            rows[i][j] = data.draw(st.sampled_from(["x", None, float("nan")]))
        steps = data.draw(
            st.lists(
                st.builds(EdgeFactorization, st.sampled_from(enumerate_asms(n)), _rects(n)),
                max_size=4,
            )
        )
        base = data.draw(st.integers(min_value=-2, max_value=3))
        a = identity_asm(n)
        cert = SflCertificate(a, a, (base, base + len(steps)), tuple(steps))
        q = data.draw(_qs)
        assert outcome(evaluate_certificate_q, cert, rows, q) == outcome(
            old_evaluate_certificate_q, cert, rows, q
        )

    @pytest.mark.parametrize("q", [F(1), F(2, 3), F(9, 4)])
    def test_every_a4_certificate(self, q):
        rng = random.Random(17)
        asms = enumerate_asms(4)
        checked = raised = 0
        for a in asms:
            for b in asms:
                if not asm_leq(a, b):
                    continue
                cert = sfl_certificate(a, b)
                positive = random_tnn(4, rng.randrange(2**31)).rows
                mixed = random_rational_matrix(4, rng).rows
                for rows in (positive, mixed):
                    got = outcome(evaluate_certificate_q, cert, rows, q)
                    assert got == outcome(old_evaluate_certificate_q, cert, rows, q)
                    raised += not isinstance(got, tuple)
                checked += 1
        assert checked == 644
        # The mixed matrices carry zeros, so some sums are undefined.
        assert 0 < raised < checked


class TestBidiagonalProduct:
    @pytest.mark.parametrize("n", range(11))
    def test_random_tnn_matches_old_sampler(self, n):
        for seed in range(50):
            m = random_tnn(n, seed)
            assert m == old_random_tnn(n, seed)
            assert entry_types(m) <= {Fraction}

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_fraction_oracle(self, data):
        """Zero, negative and string parameters, and wrong lengths."""
        n = data.draw(st.integers(min_value=0, max_value=5))
        count = n * (n - 1) // 2
        params = st.lists(
            _cells, min_size=count, max_size=count + int(data.draw(st.booleans()))
        )
        diag = data.draw(st.lists(_cells, min_size=n, max_size=n))
        lower, upper = data.draw(params), data.draw(params)
        got = outcome(bidiagonal_product, diag, lower, upper)
        assert got == outcome(old_bidiagonal_product, diag, lower, upper)
        if isinstance(got, tuple):
            assert entry_types(got[1]) <= {Fraction}

    def test_zero_parameters(self):
        # Zero lower and upper words leave D alone; zeros elsewhere, on
        # the diagonal too, must give the Fraction product exactly.
        assert bidiagonal_product([2, 3, 5], [0, 0, 0], [0, 0, 0]) == rational_matrix(
            [[2, 0, 0], [0, 3, 0], [0, 0, 5]]
        )
        for diag, lower, upper in [
            ([1, 0, 2], [1, 0, 3], [0, 2, 1]),
            ([0, 0, 0], [1, 1, 1], [1, 1, 1]),
            ([F(1, 2), 1, 1, 3], [0, F(2, 3), 0, 1, 0, 4], [5, 0, 0, F(1, 7), 0, 0]),
        ]:
            assert bidiagonal_product(diag, lower, upper) == old_bidiagonal_product(
                diag, lower, upper
            )


class TestBidiagonalGrowth:
    """The columns are never reduced, only put over the lcm of their
    denominators.  Plain products of the denominators would pass the value
    checks but swell to 8,752 bits at n = 8; the lcm keeps them to 6n
    bits on these inputs, so 16n bits is a generous bound."""

    @pytest.fixture
    def raw_denominators(self, monkeypatch):
        """Bit lengths of the denominators the sampler hands to Fraction."""
        seen = []

        def recording(p, q=1):
            seen.append(q.bit_length())
            return Fraction(p, q)

        monkeypatch.setattr(tnn, "Fraction", recording)
        return seen

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_random_tnn(self, n, raw_denominators):
        for seed in range(3):
            m = random_tnn(n, seed)
            assert max(raw_denominators) <= 16 * n
            assert m == old_random_tnn(n, seed)

    @pytest.mark.parametrize("n", [12, 16])
    def test_bidiagonal_product(self, n, raw_denominators):
        rng = random.Random(n)
        count = n * (n - 1) // 2
        for _ in range(3):
            diag, lower, upper = (
                [F(rng.randint(0, 9), rng.randint(1, 9)) for _ in range(k)]
                for k in (n, count, count)
            )
            m = bidiagonal_product(diag, lower, upper)
            assert max(raw_denominators) <= 16 * n
            assert m == old_bidiagonal_product(diag, lower, upper)


class TestRandints:
    """_randints(rng, lo, hi, count) is count calls of rng.randint(lo, hi):
    the same values, and rng left in the same state."""

    @pytest.mark.parametrize(
        "lo, hi",
        # The samplers' ranges, then the widths 1, 2, 8, 16 and 17.
        [(1, 4), (1, 9), (-9, 9), (0, 0), (3, 4), (1, 8), (-8, 7), (0, 16)],
    )
    def test_matches_randint(self, lo, hi):
        for seed in range(20):
            for count in (0, 1, 2, 50):
                rng, old = random.Random(seed), random.Random(seed)
                assert list(_randints(rng, lo, hi, count)) == [
                    old.randint(lo, hi) for _ in range(count)
                ]
                assert rng.getstate() == old.getstate()

    def test_alternating_ranges(self):
        for seed in range(20):
            rng, old = random.Random(seed), random.Random(seed)
            draws = zip(_randints(rng, 1, 4, 30), _randints(rng, -9, 9, 30))
            assert list(draws) == [(old.randint(1, 4), old.randint(-9, 9)) for _ in range(30)]
            assert rng.getstate() == old.getstate()


class TestSamplersMatchRandint:
    @pytest.mark.parametrize("n", range(9))
    def test_random_positive_rows(self, n):
        for seed in range(50):
            rng, old = random.Random(seed), random.Random(seed)
            rows = _random_positive_rows(n, rng)
            assert type(rows) is _Ratios
            assert rows == old_random_positive_rows(n, old)
            assert rng.getstate() == old.getstate()

    @pytest.mark.parametrize("n", range(9))
    def test_random_rational_matrix(self, n):
        for seed in range(50):
            rng, old = random.Random(seed), random.Random(seed)
            m = random_rational_matrix(n, rng)
            assert m == old_random_rational_matrix(n, old)
            assert entry_types(m) <= {Fraction}
            assert rng.getstate() == old.getstate()

    @pytest.mark.parametrize("sampler", [_random_positive_rows, random_rational_matrix])
    def test_negative_size_is_rejected(self, sampler):
        """A negative n is rejected by name before any draw, not read as
        an empty matrix."""
        for n in (-1, -3):
            rng = random.Random(0)
            state = rng.getstate()
            with pytest.raises(ValueError, match=f"n={n}"):
                sampler(n, rng)
            assert rng.getstate() == state
