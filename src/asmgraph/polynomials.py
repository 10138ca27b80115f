"""The signed bigrassmannian polynomial B_n(q), four ways.

    B_n(q) = sum over w in S_n of sign(w) q^{beta(w)}
           = prod_{k=1}^{n-1} (1 - q^k)^{n-k},

with beta(w) = (1/2) sum (i - w(i))^2.  The product evaluation comes
from a q-analogue of Dodgson condensation applied to the matrix
(q^{(i-j)^2/2})_{i,j}, whose determinant is exactly B_n(q); the same
recurrence gives

    B_n = B_{n-1}^2 (1 - q^{n-1}) / B_{n-2}.

This module computes B_n by definition (tallied over the column-state
walks of the permutation matrices, never one permutation at a time,
each state's sum one int at q^(1/2) = 2^width), by
product, by symbolic q-determinant, and by the recursion, plus the
numeric Dodgson identity and its q-analogue on arbitrary rational
matrices:

    |A| |A'| = |A del row 1 col 1| |A del row n col n|
             - |A del row 1 col n| |A del row n col 1|,

where A' is the interior (rows and columns 1 and n deleted); in the
q-weighted version the second product picks up the factor q^{n-1}.
That version is the same identity applied to the whole q-weighted
matrix, whose two antidiagonal minors carry the q^{n-1} between them,
so one condensation step serves both.  That step is one fraction-free
elimination of the interior, bordered by rows and columns 1 and n,
which leaves the interior minor and the four corner minors together.

Every polynomial computation here runs on ints by Kronecker
substitution: each polynomial is evaluated once at q^(1/2) = 2^width,
or at q = 2^width where every exponent is an integer, the products,
the fraction-free elimination of :mod:`symbolic` and the divisions run
on those ints, and each result is read back as balanced base-2^width
digits by :func:`_decode`.  The width comes from Hadamard's bound on
the matrix (see :func:`sym_det`), and for the definition's tally, the
product and the recursion from the n! terms of the sum, so the decoded
coefficients are exact.  A division is :func:`_exact_quotient`, one
divmod confirmed at a second width.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Sequence

from .core import AsmError
from .enumeration import PERMUTATION_SIZE_LIMIT, _check_limit, _permutation_table, _tally
from .exact import RationalMatrix, _check_square, _int_rows
from .lattice import _square_gaps
from .symbolic import HalfExpPoly, NonExactDivisionError, _bordered, _det, _trusted_poly

QDET_SIZE_LIMIT = 10


class SingularInteriorError(AsmError):
    """The interior minor vanishes, so the condensation quotient is undefined."""


def _factorial_width(n: int) -> int:
    """The width with n! < 2^(width-1): a polynomial whose coefficients
    are sums of at most n! terms +-1, as those of B_k and of the unsigned
    sum are for every k <= n, decodes exactly at it."""
    return factorial(n).bit_length() + 1


def _beta_tally(n: int, size_limit: int | None, signed: bool) -> HalfExpPoly:
    """sum over S_n of sign(w) q^{beta(w)}, or unsigned: the column-state
    tally over the permutation table, whose 1 in column j of row i adds
    (i - j)^2 to 2 beta and an inversion per used column right of j, a
    set bit of the int state above bit j.

    Each coefficient is a sum of at most n! terms +-1, so one decode of
    the tally's int at q^(1/2) = 2^width, for the width of
    :func:`_factorial_width`, gives the terms exactly (see
    :func:`_tally`), in ascending exponent."""
    _check_limit(n, size_limit)
    gaps = _square_gaps(n)

    def weigh(i: int, row: tuple[int, ...], state: int):
        j = row.index(1)
        return gaps[i][j], (-1) ** (state >> j + 1).bit_count() if signed else 1

    width = _factorial_width(n)
    return _decode(_tally(n, _permutation_table(n), weigh, width), width, 0)


def bq_definition(
    n: int, *, size_limit: int | None = PERMUTATION_SIZE_LIMIT
) -> HalfExpPoly:
    """B_n(q) straight from the signed sum over S_n."""
    return _beta_tally(n, size_limit, signed=True)


def bq_product(n: int) -> HalfExpPoly:
    """B_n(q) as the product of (1 - q^k)^(n-k) for k = 1..n-1, terms in
    ascending exponent.

    Every exponent is an integer, so the product is evaluated at q, not
    at q^(1/2), = 2^width for the width of :func:`_factorial_width`, and
    decoded once.  Evaluation is a ring homomorphism, so the partial
    products need no bound; only B_n's coefficients must fit, and B_n is
    a signed sum of n! terms."""
    _check_limit(n, None)
    width = _factorial_width(n)
    factors = [(1 - (1 << width * k)) ** (n - k) for k in range(1, n)]
    # A balanced product tree: multiplying partial products pairwise costs
    # less than multiplying one growing product by each short factor.
    while len(factors) > 1:
        factors = [prod(factors[i : i + 2]) for i in range(0, len(factors), 2)]
    return _decode(prod(factors), width, 0, 2)


def sym_det(entries: Sequence[Sequence[HalfExpPoly]]) -> HalfExpPoly:
    """Determinant of a matrix of polynomials in q^(1/2), by Kronecker
    substitution.

    With z = q^(1/2) and low the least doubled exponent of any entry,
    each entry a_ij times z^-low is a polynomial in z, encoded as its
    value at z = 2^width; the integer determinant of those values is
    decoded as balanced base-2^width digits and shifted back by z^(n low).

    Exactness.  Evaluation at 2^width is a ring homomorphism Z[z] -> Z,
    so the integer determinant is P(2^width) for P the shifted
    determinant.  :func:`_det` takes it by elimination over the ints,
    where every intermediate value is a minor of the encoded matrix
    (Sylvester's identity): each ``//`` is exact and needs no bound.
    The same holds for the bordered elimination of :func:`_condense`,
    whose five results are minors of the encoded matrix too.
    Only decoding needs one: the digits of P(2^width) are P's
    coefficients when each coefficient c has |c| < 2^(width-1).  Here
    |c| <= ||P||_2, the L2 norm of P(z) on |z| = 1, which is at most
    max |P(z)| there; since |a_ij(z)| <= ||a_ij||_1 on the circle,
    Hadamard's inequality bounds that by sqrt(H) with

        H = prod_i max(1, sum_j ||a_ij||_1^2).

    The max(1, .) makes sqrt(H) bound every minor of the matrix too, as
    a row left out or a zero row cannot shrink it.  A product of two
    minors is then bounded by H and a difference of two such products by
    2H.  The width is the least with 2^(width-1) above the bound, and
    :func:`_kronecker` picks it; it is derived, never set.
    """
    _check_square(entries)
    encoded, width, low = _kronecker(entries)
    return _decode(_det(encoded), width, len(entries) * low)


def _kronecker(
    entries: Sequence[Sequence[HalfExpPoly]], products: int = 1
) -> tuple[list[list[int]], int, int]:
    """The entries as ints, each times q^(-low/2) at q^(1/2) = 2^width for
    low their least doubled exponent (0 if there is none), with that
    width and low.  A value with ``size`` rows of them in all decodes as
    ``_decode(value, width, size * low)``: digit m is the coefficient of
    q^((m + size low)/2).

    The decoding is exact for a minor when products is 1 and for a
    difference of two products of minors when it is 2: the width is the
    least with 2^(width-1) above sqrt(H), or above 2H, for H = prod_i
    max(1, sum_j ||a_ij||_1^2).  The integer arithmetic that makes the
    value needs no bound (see :func:`sym_det`).
    """
    low = min((t for row in entries for x in row for t in x.terms), default=0)
    square = 1
    for row in entries:
        square *= max(1, sum(sum(map(abs, x.terms.values())) ** 2 for x in row))
    bound_squared = square if products == 1 else 4 * square * square
    width = (bound_squared.bit_length() + 3) // 2
    encoded = [
        [sum(c << width * (t - low) for t, c in x.terms.items()) for x in row]
        for row in entries
    ]
    return encoded, width, low


def _decode(value: int, width: int, low: int, step: int = 1) -> HalfExpPoly:
    """The polynomial whose coefficients are value's balanced
    base-2^width digits: digit m is the coefficient of q^((low + step m)/2),
    terms in ascending exponent.  Step 1 reads value as evaluated at
    q^(1/2) = 2^width, step 2 at q = 2^width.  Exact when every
    coefficient c has |c| < 2^(width-1)."""
    half, mask = 1 << width - 1, (1 << width) - 1
    terms = {}
    # With width >= 2 the top digit is at least a third of value's
    # magnitude, so value has no more digits than this range.
    for t in range(low, low + step * (abs(value).bit_length() // width + 2), step):
        digit = value & mask
        value >>= width
        if digit >= half:  # a negative digit, borrowed from the next one up
            digit -= 1 << width
            value += 1
        if digit:
            terms[t] = digit
    return _trusted_poly(terms)


def _exact_quotient(factors: Sequence[int], divisor: int, width: int) -> int:
    """Q(2^width) for the polynomial Q in Z[z] with Q D = F_1 ... F_r,
    given the values F_i(2^width) as ``factors`` and D(2^width) as
    ``divisor``; NonExactDivisionError if there is no such Q.

    The caller promises that each F_i and D, and Q if it exists, has
    every coefficient c with |c| < 2^(width-1), so that each value's
    balanced base-2^width digits (see :func:`_decode`) are its
    polynomial's coefficients.  D must not be 0.

    Evaluation at 2^width is a ring homomorphism, so if Q exists, the
    product N of the factors' values is Q(2^width) D(2^width): one
    divmod leaves no remainder, and a remainder proves that D does not
    divide.  A zero remainder alone proves nothing, since 2^width is one
    point: the integer quotient's digits give some Q' with Q' D = N at
    z = 2^width only.  So Q' D = F_1 ... F_r is confirmed as polynomials
    at a second width, read from the decoded norms: a coefficient of a
    product is at most the product of the factors' L1 norms, so every
    coefficient of the difference has absolute value at most

        bound = ||Q'||_1 ||D||_1 + ||F_1||_1 ... ||F_r||_1,

    and with 2^wide > bound, a nonzero difference is nonzero at
    2^wide: its lowest nonzero coefficient c_m, with 0 < |c_m| < 2^wide,
    is not a multiple of 2^wide, so the value is not 0 modulo
    2^(wide (m+1)).  A passed confirmation thus proves the division
    exact.  Conversely, if Q exists, the integer quotient is Q(2^width),
    and since the first width bounds Q's coefficients, its balanced
    digits, which are unique, are those coefficients: Q' is Q, and an
    exact division always passes.
    """
    quotient, remainder = divmod(prod(factors), divisor)
    if remainder:
        raise NonExactDivisionError("the divisor leaves a remainder")
    # Each distinct value is decoded once; the recursion passes one twice.
    terms = {x: _decode(x, width, 0).terms for x in {quotient, divisor, *factors}}
    norm = {x: sum(map(abs, t.values())) for x, t in terms.items()}
    wide = (norm[quotient] * norm[divisor] + prod(norm[x] for x in factors)).bit_length()
    at = {x: sum(c << wide * m for m, c in t.items()) for x, t in terms.items()}
    if at[quotient] * at[divisor] != prod(at[x] for x in factors):
        raise NonExactDivisionError("the quotient times the divisor is not the numerator")
    return quotient


def _q_weight_matrix(rows: Sequence[Sequence[int]]) -> list[list[HalfExpPoly]]:
    """Entries m_ij * q^{(i-j)^2/2}, indices counted inside the matrix,
    for int m_ij, built without the constructor's check."""
    return [
        [_trusted_poly({g: x} if x else {}) for g, x in zip(gaps, row)]
        for gaps, row in zip(_square_gaps(len(rows)), rows)
    ]


def bq_qdet(n: int, *, size_limit: int | None = QDET_SIZE_LIMIT) -> HalfExpPoly:
    """B_n(q) as the symbolic determinant of (q^{(i-j)^2/2})."""
    _check_limit(n, size_limit, "q-determinant guard")
    return sym_det(_q_weight_matrix([[1] * n for _ in range(n)]))


def bq_recursion(n: int) -> HalfExpPoly:
    """B_n(q) by the three-term recursion, terms in ascending exponent.

    It seeds itself with B_1 = 1 and B_2 = 1 - q, so it shares no B_k
    with the other three ways.  Each B_k is held as its value at
    q = 2^width, for the width of :func:`_factorial_width`, which every
    B_k with k <= n fits, and only B_n is decoded for the result.  Each
    division B_(k-1)^2 (1 - q^(k-1)) / B_(k-2) is :func:`_exact_quotient`:
    one divmod, and a confirmation at a second width.  It raises
    NonExactDivisionError if a division is not exact (none can be, but
    the check is real).
    """
    _check_limit(n, None)
    width = _factorial_width(n)
    values = [None, 1, 1 - (1 << width)]
    for k in range(3, n + 1):
        factors = values[k - 1], values[k - 1], 1 - (1 << width * (k - 1))
        values.append(_exact_quotient(factors, values[k - 2], width))
    return _decode(values[n], width, 0, 2)


BQ_METHODS = {
    "def": bq_definition,
    "prod": bq_product,
    "qdet": bq_qdet,
    "rec": bq_recursion,
}


def unsigned_permanent_q(
    n: int, *, size_limit: int | None = PERMUTATION_SIZE_LIMIT
) -> HalfExpPoly:
    """sum over S_n of q^{beta(w)}, the permanent analogue of B_n."""
    return _beta_tally(n, size_limit, signed=False)


# ---------------------------------------------------------------------------
# Dodgson condensation, numeric and q-weighted
# ---------------------------------------------------------------------------

def _condense(rows: Sequence[Sequence[int]]) -> tuple[int, int | None]:
    """Interior minor and Dodgson numerator |NW| |SE| - |NE| |SW| of a
    square int matrix, n >= 2, where NW, SE, NE and SW are the four
    (n-1)-blocks, from one :func:`_bordered` elimination.

    Rows and columns go in the order 2..n-1, 1, n, so the leading block
    is the interior and the bordered block holds the four corner blocks'
    minors.  Row 1 and column 1 each move past the n - 2 interior ones,
    so the entries for NW and SE are theirs, and those for NE and SW
    are theirs times (-1)^(n-2) each, which cancels in the product.
    When the interior minor is 0 the elimination cannot give the corner
    minors, and the numerator is None."""
    n = len(rows)
    order = [*range(1, n - 1), 0, n - 1]
    interior, block = _bordered([[rows[i][j] for j in order] for i in order], 2)
    if block is None:
        return 0, None
    (nw, ne), (sw, se) = block
    return interior, nw * se - ne * sw


def dodgson(m: RationalMatrix) -> Fraction:
    """det(m) by one condensation step, exact: Dodgson's numerator over
    the interior minor (1 when n = 2).  Raises SingularInteriorError when
    the interior minor is zero (the classical proviso).  The minors are
    taken on the integer matrix scaled by the lcm of all denominators,
    so the quotient grows by scale**n.  The determinant itself is never
    taken: :func:`_condense` gives only the interior and the numerator,
    from one elimination, and no numerator when the interior is 0.
    """
    n = m.n
    if n < 2:
        return m.entry(1, 1) if n else Fraction(1)
    rows, scale = _int_rows(m.rows)
    interior, numerator = _condense(rows)
    if interior == 0:
        raise SingularInteriorError("interior minor is zero")
    return Fraction(numerator, interior * scale**n)


@dataclass(frozen=True)
class QDodgsonReport:
    """Both sides of the q-condensation identity for one matrix.

    The identity is checked multiplicatively (no division, so no
    proviso).  Input entries are scaled by a common denominator first;
    both sides being homogeneous of degree 2n-2 in the entries, the
    check is equivalent and all coefficients stay integers.
    """

    n: int
    scale: int
    lhs: HalfExpPoly
    rhs: HalfExpPoly

    @property
    def passed(self) -> bool:
        return self.lhs == self.rhs


def _q_condensation(
    m: RationalMatrix,
) -> tuple[int, tuple[tuple[int, ...], ...], int, int, int, int | None]:
    """Scale, A_q (the q-weighted scaled matrix) encoded by
    :func:`_kronecker` as tuple rows, its width and low, and its interior
    minor and condensation numerator, encoded, as :func:`_condense` gives
    them.  A product of minors with ``size`` rows in all decodes as
    ``_decode(value, width, size * low)``.

    The first call on m checks n, computes the tuple and keeps it on m
    (see :class:`RationalMatrix`); later calls read it, so
    :func:`q_dodgson_check` and :func:`q_dodgson_divided` on one matrix
    share one condensation.  The tuple is plain data, so m still pickles.

    Weighting A_q whole gives its interior and diagonal minors their own
    weights.  An antidiagonal minor's exponents shift by +-(i' - j') + 1/2,
    and the +-(i' - j') sum to zero over any permutation, so it carries
    q^{(n-1)/2}: Dodgson's numerator on A_q is the identity's right side.
    That numerator and |A_q| |A'_q| are bounded by 2H, so the encoding is
    taken for products of two minors (see :func:`sym_det`).  AsmError
    unless n >= 2, and then nothing is kept.
    """
    if m._q_condensed is None:
        if m.n < 2:
            raise AsmError("condensation needs n >= 2")
        rows, scale = _int_rows(m.rows)
        encoded, width, low = _kronecker(_q_weight_matrix(rows), products=2)
        kept = scale, tuple(map(tuple, encoded)), width, low, *_condense(encoded)
        object.__setattr__(m, "_q_condensed", kept)
    return m._q_condensed


def q_dodgson_check(m: RationalMatrix) -> QDodgsonReport:
    """Verify |A_q| |A'_q| = |A^11_q| |A^nn_q| - q^{n-1} |A^1n_q| |A^n1_q|,
    each submatrix q-weighted with indices counted from 1 inside itself.

    The interior |A'_q| and the right side come from the condensation
    of :func:`_q_condensation`, one bordered elimination that m keeps for
    :func:`q_dodgson_divided` too, and |A_q| from a separate full
    :func:`_det` on the same encoding, taken on each call.  Reading |A_q|
    off the bordered block would assume the identity this checks.  When
    |A'_q| is 0 the left side is 0, and the right side is taken from the
    four corner blocks as slices, each by :func:`_det`, so it is computed
    there too."""
    scale, encoded, width, low, interior, numerator = _q_condensation(m)
    if numerator is None:
        head, tail = slice(1, None), slice(None, -1)
        nw, se, ne, sw = (
            _det([row[c] for row in encoded[r]])
            for r, c in ((tail, tail), (head, head), (tail, head), (head, tail))
        )
        lhs, numerator = 0, nw * se - ne * sw
    else:
        lhs = _det(encoded) * interior
    shift = (2 * m.n - 2) * low
    return QDodgsonReport(m.n, scale, _decode(lhs, width, shift), _decode(numerator, width, shift))


def q_dodgson_divided(m: RationalMatrix) -> HalfExpPoly:
    """|A_q| recovered by dividing the condensation numerator.

    Exact polynomial division by the q-weighted interior determinant;
    raises SingularInteriorError when that determinant is the zero
    polynomial.  The result equals the direct symbolic q-determinant of
    the scaled matrix (see :class:`QDodgsonReport` on scaling), terms in
    ascending exponent.  The condensation is :func:`_q_condensation`'s,
    kept on m, so after :func:`q_dodgson_check` only the division and
    one decoding are left.

    The division is :func:`_exact_quotient` of the kept encoded
    numerator by the kept encoded interior, at the condensation's width:
    the numerator fits it (bounded by 2H), and the interior and the
    quotient |A_q| are minors, bounded by sqrt(H) (see :func:`sym_det`).
    It is confirmed at a second width, and the quotient, with n rows of
    entries, decodes with shift n low.
    """
    _scale, _encoded, width, low, interior, numerator = _q_condensation(m)
    if interior == 0:
        raise SingularInteriorError("interior q-determinant is the zero polynomial")
    return _decode(_exact_quotient((numerator,), interior, width), width, m.n * low)
