"""The signed bigrassmannian polynomial B_n(q), four ways.

    B_n(q) = sum over w in S_n of sign(w) q^{beta(w)}
           = prod_{k=1}^{n-1} (1 - q^k)^{n-k},

with beta(w) = (1/2) sum (i - w(i))^2.  The product evaluation comes
from a q-analogue of Dodgson condensation applied to the matrix
(q^{(i-j)^2/2})_{i,j}, whose determinant is exactly B_n(q); the same
recurrence gives

    B_n = B_{n-1}^2 (1 - q^{n-1}) / B_{n-2}.

This module computes B_n by definition (tallied over the column-state
walks of the permutation matrices, never one permutation at a time), by
product, by symbolic q-determinant, and by the recursion, plus the
numeric Dodgson identity and its q-analogue on arbitrary rational
matrices:

    |A| |A'| = |A del row 1 col 1| |A del row n col n|
             - |A del row 1 col n| |A del row n col 1|,

where A' is the interior (rows and columns 1 and n deleted); in the
q-weighted version the second product picks up the factor q^{n-1}.
That version is the same identity applied to the whole q-weighted
matrix, whose two antidiagonal minors carry the q^{n-1} between them,
so one condensation step serves both over ints and over polynomials.
All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import AsmError
from .enumeration import PERMUTATION_SIZE_LIMIT, _check_limit, _permutation_table, _tally
from .lattice import _square_gaps
from .symbolic import HalfExpPoly, _det, _int_rows
from .tnn import RationalMatrix

QDET_SIZE_LIMIT = 10


class SingularInteriorError(AsmError):
    """The interior minor vanishes, so the condensation quotient is undefined."""


def _beta_tally(n: int, size_limit: int | None, signed: bool) -> HalfExpPoly:
    """sum over S_n of sign(w) q^{beta(w)}, or unsigned: the column-state
    tally over the permutation table, whose 1 in column j of row i adds
    (i - j)^2 to 2 beta and an inversion per used column right of j."""
    _check_limit(n, size_limit)
    gaps = _square_gaps(n)

    def weigh(i: int, row: tuple[int, ...], state: tuple[int, ...]):
        j = row.index(1)
        return gaps[i][j], (-1) ** sum(state[j + 1 :]) if signed else 1

    return HalfExpPoly(_tally(n, _permutation_table(n), weigh))


def bq_definition(
    n: int, *, size_limit: int | None = PERMUTATION_SIZE_LIMIT
) -> HalfExpPoly:
    """B_n(q) straight from the signed sum over S_n."""
    return _beta_tally(n, size_limit, signed=True)


def bq_product(n: int) -> HalfExpPoly:
    """B_n(q) as the product of (1 - q^k)^(n-k) for k = 1..n-1."""
    if n < 1:
        raise ValueError("n must be positive")
    result = HalfExpPoly.one()
    for k in range(1, n):
        factor = HalfExpPoly.one() - HalfExpPoly.q_pow(k)
        result = result * factor ** (n - k)
    return result


def sym_det(entries: Sequence[Sequence[HalfExpPoly]]) -> HalfExpPoly:
    """Determinant of a matrix of polynomials.

    Laplace expansion along successive rows, each minor on the first k
    rows built once from those on the first k - 1, so the work is
    O(n 2^n) polynomial operations rather than n!.
    """
    n = len(entries)
    if any(len(row) != n for row in entries):
        raise AsmError("matrix must be square")
    return _det(entries, HalfExpPoly.one())


def _q_weight_matrix(rows: Sequence[Sequence[int]]) -> list[list[HalfExpPoly]]:
    """Entries m_ij * q^{(i-j)^2/2}, indices counted inside the matrix."""
    return [
        [HalfExpPoly.q_pow_twice(g, x) for g, x in zip(gaps, row)]
        for gaps, row in zip(_square_gaps(len(rows)), rows)
    ]


def bq_qdet(n: int, *, size_limit: int | None = QDET_SIZE_LIMIT) -> HalfExpPoly:
    """B_n(q) as the symbolic determinant of (q^{(i-j)^2/2})."""
    _check_limit(n, size_limit, "q-determinant guard")
    return sym_det(_q_weight_matrix([[1] * n for _ in range(n)]))


def bq_recursion(n: int) -> HalfExpPoly:
    """B_n(q) by the three-term recursion, seeded from the definition.

    B_1 and B_2 come from the signed-sum definition; every division is
    exact polynomial division and raises NonExactDivisionError if a
    remainder ever appears (it cannot, but the check is real).
    """
    if n < 1:
        raise ValueError("n must be positive")
    values = [None, bq_definition(1), bq_definition(2)]
    for k in range(3, n + 1):
        numerator = values[k - 1] * values[k - 1] * (
            HalfExpPoly.one() - HalfExpPoly.q_pow(k - 1)
        )
        values.append(numerator.divexact(values[k - 2]))
    return values[n]


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

def _condense(rows: Sequence[Sequence], one):
    """Interior minor and Dodgson numerator |NW| |SE| - |NE| |SW| of a
    square matrix, n >= 2, over any ring with unit ``one``; NW, SE, NE
    and SW are the four (n-1)-blocks, each minor a contiguous slice."""
    head, tail, inner = slice(1, None), slice(None, len(rows) - 1), slice(1, -1)
    nw, se, ne, sw, interior = (
        _det([row[c] for row in rows[r]], one)
        for r, c in ((tail, tail), (head, head), (tail, head), (head, tail), (inner, inner))
    )
    return interior, nw * se - ne * sw


def dodgson(m: RationalMatrix) -> Fraction:
    """det(m) by one condensation step, exact: Dodgson's numerator over
    the interior minor (1 when n = 2).  Raises SingularInteriorError when
    the interior minor is zero (the classical proviso).  The minors are
    taken on the integer matrix scaled by the lcm of all denominators,
    so the quotient grows by scale**n.
    """
    n = m.n
    if n < 2:
        return m.entry(1, 1) if n else Fraction(1)
    rows, scale = _int_rows(m.rows)
    interior, numerator = _condense(rows, 1)
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


def _q_condensation(m: RationalMatrix) -> tuple[int, list, HalfExpPoly, HalfExpPoly]:
    """Scale, q-weighted scaled matrix A_q, interior q-determinant and
    condensation numerator of m, as :func:`q_dodgson_check` weights them.

    Weighting A_q whole gives its interior and diagonal minors their own
    weights.  An antidiagonal minor's exponents shift by +-(i' - j') + 1/2,
    and the +-(i' - j') sum to zero over any permutation, so it carries
    q^{(n-1)/2}: Dodgson's numerator on A_q is the identity's right side.
    """
    if m.n < 2:
        raise AsmError("condensation needs n >= 2")
    rows, scale = _int_rows(m.rows)
    weighted = _q_weight_matrix(rows)
    return scale, weighted, *_condense(weighted, HalfExpPoly.one())


def q_dodgson_check(m: RationalMatrix) -> QDodgsonReport:
    """Verify |A_q| |A'_q| = |A^11_q| |A^nn_q| - q^{n-1} |A^1n_q| |A^n1_q|,
    each submatrix q-weighted with indices counted from 1 inside itself."""
    scale, weighted, interior, numerator = _q_condensation(m)
    return QDodgsonReport(m.n, scale, sym_det(weighted) * interior, numerator)


def q_dodgson_divided(m: RationalMatrix) -> HalfExpPoly:
    """|A_q| recovered by dividing the condensation numerator.

    Exact polynomial division by the q-weighted interior determinant;
    raises SingularInteriorError when that determinant is the zero
    polynomial.  The result equals the direct symbolic q-determinant of
    the scaled matrix (see :class:`QDodgsonReport` on scaling).
    """
    _scale, _weighted, interior, numerator = _q_condensation(m)
    if interior.is_zero():
        raise SingularInteriorError("interior q-determinant is the zero polynomial")
    return numerator.divexact(interior)
