"""Total nonnegativity: exact tests, samplers, and the order separation.

A rational matrix is totally nonnegative (TNN) when every minor is
nonnegative.  For ASMs A and B, the monomial difference x^A - x^B is
nonnegative on all TNN matrices (wherever defined) precisely when
A <= B in the ASM order; when A <= B fails, a single 2-block matrix

    m(i, j) = 2 if i <= k and j <= l else 1

built from the first corner-sum violation (k, l) already separates the
pair, since every minor of that matrix is 0, 1 or 2 while the monomial
difference evaluates to 2^{A~(k,l)} - 2^{B~(k,l)} < 0.

Proof that m is TNN.  Every entry is 1 or 2.  Write m = J + u v^T, with
J the all-ones matrix and the 0/1 indicators u(i) = [i <= k] and
v(j) = [j <= l]; both are nonincreasing.  For rows i1 < i2 and columns
j1 < j2 the 2 x 2 minor is

    m(i1,j1) m(i2,j2) - m(i1,j2) m(i2,j1) = (u(i1) - u(i2)) (v(j1) - v(j2)),

a product of two factors in {0, 1}, so it is 0 or 1.  m is the sum of
two rank-one matrices, so its rank is at most 2 and every minor of size
3 or more vanishes.  The product x^A at m is 2 to the sum of A over the
block, 2^{A~(k,l)}, which gives the difference above.

The matrix depends on (n, k, l) alone, so :func:`counterexample_matrix`
returns one shared matrix per cell (an LRU memo of 140 matrices, as
many as the cells of all n <= 8), and :func:`is_tnn` keeps its
verdict on the matrix: the test runs once per cell, not once per pair.
The proof does not replace the test: each cell's matrix still goes
through it.

The test is Neville elimination (Gasca and Pena, "Total positivity and
Neville elimination", Linear Algebra Appl. 165 (1992) 25-44; Cryer,
"Some properties of totally positive matrices", Linear Algebra Appl. 15
(1976) 1-25), O(n^3) exact steps on the matrix scaled to ints by the lcm
of its denominators, a positive factor that keeps the sign of every
minor.  Each round rejects a negative entry; deletes the zero rows and
columns, which every minor through them leaves 0; rejects a first
column whose positive entries are not a top block of rows (a nonzero
row with first entry 0 above one with first entry x > 0 gives a 2 x 2
minor -x y < 0 with a positive entry y of the upper row); replaces each
row i of that block, bottom-up, by p row i - x row i-1 with p and x the
first entries of rows i-1 and i, divided by its gcd (a positive row
scale keeps a matrix TNN and not TNN alike, so no Fraction is needed);
does the same to the first row by consecutive columns; and drops the
first row and column, leaving a11 (+) B.

Why it is exact.  A "yes" is sound on its own: undoing the round writes
the matrix as L (a11 (+) B) U, with L and U products of elementary
bidiagonal factors with nonnegative entries and positive diagonals,
which are TNN, and a11 (+) B is TNN when B is, so the matrix is TNN by
Cauchy-Binet.  A "no" in the first round is a negative 1 x 1 or 2 x 2
minor.  A "no" in a later round rests on Gasca and Pena's theorem that
Neville elimination, with zero rows set aside, keeps a TNN matrix TNN:
if the input were TNN, so would be every matrix the rounds reach, and
none of those can have a negative entry or a broken top block.  The
Gaussian :func:`det` stays as the public reference determinant that
``dodgson verify`` and the tests compare with.

Every :class:`RationalMatrix` is square and holds only Fractions: its
constructor, the one reader of rows from outside (``rational_matrix``
is the constructor itself), checks the shape and makes every entry a
Fraction, so no function that takes one checks or converts an entry
again.  The matrices this module makes (samples, counterexamples,
q-weightings) are square tuples of Fractions by construction, and each
is built once by ``_trusted_matrix``, which reads nothing.  A matrix
keeps the values derived from it, the TNN verdict, the q-condensation
and its entries as integer ratios, as :class:`RationalMatrix` says.
The sampler runs on integer ratios too: :func:`random_tnn` takes its
draws into one list and pairs them by slicing, and
:func:`bidiagonal_product` walks a per-size plan of the longest word's
column pairs, each column an unreduced int vector over the lcm of its
denominators; only the result's Fractions reduce, one per entry.

The q-weighted variant: m is *locally TNN at q0* when the matrix
(q0^{(i-j)^2/2} m(i,j)) is TNN.  Everything here stays in exact
rational arithmetic, so q0 is restricted to positive perfect squares of
rationals, making q0^{1/2} exact.

Lemma (the incomparable half of the qTNN claim).  Let m be the 2-block
matrix of an incomparable pair and q0 > 0.  Then m is the q-weighted
image of its own unweighting, q_weighted(q_unweighted(m, q0), q0) == m,
so q_unweighted(m, q0) is locally TNN at q0, and the difference at its
q-weighted image is the same 2^{A~(k,l)} - 2^{B~(k,l)} < 0.  Every
incomparable pair thus fails at every q0 with no sampling;
:func:`qtnn_scan` uses this matrix as its sample 0.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .core import Asm, AsmError, NonSquareError, _check_range, _sequence
from .lattice import SizeMismatchError, _first_excess, _same_size, _square_gaps, beta, corner_sum
from .symbolic import _asm_difference, _int_rows, _randints, _ratio, _Ratios

RANDOM_TNN_BOUND = 4  #: random_tnn's parameters are p/q with 1 <= p, q <= this


class ComparableError(AsmError):
    """a <= b holds, so no TNN counterexample exists."""


class IrrationalSqrtError(AsmError):
    """q0 is not a perfect square of a rational, sqrt(q0) is not exact."""


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable square matrix of exact rationals with 1-based accessor.

    The constructor reads the rows once, as :class:`~asmgraph.core.Asm`'s
    does, and keeps them as a tuple of tuples.  It raises AsmError for a
    matrix or row that is not a sequence (a str or bytes is not one),
    keeps an entry whose type is Fraction, makes any other one
    ``Fraction(x)``, and raises NonSquareError unless the rows are n rows
    of n entries (n = 0 too).  So every entry is a Fraction: 0.5 is 1/2
    and "1/2" is 1/2 in equality, hashing, :meth:`entry` and ``str`` as
    in :func:`is_tnn` and the evaluators, and an entry that Fraction
    rejects (None, "x", nan) raises its TypeError or ValueError here,
    before any matrix exists.  The module's generators build theirs
    through ``_trusted_matrix``, from square tuples of Fractions.

    The matrix keeps three derived values once they are computed:
    :func:`is_tnn`'s verdict, the q-condensation that
    :func:`asmgraph.polynomials.q_dodgson_check` and
    :func:`~asmgraph.polynomials.q_dodgson_divided` share, and the table
    of its entries as integer ratios that :func:`evaluate_difference`
    reads.  Each is a class default, not a field, so equality, hashing
    and repr see the rows only; each is set on the instance with
    ``object.__setattr__``, unlike ``Asm._corner``, a slot that every
    ASM sets when it is made.  All are plain data, so the matrix pickles
    with them."""

    rows: tuple[tuple[Fraction, ...], ...]
    # is_tnn's verdict, or None until is_tnn has computed it.
    _tnn = None
    # polynomials._q_condensation's tuple, or None until it is computed.
    _q_condensed = None
    # The rows as a symbolic._Ratios table, or None until evaluate_difference builds it.
    _ratios = None

    def __post_init__(self):
        rows = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in _sequence(row, f"row {i}"))
            for i, row in enumerate(_sequence(self.rows, "matrix"), start=1)
        )
        _check_square(rows)
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Fraction:
        """Entry at 1-based position (i, j); IndexError outside 1..n."""
        _check_range(self.n, 1, i, j)
        return self.rows[i - 1][j - 1]

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.rows)


def _check_square(rows: Sequence[Sequence]) -> None:
    """NonSquareError unless rows make a square matrix."""
    if any(len(row) != len(rows) for row in rows):
        raise NonSquareError("matrix must be square")


#: The entry point for rows from outside: the :class:`RationalMatrix`
#: constructor itself.
rational_matrix = RationalMatrix


def _trusted_matrix(rows: tuple[tuple[Fraction, ...], ...]) -> RationalMatrix:
    """A :class:`RationalMatrix` around ``rows`` itself, unread, for the
    generators whose rows are square tuples of Fractions by
    construction; nothing else may call it.  The twin of
    ``core._trusted_asm``."""
    m = object.__new__(RationalMatrix)
    object.__setattr__(m, "rows", rows)
    return m


def random_rational_matrix(n: int, rng: random.Random) -> RationalMatrix:
    """n x n matrix of rationals p/q, -9 <= p <= 9 and 1 <= q <= 4,
    drawn row-major from rng (numerator, then denominator).  n = 0 gives
    the 0 x 0 matrix, and a negative n raises ValueError before any draw."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got n={n}")
    entries = map(Fraction, _randints(rng, -9, 9, n * n), _randints(rng, 1, 4, n * n))
    return _trusted_matrix(tuple(zip(*[entries] * n)))


def det(rows: Sequence[Sequence]) -> Fraction:
    """Exact determinant by fraction Gaussian elimination of the rows as
    the :class:`RationalMatrix` constructor reads them."""
    m = [list(row) for row in RationalMatrix(rows).rows]
    n = len(m)
    sign = 1
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        p = m[col][col]
        result *= p
        for r in range(col + 1, n):
            factor = m[r][col] / p
            if factor:
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return sign * result


def is_tnn(m: RationalMatrix) -> bool:
    """Exact check that every minor is >= 0, by :func:`_neville` on the
    matrix scaled to ints.  The first call computes the verdict and
    keeps it on m; later calls read it."""
    if m._tnn is None:
        object.__setattr__(m, "_tnn", _neville(_int_rows(m.rows)[0]))
    return m._tnn


def _neville(a: Sequence[Sequence[int]]) -> bool:
    """Whether an int matrix of any shape is TNN, by the rounds of
    Neville elimination in the module docstring."""
    while True:
        # Each half drops the zero lines, transposes and clears the first
        # column: the first row in the first half, the first column next.
        for _ in range(2):
            a = [list(line) for line in zip(*(row for row in a if any(row))) if any(line)]
            if not a:
                return True
            if any(x < 0 for line in a for x in line):
                return False
            top = next((i for i, line in enumerate(a) if not line[0]), len(a))
            if any(line[0] for line in a[top:]):
                return False
            for i in range(top - 1, 0, -1):
                p, x = a[i - 1][0], a[i][0]
                new = [p * u - x * v for u, v in zip(a[i], a[i - 1])]
                g = math.gcd(*new)
                a[i] = [u // g for u in new] if g > 1 else new
        a = [line[1:] for line in a[1:]]


def rational_sqrt(x) -> Fraction:
    """Exact square root of a nonnegative rational, or raise."""
    x = Fraction(x)
    if x < 0:
        raise IrrationalSqrtError(f"{x} is negative")
    num, den = x.numerator, x.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise IrrationalSqrtError(f"{x} is not a perfect rational square")
    return Fraction(rn, rd)


def _reweighted(m: RationalMatrix, s: Fraction) -> RationalMatrix:
    """The matrix (s^{(i-j)^2} m(i,j))."""
    rows = zip(_square_gaps(m.n), m.rows)
    return _trusted_matrix(tuple(tuple(x * s**g for g, x in zip(gaps, row)) for gaps, row in rows))


def _root(q0) -> Fraction:
    """sqrt(q0), exact; q0 must be a positive perfect square."""
    s = rational_sqrt(q0)
    if s == 0:
        raise AsmError("q0 must be positive")
    return s


def q_weighted(m: RationalMatrix, q0) -> RationalMatrix:
    """The matrix (q0^{(i-j)^2/2} m(i,j)); q0 must be a positive perfect
    square."""
    return _reweighted(m, _root(q0))


def q_unweighted(m: RationalMatrix, q0) -> RationalMatrix:
    """Inverse of :func:`q_weighted`; q0 must be a positive perfect
    square."""
    return _reweighted(m, 1 / _root(q0))


def is_locally_tnn_at(m: RationalMatrix, q0) -> bool:
    return is_tnn(q_weighted(m, q0))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _longest_word(n: int) -> list[int]:
    """A reduced word for the longest permutation: (1)(2 1)(3 2 1)..."""
    word = []
    for k in range(1, n):
        word.extend(range(k, 0, -1))
    return word


def bidiagonal_product(
    diag: Sequence[Fraction],
    lower_params: Sequence[Fraction],
    upper_params: Sequence[Fraction],
) -> RationalMatrix:
    """L * D * U from elementary bidiagonal factors, TNN by construction.

    The lower word multiplies factors I + t e_{i+1,i} along a fixed
    reduced word of the longest permutation (so n(n-1)/2 parameters);
    the upper word mirrors it.  Nonnegative parameters and diagonal give
    a TNN matrix; strictly positive ones give a totally positive matrix
    and in particular all entries positive.

    >>> print(bidiagonal_product([1, 1], [2], ["1/3"]))
    1 1/3
    2 5/3
    """
    # Parameters are read in the order their factors apply.
    lower = [_ratio(t) for t in lower_params]
    diag_ratios = [_ratio(d) for d in diag]
    upper = [_ratio(t) for t in upper_params]
    return _bidiagonal_ratios(diag_ratios, lower, upper)


def _bidiagonal_ratios(
    diag: Sequence[tuple[int, int]],
    lower: Sequence[tuple[int, int]],
    upper: Sequence[tuple[int, int]],
) -> RationalMatrix:
    """:func:`bidiagonal_product` on parameters given as (numerator,
    positive denominator), after checking that both lists fit the word.

    Each column is an int vector over one positive denominator, never
    reduced: an update puts the two columns over the lcm of their
    denominators, and the only gcds are the result's Fractions.
    """
    n = len(diag)
    lower_pairs, upper_pairs, identity = _word_plan(n)
    if len(lower) != len(lower_pairs) or len(upper) != len(upper_pairs):
        raise AsmError(f"need {len(lower_pairs)} lower and upper parameters for n={n}")
    # Every update replaces a column, so the plan's identity columns are shared.
    cols, dens = list(identity), [1] * n
    # Each phase adds t * column o to column c along its word, then scales
    # each column by its diagonal entry: L, then D, then U.
    for pairs, params, scales in ((lower_pairs, lower, diag), (upper_pairs, upper, ())):
        for (c, o), (tn, td) in zip(pairs, params):
            if tn:
                dc, do = dens[c], td * dens[o]
                den = dens[c] = math.lcm(dc, do)
                fc, fo = den // dc, den // do * tn
                cols[c] = [x * fc + y * fo for x, y in zip(cols[c], cols[o])]
        for c, (dn, dd) in enumerate(scales):
            cols[c] = [x * dn for x in cols[c]]
            dens[c] *= dd
    return _trusted_matrix(tuple(tuple(map(Fraction, row, dens)) for row in zip(*cols)))


# One plan per size: sampling repeats a few sizes, and a plan is O(n^2) ints.
@lru_cache(maxsize=16)
def _word_plan(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The 0-based (updated, added) column pairs of the lower word (column
    i += t * column i+1, 1-based) and of the upper word (column i+1 += t *
    column i, the word reversed), and the n x n identity's columns."""
    word = _longest_word(n)
    return (
        tuple((i - 1, i) for i in word),
        tuple((i, i - 1) for i in reversed(word)),
        tuple(tuple(int(r == c) for r in range(n)) for c in range(n)),
    )


def random_tnn(n: int, seed: int) -> RationalMatrix:
    """Random TNN matrix from a positive bidiagonal factorization.

    All factorization parameters are strictly positive, so the sample is
    totally positive and every entry is a positive rational.  Each
    parameter p/q draws p, then q, from 1..RANDOM_TNN_BOUND: the
    diagonal first, then the lower word, then the upper.  n = 0 gives
    the 0 x 0 matrix, and a negative n raises ValueError before any draw.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got n={n}")
    draws = list(_randints(random.Random(seed), 1, RANDOM_TNN_BOUND, 2 * n * n))
    params = list(zip(draws[::2], draws[1::2]))
    count = n * (n - 1) // 2
    return _bidiagonal_ratios(params[:n], params[n : n + count], params[n + count :])


# ---------------------------------------------------------------------------
# evaluating monomial differences
# ---------------------------------------------------------------------------

def evaluate_difference(a: Asm, b: Asm, m: RationalMatrix) -> Fraction:
    """Exact value of x^a - x^b at m.

    The first call takes every entry of m, a Fraction, as its integer
    ratio and keeps the table on m; later calls read the table.  Raises
    UndefinedEvaluationError when a zero entry of m meets a negative
    exponent.
    """
    if a.n != b.n or a.n != m.n:
        raise SizeMismatchError(f"sizes differ: {a.n}, {b.n}, {m.n}")
    if m._ratios is None:
        ratios = _Ratios(tuple(x.as_integer_ratio() for x in row) for row in m.rows)
        object.__setattr__(m, "_ratios", ratios)
    return _asm_difference(a, b, m._ratios)


def counterexample_matrix(a: Asm, b: Asm) -> tuple[RationalMatrix, tuple[int, int]]:
    """A TNN matrix on which x^a - x^b is negative, with its witness cell.

    The order test's scan gives the row-major first cell (k, l) where
    A~(a) < A~(b), and the 2-block matrix of that cell is returned.
    Every minor of that matrix is 0, 1 or 2 (see the module docstring),
    and the difference evaluates to 2^{A~(a)(k,l)} - 2^{A~(b)(k,l)} < 0.
    Pairs with one witness cell share one matrix object while its cell
    is among the last 140 used.  Raises ComparableError when a <= b (no
    such cell), in which case no TNN counterexample exists.
    """
    n = _same_size(a, b)
    witness = _first_excess(corner_sum(a), corner_sum(b))
    if witness is None:
        raise ComparableError("a <= b; the difference is nonnegative on TNN matrices")
    return _two_block(n, *witness), witness


# 140 matrices: the witness cells k, l < n of every n <= 8.
@lru_cache(maxsize=140)
def _two_block(n: int, k: int, l: int) -> RationalMatrix:
    """The n x n matrix with 2 on rows <= k and columns <= l, 1 elsewhere."""
    cells = range(1, n + 1)
    two, one = Fraction(2), Fraction(1)
    return _trusted_matrix(
        tuple(tuple(two if i <= k and j <= l else one for j in cells) for i in cells)
    )


# ---------------------------------------------------------------------------
# q-grid scanning
# ---------------------------------------------------------------------------

DEFAULT_Q_GRID = (Fraction(1, 4), Fraction(1), Fraction(4))


@dataclass(frozen=True)
class QPointResult:
    q0: Fraction
    samples: int
    violations: tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class QtnnScanReport:
    a: Asm
    b: Asm
    comparable: bool
    results: tuple[QPointResult, ...]

    @property
    def has_violations(self) -> bool:
        return any(r.violations for r in self.results)


def qtnn_scan(
    a: Asm,
    b: Asm,
    *,
    q_grid: Sequence = DEFAULT_Q_GRID,
    samples: int = 20,
    seed: int = 0,
) -> QtnnScanReport:
    """Search for sign violations of x^a - x^b on locally-TNN samples.

    For each q0 in the grid (perfect rational squares), draws matrices
    that are locally TNN at q0 and evaluates the difference at their
    q-weighted images.  When a <= b no violation can occur; when the
    pair is incomparable the deterministic 2-block counterexample is
    prepended as sample 0 at every grid point, so a violation is always
    exhibited.  Each sample also cross-checks the q-weighting identity
    value(weighted) = q0^{beta(a)} x^a(m) - q0^{beta(b)} x^b(m).  Every
    q0 in the grid is validated, even where no sample is drawn.  Raises
    AsmError for negative ``samples``.
    """
    if samples < 0:
        raise AsmError(f"samples must be nonnegative, got {samples}")
    try:
        extra = [counterexample_matrix(a, b)[0]]
    except ComparableError:
        extra = []
    comparable = not extra
    # counterexample_matrix has checked that a and b have one size.
    beta_a, beta_b = beta(a), beta(b)
    results = []
    for gi, q0 in enumerate(q_grid):
        q0 = Fraction(q0)
        inverse = 1 / _root(q0)
        weight_a, weight_b = q0**beta_a, q0**beta_b
        violations = []
        for idx in range(samples + len(extra)):
            if idx < len(extra):
                weighted = extra[idx]
            else:
                weighted = random_tnn(a.n, seed=seed * 1000003 + gi * 1009 + idx)
            local = _reweighted(weighted, inverse)
            value = _asm_difference(a, b, weighted.rows)
            if value != _asm_difference(a, b, local.rows, weight_a, weight_b):
                raise AsmError("q-weighting identity failed; implementation bug")
            if value < 0:
                violations.append((idx, value))
        results.append(QPointResult(q0, samples + len(extra), tuple(violations)))
    return QtnnScanReport(a, b, comparable, tuple(results))
