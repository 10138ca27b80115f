"""Exact rational matrices, and the one reading of rows from outside.

:func:`_read_rows` reads raw rows for the :class:`RationalMatrix`
constructor, which makes every entry a Fraction, and for
:func:`_pairs`, which reads every entry as an integer ratio by
:func:`_ratio` for the evaluators of ``symbolic``.  So an evaluator
accepts and rejects the rows that the constructor does, and reads each
entry as the same rational.  :func:`_int_rows` scales a matrix's
Fractions to ints over the lcm of their denominators, for
``tnn.is_tnn`` and the condensations of ``polynomials``.  The
generators of ``tnn`` build their matrices through
:func:`_trusted_matrix`, with nothing read.  The module imports only
the standard library and ``core``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Sequence

from .core import NonSquareError, _check_range, _sequence


def _ratio(x) -> tuple[int, int]:
    """x as (numerator, positive denominator) in lowest terms: an int or
    a Fraction (exactly those types) by one ``as_integer_ratio()`` call,
    anything else by ``Fraction(x)``, which raises what it raises on an
    input it rejects.  A float or Decimal has an as_integer_ratio() too,
    but goes through Fraction, as every other type does."""
    return (x if type(x) in (int, Fraction) else Fraction(x)).as_integer_ratio()


def _fraction(x) -> Fraction:
    """x itself if its type is Fraction, else ``Fraction(x)``."""
    return x if type(x) is Fraction else Fraction(x)


def _read_rows(rows: Sequence[Sequence], read: Callable) -> tuple[tuple, ...]:
    """rows as a tuple of tuples of read(x), x each entry: AsmError for
    a matrix or row that is not a sequence, every entry row by row, then
    NonSquareError unless the rows are n rows of n entries."""
    rows = tuple(
        tuple(map(read, _sequence(row, f"row {i}")))
        for i, row in enumerate(_sequence(rows, "matrix"), start=1)
    )
    _check_square(rows)
    return rows


def _pairs(rows: Sequence[Sequence]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The table of rows: every entry as :func:`_ratio` reads it."""
    return _read_rows(rows, _ratio)


def _int_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """The rows times the lcm of all their denominators, and that
    positive scale; every k-minor of the rows grew by scale**k, so an
    n x n determinant by scale**n.  Each entry is read once, by its own
    ``as_integer_ratio()`` and nothing else: the rows are a
    :class:`RationalMatrix`'s, whose constructor has made every entry a
    Fraction."""
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    scale = lcm(*[d for row in ratios for _, d in row])
    return [[p * (scale // d) for p, d in row] for row in ratios], scale


@dataclass(frozen=True)
class RationalMatrix:
    """Immutable square matrix of exact rationals with 1-based accessor.

    The constructor reads the rows once, by :func:`_read_rows`, as
    :class:`~asmgraph.core.Asm`'s does, and keeps them as a tuple of
    tuples.  It raises AsmError for a matrix or row that is not a
    sequence (a str or bytes is not one), keeps an entry whose type is
    Fraction, makes any other one ``Fraction(x)``, and raises
    NonSquareError unless the rows are n rows of n entries (n = 0 too).
    So every entry is a Fraction: 0.5 is 1/2
    and "1/2" is 1/2 in equality, hashing, :meth:`entry` and ``str`` as
    in :func:`~asmgraph.tnn.is_tnn` and the evaluators, and an entry that
    Fraction rejects (None, "x", nan) raises its TypeError or ValueError
    here, before any matrix exists.  The generators build theirs through
    :func:`_trusted_matrix`, from square tuples of Fractions.

    The matrix keeps three derived values once they are computed:
    :func:`~asmgraph.tnn.is_tnn`'s verdict, the q-condensation that
    :func:`asmgraph.polynomials.q_dodgson_check` and
    :func:`~asmgraph.polynomials.q_dodgson_divided` share, and
    ``_pairs(m.rows)``, the tuple of its entries as integer ratios that
    :func:`~asmgraph.tnn.evaluate_difference` and
    :func:`~asmgraph.tnn.qtnn_scan` read.  Each is a class default, not a
    field, so equality, hashing and repr see the rows only; each is set
    on the instance with ``object.__setattr__``, unlike ``Asm._corner``,
    a slot that every ASM sets when it is made.  All are plain data, so
    the matrix pickles with them."""

    rows: tuple[tuple[Fraction, ...], ...]
    # tnn.is_tnn's verdict, or None until is_tnn has computed it.
    _tnn = None
    # polynomials._q_condensation's tuple, or None until it is computed.
    _q_condensed = None
    # _pairs(rows), or None until tnn._table builds it.
    _ratios = None

    def __post_init__(self):
        object.__setattr__(self, "rows", _read_rows(self.rows, _fraction))

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
