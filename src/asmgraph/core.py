"""Alternating sign matrices and their corner-sum encoding.

An alternating sign matrix (ASM) is a square matrix with entries in
{-1, 0, 1} such that along every row and every column the partial sums
are 0 or 1 and the full sums are 1.  Permutation matrices are exactly
the ASMs with no -1 entry; an ASM that does contain a -1 is called
*proper*.

The corner-sum matrix of an n x n ASM A is

    A~(i, j) = sum of A(p, q) over p <= i, q <= j,

with the convention A~(0, j) = A~(i, 0) = 0.  The map A -> A~ is a
bijection onto the set of n x n nonnegative integer matrices X with
X(i, n) = X(n, i) = i whose adjacent row and column differences all lie
in {0, 1}; the inverse is

    A(i, j) = X(i, j) + X(i-1, j-1) - X(i, j-1) - X(i-1, j).

All public indices here are 1-based, matching the mathematical
convention; storage is 0-based tuples internally.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate
from operator import add


class AsmError(ValueError):
    """Base class for domain errors raised by this package."""


class NonSquareError(AsmError):
    """Input matrix is not square, or (for an ``Asm``) empty; a 0 x 0
    rational matrix is legal."""


class EntryOutOfRangeError(AsmError):
    """Matrix entry outside {-1, 0, 1}."""

    def __init__(self, i: int, j: int, value: int):
        self.position = (i, j)
        self.value = value
        super().__init__(f"entry {value} at ({i},{j}) not in {{-1, 0, 1}}")


class PrefixSumViolationError(AsmError):
    """A row or column partial sum left {0, 1}."""

    def __init__(self, axis: str, i: int, j: int, value: int):
        self.axis = axis
        self.position = (i, j)
        self.value = value
        super().__init__(f"{axis} prefix sum {value} at ({i},{j}) not in {{0, 1}}")


class TotalSumViolationError(AsmError):
    """A full row sum differs from 1.  ``axis`` is always "row": once
    every row sums to 1, the column sums do too (see :class:`Asm`)."""

    def __init__(self, axis: str, index: int, value: int):
        self.axis = axis
        self.index = index
        self.value = value
        super().__init__(f"{axis} {index} sums to {value}, expected 1")


class InvalidCornerSumError(AsmError):
    """Matrix fails the corner-sum characterisation."""


class NotAPermutationError(AsmError):
    """ASM contains a -1, so it is not a permutation matrix."""


Rows = Sequence[Sequence[int]]


@dataclass(frozen=True)
class Asm:
    """An alternating sign matrix; the constructor checks the axioms.

    Every entry is first checked for being an integer (a bool or 1.5 is
    rejected, 1.0 is read as 1).  The axioms are then checked in a fixed
    order, so a rejection always names the same first violation: cells
    are scanned row-major; at each cell the entry range is checked, then
    the column partial sum, then the row partial sum; each full row sum
    is checked as its row completes.  The full column sums need no
    check: the n row sums are each 1, so the column sums add up to n,
    and each is a last-row column partial sum, already checked to be 0
    or 1, so each is 1.  Entries are stored as a tuple of int tuples.

    An ASM is immutable, so values derived from it alone are kept on it
    once computed: its corner sums (see :func:`corner_sum`) and, for the
    ASMs that enumeration yields, beta.  An ASM has a fixed layout of
    three slots and no instance dict: the entries and these two kept
    values, which are slots, not fields, so equality, hashing, repr and
    ``dataclasses.fields`` see the entries only.  Every ASM sets all
    three slots once when it is made, the kept values to None until they
    are known.  Pickling and copying rebuild an ASM from its entries
    through the constructor, so they check the axioms again.

    >>> a = Asm([[0, 1, 0], [1, -1, 1], [0, 1, 0]])
    >>> a.n
    3
    >>> a.entry(2, 2)
    -1
    >>> a.is_permutation()
    False
    >>> Asm([[0, 1], [-1, 1]])
    Traceback (most recent call last):
        ...
    asmgraph.core.PrefixSumViolationError: column prefix sum -1 at (2,1) not in {0, 1}
    """

    # Declared by hand: dataclass(slots=True) would make the kept values
    # fields.  _beta is beta as iter_asms summed it, or None (see
    # lattice.beta); _corner is the CornerSum once corner_sum has built
    # it, or None.
    __slots__ = ("entries", "_beta", "_corner")

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        mat = _square_int_rows(self.entries)
        col_sums = [0] * len(mat)
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
        _set_entries(self, tuple(map(tuple, mat)))
        _set_beta(self, None)
        _set_corner(self, None)

    def __reduce__(self):
        return Asm, (self.entries,)

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> int:
        """Entry at 1-based position (i, j); IndexError outside 1..n."""
        _check_range(len(self.entries), 1, i, j)
        return self.entries[i - 1][j - 1]

    def is_permutation(self) -> bool:
        return all(x >= 0 for row in self.entries for x in row)

    def is_proper(self) -> bool:
        """True when the matrix contains at least one -1."""
        return not self.is_permutation()

    def __str__(self) -> str:
        return format_asm_text(self)


# The slots' own setters, which bypass the frozen __setattr__.
_set_entries = Asm.entries.__set__
_set_beta = Asm._beta.__set__
_set_corner = Asm._corner.__set__


def _trusted_asm(entries: tuple[tuple[int, ...], ...], beta: int | None = None) -> Asm:
    """An :class:`Asm` without the axiom check, for the generators whose
    entries are ASMs by construction; nothing else may call it.  It
    makes the bare object and writes its three slots: the entries, beta
    and no corner sums.  A generator that has summed beta along the way
    passes it as the seed that :func:`lattice.beta` returns."""
    a = object.__new__(Asm)
    _set_entries(a, entries)
    _set_beta(a, beta)
    _set_corner(a, None)
    return a


@dataclass(frozen=True)
class CornerSum:
    """Corner-sum matrix of an ASM, with 1-based accessor and 0 boundary.

    >>> c = corner_sum(Asm([[0, 1, 0], [1, -1, 1], [0, 1, 0]]))
    >>> c.value(1, 1), c.value(0, 3), c.value(3, 3)
    (0, 0, 3)
    """

    entries: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def value(self, i: int, j: int) -> int:
        """A~(i, j); rows/columns 0 give the boundary value 0, and
        IndexError outside 0..n."""
        _check_range(len(self.entries), 0, i, j)
        if i == 0 or j == 0:
            return 0
        return self.entries[i - 1][j - 1]


@dataclass(frozen=True)
class Permutation:
    """A permutation of [n] in one-line notation, 1-based images.

    >>> w = Permutation((4, 3, 1, 2))
    >>> w(1), w.inverse()(4)
    (4, 1)
    """

    images: tuple[int, ...]

    def __post_init__(self):
        # Images are read as Asm entries are: 1.0 becomes 1, a bool fails.
        images = tuple(map(_as_int, self.images))
        if None in images:
            raise NotAPermutationError(f"{self.images} has an image that is not an integer")
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise NotAPermutationError(
                f"{self.images} is not a rearrangement of 1..{n}"
            )
        object.__setattr__(self, "images", images)

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        """The image of i; IndexError outside 1..n."""
        _check_range(len(self.images), 1, i, i)
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return _trusted_permutation(tuple(inv))

    def __str__(self) -> str:
        return format_permutation(self)


def _trusted_permutation(images: tuple[int, ...]) -> Permutation:
    """A :class:`Permutation` without the image check, for images that
    rearrange 1..n by construction; the twin of :func:`_trusted_asm`."""
    w = object.__new__(Permutation)
    object.__setattr__(w, "images", images)
    return w


def _check_range(n: int, low: int, i: int, j: int) -> None:
    """IndexError unless i and j lie in low..n, so that a 1-based
    accessor never reads one of Python's negative indices."""
    if not (low <= i <= n and low <= j <= n):
        raise IndexError(f"index {j if low <= i <= n else i} is outside {low}..{n}")


def _as_int(x) -> int | None:
    """x as an int, or None for a bool or anything not equal to an integer."""
    try:
        value = int(x)
    except (TypeError, ValueError, OverflowError):
        return None
    return None if isinstance(x, bool) or value != x else value


def _square_int_rows(rows: Rows) -> list[list[int]]:
    """The rows as lists of ints, checked to form a nonempty square
    after every entry is read.  Rejects a matrix or row that is not a
    sequence (a string is not one) and any entry that is a bool or is
    not equal to an integer, instead of truncating it."""
    mat = []
    for i, row in enumerate(_sequence(rows, "matrix"), start=1):
        out = []
        for j, x in enumerate(_sequence(row, f"row {i}"), start=1):
            value = _as_int(x)
            if value is None:
                raise AsmError(f"entry {x!r} at ({i},{j}) is not an integer")
            out.append(value)
        mat.append(out)
    if not mat or any(len(row) != len(mat) for row in mat):
        raise NonSquareError("matrix must be square and nonempty")
    return mat


def _sequence(x, what: str) -> Sequence:
    if not isinstance(x, Sequence) or isinstance(x, (str, bytes)):
        raise AsmError(f"{what} {x!r} is not a sequence")
    return x


def validate_asm(rows: Rows | Asm) -> Asm:
    """The matrix as an :class:`Asm`, whose constructor checks the
    axioms; an :class:`Asm` argument is returned as is."""
    return rows if isinstance(rows, Asm) else Asm(rows)


def corner_sum(a: Asm) -> CornerSum:
    """Corner-sum matrix A~ of an ASM: row i adds the partial sums of
    row i of A to row i - 1.

    Built on the first call and kept in ``a``'s ``_corner`` slot, so each
    later call returns the same :class:`CornerSum`; it lives and dies
    with ``a``, and no cache outside the ASM holds it."""
    if a._corner is None:
        out = [(0,) * a.n]
        for row in a.entries:
            out.append(tuple(map(add, out[-1], accumulate(row))))
        _set_corner(a, CornerSum(tuple(out[1:])))
    return a._corner


def is_corner_sum(rows: Rows | CornerSum) -> bool:
    """Does an integer matrix satisfy the corner-sum characterisation?"""
    try:
        from_corner_sum(rows)
    except AsmError:
        return False
    return True


def from_corner_sum(rows: Rows | CornerSum) -> Asm:
    """Invert the corner-sum map: the :class:`Asm` of the second
    differences of a :class:`CornerSum` or raw integer matrix X.

    The first differences of X are the partial sums of that matrix, so X
    satisfies the characterisation (boundary values i, adjacent
    differences in {0, 1}) exactly when the matrix satisfies the ASM
    axioms; a violation is raised as :class:`InvalidCornerSumError`.
    """
    mat = _square_int_rows(rows.entries if isinstance(rows, CornerSum) else rows)
    x = [[0] * (len(mat) + 1)] + [[0, *row] for row in mat]
    diffs = [
        [a - b - c + d for a, b, c, d in zip(row[1:], row, above[1:], above)]
        for above, row in zip(x, x[1:])
    ]
    try:
        return Asm(diffs)
    except AsmError as exc:
        raise InvalidCornerSumError(f"not a corner-sum matrix: {exc}") from exc


def permutation_to_asm(w: Permutation | Sequence[int]) -> Asm:
    """Permutation matrix of w: a 1 in row i, column w(i).

    >>> permutation_to_asm((2, 1)).entries
    ((0, 1), (1, 0))
    """
    if not isinstance(w, Permutation):
        w = Permutation(tuple(w))
    n = w.n
    if not n:
        raise NonSquareError("matrix must be square and nonempty")
    rows = []
    for i in range(1, n + 1):
        row = [0] * n
        row[w(i) - 1] = 1
        rows.append(tuple(row))
    return _trusted_asm(tuple(rows))


def asm_to_permutation(a: Asm) -> Permutation:
    """Inverse of :func:`permutation_to_asm`; rejects proper ASMs."""
    if a.is_proper():
        raise NotAPermutationError("matrix contains a -1 entry")
    return _trusted_permutation(tuple(row.index(1) + 1 for row in a.entries))


def inversions(w: Permutation) -> list[tuple[int, int]]:
    """Inversion pairs (i, j): i < j with w(i) > w(j), lex order.

    >>> inversions(Permutation((2, 1, 4, 3)))
    [(1, 2), (3, 4)]
    """
    n = w.n
    return [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if w(i) > w(j)
    ]


def inversion_count(w: Permutation) -> int:
    return len(inversions(w))


def sign(w: Permutation) -> int:
    """(-1) to the inversion count, read off the cycles: a cycle of
    length m is m - 1 transpositions, so the sign is (-1)^(n - #cycles)."""
    images, seen, parity = w.images, [False] * (w.n + 1), w.n
    for j in images:
        parity -= not seen[j]
        while not seen[j]:
            seen[j] = True
            j = images[j - 1]
    return -1 if parity % 2 else 1


# ---------------------------------------------------------------------------
# text and JSON formats
# ---------------------------------------------------------------------------

def format_asm_text(a: Asm) -> str:
    """Text format: first line n, then the n rows, space-separated."""
    lines = [str(a.n)]
    lines.extend(" ".join(str(x) for x in row) for row in a.entries)
    return "\n".join(lines) + "\n"


def parse_asm_text(text: str) -> Asm:
    """Parse the text format produced by :func:`format_asm_text`."""
    tokens = text.split()
    if not tokens:
        raise AsmError("empty input")
    try:
        values = [int(t) for t in tokens]
    except ValueError as exc:
        raise AsmError(f"non-integer token in matrix text: {exc}") from None
    n = values[0]
    if n <= 0:
        raise AsmError(f"size line must be a positive integer, got {n}")
    if len(values) != 1 + n * n:
        raise AsmError(f"expected {n}*{n} entries after the size line")
    body = values[1:]
    rows = [body[i * n : (i + 1) * n] for i in range(n)]
    return Asm(rows)


def asm_to_json_dict(a: Asm) -> dict:
    return {"n": a.n, "entries": [list(row) for row in a.entries]}


def asm_from_json_dict(d: dict) -> Asm:
    if not isinstance(d, dict) or "entries" not in d:
        raise AsmError("a JSON matrix must be an object with an 'entries' field")
    a = Asm(d["entries"])
    if _as_int(d.get("n")) != a.n:
        raise AsmError("JSON field 'n' disagrees with the entry rows")
    return a


def asm_to_json(a: Asm) -> str:
    return json.dumps(asm_to_json_dict(a), sort_keys=True)


def asm_from_json(text: str) -> Asm:
    return asm_from_json_dict(json.loads(text))


def format_permutation(w: Permutation) -> str:
    """One-line notation; digits run together for n < 10.

    >>> format_permutation(Permutation((4, 3, 1, 2)))
    '4312'
    """
    if w.n < 10:
        return "".join(str(x) for x in w.images)
    return ",".join(str(x) for x in w.images)


def parse_permutation(text: str) -> Permutation:
    """Parse one-line notation, either '4312' or comma-separated '4,3,1,2'."""
    text = text.strip()
    if "," in text:
        tokens = text.split(",")
    elif text.isdigit():
        tokens = list(text)
    else:
        raise AsmError(f"cannot parse permutation from {text!r}")
    try:
        images = tuple(map(int, tokens))
    except ValueError:
        raise AsmError(f"cannot parse permutation from {text!r}") from None
    return Permutation(images)


def identity_asm(n: int) -> Asm:
    """The identity permutation matrix, the unique minimum of the order."""
    return permutation_to_asm(tuple(range(1, n + 1)))


def reverse_asm(n: int) -> Asm:
    """Matrix of the longest permutation n, n-1, ..., 1, the unique maximum."""
    return permutation_to_asm(tuple(range(n, 0, -1)))
