"""Exhaustive enumeration of ASMs and permutation matrices.

ASMs are generated through their corner-sum matrices: a corner-sum
matrix is built row by row, each row being a lattice path that rises by
0 or 1 at each column, stays within 0/1 of the previous row, and ends at
the row index.  Every completed matrix corresponds to exactly one ASM,
so no post-filtering is needed; dead prefixes are abandoned as soon as a
row cannot be extended.  Each corner-sum row is turned into its entry
row as the walk goes,

    A(i, j) = X(i, j) - X(i, j-1) - X(i-1, j) + X(i-1, j-1),

so the finished ASM is assembled from entry rows directly, without
inverting or re-checking its corner-sum matrix.

The counts grow fast (1, 2, 7, 42, 429, 7436, 218348, ...), so the
entry points guard against accidentally huge sizes; pass
``size_limit=None`` to lift the guard deliberately.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations as _permutations
from typing import Iterator

from .core import Asm, Permutation, _trusted_asm

Row = tuple[int, ...]

ASM_SIZE_LIMIT = 7
PERMUTATION_SIZE_LIMIT = 9

#: Number of n x n ASMs for n = 1..7, for quick sanity checks.
KNOWN_ASM_COUNTS = {1: 1, 2: 2, 3: 7, 4: 42, 5: 429, 6: 7436, 7: 218348}


class SizeLimitExceededError(ValueError):
    def __init__(self, n: int, limit: int, hint: str = "pass size_limit=None to override"):
        self.n = n
        self.limit = limit
        super().__init__(f"n={n} exceeds the guard ({limit}); {hint}")


def _check_limit(n: int, size_limit: int | None) -> None:
    if n < 1:
        raise ValueError("n must be positive")
    if size_limit is not None and n > size_limit:
        raise SizeLimitExceededError(n, size_limit)


def _next_rows(prev: Row, i: int, n: int) -> Iterator[Row]:
    """All valid corner-sum rows i given row i-1 (row 0 is all zeros)."""
    # Row entries must rise by 0/1 left to right, sit at prev[j] or
    # prev[j]+1, and reach i in the last column.
    row = [0] * n

    def extend(j: int, last: int) -> Iterator[Row]:
        if j == n:
            if last == i:
                yield tuple(row)
            return
        for v in (last, last + 1):
            if v - prev[j] in (0, 1):
                # Even rising by 1 at every remaining column must reach i.
                if v + (n - 1 - j) >= i:
                    row[j] = v
                    yield from extend(j + 1, v)

    yield from extend(0, 0)


def iter_asms(n: int, *, size_limit: int | None = ASM_SIZE_LIMIT) -> Iterator[Asm]:
    """Yield all n x n ASMs; order is not specified, use enumerate_asms
    for the canonical order."""
    _check_limit(n, size_limit)

    @cache
    def next_steps(prev: Row) -> list[tuple[Row, Row]]:
        """The corner-sum rows that can follow prev, each with its entry
        row; a row's last value is its index, so prev fixes the step."""
        i = prev[-1] + 1
        return [(row, _entry_row(prev, row)) for row in _next_rows(prev, i, n)]

    def walk(prev: Row, rows: list[Row]) -> Iterator[Asm]:
        if len(rows) == n:
            yield _trusted_asm(tuple(rows))
            return
        for row, entries in next_steps(prev):
            rows.append(entries)
            yield from walk(row, rows)
            rows.pop()

    yield from walk(tuple([0] * n), [])


def _entry_row(prev: Row, row: Row) -> Row:
    """ASM row i from corner-sum rows i-1 (prev) and i (row).

    row[j] - prev[j] is the partial sum of ASM row i up to column j, and
    the entries are the steps of those partial sums.
    """
    out = []
    left = 0
    for above, here in zip(prev, row):
        partial = here - above
        out.append(partial - left)
        left = partial
    return tuple(out)


def enumerate_asms(n: int, *, size_limit: int | None = ASM_SIZE_LIMIT) -> list[Asm]:
    """All n x n ASMs in canonical order.

    Canonical order is lexicographic on the row-major entry sequence
    with the natural entry order -1 < 0 < 1.
    """
    out = list(iter_asms(n, size_limit=size_limit))
    out.sort(key=lambda a: a.entries)
    return out


def count_asms(n: int, *, size_limit: int | None = ASM_SIZE_LIMIT) -> int:
    return sum(1 for _ in iter_asms(n, size_limit=size_limit))


def enumerate_permutations(
    n: int, *, size_limit: int | None = PERMUTATION_SIZE_LIMIT
) -> list[Permutation]:
    """All permutations of [n] in lexicographic one-line order."""
    _check_limit(n, size_limit)
    return [Permutation(p) for p in _permutations(range(1, n + 1))]
