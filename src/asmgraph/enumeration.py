"""Exhaustive enumeration of ASMs and permutation matrices.

ASMs are generated row by row through their column partial sums: after
row i, the state s is an int whose bit j is the sum of column j over
rows 1..i, with i bits set (the rows of Propp's monotone triangles, and
the states that lattice's rectangle scan builds).  The next entry row e
has e_j in {0, +1} where bit j of s is 0 and e_j in {0, -1} where it is
1, and its nonzero entries alternate, starting and ending with +1; the
next state is s XOR the mask of e's nonzero columns.  Every state with
fewer than n bits set has a successor, so every walk of n steps from
the state 0 is exactly one ASM: no post-filtering, no dead ends, and
no corner sum is formed.

Walking the successors of each state in lexicographic order yields the
ASMs in canonical order.  iter_asms joins the walks over the first rows
to the completions of each state reached (its bits fix the rows left),
listed once per state in a memo of the call: the last floor(n/2) rows,
at most ASM_SIZE_LIMIT // 2, so the memo is freed with the generator
and stays polynomial in n with the guard lifted.  The join carries the
bigrassmannian statistic beta = sum_i i^2 - sum_i i m(row_i), with the
row moment m(row) = sum_j j row_j (0-based i, j; see lattice.beta).  A
state with i bits set is always followed by row i, so each head holds
sum_i i^2 less its rows' part, each memoised tail its rows' part, and
an ASM's beta is one subtraction, handed over as its seed.

Adding up path counts layer by layer, each step weighed, counts the
walks without building a single matrix.  Each state's weighted count
is one int: the sum of factor * x^exponent over the walks into it,
evaluated at x = 2^width (Kronecker substitution), so with width 0 it
is the weighted count itself.  A caller that bounds the coefficients
reads the exponents back as base-2^width digits.  The same tally over
a table that lists only the rows with a single +1, in the order the
successor table lists them, walks the permutation matrices alone and
tallies B_n(q) too.

The counts grow fast (1, 2, 7, 42, 429, 7436, 218348, ...), so the
entry points guard against accidentally huge sizes; pass
``size_limit=None`` to lift the guard deliberately.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations as _permutations
from operator import mul
from typing import Callable, Iterator

from .core import Asm, AsmError, Permutation, _trusted_asm, _trusted_permutation

Row = tuple[int, ...]

ASM_SIZE_LIMIT = 7
PERMUTATION_SIZE_LIMIT = 9

#: Number of n x n ASMs for n = 1..7, for quick sanity checks.
KNOWN_ASM_COUNTS = {1: 1, 2: 2, 3: 7, 4: 42, 5: 429, 6: 7436, 7: 218348}


class SizeLimitExceededError(AsmError):
    def __init__(
        self, n: int, limit: int, hint: str = "pass size_limit=None to override", guard: str = "guard"
    ):
        self.n = n
        self.limit = limit
        super().__init__(f"n={n} exceeds the {guard} ({limit}); {hint}")


def _check_limit(n: int, size_limit: int | None, guard: str = "guard") -> None:
    if n < 1:
        raise ValueError("n must be positive")
    if size_limit is not None and n > size_limit:
        raise SizeLimitExceededError(n, size_limit, guard=guard)


def _step_table(n: int) -> Callable[[int], list[tuple[Row, int]]]:
    """The successor table for n columns, memoised for one walk: int
    state -> (entry row, next int state) pairs."""

    @cache
    def steps(state: int) -> list[tuple[Row, int]]:
        """Each entry row that can follow column partial sums `state`, with
        the state it leads to, in lexicographic order of entry rows."""
        out = []
        row = [0] * n

        def extend(j: int, partial: int, nxt: int) -> None:
            # partial is the row sum so far; a nonzero entry flips it and
            # its column's bit, and may only sit where the column sum
            # equals it.
            if j == n:
                if partial:
                    out.append((tuple(row), nxt))
                return
            for v in (0,) if state >> j & 1 != partial else (-1, 0) if partial else (0, 1):
                row[j] = v
                extend(j + 1, partial + v, nxt ^ (v != 0) << j)

        extend(0, 0, state)
        return out

    return steps


def _permutation_table(n: int) -> Callable[[int], list[tuple[Row, int]]]:
    """The rows of ``_step_table(n)`` with a single +1, in its order (the
    +1 from the last clear bit to the first).  Not memoised: a state
    with i bits set is reached only in layer i of :func:`_tally`, which
    steps each state of a layer once, so no state is looked up twice."""
    units = [tuple(int(k == j) for k in range(n)) for j in range(n)]

    def steps(state: int) -> list[tuple[Row, int]]:
        return [(units[j], state | 1 << j) for j in reversed(range(n)) if not state >> j & 1]

    return steps


def iter_asms(n: int, *, size_limit: int | None = ASM_SIZE_LIMIT) -> Iterator[Asm]:
    """Stream all n x n ASMs in canonical order (see enumerate_asms) by
    the half-walk join above, with memos that live for this call.  The
    join carries beta: each ASM is seeded with it (see lattice.beta).
    The size guard is checked at the call; the walk starts at the first
    ``next()``."""
    _check_limit(n, size_limit)
    return _walk_asms(n)


def _walk_asms(n: int) -> Iterator[Asm]:
    """:func:`iter_asms`' stream, a generator, so that its memos and the
    chain of head walks are built at the first ``next()``."""
    steps, full = _step_table(n), (1 << n) - 1

    @cache
    def moment(row: Row) -> int:
        return sum(map(mul, range(n), row))

    @cache
    def tails(state: int) -> list[tuple[tuple[Row, ...], int]]:
        if state == full:
            return [((), 0)]
        i = state.bit_count()  # the row after a state with i bits set is row i
        return [
            ((row, *tail), i * moment(row) + t)
            for row, nxt in steps(state)
            for tail, t in tails(nxt)
        ]

    heads: Iterator[tuple[tuple[Row, ...], int, int]]
    heads = iter([((), (n - 1) * n * (2 * n - 1) // 6, 0)])
    for _ in range(n - min(n // 2, ASM_SIZE_LIMIT // 2)):
        heads = (
            ((*head, row), b - len(head) * moment(row), nxt)
            for head, b, state in heads
            for row, nxt in steps(state)
        )
    for head, b, mid in heads:
        for tail, t in tails(mid):
            yield _trusted_asm(head + tail, b - t)


def enumerate_asms(n: int, *, size_limit: int | None = ASM_SIZE_LIMIT) -> list[Asm]:
    """All n x n ASMs in canonical order.

    Canonical order is lexicographic on the row-major entry sequence
    with the natural entry order -1 < 0 < 1.
    """
    return list(iter_asms(n, size_limit=size_limit))


def _tally(
    n: int,
    steps: Callable[[int], list[tuple[Row, int]]],
    weigh: Callable[[int, Row, int], tuple[int, int]],
    width: int = 0,
) -> int:
    """Sum of factor * x^exponent over the n-step walks of the successor
    table ``steps`` from the state 0 to the full state (1 << n) - 1, at
    x = 2^width, layer by layer: step i adds the exponent and multiplies
    the factor of ``weigh(i, row, state)``.  Every exponent step must be >= 0: at
    width > 0 a negative one raises ValueError (a negative shift count),
    and width 0 reads no exponent.

    Each state holds one int, the sum at 2^width over its walks, so a
    step is one shift and one add.  Evaluation at 2^width is a ring
    homomorphism Z[x] -> Z, so the result is exactly P(2^width) for P
    the tally polynomial, and no bound is needed along the way.  Only
    reading P back needs one: its coefficients are the balanced
    base-2^width digits of the result when each c has |c| < 2^(width-1)
    (see polynomials._decode).  Width 0 gives P(1)."""
    paths = {0: 1}
    for i in range(n):
        layer: dict[int, int] = {}
        for state, value in paths.items():
            for row, nxt in steps(state):
                e, f = weigh(i, row, state)
                layer[nxt] = layer.get(nxt, 0) + (value << width * e) * f
        paths = layer
    return paths[(1 << n) - 1]


def count_asms(n: int, *, size_limit: int | None = ASM_SIZE_LIMIT) -> int:
    """Number of n x n ASMs: the walks of iter_asms, tallied at width 0
    (every walk weighs 1) without building any matrix."""
    _check_limit(n, size_limit)
    return _tally(n, _step_table(n), lambda i, row, state: (0, 1))


def enumerate_permutations(
    n: int, *, size_limit: int | None = PERMUTATION_SIZE_LIMIT
) -> list[Permutation]:
    """All permutations of [n] in lexicographic one-line order, built
    without the image check."""
    _check_limit(n, size_limit)
    return [_trusted_permutation(p) for p in _permutations(range(1, n + 1))]
