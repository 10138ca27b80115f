"""The ASM order, essential rectangles, and the ASM graph.

ASMs of size n are partially ordered by reverse entrywise comparison of
corner-sum matrices: A <= B iff A~(i, j) >= B~(i, j) everywhere.  On
permutation matrices this is the (strong) Bruhat order, and the full
poset is the smallest lattice containing it; the identity matrix is the
unique minimum and the reverse identity the unique maximum.  The order
test is one row-major scan for a first cell with A~(A) < A~(B), the
cell at which the TNN counterexample is built.  Each ASM builds its
corner sums once, on first use, and keeps them (see core.corner_sum).

The order is graded by the bigrassmannian statistic

    beta(A) = sum_{i,j} min(i, j) - sum_{i,j} A~(i, j)
            = (1/2) sum_{i,j} (i - j)^2 A(i, j)
            = #{bigrassmannian permutations B with B <= A},

:func:`beta` reads the entry formula through row moments, or returns
the seed that enumeration summed the same way (see there); the other
two formulas check it in :func:`beta_checked`.

A rectangle R = rows [i, j) x columns [k, l) is *essential* for A when
the corner-sum matrix can be increased by 1 on exactly the cells of R
and stay a corner-sum matrix, and *dual essential* when it can be
decreased likewise.  Adding moves down the order, subtracting moves up.
The directed ASM graph has an edge A -> B whenever B is obtained from A
by one such subtraction.  At the rectangle's corners B(i,k), B(j,l) are
-1 or 0 and B(i,l), B(j,k) are 0 or 1, so the edge's type is 4 bits:
1 + 8[B(i,k) = -1] + 4[B(j,l) = -1] + 2[B(j,k) = 0] + [B(i,l) = 0].

A corner-sum step is a partial sum of A: A~(p, q) - A~(p, q-1) is
s(p, q), the sum of column q down to row p, and A~(p, q) - A~(p-1, q)
is r(p, q), the sum of row p up to column q.  So the corner sums can
move by delta on the cells of [i, j) x [k, l) exactly when

    s(p, k) = e and s(p, l) = 1 - e for i <= p < j, and
    r(i, q) = e and r(j, q) = 1 - e for k <= q < l,

with e = 1 when lowering (dual essential) and e = 0 when raising
(essential).  Every rectangle question (the essential and dual-essential
tests and sets, :func:`apply_rect`, the essential points and the graph's
edges) is one scan over bitmasks, never over the other rectangles.  Each
row holds two masks: its nonzero entries, and the columns where its
partial sum r is 1.  The column sums s after row p (Propp's monotone-
triangle row) are the running XOR of the nonzero masks: the same int, bit
q for column q, that the enumeration walk keeps as its state.  The scan loops over row pairs i < j and reads the
spans k < l that the two rows' partial-sum masks allow from a table
keyed by that pair; a span is a rectangle when the AND of the states on
rows i..j-1 has bit k and their OR lacks bit l.  One table per size
lists the lowering spans (e = 1); complementing a mask swaps e and 1 - e,
so raising reads the complemented states and table keys.  Lowering the
corner sums by 1 on the cells of R changes A only at the corners (i,k),
(i,l), (j,k), (j,l), where it adds (-1, +1, +1, -1); raising them adds
(+1, -1, -1, +1).  The span table types each lowering edge by its
target's corners.  The scan is a plain function that walks a sequence
of matrices, looks up each row once, appends each matrix's rectangles,
in (i, j, k, l) order, to three columns (the target, the edge type and
the packed bounds) and then calls ``done`` with the matrix's code.
:func:`build_graph` hands it all the nodes and the graph's arrays; the
one-ASM questions hand it one matrix and lists, and form any target by
the corner update.

Essential points are the scan's test on adjacent rows and spans with
l = k + 1, which :func:`_points` yields as it goes.  From b, :func:`covering_chain` raises, at each step, the
corner sum at the row-major first essential point where A~(a) is still
larger, and forms the lower matrix by the corner update; certificates
take each step's rectangle from the same walk.

A built :class:`AsmGraph` keeps its edges as CSR columns: per-source
offsets into ``array`` columns of target indices, edge types and packed
rectangle bounds.  :func:`build_graph` alone writes them, by one scan
over all nodes that appends straight to them.  The scan codes each node
by its entries as base-3 digits, so a target's code is its source's plus
a product read from the span table, and looks that code up; no target
matrix is formed.  One pass is enough: lowering adds -1 at (i, k), the
row-major first corner, so every target precedes its source in
canonical order and is indexed before its source is scanned.
:attr:`AsmGraph.edges` is an iterator over the columns that makes
:class:`GraphEdge` values as it goes, so the graph on all 218,348 7x7
ASMs (3,514,354 edges) fits in about 27 MB of columns.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, combinations
from operator import attrgetter, lt, mul, sub, xor
from typing import Callable, Iterable, Iterator, NamedTuple

from .core import (
    Asm,
    AsmError,
    CornerSum,
    Permutation,
    _trusted_asm,
    corner_sum,
    permutation_to_asm,
)
from .enumeration import ASM_SIZE_LIMIT, SizeLimitExceededError, iter_asms

Entries = tuple[tuple[int, ...], ...]
#: A rectangle's corner rows and columns (i, j, k, l), as in :class:`Rect`.
Bounds = tuple[int, int, int, int]


class SizeMismatchError(AsmError):
    """Operands have different sizes."""


class NotAnEdgeError(AsmError):
    """The given pair/rectangle is not an edge of the ASM graph."""


class IncomparableError(AsmError):
    """The two ASMs are not related in the order."""


@dataclass(frozen=True, order=True)
class Rect:
    """Rectangle R with corner rows i < j and corner columns k < l.

    Membership cells are (p, q) with i <= p < j and k <= q < l; the four
    corner *positions* (i,k), (i,l), (j,k), (j,l) generally lie outside
    the membership cells.  The bounds must be ints (not bools).
    """

    i: int
    j: int
    k: int
    l: int

    def __post_init__(self):
        i, j, k, l = self.bounds
        if not (type(i) is type(j) is type(k) is type(l) is int and 1 <= i < j and 1 <= k < l):
            raise ValueError(f"need int bounds with i < j and k < l, got {self}")

    @property
    def bounds(self) -> Bounds:
        return (self.i, self.j, self.k, self.l)

    @property
    def area(self) -> int:
        return (self.j - self.i) * (self.l - self.k)

    def is_point(self) -> bool:
        """1x1 rectangles; these give the covering relations."""
        return self.j == self.i + 1 and self.l == self.k + 1

    def corners(self) -> tuple[tuple[int, int], ...]:
        return ((self.i, self.k), (self.i, self.l), (self.j, self.k), (self.j, self.l))


def _same_size(a: Asm, b: Asm) -> int:
    if a.n != b.n:
        raise SizeMismatchError(f"sizes differ: {a.n} vs {b.n}")
    return a.n


class _Table(dict):
    """A dict that fills itself: ``table[key]`` is ``make(key)``, made on
    first use."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _row_bits(row: tuple[int, ...]) -> tuple[int, int, int]:
    """(nonzero mask, partial-sum mask, base-3 code) of an ASM row, with
    0-based columns q: the masks have bit q where row[q] != 0 and where
    the partial sum up to row[q] is 1, and the code has digit row[q] + 1
    at 3^q."""
    nonzero = partial = code = 0
    for q, (v, r) in enumerate(zip(row, accumulate(row))):
        nonzero |= (v != 0) << q
        partial |= r << q
        code += (v + 1) * 3**q
    return nonzero, partial, code


def _spans(n: int, key: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """The spans k < l that lowering allows, sorted by (k, l): the top
    row's partial sums are 1 and the bottom row's 0 on them, for the
    partial-sum masks top << n | bottom.  Raising, with sums 0 on top and
    1 below, reads the spans of the complemented masks.

    Each span is (kbit, lbit, step, edge type, packed): the column state
    bits 1 << k and 1 << l (0-based), the change of the top row's base-3
    code (the bottom's is -step), the type of the edge across it from its
    upper ASM, and (k, l) 1-based as the low half of a packed rects entry.
    """
    top, bottom = key >> n, key & ((1 << n) - 1)
    run = top & ~bottom

    def entry(mask: int, q: int) -> int:
        """The row entry at 0-based column q: a step of its partial sums."""
        return (mask >> q & 1) - (mask << 1 >> q & 1)

    shift = n.bit_length()
    spans = []
    for k in range(n):
        l = k
        while run >> l & 1:
            l += 1
            # Typed by the target's corners: these rows plus (-1, 1, 1, -1).
            edge_type = _edge_type(
                entry(top, k) - 1, entry(top, l) + 1, entry(bottom, k) + 1, entry(bottom, l) - 1
            )
            spans.append(
                (1 << k, 1 << l, 3**l - 3**k, edge_type, _pack((0, 0, k + 1, l + 1), shift))
            )
    return tuple(spans)


@cache
def _size_tables(n: int) -> tuple[_Table, _Table]:
    """The row table (row -> :func:`_row_bits`) and the span table
    (partial-sum masks top << n | bottom -> :func:`_spans`) for size n."""
    return _Table(_row_bits), _Table(lambda key: _spans(n, key))


def _tables(n: int) -> tuple[_Table, _Table]:
    """:func:`_size_tables`, memoised up to ASM_SIZE_LIMIT, where a size
    holds at most 2^(n-1) rows and 2 * 4^(n-1) mask pairs, and fresh above."""
    return (_size_tables if n <= ASM_SIZE_LIMIT else _size_tables.__wrapped__)(n)


#: The append method of one column: a list's or an ``array``'s.
_Put = Callable[[int], None]


def _scan(
    n: int, matrices: Iterable[Entries], delta: int, find: Callable[[int], int],
    dst: _Put, types: _Put, rects: _Put, done: Callable[[int], None],
) -> None:
    """Scan each n x n matrix in turn, then call done(code) with its code.

    A matrix's code has row p's base-3 code (digit A(p, q) + 1 at 3^q,
    0-based) as its digit at W^p, W = 3^n.  Lowering the corner sums on
    rectangle (i, j, k, l) moves the code by step * lift, with the span's
    step 3^l - 3^k and lift W^i - W^j, in 0-based indices.  The scan
    writes every rectangle on whose cells the matrix's corner sums can
    move by delta, in (i, j, k, l) order, as
    dst(find(code + step * lift)), types(edge type) and
    rects(high | packed), for rows i < j, the span's packed (k, l) (see
    :func:`_spans`) and high the (i + 1, j + 1) half of the packed entry
    (see :func:`_pack`); dst, types and rects append to the columns.

    Each row is looked up once in the row table, for its two masks and
    its code.  The column states s(p, .) are the running XOR of the
    nonzero masks.  The span table gives the (k, l) that rows i and j
    allow; such a span is a rectangle when the states on rows i..j-1 all
    have bit k and none has bit l.  Raising complements both the states
    and the partial-sum masks it looks up; its moves and types are not
    those of its edges.
    """
    rows, spans = _tables(n)
    powers = [3 ** (n * p) for p in range(n)]
    flip = (1 << n) - 1 if delta > 0 else 0
    shift = n.bit_length()
    # Per top row i, shared by all matrices: the rows j below it, and each
    # j's lift and high half _pack((i + 1, j + 1, 0, 0), shift).
    plan = [
        (
            i, range(i + 1, n), [powers[i] - power for power in powers],
            [((i + 1) << shift | j + 1) << 2 * shift for j in range(n)],
        )
        for i in range(n - 1)
    ]
    for entries in matrices:
        nonzero, partial, codes = zip(*map(rows.__getitem__, entries))
        code = sum(map(mul, codes, powers))
        states = [state ^ flip for state in accumulate(nonzero, xor)]
        for i, below, lifts, highs in plan:
            # top ^ partial[j] is the span key of rows i and j, both masks
            # complemented when raising.
            top = (partial[i] ^ flip) << n | flip
            both = either = states[i]
            for j in below:
                for kbit, lbit, step, edge_type, packed in spans[top ^ partial[j]]:
                    if both & kbit and not either & lbit:
                        dst(find(code + step * lifts[j]))
                        types(edge_type)
                        rects(highs[j] | packed)
                both &= states[j]
                if not both:
                    break
                either |= states[j]
        done(code)


def _rects(entries: Entries, delta: int) -> tuple[list[int], list[Bounds]]:
    """:func:`_scan` over one ASM's entries alone: the edge types and the
    sorted 1-based bounds of its rectangles."""
    n = len(entries)
    types, rects = [], []
    # No node index here: find passes each target code on to the dropped
    # dst column, and done has nothing to record.
    _scan(n, [entries], delta, int, [].append, types.append, rects.append, lambda code: None)
    shift = n.bit_length()
    return types, [_unpack(code, shift) for code in rects]


def _points(entries: Entries, rows: _Table, spans: _Table) -> Iterator[tuple[int, int]]:
    """1-based (i, k), in row-major order, of every point (1x1 rectangle)
    on which the corner sums of entries can be raised: :func:`_scan` with
    delta = 1 on adjacent rows and spans with l = k + 1, at the
    complemented partial-sum masks.  The column state is complemented as
    raising reads it: it starts at -1, every bit set, the complement of
    the empty state."""
    n = len(entries)
    flip = (1 << 2 * n) - 1
    state = -1
    below = rows[entries[0]]
    for i in range(1, n):
        top, below = below, rows[entries[i]]
        state ^= top[0]
        for kbit, lbit, _, _, _ in spans[(top[1] << n | below[1]) ^ flip]:
            if lbit == kbit << 1 and state & kbit and not state & lbit:
                yield i, kbit.bit_length()


def _shift_rects(entries: Entries, delta: int) -> list[Bounds]:
    """Sorted 1-based bounds (i, j, k, l) of every rectangle on whose
    cells the corner sums of entries can move by delta (+1 or -1)."""
    return _rects(entries, delta)[1]


def is_essential(a: Asm, r: Rect) -> bool:
    """Can the corner sums be raised by 1 on the cells of r?"""
    return r.bounds in _shift_rects(a.entries, 1)


def is_dual_essential(a: Asm, r: Rect) -> bool:
    """Can the corner sums be lowered by 1 on the cells of r?"""
    return r.bounds in _shift_rects(a.entries, -1)


def essential_rects(a: Asm) -> set[Rect]:
    return {Rect(*bounds) for bounds in _shift_rects(a.entries, 1)}


def dual_essential_rects(a: Asm) -> set[Rect]:
    return {Rect(*bounds) for bounds in _shift_rects(a.entries, -1)}


def apply_rect(a: Asm, r: Rect) -> Asm:
    """Apply the rectangular operator for r to a.

    Adds the cell indicator of r to the corner sums if r is essential
    for a (moving down the order), subtracts it if r is dual essential
    (moving up), and otherwise returns a unchanged.  At most one
    direction can hold, and s(i, k) names it: raising needs 0 there and
    lowering needs 1, so only that direction's rectangles are listed.
    """
    entries, bounds = a.entries, r.bounds
    i, j, k, l = bounds
    if j > len(entries) or l > len(entries):
        return a
    delta = -1 if sum(row[k - 1] for row in entries[:i]) else 1
    if bounds in _shift_rects(entries, delta):
        return _trusted_asm(_shift_corners(entries, bounds, delta))
    return a


def _shift_corners(entries: Entries, bounds: Bounds, delta: int) -> Entries:
    """Entries after adding delta to the corner sums on the cells of the
    rectangle with these bounds.

    Only the four corners change, by delta * (1, -1, -1, 1) at (i,k),
    (i,l), (j,k), (j,l); the other rows are shared with the input.
    """
    i, j, k, l = bounds
    rows = list(entries)
    top, bottom = list(rows[i - 1]), list(rows[j - 1])
    top[k - 1] += delta
    top[l - 1] -= delta
    bottom[k - 1] -= delta
    bottom[l - 1] += delta
    rows[i - 1], rows[j - 1] = tuple(top), tuple(bottom)
    return tuple(rows)


# ---------------------------------------------------------------------------
# the sixteen edge types
# ---------------------------------------------------------------------------

def _edge_type(ik: int, il: int, jk: int, jl: int) -> int:
    """Edge type 1..16 from the target's entries B(i,k), B(i,l), B(j,k),
    B(j,l) at the rectangle's corners, each one of two values."""
    return 1 + 8 * (ik == -1) + 4 * (jl == -1) + 2 * (jk == 0) + (il == 0)


@dataclass(frozen=True)
class Edge:
    """A directed edge source -> target of the ASM graph."""

    source: Asm
    target: Asm
    rect: Rect
    edge_type: int


def classify_edge(source: Asm, target: Asm, r: Rect) -> int:
    """Edge type (1..16) of source -> target along rectangle r.

    Raises NotAnEdgeError unless source is target with (1, -1, -1, 1)
    added at the four corner positions of r.  Then the corner-sum
    matrices differ by the cell indicator of r, so the pair really is a
    graph edge, and the type is read off the target corners.
    """
    n = _same_size(source, target)
    if r.j > n or r.l > n:
        raise NotAnEdgeError(f"{r} does not fit in size {n}")
    if _shift_corners(target.entries, r.bounds, 1) != source.entries:
        raise NotAnEdgeError(f"source - target is not (1, -1, -1, 1) on {r}'s corners")
    return _edge_type(*(target.entry(p, q) for p, q in r.corners()))


def edge_between(source: Asm, target: Asm) -> Edge:
    """Recover the unique edge source -> target, or raise NotAnEdgeError.

    The two matrices of an edge differ exactly at the four corner
    positions of its rectangle; :func:`classify_edge` checks the rest.
    """
    n = _same_size(source, target)
    cells = [
        (p, q)
        for p in range(1, n + 1)
        for q in range(1, n + 1)
        if source.entry(p, q) != target.entry(p, q)
    ]
    rows, cols = sorted({p for p, _ in cells}), sorted({q for _, q in cells})
    if len(rows) != 2 or len(cols) != 2:
        raise NotAnEdgeError("the matrices do not differ at one rectangle's corners")
    r = Rect(rows[0], rows[1], cols[0], cols[1])
    return Edge(source, target, r, classify_edge(source, target, r))


def edges_from(a: Asm) -> list[Edge]:
    """All edges of the ASM graph leaving a, sorted by rectangle."""
    edges = []
    for edge_type, bounds in zip(*_rects(a.entries, -1)):
        target = _trusted_asm(_shift_corners(a.entries, bounds, -1))
        edges.append(Edge(a, target, Rect(*bounds), edge_type))
    return edges


# ---------------------------------------------------------------------------
# order and rank
# ---------------------------------------------------------------------------

def _first_excess(ca: CornerSum, cb: CornerSum) -> tuple[int, int] | None:
    """Row-major first 1-based (i, j) with ca(i, j) < cb(i, j); None
    exactly when a <= b for the ASMs a, b with these corner sums."""
    for i, (ra, rb) in enumerate(zip(ca.entries, cb.entries), start=1):
        for j, below in enumerate(map(lt, ra, rb), start=1):
            if below:
                return i, j
    return None


def asm_leq(a: Asm, b: Asm) -> bool:
    """a <= b in the ASM order (reverse corner-sum dominance)."""
    _same_size(a, b)
    return _first_excess(corner_sum(a), corner_sum(b)) is None


def _beta_corner_sum(a: Asm) -> int:
    """beta via corner sums, the independent check on :func:`beta`."""
    cells = range(1, a.n + 1)
    total = sum(min(i, j) for i in cells for j in cells)
    return total - sum(map(sum, corner_sum(a).entries))


def _square_gaps(n: int) -> tuple[tuple[int, ...], ...]:
    """(i - j)^2 for 0-based i, j < n, built at each call: its callers
    each weigh one matrix, and a table costs microseconds per call."""
    return tuple(tuple((i - j) ** 2 for j in range(n)) for i in range(n))


def beta(a: Asm) -> int:
    """The bigrassmannian statistic (1/2) sum (i - j)^2 A(i, j).  Every
    row and every column of A sums to 1, so the i^2 and the j^2 terms
    each give sum_i i^2, and beta(A) = sum_i i^2 - sum_i i m(row_i) with
    the row moment m(row) = sum_j j row_j (0-based i, j).

    The ASMs that :func:`~asmgraph.enumeration.iter_asms` yields (and so
    enumerate_asms and the nodes of build_graph) carry beta as a seed,
    summed by the walk and set once in their ``_beta`` slot when they are
    made, and this returns it.  Every other ASM, from the constructor or
    from a move, chain or certificate, has None in that slot and beta is
    computed from its rows; the value is not stored back."""
    if a._beta is not None:
        return a._beta
    rows = a.entries
    n = len(rows)
    moments = (sum(map(mul, range(n), row)) for row in rows)
    return (n - 1) * n * (2 * n - 1) // 6 - sum(map(mul, range(n), moments))


def beta_bigrassmannian_count(a: Asm) -> int:
    """beta as the number of bigrassmannian permutations below a."""
    return sum(1 for b in _bigrassmannian_asms(a.n) if asm_leq(b, a))


#: beta_checked's guard: the bigrassmannian count makes C(n+1, 3) order
#: tests of O(n^2) each, about 0.8 s for the reverse permutation at n = 28.
BETA_CHECKED_SIZE_LIMIT = 28


def beta_checked(a: Asm) -> int:
    """beta by all three formulas, insisting that they agree.

    Raises SizeLimitExceededError above BETA_CHECKED_SIZE_LIMIT, where
    :func:`beta` alone still answers.
    """
    if a.n > BETA_CHECKED_SIZE_LIMIT:
        raise SizeLimitExceededError(
            a.n, BETA_CHECKED_SIZE_LIMIT, "beta() gives the value without the cross-checks"
        )
    v1, v2, v3 = beta(a), _beta_corner_sum(a), beta_bigrassmannian_count(a)
    if not (v1 == v2 == v3):
        raise AsmError(f"beta evaluators disagree: {v1}, {v2}, {v3}")
    return v1


def beta_permutation(w: Permutation) -> int:
    """beta of a permutation matrix: half the sum of (i - w(i))^2."""
    return sum((i - j) ** 2 for i, j in enumerate(w.images, start=1)) // 2


def is_bigrassmannian(w: Permutation) -> bool:
    """Exactly one descent in w and exactly one in its inverse."""
    def descents(u: Permutation) -> int:
        return sum(1 for i in range(1, u.n) if u(i) > u(i + 1))

    return descents(w) == 1 and descents(w.inverse()) == 1


def _bigrassmannian_asms(n: int) -> Iterator[Asm]:
    """The C(n + 1, 3) bigrassmannian permutation matrices, built directly
    and one at a time: one-line 1..x, y+1..z, x+1..y, z+1..n for
    0 <= x < y < z <= n."""
    for x, y, z in combinations(range(n + 1), 3):
        yield permutation_to_asm(
            (*range(1, x + 1), *range(y + 1, z + 1), *range(x + 1, y + 1), *range(z + 1, n + 1))
        )


def essential_points(a: Asm) -> frozenset[tuple[int, int]]:
    """Positions (i, j) whose 1x1 rectangle is essential for a.

    These biject with the elements covered by a; an ASM is a
    bigrassmannian permutation matrix iff it has exactly one.
    """
    return frozenset(_points(a.entries, *_tables(a.n)))


def fulton_essential_set(w: Permutation) -> set[tuple[int, int]]:
    """Fulton's essential set of a permutation.

    (i, j) qualifies when i < w^-1(j), j < w(i), w(i+1) <= j and
    w^-1(j+1) <= i; for permutation matrices this coincides with
    :func:`essential_points`.
    """
    winv = w.inverse()
    n = w.n
    return {
        (i, j)
        for i in range(1, n)
        for j in range(1, n)
        if i < winv(j) and j < w(i) and w(i + 1) <= j and winv(j + 1) <= i
    }


def covered_by(a: Asm) -> list[Asm]:
    """Elements covered by a, one per essential point, in lex point order."""
    return [
        _trusted_asm(_shift_corners(a.entries, (i, i + 1, j, j + 1), 1))
        for i, j in _points(a.entries, *_tables(a.n))
    ]


def _chain_steps(a: Asm, b: Asm) -> list[tuple[Asm, Rect]]:
    """(A_t, R_t) for each step t of :func:`covering_chain`, bottom up:
    raising the corner sum of A_{t+1} at the point R_t gives A_t.

    gap holds each cell where A~(a) is still larger than the walk's corner
    sums and by how much, so raising at a point of gap is exactly a <=
    lower.  Each step scans the current matrix's points from the top row
    and raises at the first one in gap.  Raises IncomparableError unless
    a <= b.
    """
    n = _same_size(a, b)
    ca, cb = corner_sum(a), corner_sum(b)
    if _first_excess(ca, cb) is not None:
        raise IncomparableError("chain requires a <= b")
    gap = {
        (i, j): d
        for i, (ra, rb) in enumerate(zip(ca.entries, cb.entries), start=1)
        for j, d in enumerate(map(sub, ra, rb), start=1)
        if d
    }
    # Fetched once: above ASM_SIZE_LIMIT each call builds fresh tables.
    rows, spans = _tables(n)
    entries = b.entries
    steps = []
    while gap:
        for point in _points(entries, rows, spans):
            if point in gap:
                break
        else:
            raise AsmError("no covering step stays above a; order is broken")
        gap[point] -= 1
        if not gap[point]:
            del gap[point]
        i, j = point
        rect = Rect(i, i + 1, j, j + 1)
        entries = _shift_corners(entries, rect.bounds, 1)
        steps.append((_trusted_asm(entries), rect))
    return steps[::-1]


def covering_chain(a: Asm, b: Asm) -> list[Asm]:
    """A saturated chain a = A_0 < A_1 < ... < A_k = b, k = beta(b) - beta(a).

    Deterministic: walking down from b, each step moves to the covered
    element for the lexicographically smallest essential point of the
    current upper element that stays above a.  Raises IncomparableError
    unless a <= b.
    """
    return [lower for lower, _rect in _chain_steps(a, b)] + [b]


# ---------------------------------------------------------------------------
# the full graph on all ASMs of one size
# ---------------------------------------------------------------------------

class GraphEdge(NamedTuple):
    """Edge of a built graph, endpoints as canonical node indices."""

    src: int
    dst: int
    rect: Rect
    edge_type: int


#: The largest n whose four rectangle bounds, n.bit_length() bits each,
#: pack into one unsigned 64-bit entry of :attr:`AsmGraph.rects`.
PACKED_SIZE_LIMIT = 2**16 - 1


def _typecode(largest: int) -> str:
    """The narrowest unsigned ``array`` typecode that holds 0..largest."""
    for code in "BHILQ":
        if largest < 1 << 8 * array(code).itemsize:
            return code
    raise OverflowError(f"{largest} does not fit in 64 bits")


def _pack(bounds: Bounds, shift: int) -> int:
    i, j, k, l = bounds
    return ((i << shift | j) << shift | k) << shift | l


def _unpack(code: int, shift: int) -> Bounds:
    mask = (1 << shift) - 1
    return (code >> 3 * shift, code >> 2 * shift & mask, code >> shift & mask, code & mask)


@dataclass(frozen=True)
class AsmGraph:
    """The ASM graph on all n x n ASMs, its edges stored as CSR columns.

    Nodes are in canonical enumeration order, and edges are grouped by
    source in node order.  The edges leaving node s are the positions
    offsets[s] to offsets[s + 1] of three ``array`` columns: dst, the
    target's node index; types, the edge type 1..16; and rects, the
    rectangle's bounds (i, j, k, l) packed into one int of
    n.bit_length() bits per bound (:meth:`bounds` unpacks them).  Each
    column takes the narrowest unsigned typecode that holds its values,
    so at n = 7 an edge costs 7 bytes.  :attr:`edges` iterates over the
    columns, making a :class:`GraphEdge` per edge as it goes.
    """

    n: int
    nodes: tuple[Asm, ...]
    offsets: array
    dst: array
    types: array
    rects: array

    def index_of(self, a: Asm) -> int:
        """a's node index, bisected: canonical order is tuple order on entries."""
        i = bisect_left(self.nodes, a.entries, key=attrgetter("entries"))
        if i == len(self.nodes) or self.nodes[i].entries != a.entries:
            raise ValueError(f"{a!r} is not a node of this graph")
        return i

    def successors(self, idx: int) -> list[int]:
        if idx not in range(len(self.nodes)):
            raise IndexError(f"node index {idx} out of range")
        return list(self.dst[self.offsets[idx] : self.offsets[idx + 1]])

    def bounds(self, code: int) -> Bounds:
        """The rectangle bounds (i, j, k, l) packed in an entry of rects."""
        return _unpack(code, self.n.bit_length())

    @property
    def edges(self) -> Iterator[GraphEdge]:
        """A fresh iterator over the edges, grouped by source in node order."""
        offsets, dst, types, rects = self.offsets, self.dst, self.types, self.rects
        for src in range(len(self.nodes)):
            for p in range(offsets[src], offsets[src + 1]):
                yield GraphEdge(src, dst[p], Rect(*self.bounds(rects[p])), types[p])

    @property
    def num_edges(self) -> int:
        return len(self.dst)


def build_graph(n: int, *, size_limit: int | None = ASM_SIZE_LIMIT) -> AsmGraph:
    """Build the complete ASM graph for size n.

    Each target is looked up by its code (see :func:`_scan`) in the
    index of the nodes scanned so far, so a wrong target fails with a
    KeyError instead of entering the graph.  One :func:`_scan` walks the
    nodes in canonical order, appends their edges straight to the
    columns and, after each node, indexes its code and records in
    offsets where its edges end; every target is already indexed, as it
    precedes its source (see the module docstring).  No target matrix,
    Rect, GraphEdge or per-edge tuple is made.  Beyond PACKED_SIZE_LIMIT,
    a SizeLimitExceededError says so before any ASM is enumerated.
    """
    # iter_asms checks the size guard at the call.  The tuple replaces the
    # spent generator, which a name kept through the scan would hold: at
    # n = 7 that raised graph --json's peak memory by 1.5 MB.
    nodes = iter_asms(n, size_limit=size_limit)
    if n > PACKED_SIZE_LIMIT:
        raise SizeLimitExceededError(
            n, PACKED_SIZE_LIMIT, "rectangle bounds are packed into 64 bits", guard="packing limit"
        )
    nodes = tuple(nodes)
    offsets, dst, types, rects = (
        array("Q", [0]),
        array(_typecode(len(nodes))),
        array("B"),
        array(_typecode((1 << 4 * n.bit_length()) - 1)),
    )
    index = {}

    def done(code: int) -> None:
        index[code] = len(index)
        offsets.append(len(dst))

    _scan(n, map(attrgetter("entries"), nodes), -1, index.__getitem__,
          dst.append, types.append, rects.append, done)
    return AsmGraph(n, nodes, offsets, dst, types, rects)


#: Fixed palette for the sixteen edge types in DOT output.
EDGE_TYPE_COLORS = (
    "#e6194b", "#3cb44b", "#4363d8", "#f58231",
    "#911eb4", "#42d4f4", "#f032e6", "#bfef45",
    "#fabed4", "#469990", "#dcbeff", "#9a6324",
    "#800000", "#aaffc3", "#808000", "#000075",
)

#: The DOT keywords, matched in any letter case: no unquoted ID may be one.
_DOT_KEYWORDS = ("node", "edge", "graph", "digraph", "subgraph", "strict")


def export_dot(g: AsmGraph, *, name: str = "asm_graph") -> str:
    """Render the graph in DOT format.

    Node labels are "index:beta"; edges are labelled and coloured with
    their type; nodes of equal beta share a rank so the drawing is
    layered by the grading.  The graph's name is written as it is when
    it is a plain ID, [A-Za-z_][A-Za-z0-9_]* and no DOT keyword, and
    otherwise as a quoted string with \\ and " escaped.
    """
    if not (name.isascii() and name.isidentifier()) or name.lower() in _DOT_KEYWORDS:
        name = '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'
    lines = [f"digraph {name} {{", "  rankdir=BT;", '  node [shape=box];']
    betas = [beta(a) for a in g.nodes]
    levels: dict[int, list[str]] = {}
    for i, b in enumerate(betas):
        levels.setdefault(b, []).append(f"n{i};")
    for level in sorted(levels):
        lines.append(f"  {{ rank=same; {' '.join(levels[level])} }}")
    for i, b in enumerate(betas):
        lines.append(f'  n{i} [label="{i}:{b}"];')
    tails = [f' [label="{t}", color="{c}"];' for t, c in enumerate(EDGE_TYPE_COLORS, 1)]
    offsets, dst, types = g.offsets, g.dst, g.types
    for src in range(len(g.nodes)):
        lo, hi = offsets[src], offsets[src + 1]
        lines.extend(f"  n{src} -> n{d}{tails[t - 1]}" for d, t in zip(dst[lo:hi], types[lo:hi]))
    lines.append("}")
    return "\n".join(lines) + "\n"
