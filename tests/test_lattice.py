"""Tests for the ASM order, essential rectangles, beta, and the graph.

Oracles used for cross-checking, each on a different code path than the
implementation under test:

- essential/dual essential: bump the corner-sum matrix on the cells and
  revalidate it globally, instead of checking boundary conditions;
- the rectangle walk over partial sums behind every rectangle question:
  the corner-sum boundary test it replaced, on every rectangle;
- the bitmask scan and its span tables: the list-based partial-sum walk
  they replaced, on every ASM up to 5x5, every 7th 6x6 one, and ASMs of
  up to 9x9 drawn as random column-state walks;
- the one span table per size: the two tables per size it replaced, one
  for each direction, on every partial-sum mask pair up to n = 7;
- graph edges: scan all ordered pairs and ask whether the corner-sum
  difference is the cell indicator of a combinatorial rectangle;
- the graph builder: the rectangle scan it replaced, which tests every
  rectangle with that corner-sum test, rebuilds each target from its
  bumped corner sums and re-classifies the pair;
- permutation subgraph: inversion-increasing transposition pairs;
- the edge-type rule: the paper's 16-row listing of corner patterns;
- covering chains: the walk they replaced (conftest's
  old_covering_chain), which re-tests each essential point with
  apply_rect and each candidate with a full asm_leq;
- the directly built bigrassmannian permutations: the is_bigrassmannian
  filter over S_n;
- beta through row moments: the (i - j)^2-weighted half-sum it replaced,
  and the corner-sum formula, on ASMs drawn as random column-state walks;
- beta seeded by iter_asms: the same half-sum, on every ASM up to 6x6,
  every 7th 7x7 one and the first 20,000 of each size 8 to 10, and the
  seeds' histogram against the column-state tally of 2 beta.
"""

import pickle
import sys
import tracemalloc
from array import array
from collections import Counter
from dataclasses import fields
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice, product
from math import comb, factorial
from operator import itemgetter, mul, xor

import pytest
from hypothesis import given, settings, strategies as st

from asmgraph import (
    KNOWN_ASM_COUNTS,
    AsmError,
    IncomparableError,
    NotAnEdgeError,
    Rect,
    SizeLimitExceededError,
    apply_rect,
    asm_leq,
    beta,
    beta_checked,
    beta_bigrassmannian_count,
    beta_permutation,
    build_graph,
    classify_edge,
    count_asms,
    covered_by,
    covering_chain,
    dual_essential_rects,
    edge_between,
    edges_from,
    enumerate_asms,
    enumerate_permutations,
    essential_points,
    essential_rects,
    export_dot,
    from_corner_sum,
    fulton_essential_set,
    identity_asm,
    inversions,
    is_bigrassmannian,
    is_dual_essential,
    is_essential,
    iter_asms,
    permutation_to_asm,
    reverse_asm,
    validate_asm,
)
from asmgraph import lattice
from asmgraph.core import Asm, Permutation, corner_sum, is_corner_sum
from asmgraph.enumeration import ASM_SIZE_LIMIT, _step_table, _tally
from asmgraph.lattice import (
    PACKED_SIZE_LIMIT,
    AsmGraph,
    Edge,
    GraphEdge,
    SizeMismatchError,
    _beta_corner_sum,
    _bigrassmannian_asms,
    _edge_type,
    _pack,
    _row_bits,
    _shift_rects,
    _size_tables,
    _spans,
    _square_gaps,
    _Table,
    _tables,
    _typecode,
)
from asmgraph.polynomials import _decode
from asmgraph.tnn import q_weighted, rational_matrix

#: The paper's sixteen edge types: (type, target corners, source corners),
#: corners in the order (i,k), (i,l), (j,k), (j,l).
EDGE_TYPE_TABLE = (
    (1, (0, 1, 1, 0), (1, 0, 0, 1)),
    (2, (0, 0, 1, 0), (1, -1, 0, 1)),
    (3, (0, 1, 0, 0), (1, 0, -1, 1)),
    (4, (0, 0, 0, 0), (1, -1, -1, 1)),
    (5, (0, 1, 1, -1), (1, 0, 0, 0)),
    (6, (0, 0, 1, -1), (1, -1, 0, 0)),
    (7, (0, 1, 0, -1), (1, 0, -1, 0)),
    (8, (0, 0, 0, -1), (1, -1, -1, 0)),
    (9, (-1, 1, 1, 0), (0, 0, 0, 1)),
    (10, (-1, 0, 1, 0), (0, -1, 0, 1)),
    (11, (-1, 1, 0, 0), (0, 0, -1, 1)),
    (12, (-1, 0, 0, 0), (0, -1, -1, 1)),
    (13, (-1, 1, 1, -1), (0, 0, 0, 0)),
    (14, (-1, 0, 1, -1), (0, -1, 0, 0)),
    (15, (-1, 1, 0, -1), (0, 0, -1, 0)),
    (16, (-1, 0, 0, -1), (0, -1, -1, 0)),
)


def _all_rects(n):
    return [
        Rect(i, j, k, l)
        for i in range(1, n)
        for j in range(i + 1, n + 1)
        for k in range(1, n)
        for l in range(k + 1, n + 1)
    ]


def _corner_sums_can_shift(c, r, delta):
    """Can the corner sums c move by delta (+1 or -1) on the cells of r?

    Only the steps across the boundary of r change: each step into r
    (from column k - 1 and row i - 1) must be 0 when raising and 1 when
    lowering, and each step out of r (to column l and row j) the other.
    """
    if r.j > c.n or r.l > c.n:
        return False
    v = c.value
    steps = ((1 - delta) // 2, (1 + delta) // 2)  # (into r, out of r)
    return all(
        (v(p, r.k) - v(p, r.k - 1), v(p, r.l) - v(p, r.l - 1)) == steps
        for p in range(r.i, r.j)
    ) and all(
        (v(r.i, q) - v(r.i - 1, q), v(r.j, q) - v(r.j - 1, q)) == steps
        for q in range(r.k, r.l)
    )


def _list_shift_rects(entries, delta):
    """_shift_rects before the bitmask scan: the runs of the row partial
    sums r and the column partial sums s, rebuilt as lists for each ASM
    and walked column pair by column pair, then sorted."""
    into, out = (1 - delta) // 2, (1 + delta) // 2
    n = len(entries)
    r = [list(accumulate(row)) for row in entries]
    s = [list(accumulate(col)) for col in zip(*entries)]  # s[q][p]
    rects = []
    for i in range(n - 1):
        top = r[i]
        for k in range(n - 1):
            if top[k] != into or s[k][i] != into:
                continue
            col_k = s[k]
            # r(i, .) = into on columns k..l-1
            for l in range(k + 1, n):
                col_l = s[l]
                # s(., k) = into and s(., l) = out on rows i..j-1
                j = i + 1
                while j < n and col_k[j - 1] == into and col_l[j - 1] == out:
                    # r(j, .) = out on columns k..l-1
                    if r[j][k:l].count(out) == l - k:
                        rects.append((i + 1, j + 1, k + 1, l + 1))
                    j += 1
                if top[l] != into:
                    break
    rects.sort()
    return rects


def _shift_rects_scan(a, delta):
    """Every rectangle of a's size on whose cells the corner sums can
    move by delta, by testing each one."""
    c = corner_sum(a)
    return {r for r in _all_rects(a.n) if _corner_sums_can_shift(c, r, delta)}


def _bump(a, r, delta):
    rows = [list(row) for row in corner_sum(a).entries]
    for p in range(r.i, r.j):
        for q in range(r.k, r.l):
            rows[p - 1][q - 1] += delta
    return rows


def _scan_edges_from(a):
    """edges_from by the rectangle scan: every rectangle is tested, each
    target is rebuilt from its corner sums and the pair re-classified."""
    out = []
    for r in sorted(_shift_rects_scan(a, -1)):
        target = from_corner_sum(_bump(a, r, -1))
        out.append(Edge(a, target, r, classify_edge(a, target, r)))
    return out


def _scan_graph(n):
    nodes = tuple(enumerate_asms(n))
    edges = tuple(
        GraphEdge(i, nodes.index(e.target), e.rect, e.edge_type)
        for i, a in enumerate(nodes)
        for e in _scan_edges_from(a)
    )
    return nodes, edges


@lru_cache(maxsize=None)
def _asms5():
    return tuple(enumerate_asms(5))


@lru_cache(maxsize=None)
def _asms6():
    return tuple(enumerate_asms(6))


def _beta_square_sum(a):
    """beta before the row-moment identity: (1/2) sum (i - j)^2 A(i, j)."""
    rows = a.entries
    return sum((i - j) ** 2 * v for i, row in enumerate(rows) for j, v in enumerate(row)) // 2


@st.composite
def _walked_asms(draw, max_n=12):
    """An ASM of size 1..max_n, one drawn successor per row of the walk."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    steps, state, rows = _step_table(n), 0, []
    for _ in range(n):
        choices = steps(state)
        row, state = choices[draw(st.integers(min_value=0, max_value=len(choices) - 1))]
        rows.append(row)
    return Asm(rows)


def _two_way_spans(n, delta, key):
    """The span table before it lost its direction: every span k < l on
    which the top row's partial sums are e and the bottom row's 1 - e
    (e = 1 when lowering, 0 when raising), each typed by the upper ASM of
    its edge, for the partial-sum masks top << n | bottom."""
    top, bottom = key >> n, key & ((1 << n) - 1)
    flip = (1 << n) - 1 if delta > 0 else 0
    run = (top ^ flip) & ~(bottom ^ flip)

    def entry(mask, q):
        return (mask >> q & 1) - (mask << 1 >> q & 1)

    upper = (delta - 1) // 2
    shift = n.bit_length()
    spans = []
    for k in range(n):
        l = k
        while run >> l & 1:
            l += 1
            edge_type = _edge_type(
                entry(top, k) + upper,
                entry(top, l) - upper,
                entry(bottom, k) - upper,
                entry(bottom, l) + upper,
            )
            spans.append((
                1 << k, 1 << l, delta * (3**k - 3**l), edge_type,
                _pack((0, 0, k + 1, l + 1), shift),
            ))
    return tuple(spans)


def _memo_sizes():
    """currsize of every memoised function at module level in asmgraph."""
    return {
        (module, name): fn.cache_info().currsize
        for module, m in sys.modules.items()
        if module.startswith("asmgraph")
        for name, fn in vars(m).items()
        if hasattr(fn, "cache_info")
    }


def _oracle_edges(asms):
    """Edges by definition: corner sums differ by a rectangle indicator."""
    out = set()
    for a in asms:
        ca = corner_sum(a).entries
        for b in asms:
            if a == b:
                continue
            cells = []
            ok = True
            for i in range(a.n):
                for j in range(a.n):
                    d = ca[i][j] - corner_sum(b).entries[i][j]
                    if d == 1:
                        cells.append((i, j))
                    elif d != 0:
                        ok = False
            if not ok or not cells:
                continue
            rs = sorted({p for p, _ in cells})
            css = sorted({q for _, q in cells})
            if rs == list(range(rs[0], rs[-1] + 1)) and css == list(
                range(css[0], css[-1] + 1)
            ) and len(cells) == len(rs) * len(css):
                out.add((a.entries, b.entries))
    return out


class TestRect:
    def test_validation(self):
        with pytest.raises(ValueError):
            Rect(2, 2, 1, 3)
        with pytest.raises(ValueError):
            Rect(1, 2, 0, 1)

    @pytest.mark.parametrize(
        "bounds",
        [(1, 2, 1, 2.5), (1.0, 2, 1, 2), (1, 2, True, 2), (1, 2, 1, "2"), (1, 2, 1, Fraction(2))],
        ids=["float-l", "float-i", "bool-k", "str-l", "Fraction-l"],
    )
    def test_bounds_must_be_ints(self, bounds):
        """A float bound used to build a rectangle that apply_rect
        silently ignored and classify_edge met with a bare TypeError."""
        with pytest.raises(ValueError, match="need int bounds"):
            Rect(*bounds)

    def test_geometry(self):
        r = Rect(1, 3, 2, 5)
        assert r.area == 6
        assert not r.is_point()
        assert Rect(2, 3, 2, 3).is_point()
        assert r.corners() == ((1, 2), (1, 5), (3, 2), (3, 5))


class TestEssential:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_against_revalidation_oracle(self, n):
        for a in enumerate_asms(n):
            for r in _all_rects(n):
                assert is_essential(a, r) == is_corner_sum(_bump(a, r, +1))
                assert is_dual_essential(a, r) == is_corner_sum(_bump(a, r, -1))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rect_sets_match_scan(self, n):
        for a in enumerate_asms(n):
            assert essential_rects(a) == _shift_rects_scan(a, 1)
            assert dual_essential_rects(a) == _shift_rects_scan(a, -1)

    @given(st.integers(min_value=0, max_value=KNOWN_ASM_COUNTS[6] - 1))
    def test_rect_sets_match_scan_a6(self, idx):
        a = _asms6()[idx]
        assert essential_rects(a) == _shift_rects_scan(a, 1)
        assert dual_essential_rects(a) == _shift_rects_scan(a, -1)

    def test_essential_points_match_scan_a6(self):
        for a in _asms6():
            c = corner_sum(a)
            assert essential_points(a) == {
                (i, j)
                for i in range(1, 6)
                for j in range(1, 6)
                if _corner_sums_can_shift(c, Rect(i, i + 1, j, j + 1), 1)
            }

    def test_extremes_have_none(self):
        # The identity is the minimum: nothing below it, so no essential
        # rectangles; dually for the reverse identity.
        assert essential_rects(identity_asm(4)) == set()
        assert dual_essential_rects(reverse_asm(4)) == set()

    def test_center_essential_points(self, a3):
        assert essential_points(a3["X"]) == {(1, 1), (2, 2)}
        assert essential_points(identity_asm(3)) == frozenset()

    def test_inversions_give_essential_rects(self):
        # (i, j) is an inversion of w exactly when the rectangle spanning
        # rows [i, j) and columns [w(j), w(i)) is essential for its matrix.
        for w in enumerate_permutations(4):
            a = permutation_to_asm(w)
            for (i, j) in inversions(w):
                assert is_essential(a, Rect(i, j, w(j), w(i)))

    def test_rect_outside_matrix(self, a3):
        assert not is_essential(a3["X"], Rect(1, 4, 1, 2))
        assert not is_dual_essential(a3["X"], Rect(1, 2, 1, 4))


def _middle_walk(n):
    """The ASM that takes the middle successor at every row of the walk."""
    steps, state, rows = _step_table(n), 0, []
    for _ in range(n):
        choices = steps(state)
        row, state = choices[len(choices) // 2]
        rows.append(row)
    return Asm(rows)


class TestBitmaskScan:
    """The bitmask scan against the list-based walk it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_the_list_walk(self, n):
        for a in iter_asms(n):
            for delta in (1, -1):
                assert _shift_rects(a.entries, delta) == _list_shift_rects(a.entries, delta)

    def test_matches_the_list_walk_on_every_7th_a6(self):
        for a in _asms6()[::7]:
            for delta in (1, -1):
                assert _shift_rects(a.entries, delta) == _list_shift_rects(a.entries, delta)

    @settings(max_examples=100, deadline=None)
    @given(_walked_asms(max_n=9), st.sampled_from((1, -1)))
    def test_matches_the_list_walk_on_walked_asms(self, a, delta):
        assert _shift_rects(a.entries, delta) == _list_shift_rects(a.entries, delta)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_walk_states_are_the_scan_states(self, n):
        """Walking the successor table along each ASM's rows from 0 visits
        the scan's column states, the running XOR of the nonzero masks."""
        steps = _step_table(n)
        for a in iter_asms(n):
            state, walked = 0, []
            for row in a.entries:
                state = dict(steps(state))[row]
                walked.append(state)
            assert walked == list(accumulate((_row_bits(row)[0] for row in a.entries), xor))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_one_table_serves_both_directions(self, n):
        """On every mask pair, the table holds the two-way oracle's
        lowering spans field for field, and at the complemented masks its
        raising spans' columns."""
        flip = (1 << 2 * n) - 1
        columns = itemgetter(0, 1)  # kbit, lbit: the span's columns k and l
        for key in range(1 << 2 * n):
            assert _spans(n, key) == _two_way_spans(n, -1, key)
            raising = _two_way_spans(n, 1, key)
            assert list(map(columns, _spans(n, key ^ flip))) == list(map(columns, raising))

    def test_tables_are_memoised_only_up_to_the_guard(self):
        """Per size up to the guard, one row table and one span table, with
        at most the 2^(n-1) alternating rows and their 4^(n-1) pairs of
        partial-sum masks, plain and complemented; above it, nothing
        outlives the call."""
        before = _memo_sizes()
        for n in range(ASM_SIZE_LIMIT + 1, 13):
            for a in (identity_asm(n), reverse_asm(n), _middle_walk(n)):
                for delta in (1, -1):
                    assert _shift_rects(a.entries, delta) == _list_shift_rects(a.entries, delta)
        assert _memo_sizes() == before
        for n in range(1, ASM_SIZE_LIMIT + 1):
            rows, spans = _size_tables(n)
            assert len(rows) <= 2 ** (n - 1) and len(spans) <= 2 * 4 ** (n - 1)
        assert _size_tables.cache_info().currsize == ASM_SIZE_LIMIT

    def test_points_above_the_guard(self, old_covering_chain):
        """Essential points and covering chains above ASM_SIZE_LIMIT, where
        the tables are fresh per call and no memo grows."""
        before = _memo_sizes()
        for n in range(ASM_SIZE_LIMIT + 1, 13):
            for a in (identity_asm(n), reverse_asm(n), _middle_walk(n)):
                c = corner_sum(a)
                assert essential_points(a) == {
                    (i, j)
                    for i in range(1, n)
                    for j in range(1, n)
                    if _corner_sums_can_shift(c, Rect(i, i + 1, j, j + 1), 1)
                }
        for n in range(ASM_SIZE_LIMIT + 1, 11):
            a, b = identity_asm(n), reverse_asm(n)
            assert covering_chain(a, b) == old_covering_chain(a, b)
        assert _memo_sizes() == before

    def test_a_wrong_target_code_raises(self, monkeypatch):
        """Targets found by code arithmetic still go through the index of
        the nodes: with the code step's sign flipped, the identity's first
        move points below the minimum, and the build stops there."""

        def flipped(n):
            rows, spans = _size_tables.__wrapped__(n)
            return rows, _Table(lambda key: tuple((*s[:2], -s[2], *s[3:]) for s in spans[key]))

        monkeypatch.setattr(lattice, "_tables", flipped)
        with pytest.raises(KeyError):
            build_graph(4)


class TestApplyRect:
    def test_identity_when_not_applicable(self, a3):
        a = a3["321"]
        r = Rect(1, 2, 1, 2)
        if not is_essential(a, r) and not is_dual_essential(a, r):
            assert apply_rect(a, r) is a

    @pytest.mark.parametrize("n", [3, 4])
    def test_involution_and_beta_shift(self, n):
        for a in enumerate_asms(n):
            for r in _all_rects(n):
                if is_essential(a, r):
                    down = apply_rect(a, r)
                    assert beta(down) == beta(a) - r.area
                    assert is_dual_essential(down, r)
                    assert apply_rect(down, r) == a
                elif is_dual_essential(a, r):
                    up = apply_rect(a, r)
                    assert beta(up) == beta(a) + r.area
                    assert apply_rect(up, r) == a

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_no_move_returns_a_itself(self, n):
        """A rectangle that reaches past row or column n, or that is
        neither essential nor dual essential, leaves a as it is."""
        reach = range(1, n + 3)
        for a in enumerate_asms(n):
            for r in (Rect(i, j, k, l) for i, j, k, l in product(reach, repeat=4) if i < j and k < l):
                if r.j > n or r.l > n or not (is_essential(a, r) or is_dual_essential(a, r)):
                    assert apply_rect(a, r) is a


class TestEdges:
    def test_edges_from_identity(self, a3):
        es = edges_from(identity_asm(3))
        assert {e.target for e in es} == {a3["132"], a3["213"], a3["321"]}
        assert all(e.edge_type == 1 for e in es)

    def test_center_edge_types(self, a3):
        assert edge_between(a3["132"], a3["X"]).edge_type == 5
        assert edge_between(a3["213"], a3["X"]).edge_type == 9
        assert edge_between(a3["X"], a3["231"]).edge_type == 2
        assert edge_between(a3["X"], a3["312"]).edge_type == 3

    def test_long_jump_edge(self, a3):
        e = edge_between(a3["123"], a3["321"])
        assert e.rect == Rect(1, 3, 1, 3)
        assert e.edge_type == 1
        assert e.rect.area == beta(a3["321"]) - beta(a3["123"]) == 4

    def test_not_edges(self, a3):
        with pytest.raises(NotAnEdgeError):
            edge_between(a3["123"], a3["123"])
        with pytest.raises(NotAnEdgeError):
            edge_between(a3["123"], a3["X"])  # support is two cells, not a rect
        with pytest.raises(NotAnEdgeError):
            edge_between(a3["321"], a3["123"])  # difference has the wrong sign
        with pytest.raises(SizeMismatchError):
            edge_between(a3["123"], identity_asm(4))

    def test_classify_rejects_wrong_rect(self, a3):
        with pytest.raises(NotAnEdgeError):
            classify_edge(a3["132"], a3["X"], Rect(2, 3, 2, 3))

    @pytest.mark.parametrize("r", [Rect(1, 4, 1, 3), Rect(1, 3, 2, 4)], ids=["rows", "columns"])
    def test_classify_rejects_a_rect_past_the_size(self, a3, r):
        with pytest.raises(NotAnEdgeError, match="does not fit in size 3"):
            classify_edge(a3["123"], a3["321"], r)

    def test_edge_between_matches_pairwise_oracle_a4(self):
        asms = enumerate_asms(4)
        oracle = _oracle_edges(asms)
        built = {(e.source.entries, e.target.entries): e for a in asms for e in edges_from(a)}
        assert set(built) == oracle
        for a in asms:
            for b in asms:
                if (a.entries, b.entries) in oracle:
                    assert edge_between(a, b) == built[a.entries, b.entries]
                else:
                    with pytest.raises(NotAnEdgeError):
                        edge_between(a, b)

    def test_edge_type_table_source_patterns(self):
        """Each source pattern is its target plus (1, -1, -1, 1), and
        _edge_type numbers the sixteen targets 1..16 as the paper does."""
        for t, b, a in EDGE_TYPE_TABLE:
            assert tuple(x - y for x, y in zip(a, b)) == (1, -1, -1, 1)
            assert _edge_type(*b) == t
        assert [t for t, _b, _a in EDGE_TYPE_TABLE] == list(range(1, 17))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_graph_matches_pairwise_oracle(self, n):
        g = build_graph(n)
        ours = {(g.nodes[e.src].entries, g.nodes[e.dst].entries) for e in g.edges}
        assert ours == _oracle_edges(list(g.nodes))

    def test_a3_graph_matches_hand_drawn_edges(self, a3, a3_edges):
        g = build_graph(3)
        names = {a.entries: k for k, a in a3.items()}
        ours = {
            (names[g.nodes[e.src].entries], names[g.nodes[e.dst].entries])
            for e in g.edges
        }
        assert ours == a3_edges
        assert g.num_edges == 13

    def test_a4_graph_census(self):
        g = build_graph(4)
        assert g.num_edges == 174
        assert sum(1 for e in g.edges if e.rect.is_point()) == 84
        assert {e.edge_type for e in g.edges} == {1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 13}

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_permutation_subgraph_is_transposition_graph(self, n):
        perm_entries = {
            permutation_to_asm(w).entries: w for w in enumerate_permutations(n)
        }
        g = build_graph(n)
        ours = {
            (g.nodes[e.src].entries, g.nodes[e.dst].entries)
            for e in g.edges
            if g.nodes[e.src].entries in perm_entries
            and g.nodes[e.dst].entries in perm_entries
        }
        assert all(
            edge_between(validate_asm(s), validate_asm(t)).edge_type == 1
            for s, t in ours
        )
        oracle = set()
        for u in enumerate_permutations(n):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    img = list(u.images)
                    img[i - 1], img[j - 1] = img[j - 1], img[i - 1]
                    v = Permutation(tuple(img))
                    if len(inversions(v)) > len(inversions(u)):
                        oracle.add(
                            (
                                permutation_to_asm(u).entries,
                                permutation_to_asm(v).entries,
                            )
                        )
        assert ours == oracle
        # Half of the n! * C(n, 2) pairs (w, w t) go up: 9 at n = 3, 600 at n = 5.
        assert len(ours) == factorial(n) * comb(n, 2) // 2


class TestGraphBuilder:
    """The partial-sum builder against the rectangle scan it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_edges_from_matches_scan(self, n):
        for a in enumerate_asms(n):
            assert edges_from(a) == _scan_edges_from(a)

    @given(st.integers(min_value=0, max_value=KNOWN_ASM_COUNTS[6] - 1))
    def test_edges_from_matches_scan_a6(self, idx):
        a = _asms6()[idx]
        assert edges_from(a) == _scan_edges_from(a)

    @settings(max_examples=100, deadline=None)
    @given(_walked_asms(max_n=9))
    def test_edges_from_matches_scan_on_walked_asms(self, a):
        """Targets and types by the one-node column scan, at n = 8 and 9
        too, where its tables are fresh per call and no memo grows."""
        _tables(a.n)  # up to the guard, the size's one memo entry is made here
        before = _memo_sizes()
        assert edges_from(a) == _scan_edges_from(a)
        assert _memo_sizes() == before

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_build_graph_matches_scan(self, n):
        g = build_graph(n)
        assert (g.nodes, tuple(g.edges)) == _scan_graph(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_targets_precede_sources(self, n):
        """Every edge goes to an earlier node, which build_graph's one
        pass relies on: each target's code is indexed before its source
        is scanned."""
        g = build_graph(n)
        offsets, dst = g.offsets, g.dst
        for src in range(len(g.nodes)):
            assert max(dst[offsets[src] : offsets[src + 1]], default=-1) < src

    @settings(max_examples=100, deadline=None)
    @given(_walked_asms(max_n=9))
    def test_targets_sort_before_their_source(self, a):
        """Lowering adds -1 at (i, k), the row-major first corner, so each
        target's entries sort before its source's, past n = 6 too."""
        assert all(e.target.entries < a.entries for e in edges_from(a))

    def test_apply_rect_matches_corner_sum_rebuild(self):
        for a in enumerate_asms(4):
            for r in _all_rects(4):
                if is_essential(a, r):
                    assert apply_rect(a, r) == from_corner_sum(_bump(a, r, +1))
                elif is_dual_essential(a, r):
                    assert apply_rect(a, r) == from_corner_sum(_bump(a, r, -1))


class TestOrder:
    def test_reflexive_and_antisymmetric(self, a3):
        for a in a3.values():
            assert asm_leq(a, a)
        for a in a3.values():
            for b in a3.values():
                if asm_leq(a, b) and asm_leq(b, a):
                    assert a == b

    def test_incomparable_pair(self, a3):
        assert not asm_leq(a3["231"], a3["312"])
        assert not asm_leq(a3["312"], a3["231"])

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            asm_leq(identity_asm(2), identity_asm(3))

    def test_leq_is_graph_reachability(self):
        g = build_graph(4)
        m = len(g.nodes)
        succ = [[] for _ in range(m)]
        for e in g.edges:
            succ[e.src].append(e.dst)
        reach = []
        for s in range(m):
            seen = {s}
            stack = [s]
            while stack:
                x = stack.pop()
                for y in succ[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            reach.append(seen)
        strict = 0
        for i, a in enumerate(g.nodes):
            for j, b in enumerate(g.nodes):
                assert asm_leq(a, b) == (j in reach[i])
                if i != j and asm_leq(a, b):
                    strict += 1
        assert strict == 602

    def test_extremes(self):
        asms = enumerate_asms(4)
        lo, hi = identity_asm(4), reverse_asm(4)
        assert all(asm_leq(lo, a) and asm_leq(a, hi) for a in asms)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_joins_and_meets_exist(self, n):
        # The order is a lattice; join and meet are the entrywise min and
        # max of the corner-sum matrices.
        asms = enumerate_asms(n)
        for a in asms:
            ca = corner_sum(a).entries
            for b in asms:
                cb = corner_sum(b).entries
                join_rows = [
                    [min(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(ca, cb)
                ]
                meet_rows = [
                    [max(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(ca, cb)
                ]
                assert is_corner_sum(join_rows) and is_corner_sum(meet_rows)
        # Spot-check against the search definition on the full A_3 poset.
        for a in enumerate_asms(3):
            for b in enumerate_asms(3):
                uppers = [
                    c for c in enumerate_asms(3) if asm_leq(a, c) and asm_leq(b, c)
                ]
                least = [u for u in uppers if all(asm_leq(u, c) for c in uppers)]
                assert len(least) == 1

    def test_joins_and_meets_of_a5_stride(self):
        """The entrywise min and max of two A5 corner-sum matrices are
        again A5 corner-sum matrices, on every 7th ordered pair (CI's
        `A5 joins and meets` step takes all 184,041)."""
        flat = [sum(corner_sum(a).entries, ()) for a in enumerate_asms(5)]
        known = set(flat)
        pairs = list(islice(product(flat, flat), 0, None, 7))
        assert (len(known), len(pairs)) == (KNOWN_ASM_COUNTS[5], 26292)
        for x, y in pairs:
            assert tuple(map(min, x, y)) in known and tuple(map(max, x, y)) in known

    def test_asm_keyed_caches_are_bounded(self):
        """No cache is keyed by an ASM: neither corner_sum nor
        essential_points has one, and each ASM's corner sums, kept on the
        ASM itself, go when it goes."""
        top = reverse_asm(6)
        assert all(asm_leq(a, top) for a in iter_asms(6))
        assert not hasattr(corner_sum, "cache_info")
        assert not hasattr(essential_points, "cache_info")

    def test_streamed_order_holds_no_corner_sums(self):
        """asm_leq against the top over all 7,436 streamed 6x6 ASMs keeps
        the corner sums of none of them alive."""
        top = reverse_asm(6)
        tracemalloc.start()
        try:
            assert all(asm_leq(a, top) for a in iter_asms(6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestBeta:
    def test_s4_table(self, s4_sign_beta):
        from asmgraph import sign

        for word, (sgn, bta) in s4_sign_beta.items():
            w = Permutation(tuple(int(c) for c in word))
            a = permutation_to_asm(w)
            assert sign(w) == sgn
            assert beta_permutation(w) == bta
            assert beta(a) == bta
            assert beta_bigrassmannian_count(a) == bta

    def test_center(self, a3):
        assert beta_checked(a3["X"]) == 2

    def test_checked_size_guard(self):
        from asmgraph import SizeLimitExceededError
        from asmgraph.lattice import BETA_CHECKED_SIZE_LIMIT

        n = BETA_CHECKED_SIZE_LIMIT + 1
        with pytest.raises(SizeLimitExceededError) as exc:
            beta_checked(reverse_asm(n))
        assert (exc.value.n, exc.value.limit) == (n, BETA_CHECKED_SIZE_LIMIT)
        assert "size_limit=None" not in str(exc.value)
        assert beta(reverse_asm(n)) == n * (n * n - 1) // 6

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_three_way_agreement(self, n):
        for a in enumerate_asms(n):
            beta_checked(a)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_range(self, n):
        assert beta(identity_asm(n)) == 0
        assert beta(reverse_asm(n)) == n * (n * n - 1) // 6

    def test_monotone_and_strict(self):
        for a in enumerate_asms(3):
            for b in enumerate_asms(3):
                if asm_leq(a, b) and a != b:
                    assert beta(a) < beta(b)

    @settings(max_examples=100, deadline=None)
    @given(_walked_asms())
    def test_row_moments_match_the_square_sum(self, a):
        assert beta(a) == _beta_square_sum(a) == _beta_corner_sum(a)

    def test_beta_permutation_sums_the_squares_directly(self):
        """beta of the reverse permutation at n = 10^5 is C(n + 1, 3), and
        neither it nor q_weighted above the guard memoises anything."""
        before = _memo_sizes()
        n = 10**5
        assert beta_permutation(Permutation(tuple(range(n, 0, -1)))) == comb(n + 1, 3)
        m = ASM_SIZE_LIMIT + 1
        weighted = q_weighted(rational_matrix([[1] * m] * m), 4)
        assert weighted.rows == tuple(
            tuple(Fraction(2) ** (i - j) ** 2 for j in range(m)) for i in range(m)
        )
        assert _square_gaps(m) == _square_gaps(m) and _square_gaps(m) is not _square_gaps(m)
        assert _memo_sizes() == before

    def test_unseeded_beta_memoises_nothing(self):
        """beta of an ASM with no seed reads its rows, above the guard too,
        and memoises nothing."""
        before = _memo_sizes()
        for n in range(ASM_SIZE_LIMIT + 1, 13):
            assert beta(reverse_asm(n)) == n * (n * n - 1) // 6
            assert beta(identity_asm(n)) == 0
        assert _memo_sizes() == before

    def test_streaming_holds_no_asm(self):
        """beta over all 7,436 6x6 ASMs keeps none of them alive."""
        assert sum(1 for _ in iter_asms(6)) == KNOWN_ASM_COUNTS[6]
        tracemalloc.start()
        try:
            total = sum(beta(a) for a in iter_asms(6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert total > 0
        assert peak < 1_000_000


class TestBetaSeed:
    """iter_asms seeds each ASM with the beta its half-walk join summed."""

    @pytest.mark.parametrize("n, stride", [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 7)])
    def test_seed_is_the_square_sum(self, n, stride):
        for a in islice(iter_asms(n), 0, None, stride):
            assert a._beta is not None
            assert beta(a) == _beta_square_sum(a)

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_seed_beyond_the_guard(self, n):
        for a in islice(iter_asms(n, size_limit=None), 20_000):
            assert a._beta == _beta_square_sum(a)

    def test_seeded_asm_is_the_plain_asm(self):
        """The seed is no field: equality, hash, repr and pickling see the
        entries alone."""
        assert [f.name for f in fields(Asm)] == ["entries"]
        for a in enumerate_asms(4):
            plain = Asm(a.entries)
            assert a == plain and hash(a) == hash(plain)
            assert repr(a) == repr(plain) and str(a) == str(plain)
            for x in (a, plain):
                back = pickle.loads(pickle.dumps(x))
                assert back == a and hash(back) == hash(a) and repr(back) == repr(a)
                assert beta(back) == _beta_square_sum(a)

    def test_other_asms_carry_no_seed(self):
        """Only the enumeration seeds: the constructor, the named matrices,
        moves and chains leave beta to be computed from the rows."""
        x = Asm([[0, 1, 0], [1, -1, 1], [0, 1, 0]])
        others = [
            x,
            identity_asm(4),
            reverse_asm(4),
            permutation_to_asm((2, 1, 3)),
            from_corner_sum(corner_sum(x)),
            apply_rect(x, Rect(1, 2, 1, 2)),
            *(e.target for e in edges_from(x)),
            *covering_chain(identity_asm(3), reverse_asm(3)),
        ]
        for a in others:
            assert a._beta is None
            assert beta(a) == _beta_square_sum(a)
        assert all(a._beta is not None for a in build_graph(4).nodes)

    def test_every_maker_fills_the_three_slots(self):
        """Every way to make an ASM sets its three slots and no instance
        dict: _beta answers with a seed or None, and _corner is None until
        corner_sum builds it and is that CornerSum after."""
        x = Asm([[0, 1, 0], [1, -1, 1], [0, 1, 0]])
        made = [
            x,
            *iter_asms(4),
            *build_graph(4).nodes,
            # The chain ends at its own argument, whose corner sums it read.
            *covering_chain(identity_asm(3), reverse_asm(3))[:-1],
            *covered_by(x),
            *(e.target for e in edges_from(x)),
            apply_rect(x, Rect(1, 2, 1, 2)),
            apply_rect(x, Rect(1, 2, 2, 3)),
            permutation_to_asm((2, 1, 3)),
            identity_asm(4),
            reverse_asm(4),
            from_corner_sum(corner_sum(Asm(x.entries))),
        ]
        for a in made:
            assert not hasattr(a, "__dict__")
            assert a._beta is None or a._beta == _beta_square_sum(a)
            assert a._corner is None
        for a in made:
            c = corner_sum(a)
            assert a._corner is c and c == corner_sum(Asm(a.entries))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_census_without_matrices(self, n, monkeypatch):
        """The beta histogram of the seeds equals the column-state tally of
        2 beta = sum (i - j)^2 A(i, j), row by row, which builds no ASM.
        No count exceeds count_asms(n), which sets the decoding width."""
        census = Counter(2 * beta(a) for a in iter_asms(n))

        def refuse(*args):
            raise AssertionError("the tally built an ASM")

        monkeypatch.setattr("asmgraph.enumeration._trusted_asm", refuse)
        gaps = _square_gaps(n)
        width = count_asms(n).bit_length() + 1
        value = _tally(n, _step_table(n), lambda i, row, state: (sum(map(mul, gaps[i], row)), 1), width)
        assert _decode(value, width, 0).terms == census


class TestBigrassmannian:
    def test_fixtures(self):
        assert is_bigrassmannian(Permutation((1, 3, 4, 2)))
        assert not is_bigrassmannian(Permutation((1, 2, 3, 4)))
        assert not is_bigrassmannian(Permutation((2, 1, 4, 3)))

    def test_count_s4(self):
        bigs = [w for w in enumerate_permutations(4) if is_bigrassmannian(w)]
        assert len(bigs) == 10
        # The maximum dominates everything, so its beta is the full count.
        assert beta(reverse_asm(4)) == 10

    @pytest.mark.parametrize("n", range(1, 8))
    def test_direct_list_matches_the_s_n_filter(self, n):
        direct = list(_bigrassmannian_asms(n))
        assert len(direct) == len(set(direct)) == comb(n + 1, 3)
        assert set(direct) == {
            permutation_to_asm(w) for w in enumerate_permutations(n) if is_bigrassmannian(w)
        }

    def test_single_essential_point_characterisation(self):
        # An ASM has exactly one essential point iff it is the matrix of a
        # bigrassmannian permutation (the join irreducibles of the lattice).
        perm_of = {
            permutation_to_asm(w).entries: w for w in enumerate_permutations(4)
        }
        for a in enumerate_asms(4):
            single = len(essential_points(a)) == 1
            w = perm_of.get(a.entries)
            assert single == (w is not None and is_bigrassmannian(w))


class TestFulton:
    def test_1342(self):
        w = Permutation((1, 3, 4, 2))
        assert fulton_essential_set(w) == {(3, 2)}
        assert essential_points(permutation_to_asm(w)) == {(3, 2)}

    def test_matches_essential_points_on_s4(self):
        for w in enumerate_permutations(4):
            assert fulton_essential_set(w) == set(
                essential_points(permutation_to_asm(w))
            )


class TestCoversAndChains:
    def test_covered_by_center(self, a3):
        assert covered_by(a3["X"]) == [a3["132"], a3["213"]]

    def test_covered_by_in_point_order_on_a5(self):
        for a in _asms5():
            assert covered_by(a) == [
                apply_rect(a, Rect(i, i + 1, j, j + 1)) for i, j in sorted(essential_points(a))
            ]

    def test_covers_match_point_edges(self):
        g = build_graph(3)
        for i, a in enumerate(g.nodes):
            below = {
                g.nodes[e.src]
                for e in g.edges
                if e.dst == i and e.rect.is_point()
            }
            assert set(covered_by(a)) == below

    def test_chain_trivial(self, a3):
        assert covering_chain(a3["X"], a3["X"]) == [a3["X"]]

    def test_chain_identity_to_center(self, a3):
        assert covering_chain(a3["123"], a3["X"]) == [a3["123"], a3["132"], a3["X"]]

    def test_chain_incomparable(self, a3):
        with pytest.raises(IncomparableError):
            covering_chain(a3["231"], a3["312"])

    def test_chain_worked_5x5(self, worked_5x5):
        a, b, c = worked_5x5
        assert beta(a) == 6 and beta(b) == 7 and beta(c) == 8
        assert covering_chain(a, c) == [a, b, c]

    def test_chains_are_saturated(self):
        asms = enumerate_asms(4)
        for a in asms[::5]:
            for b in asms[::7]:
                if not asm_leq(a, b):
                    continue
                chain = covering_chain(a, b)
                assert chain[0] == a and chain[-1] == b
                assert len(chain) == beta(b) - beta(a) + 1
                for lo, hi in zip(chain, chain[1:]):
                    e = edge_between(lo, hi)
                    assert e.rect.is_point()

    def test_chain_matches_old_walk_on_all_a4_pairs(self, old_covering_chain):
        asms = enumerate_asms(4)
        comparable = 0
        for a in asms:
            for b in asms:
                if asm_leq(a, b):
                    assert covering_chain(a, b) == old_covering_chain(a, b)
                    comparable += 1
                else:
                    with pytest.raises(IncomparableError):
                        covering_chain(a, b)
        assert comparable == 644

    def test_chain_matches_old_walk_on_an_a5_stride(self, old_covering_chain):
        """The walk resumes each scan at the row above its last step; the
        chains must be those of the walk that rescans every point."""
        asms = _asms5()
        comparable = 0
        for a in asms[::13]:
            for b in asms[5::17]:
                if asm_leq(a, b):
                    assert covering_chain(a, b) == old_covering_chain(a, b)
                    comparable += 1
        assert comparable > 100

    @settings(deadline=None)
    @given(
        st.integers(min_value=0, max_value=KNOWN_ASM_COUNTS[5] - 1),
        st.integers(min_value=0, max_value=KNOWN_ASM_COUNTS[5] - 1),
    )
    def test_chain_matches_old_walk_on_a5(self, old_covering_chain, i, j):
        a, b = _asms5()[i], _asms5()[j]
        if asm_leq(b, a):
            a, b = b, a
        if asm_leq(a, b):
            assert covering_chain(a, b) == old_covering_chain(a, b)
        else:
            with pytest.raises(IncomparableError):
                covering_chain(a, b)


class TestGraphStructure:
    def test_nodes_in_canonical_order(self):
        g = build_graph(3)
        assert list(g.nodes) == enumerate_asms(3)

    def test_successors(self, a3):
        g = build_graph(3)
        i = g.index_of(identity_asm(3))
        targets = {g.nodes[j] for j in g.successors(i)}
        assert targets == {a3["132"], a3["213"], a3["321"]}

    def test_successors_and_index_match_linear_scan_a4(self):
        g = build_graph(4)
        for i, a in enumerate(g.nodes):
            assert g.index_of(a) == g.nodes.index(a) == i
            assert g.successors(i) == [e.dst for e in g.edges if e.src == i]

    def test_successors_reject_an_index_outside_the_nodes(self):
        g = build_graph(3)
        last = len(g.nodes) - 1
        assert g.successors(last) == [e.dst for e in g.edges if e.src == last]
        for idx in (-1, -len(g.nodes), len(g.nodes), len(g.nodes) + 1):
            with pytest.raises(IndexError):
                g.successors(idx)

    def test_index_of_rejects_foreign_matrix(self):
        """Matrices of other sizes sort before, between and after the 3x3
        nodes, and none is found."""
        g = build_graph(3)
        for foreign in (identity_asm(1), identity_asm(2), reverse_asm(4), identity_asm(4)):
            with pytest.raises(ValueError):
                g.index_of(foreign)

    def test_edges_iterate_over_the_columns(self):
        g = build_graph(4)
        edges = tuple(g.edges)
        assert tuple(g.edges) == edges
        assert len(edges) == g.num_edges == 174
        assert [e.src for e in edges] == sorted(e.src for e in edges)
        assert edges == tuple(
            GraphEdge(src, g.index_of(e.target), e.rect, e.edge_type)
            for src, a in enumerate(g.nodes)
            for e in edges_from(a)
        )

    def test_packed_rectangles_are_exact_up_to_the_packing_limit(self):
        n = PACKED_SIZE_LIMIT
        rect = Rect(n - 1, n, 1, n)
        code = _pack(rect.bounds, n.bit_length())
        columns = array("Q", [0, 1]), array("B", [0]), array("B", [16]), array("Q", [code])
        g = AsmGraph(n, (identity_asm(1),), *columns)
        assert g.bounds(code) == rect.bounds
        assert list(g.edges) == [GraphEdge(0, 0, rect, 16)]
        with pytest.raises(SizeLimitExceededError) as exc:
            build_graph(n + 1, size_limit=None)
        assert (exc.value.n, exc.value.limit) == (n + 1, n)

    def test_packing_limit_is_checked_before_any_walk(self):
        """iter_asms builds its walk at the first next(), so the packing
        check that follows the call builds none of it: built at the call,
        the chain of 65,533 head generators took 0.14 s and about 33 MB."""
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitExceededError, match="packing limit"):
                build_graph(PACKED_SIZE_LIMIT + 1, size_limit=None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_columns_take_the_narrowest_type_that_holds_them(self):
        assert [_typecode(v) for v in (0, 255, 256, 2**16 - 1, 2**16)] == list("BBHHI")
        assert array(_typecode(2**64 - 1)).itemsize == 8
        with pytest.raises(OverflowError):
            _typecode(2**64)
        g = build_graph(5)
        assert (g.offsets.typecode, g.dst.typecode, g.types.typecode) == ("Q", "H", "B")
        assert g.rects.typecode == "H"  # 3 bits a bound at n = 5

    def test_dot_export(self):
        g = build_graph(2)
        dot = export_dot(g, name="tiny")
        assert dot.startswith("digraph tiny {")
        assert "rankdir=BT;" in dot
        assert "rank=same" in dot
        assert '"1"' in dot  # the single edge is labelled with its type
        assert dot.count("->") == 1
        assert 'color="#e6194b"' in dot  # coloured by type 1

    @pytest.mark.parametrize(
        "name, head",
        [
            ("tiny", "digraph tiny {"),
            ("_a3", "digraph _a3 {"),
            ("3x3", 'digraph "3x3" {'),
            ("asm graph", 'digraph "asm graph" {'),
            ('say "hi" \\', 'digraph "say \\"hi\\" \\\\" {'),
            ("Graph", 'digraph "Graph" {'),
            ("\u00e9", 'digraph "\u00e9" {'),
        ],
        ids=["plain", "underscore", "digit-first", "space", "escapes", "keyword", "non-ascii"],
    )
    def test_dot_name_is_a_valid_id(self, name, head):
        """A name that is not a plain ID, or is a DOT keyword, is written
        as a quoted string with backslashes and quotes escaped."""
        assert export_dot(build_graph(2), name=name).splitlines()[0] == head
