"""Tests for exhaustive ASM enumeration.

The reference oracle here builds ASMs entry by entry (rows drawn from
{-1, 0, 1} with the prefix-sum conditions enforced directly), which is
deliberately a different algorithm from the column-state walk used by
the package, so the two can cross-check each other.  The walk's own
earlier form, one recursive frame per row, pins the order of the
half-walk join.  A second oracle walks corner-sum rows as lattice paths
and finishes each matrix with the validating from_corner_sum.  Counts
are also checked against the ASM product formula.
"""

import gc
import sys
from collections import Counter, deque
from fractions import Fraction
from itertools import islice, product
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

import asmgraph.enumeration
from asmgraph import (
    ASM_SIZE_LIMIT,
    KNOWN_ASM_COUNTS,
    PERMUTATION_SIZE_LIMIT,
    SizeLimitExceededError,
    count_asms,
    enumerate_asms,
    enumerate_permutations,
    from_corner_sum,
    identity_asm,
    iter_asms,
    permutation_to_asm,
    reverse_asm,
    validate_asm,
)
from asmgraph.enumeration import _permutation_table, _step_table, _tally
from asmgraph.lattice import beta
from asmgraph.polynomials import _decode


def _oracle_rows(n):
    """All length-n rows over {-1, 0, 1} with prefix sums in {0, 1} and
    total 1."""
    out = []
    for row in product((-1, 0, 1), repeat=n):
        s = 0
        ok = True
        for v in row:
            s += v
            if s not in (0, 1):
                ok = False
                break
        if ok and s == 1:
            out.append(row)
    return out


def _oracle_asms(n):
    """Entrywise enumeration: stack valid rows while keeping every column
    prefix sum in {0, 1}, demanding column totals of 1 at the bottom."""
    rows = _oracle_rows(n)
    found = set()

    def place(stack, col_sums):
        if len(stack) == n:
            if all(s == 1 for s in col_sums):
                found.add(tuple(stack))
            return
        for row in rows:
            nxt = tuple(c + v for c, v in zip(col_sums, row))
            if all(s in (0, 1) for s in nxt):
                stack.append(row)
                place(stack, nxt)
                stack.pop()

    place([], (0,) * n)
    return found


def _recursive_walk(n):
    """iter_asms before the half-walk join: a depth-n recursive generator
    over the same successor table, each matrix passing up every frame."""
    steps = asmgraph.enumeration._step_table(n)
    rows = []

    def walk(state):
        if len(rows) == n:
            yield tuple(rows)
            return
        for row, nxt in steps(state):
            rows.append(row)
            yield from walk(nxt)
            rows.pop()

    return walk(0)


def _next_rows(prev, i, n):
    """All valid corner-sum rows i given row i-1 (row 0 is all zeros)."""
    # Row entries must rise by 0/1 left to right, sit at prev[j] or
    # prev[j]+1, and reach i in the last column.
    row = [0] * n

    def extend(j, last):
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


def _product_formula(n):
    """A_n = prod_{j<n} (3j+1)!/(n+j)! (Zeilberger 1996)."""
    value = prod(Fraction(factorial(3 * j + 1), factorial(n + j)) for j in range(n))
    assert value.denominator == 1
    return value.numerator


def _corner_sum_walk(n):
    """Every complete corner-sum walk, inverted by from_corner_sum."""
    out = []

    def walk(rows):
        if len(rows) == n:
            out.append(from_corner_sum(rows))
            return
        for row in _next_rows(rows[-1] if rows else (0,) * n, len(rows) + 1, n):
            walk(rows + [row])

    walk([])
    return out


class TestCounts:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_known_counts(self, n):
        assert count_asms(n) == KNOWN_ASM_COUNTS[n]

    def test_known_counts_n6(self):
        assert count_asms(6) == KNOWN_ASM_COUNTS[6]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_entrywise_oracle(self, n):
        ours = {a.entries for a in iter_asms(n)}
        assert ours == _oracle_asms(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_the_recursive_walk(self, n):
        assert [a.entries for a in iter_asms(n)] == list(_recursive_walk(n))

    @pytest.mark.parametrize(
        "n, count, size_limit",
        [(7, KNOWN_ASM_COUNTS[7] - 1, ASM_SIZE_LIMIT), (12, 100_000, None), (14, 1, None)],
    )
    def test_tail_memo_stays_small(self, n, count, size_limit):
        """The memo of a live call holds few blocks: just before the last
        7x7 ASM it holds the 3-row tails, each with its rows' part of
        beta, in about 6,200 blocks (5,100 without beta; the 4-row tails
        take about three times as many), and with the guard lifted its
        tails are at most as deep, where half of n rows would take about
        200,000 blocks after 100,000 ASMs of size 12 and 500,000 after the
        first of size 14."""
        gc.collect()
        before = sys.getallocatedblocks()
        asms = iter_asms(n, size_limit=size_limit)
        deque(islice(asms, count), maxlen=0)
        assert sys.getallocatedblocks() - before < 8000
        assert next(asms).n == n

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_corner_sum_walk(self, n):
        ours = list(iter_asms(n))
        assert ours == _corner_sum_walk(n)
        assert len(set(ours)) == KNOWN_ASM_COUNTS[n]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_count_matches_product_formula(self, n):
        assert count_asms(n, size_limit=None) == _product_formula(n)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_two_enumeration_closed_form(self, n):
        """Mills, Robbins and Rumsey: the sum over A_n of 2^N(A), N(A) the
        number of -1 entries, is 2^(n(n-1)/2).  Each row contributes the
        factor 2 per -1 it holds, so the tally at width 0 is that sum."""
        two_enumeration = _tally(n, _step_table(n), lambda i, row, state: (0, 2 ** row.count(-1)))
        assert two_enumeration == 2 ** (n * (n - 1) // 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_count_matches_the_walk(self, n):
        assert count_asms(n) == sum(1 for _ in iter_asms(n))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_count_matches_the_counter_tally(self, n, counter_tally):
        """The width-0 int tally against the Counter one, whose only term
        is the count at exponent 0."""
        fast = _tally(n, _step_table(n), lambda i, row, state: (0, 1))
        oracle = counter_tally(n, _step_table(n), lambda i, row, state: (0, 1))
        assert list(oracle.items()) == [(0, fast)]
        assert count_asms(n, size_limit=None) == fast

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 5), permutations_only=st.booleans(), rng=st.randoms(use_true_random=False))
    def test_decoded_tally_matches_the_counter_tally(self, counter_tally, n, permutations_only, rng):
        """Random exponent steps 0..4 and factors -3..3, one draw per
        (layer, row, state): the int tally, decoded at the width that the
        width-0 tally of |f| bounds, against the Counter one's nonzero terms."""
        table = _permutation_table if permutations_only else _step_table
        drawn = {}

        def weigh(i, row, state):
            return drawn.setdefault((i, row, state), (rng.randint(0, 4), rng.randint(-3, 3)))

        oracle = counter_tally(n, table(n), weigh)
        bound = _tally(n, table(n), lambda i, row, state: (0, abs(weigh(i, row, state)[1])))
        width = bound.bit_length() + 1
        decoded = _decode(_tally(n, table(n), weigh, width), width, 0).terms
        assert decoded == {t: c for t, c in oracle.items() if c}
        assert list(decoded) == sorted(decoded)

    def test_count_builds_no_matrix(self, monkeypatch):
        def refuse(rows):
            raise AssertionError("count_asms built a matrix")

        monkeypatch.setattr(asmgraph.enumeration, "_trusted_asm", refuse)
        assert count_asms(6) == 7436

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_weighted_tally_matches_the_walk(self, n):
        """A weight that sees the -1 entries: exponent 2 beta, factor 2 per -1.
        Each coefficient is at most the width-0 tally of the factors."""

        def weigh(i, row, state):
            return sum((i - j) ** 2 * e for j, e in enumerate(row)), 2 ** row.count(-1)

        histogram = Counter()
        for a in iter_asms(n):
            histogram[2 * beta(a)] += 2 ** sum(row.count(-1) for row in a.entries)
        bound = _tally(n, _step_table(n), lambda i, row, state: (0, abs(weigh(i, row, state)[1])))
        width = bound.bit_length() + 1
        assert _decode(_tally(n, _step_table(n), weigh, width), width, 0).terms == histogram

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_permutation_matrices_are_the_minus_one_free_asms(self, n):
        perms = {permutation_to_asm(w).entries for w in enumerate_permutations(n)}
        asms = {a.entries for a in iter_asms(n)}
        assert perms <= asms
        proper = [a for a in asms if any(-1 in row for row in a)]
        assert len(proper) == len(asms) - len(perms)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_permutation_table_is_the_single_plus_one_rows(self, n):
        """On every 0/1 state, reachable or not, the permutation table lists
        the successor table's rows with a single +1, in the same order."""
        steps, perms = _step_table(n), _permutation_table(n)
        for state in range(1 << n):
            assert perms(state) == [(row, nxt) for row, nxt in steps(state) if row.count(1) == 1]


class TestOrderAndValidity:
    def test_canonical_order_is_lex_on_entries(self):
        asms = enumerate_asms(4)
        keys = [a.entries for a in asms]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_iter_asms_is_strictly_increasing(self, n):
        keys = [a.entries for a in iter_asms(n)]
        assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_extremes_present(self):
        asms = enumerate_asms(3)
        assert identity_asm(3) in asms
        assert reverse_asm(3) in asms

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_everything_enumerated_validates(self, n):
        for a in iter_asms(n):
            validate_asm(a.entries)

    def test_permutations_in_lex_one_line_order(self):
        words = [w.images for w in enumerate_permutations(3)]
        assert words == [
            (1, 2, 3),
            (1, 3, 2),
            (2, 1, 3),
            (2, 3, 1),
            (3, 1, 2),
            (3, 2, 1),
        ]


class TestGuards:
    def test_default_guard(self):
        with pytest.raises(SizeLimitExceededError) as exc:
            count_asms(ASM_SIZE_LIMIT + 1)
        assert exc.value.n == ASM_SIZE_LIMIT + 1
        assert exc.value.limit == ASM_SIZE_LIMIT

    def test_custom_guard(self):
        with pytest.raises(SizeLimitExceededError):
            count_asms(3, size_limit=2)
        assert count_asms(3, size_limit=None) == 7
        assert count_asms(3, size_limit=3) == 7

    def test_permutation_guard(self):
        with pytest.raises(SizeLimitExceededError):
            enumerate_permutations(PERMUTATION_SIZE_LIMIT + 1)
        assert len(enumerate_permutations(4, size_limit=4)) == 24

    @pytest.mark.parametrize("bad", [0, -1])
    def test_nonpositive_size_rejected(self, bad):
        with pytest.raises(ValueError):
            count_asms(bad)
