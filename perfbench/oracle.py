"""Independent computations the benchmark checks the program against.

Nothing here imports asmgraph.  Matrices are plain tuples of tuples of
ints (0-based storage, 1-based formulas as in the paper), and every
routine is written from the definitions, by a different method than the
program uses where one exists:

- ASMs are enumerated row by row on the entries, tracking column
  partial sums (the program walks corner-sum rows).
- Determinants use fraction-free integer Bareiss elimination (the
  program uses Fraction Gaussian elimination and cofactor expansion).
- B_n(q) is the product formula expanded as an integer coefficient list.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import factorial, lcm, prod
from typing import Iterable, Iterator, Sequence

Matrix = tuple[tuple[int, ...], ...]


def asm_count(n: int) -> int:
    """Number of n x n ASMs: prod_{k<n} (3k+1)! / (n+k)!."""
    num = prod(factorial(3 * k + 1) for k in range(n))
    den = prod(factorial(n + k) for k in range(n))
    return num // den


def iter_asms(n: int) -> Iterator[Matrix]:
    """All n x n ASMs, built row by row from the column partial sums."""
    rows: list[tuple[int, ...]] = []

    def next_rows(col: list[int]) -> Iterator[tuple[int, ...]]:
        row = [0] * n

        def fill(j: int, run: int) -> Iterator[tuple[int, ...]]:
            if j == n:
                if run == 1:
                    yield tuple(row)
                return
            for x in (-1, 0, 1):
                if col[j] + x in (0, 1) and run + x in (0, 1):
                    row[j] = x
                    yield from fill(j + 1, run + x)

        yield from fill(0, 0)

    def walk(col: list[int]) -> Iterator[Matrix]:
        if len(rows) == n:
            if all(c == 1 for c in col):
                yield tuple(rows)
            return
        for row in next_rows(col):
            rows.append(row)
            yield from walk([c + x for c, x in zip(col, row)])
            rows.pop()

    yield from walk([0] * n)


def is_asm(a: Sequence[Sequence[int]]) -> bool:
    """The ASM axioms, straight from the definition."""
    n = len(a)
    if n == 0 or any(len(row) != n for row in a):
        return False
    for line in list(a) + [list(col) for col in zip(*a)]:
        run = 0
        for x in line:
            if x not in (-1, 0, 1):
                return False
            run += x
            if run not in (0, 1):
                return False
        if run != 1:
            return False
    return True


#: A Mersenne prime; fingerprints are taken modulo it.
FINGERPRINT_MOD = 2**61 - 1


def fingerprint(a: Matrix) -> int:
    """code^3 mod 2**61 - 1, code being the entries plus one read as a
    base-3 number, so distinct matrices have distinct codes.

    Summed mod 2**61 - 1 over a set of ASMs it names the set whatever the
    order: a duplicate in place of a missing ASM changes the sum unless
    the two cubes happen to agree modulo the prime.
    """
    code = int("".join(str(x + 1) for row in a for x in row), 3)
    return pow(code, 3, FINGERPRINT_MOD)


def set_fingerprint(asms: Iterable[Matrix]) -> int:
    return sum(map(fingerprint, asms)) % FINGERPRINT_MOD


def corner_sums(a: Matrix) -> list[list[int]]:
    """Padded corner-sum matrix X with X[0][*] = X[*][0] = 0, size n+1."""
    n = len(a)
    x = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            x[i][j] = a[i - 1][j - 1] + x[i - 1][j] + x[i][j - 1] - x[i - 1][j - 1]
    return x


def beta(a: Matrix) -> int:
    """beta(A) = (1/2) sum (i - j)^2 A(i, j)."""
    n = len(a)
    s = sum((i - j) ** 2 * a[i][j] for i in range(n) for j in range(n) if a[i][j])
    return s // 2


def leq(a: Matrix, b: Matrix) -> bool:
    """a <= b in the ASM order: corner sums of a dominate those of b."""
    xa, xb = corner_sums(a), corner_sums(b)
    n = len(a)
    return all(
        xa[i][j] >= xb[i][j] for i in range(1, n + 1) for j in range(1, n + 1)
    )


def can_lower(x: list[list[int]], i: int, j: int, k: int, l: int) -> bool:
    """Does X - 1_R stay a corner-sum matrix, R = rows [i,j) x cols [k,l)?

    Lowering R changes only the unit steps that cross its border: along
    each of its rows the step into column k must drop from 1 to 0 and the
    step out at column l must rise from 0 to 1, and likewise along its
    columns at rows i and j.
    """
    n = len(x) - 1
    if not (1 <= i < j <= n and 1 <= k < l <= n):
        return False
    for p in range(i, j):
        if x[p][k] - x[p][k - 1] != 1 or x[p][l] - x[p][l - 1] != 0:
            return False
    for q in range(k, l):
        if x[i][q] - x[i - 1][q] != 1 or x[j][q] - x[j - 1][q] != 0:
            return False
    return True


def lowerable_cells(a: Matrix) -> int:
    """Number of 1x1 rectangles whose corner sum can drop by 1."""
    x = corner_sums(a)
    n = len(a)
    return sum(
        can_lower(x, p, p + 1, q, q + 1) for p in range(1, n) for q in range(1, n)
    )


def edge_type(target: Matrix, i: int, j: int, k: int, l: int) -> int | None:
    """Type 1..16 from the target's corners, or None off the 16 patterns.

    The paper's patterns: B(i,k), B(j,l) in {-1, 0} and B(i,l), B(j,k)
    in {0, 1}; the type counts them in binary with B(i,k) = -1 worth 8,
    B(j,l) = -1 worth 4, B(j,k) = 0 worth 2 and B(i,l) = 0 worth 1.
    """
    ik, il = target[i - 1][k - 1], target[i - 1][l - 1]
    jk, jl = target[j - 1][k - 1], target[j - 1][l - 1]
    if ik not in (-1, 0) or jl not in (-1, 0) or il not in (0, 1) or jk not in (0, 1):
        return None
    return 1 + 8 * (ik == -1) + 4 * (jl == -1) + 2 * (jk == 0) + (il == 0)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def rotate180(a: Matrix) -> Matrix:
    return tuple(tuple(reversed(row)) for row in reversed(a))


def edge_type_census(n: int) -> dict[int, int]:
    """Edge types of the whole ASM graph on size n, built from scratch."""
    census: dict[int, int] = {}
    for a in iter_asms(n):
        x = corner_sums(a)
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                for k in range(1, n):
                    for l in range(k + 1, n + 1):
                        if not can_lower(x, i, j, k, l):
                            continue
                        y = [row[:] for row in x]
                        for p in range(i, j):
                            for q in range(k, l):
                                y[p][q] -= 1
                        b = tuple(
                            tuple(
                                y[p][q] - y[p - 1][q] - y[p][q - 1] + y[p - 1][q - 1]
                                for q in range(1, n + 1)
                            )
                            for p in range(1, n + 1)
                        )
                        t = edge_type(b, i, j, k, l)
                        census[t] = census.get(t, 0) + 1
    return dict(sorted(census.items()))


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def bareiss_det(m: Sequence[Sequence[int]]) -> int:
    """Integer determinant by fraction-free Bareiss elimination."""
    a = [list(row) for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for c in range(n - 1):
        if a[c][c] == 0:
            swap = next((r for r in range(c + 1, n) if a[r][c] != 0), None)
            if swap is None:
                return 0
            a[c], a[swap] = a[swap], a[c]
            sign = -sign
        for r in range(c + 1, n):
            for s in range(c + 1, n):
                a[r][s] = (a[r][s] * a[c][c] - a[r][c] * a[c][s]) // prev
        prev = a[c][c]
    return sign * a[n - 1][n - 1]


def scaled(rows: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """(s, s * rows) with s the least common denominator, all integers."""
    s = lcm(*(Fraction(x).denominator for row in rows for x in row))
    return s, [[int(Fraction(x) * s) for x in row] for row in rows]


def det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a rational matrix via its integer scaling."""
    s, ints = scaled(rows)
    return Fraction(bareiss_det(ints), s ** len(rows))


def is_tnn(rows: Sequence[Sequence[Fraction]]) -> bool:
    """Every minor of every size is >= 0 (integer scaling keeps signs)."""
    _, ints = scaled(rows)
    n = len(ints)
    return all(
        bareiss_det([[ints[r][c] for c in cs] for r in rs]) >= 0
        for k in range(1, n + 1)
        for rs in combinations(range(n), k)
        for cs in combinations(range(n), k)
    )


def monomial_value(a: Matrix, rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """x^A at a matrix: prod m_ij^{A(i,j)}."""
    v = Fraction(1)
    for arow, mrow in zip(a, rows):
        for e, x in zip(arow, mrow):
            if e:
                v *= Fraction(x) ** e
    return v


# ---------------------------------------------------------------------------
# polynomials in q as integer coefficient lists
# ---------------------------------------------------------------------------

def poly_mul(p: list[int], r: list[int]) -> list[int]:
    out = [0] * (len(p) + len(r) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(r):
                out[i + j] += a * b
    return out


def bn_product(n: int) -> list[int]:
    """Coefficients of prod_{k=1}^{n-1} (1 - q^k)^(n-k), index = power."""
    out = [1]
    for k in range(1, n):
        factor = [1] + [0] * (k - 1) + [-1]
        for _ in range(n - k):
            out = poly_mul(out, factor)
    return out


def coeff_list(coeffs: dict[int, int]) -> list[int]:
    """{power: coeff} as a dense list, trailing zeros dropped."""
    if not coeffs:
        return []
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    while out and out[-1] == 0:
        out.pop()
    return out
