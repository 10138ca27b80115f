"""Monomials, certificates, and exact polynomial arithmetic in q^(1/2).

To an ASM A we attach the Laurent monomial x^A = prod x_ij^{A(i,j)} in
the matrix variables x_ij, and its q-weighted version

    x_q^A = q^{beta(A)} x^A,

obtained by substituting q^{(i-j)^2 / 2} x_ij for x_ij.  The central
algebraic fact made executable here: A <= B in the ASM order exactly
when x^A - x^B admits a *subtraction-free Laurent* (SFL) certificate, a
telescoping sum over a saturated chain A = A_0 < ... < A_k = B of steps

    x^{A_t} - x^{A_{t+1}} = prefix_t * minor_t / divisor_t.

A step is its lower ASM A_t and the 1x1 rectangle (i, j, k, l) of the
cover; the rest is read off that pair: prefix_t = x^{A_t}, divisor_t =
x_{ik} x_{jl}, and minor_t is the 2x2 solid minor on rows (i, j) and
columns (k, l).  Each prefix/divisor ratio is an almost positive Laurent
monomial (exponents >= -1), so the certificate witnesses total
nonnegativity of the difference.  It is verified exactly, at every
matrix and every q, by checking that each step starts where the one
before ended; random points only spot-check the evaluator.  A
certificate read from JSON is rebuilt by replaying its chain.

Evaluation runs on integer ratios.  Each matrix cell is read where it
is used, as (numerator, denominator), from plain rows or from a
:class:`_Ratios` table of such pairs (a sample, or the table that
``tnn.evaluate_difference`` keeps on its matrix); monomials, q-deformed
minors and certificate steps multiply plain ints, and each result is
one Fraction.

Polynomials in q^(1/2) (needed because (i - j)^2 / 2 may be a half
integer) are represented sparsely with doubled exponents: the key t
stands for q^(t/2) and coefficients are exact integers.

Two fraction-free integer eliminations, each O(n^3) exact steps, serve
the exact linear algebra.  :func:`_bordered` (Bareiss) takes a leading
minor and the minors of that block bordered by each of the last few
rows and columns.  ``polynomials._condense`` takes the interior and the
four corner minors of Dodgson's condensation from one such pass, on
lcm-scaled rows or a Kronecker encoding, and :func:`_det`, the pass
with no border, takes the polynomial determinants of ``polynomials`` on
their encodings.  ``tnn.is_tnn`` runs Neville elimination, by
consecutive rows, on the rows :func:`_int_rows` scales by the lcm of
their denominators.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .core import Asm, AsmError, _as_int, asm_from_json_dict, asm_to_json_dict
from .lattice import Rect, SizeMismatchError, _chain_steps, _shift_corners, beta


class UndefinedEvaluationError(AsmError):
    """Evaluation hit 0^negative; the rational expression is undefined."""

    def __init__(self, position: tuple[int, int]):
        self.position = position
        super().__init__(f"zero entry at {position} raised to a negative power")


class VerificationFailureError(AsmError):
    """A certificate failed structural or numeric verification."""

    def __init__(self, message: str, *, step: int | None = None, point=None):
        self.step = step
        self.point = point
        super().__init__(message)


class NonExactDivisionError(AsmError):
    """Polynomial division was not exact: it left a remainder, or an int
    quotient failed its confirmation (see polynomials._exact_quotient)."""


Variable = tuple[int, int]


def _var_str(v: Variable) -> str:
    i, j = v
    if i <= 9 and j <= 9:
        return f"x{i}{j}"
    return f"x[{i},{j}]"


@dataclass(frozen=True)
class LaurentMonomial:
    """c * prod x_ij^e_ij with an exact rational coefficient.

    Exponent data is stored as a sorted tuple so instances are hashable;
    build instances with :func:`monomial`.
    """

    coeff: Fraction
    powers: tuple[tuple[Variable, int], ...]

    def is_almost_positive(self) -> bool:
        """Positive coefficient and every exponent >= -1."""
        return self.coeff > 0 and all(e >= -1 for _, e in self.powers)

    def evaluate(self, rows: Sequence[Sequence[Fraction]]) -> Fraction:
        """Exact value at a matrix (plain nested sequence, 0-based).

        A zero base zeroes the value unless its exponent is 0, and the
        scan goes on, so a later zero base with a negative exponent still
        raises."""
        cell = _reader(rows)
        num, den = _ratio(self.coeff)
        for v, e in self.powers:
            p, r = cell(*v)
            if not p and e:
                num = _zero_power(e, v)
            elif e > 0:
                num *= p**e
                den *= r**e
            else:
                num *= r**-e
                den *= p**-e
        return Fraction(num, den)

    def __str__(self) -> str:
        parts = []
        if self.coeff != 1 or not self.powers:
            parts.append(str(self.coeff))
        for v, e in self.powers:
            parts.append(_var_str(v) if e == 1 else f"{_var_str(v)}^{e}")
        return " ".join(parts)


def monomial(powers: Mapping[Variable, int], coeff=1) -> LaurentMonomial:
    """Canonical LaurentMonomial: zero exponents dropped, variables sorted."""
    items = tuple(sorted((v, e) for v, e in powers.items() if e != 0))
    return LaurentMonomial(Fraction(coeff), items)


def _ratio(x) -> tuple[int, int]:
    """x as (numerator, positive denominator) in lowest terms: an int or
    a Fraction (exactly those types) by one ``as_integer_ratio()`` call,
    anything else by ``Fraction(x)``, which raises what it raises on an
    input it rejects.  A float or Decimal has an as_integer_ratio() too,
    but goes through Fraction, as every other type does."""
    return (x if type(x) in (int, Fraction) else Fraction(x)).as_integer_ratio()


class _Ratios(list):
    """Rows of (numerator, denominator) pairs that _reader takes as they
    are, so a generated matrix needs no Fraction per cell."""

    def fractions(self) -> list[list[Fraction]]:
        return [[Fraction(p, r) for p, r in row] for row in self]


def _reader(rows: Sequence[Sequence]) -> Callable[[int, int], tuple[int, int]]:
    """cell(i, j): the 1-based entry (i, j) of a 0-based nested sequence
    as an integer ratio, read at each call, so a missing or malformed
    entry raises where it is first needed; _Ratios give their stored
    pairs."""
    if isinstance(rows, _Ratios):
        return lambda i, j: rows[i - 1][j - 1]
    return lambda i, j: _ratio(rows[i - 1][j - 1])


def _zero_power(e: int, cell: Variable) -> int:
    """0^e as a numerator factor: 0, or UndefinedEvaluationError if e < 0."""
    if e < 0:
        raise UndefinedEvaluationError(cell)
    return 0


def _asm_ratio(entries: Sequence[Sequence[int]], cell, num=1, den=1) -> tuple[int, int]:
    """num/den times x^A at the matrix that cell reads, as (numerator,
    nonzero denominator), for the entry rows of an ASM A (entries -1, 0
    and 1), read row-major; zero bases as in LaurentMonomial.evaluate."""
    for i, row in enumerate(entries, 1):
        for j, e in enumerate(row, 1):
            if e:
                p, r = cell(i, j)
                if not p:
                    num = _zero_power(e, (i, j))
                elif e > 0:
                    num *= p
                    den *= r
                else:
                    num *= r
                    den *= p
    return num, den


def asm_monomial(a: Asm) -> LaurentMonomial:
    """x^a: one factor x_ij^{a(i,j)} per nonzero entry."""
    rows = enumerate(a.entries, 1)
    return monomial({(i, j): x for i, row in rows for j, x in enumerate(row, 1)})


def _asm_difference(a: Asm, b: Asm, rows: Sequence[Sequence], wa=1, wb=1) -> Fraction:
    """wa x^a - wb x^b at rows, exactly; a is read first."""
    cell = _reader(rows)
    an, ad = _asm_ratio(a.entries, cell, *_ratio(wa))
    bn, bd = _asm_ratio(b.entries, cell, *_ratio(wb))
    return Fraction(an * bd - bn * ad, ad * bd)


# ---------------------------------------------------------------------------
# 2x2 minors and edge factorization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MinorRef:
    """A minor of the generic matrix, given by strictly increasing rows/cols."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != len(self.cols) or not self.rows:
            raise ValueError("rows and cols must be nonempty, equal length")
        if any(list(x) != sorted(set(x)) for x in (self.rows, self.cols)):
            raise ValueError("rows and cols must be strictly increasing")

    def __str__(self) -> str:
        body = "; ".join(
            " ".join(_var_str((i, j)) for j in self.cols) for i in self.rows
        )
        return f"|{body}|"


def _int_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """The rows times the lcm of all their denominators, and that
    positive scale; every k-minor of the rows grew by scale**k, so an
    n x n determinant by scale**n.  Each entry is read once, by its own
    ``as_integer_ratio()`` and nothing else: the rows are a
    :class:`~asmgraph.tnn.RationalMatrix`'s, whose constructor has made
    every entry a Fraction."""
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    scale = lcm(*[d for row in ratios for _, d in row])
    return [[p * (scale // d) for p, d in row] for row in ratios], scale


def _bordered(rows: Sequence[Sequence[int]], keep: int) -> tuple[int, list[list[int]] | None]:
    """The leading minor L of a square int matrix, on all but its last
    ``keep`` rows and columns, and the keep x keep block of L bordered:
    entry (r, c) is the minor on the leading rows and border row r and
    the leading columns and border column c.  By fraction-free
    elimination (Bareiss, Math. Comp. 22, 1968); L is 1 when keep is
    the whole size.  When L is 0 the block is None: the bordered minors
    need not vanish, and elimination cannot give them.

    Each step takes a leading row with a nonzero first entry p as pivot
    row (L is 0 if there is none; a border row is never a pivot),
    swapping it to the top, and leaves the rows below it without their
    first entry: entry c of row r becomes the 2 x 2 determinant of the
    pivot row and row r on the first column and column c, divided by the
    pivot before.  By Sylvester's identity each entry after step k (from
    0) is then the (k+2)-minor of the row-swapped matrix on its first
    k+1 rows and row r and its first k+1 columns and column c, so every
    ``//`` is exact, the last pivot is L and, after the last leading
    step, what is left is the bordered block; both times the sign of
    the swaps.
    """
    a, sign, before = list(rows), 1, 1
    for lead in range(len(a) - keep, 0, -1):
        top = a[0]
        p = top[0]
        if not p:
            i = next((i for i in range(1, lead) if a[i][0]), None)
            if i is None:
                return 0, None
            top, a[i] = a[i], top
            p = top[0]
            sign = -sign
        right, below = top[1:], []
        for row in a[1:]:
            x = row[0]
            below.append([(v * p - x * t) // before for v, t in zip(row[1:], right)])
        a, before = below, p
    return sign * before, [[sign * v for v in row] for row in a]


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square int matrix: :func:`_bordered` with no
    border; 1 for the 0 x 0 matrix."""
    return _bordered(rows, 0)[0]


class EdgeFactorization(NamedTuple):
    """x^source - x^target = prefix * minor / divisor, exactly.

    A step is its lower ASM and the rectangle it leaves along; prefix,
    divisor and minor are read off that pair on demand.  The identity
    holds because the target's corner exponents differ from the
    source's by (-1, +1, +1, -1).

    >>> from asmgraph import identity_asm, reverse_asm
    >>> (step,) = sfl_certificate(identity_asm(2), reverse_asm(2)).steps
    >>> step.rect
    Rect(i=1, j=2, k=1, l=2)
    >>> print(step.prefix, "*", step.minor, "/", step.divisor)
    x11 x22 * |x11 x12; x21 x22| / x11 x22
    """

    source: Asm
    rect: Rect

    @property
    def prefix(self) -> LaurentMonomial:
        return asm_monomial(self.source)

    @property
    def divisor(self) -> LaurentMonomial:
        return monomial({(self.rect.i, self.rect.k): 1, (self.rect.j, self.rect.l): 1})

    @property
    def minor(self) -> MinorRef:
        return MinorRef((self.rect.i, self.rect.j), (self.rect.k, self.rect.l))


def _ratio_powers(s: EdgeFactorization) -> dict[Variable, int]:
    """Exponents of prefix / divisor: the source's entries, less one at
    the two divisor cells (zero exponents kept)."""
    powers = dict(asm_monomial(s.source).powers)
    for v in (s.rect.i, s.rect.k), (s.rect.j, s.rect.l):
        powers[v] = powers.get(v, 0) - 1
    return powers


# ---------------------------------------------------------------------------
# SFL certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SflCertificate:
    """Telescoping subtraction-free witness that source <= target."""

    source: Asm
    target: Asm
    beta_pair: tuple[int, int]
    steps: tuple[EdgeFactorization, ...]

    def __str__(self) -> str:
        return " + ".join(map(step_str, self.steps)) or "0"


def step_str(s: EdgeFactorization) -> str:
    return f"{s.prefix} * {s.minor} / ({s.divisor})"


def sfl_certificate(a: Asm, b: Asm) -> SflCertificate:
    """Build the SFL certificate for a <= b along the canonical chain.

    Raises IncomparableError when a <= b fails; a == b gives the empty
    certificate for the zero function.
    """
    steps = tuple(map(EdgeFactorization._make, _chain_steps(a, b)))
    return SflCertificate(a, b, (beta(a), beta(b)), steps)


@dataclass(frozen=True)
class VerificationReport:
    steps: int
    samples: int
    seed: int


def _lowest(p: int, r: int) -> tuple[int, int]:
    g = gcd(p, r)
    return p // g, r // g


def _randints(rng: random.Random, lo: int, hi: int, count: int) -> Iterator[int]:
    """The values of ``count`` calls of ``rng.randint(lo, hi)``, drawn
    lazily, leaving rng as those calls would: CPython's rejection rule,
    k = width.bit_length() bits per try until one is below width."""
    width = hi - lo + 1
    k = width.bit_length()
    bits = rng.getrandbits
    for _ in range(count):
        r = bits(k)
        while r >= width:
            r = bits(k)
        yield lo + r


def _random_positive_rows(n: int, rng: random.Random) -> _Ratios:
    """An n x n matrix of ratios p/r in lowest terms, p and r drawn from
    1..9, row-major; unreduced, they would swell the products.  A
    negative n raises ValueError before any draw."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got n={n}")
    draws = list(_randints(rng, 1, 9, 2 * n * n))
    cells = map(_lowest, draws[::2], draws[1::2])
    return _Ratios(map(list, zip(*[cells] * n)))


def evaluate_certificate(
    cert: SflCertificate, rows: Sequence[Sequence[Fraction]]
) -> Fraction:
    """Exact value of the certificate sum at a matrix: the q-weighted
    sum at q = 1."""
    return evaluate_certificate_q(cert, rows, 1)


def evaluate_certificate_q(
    cert: SflCertificate, rows: Sequence[Sequence[Fraction]], q: Fraction
) -> Fraction:
    """Value of the q-weighted certificate sum.

    Step t acquires the factor q^{beta(source) + t} and its 2x2 minor is
    q-deformed; the sum equals q^{beta(a)} x^a - q^{beta(b)} x^b, so all
    q-powers are nonnegative and the whole thing is a polynomial in q.
    At q = 1 it is the plain certificate sum.  Each step is an integer
    ratio read off its source's entries and its rectangle's corners; q
    is read once, and each step's q-power is the step before's times q.
    Raises SizeMismatchError unless rows is n x n for the certificate's n.

    >>> from asmgraph import identity_asm, reverse_asm
    >>> cert = sfl_certificate(identity_asm(2), reverse_asm(2))
    >>> evaluate_certificate_q(cert, [[3, 1], [2, 1]], Fraction(1, 2))
    Fraction(2, 1)
    """
    n = cert.source.n
    if len(rows) != n or any(len(row) != n for row in rows):
        raise SizeMismatchError(f"certificate is for n={n}, the matrix is not {n}x{n}")
    qn, qd = _ratio(q)
    cell = _reader(rows)
    total_num, total_den = 0, 1
    e = cert.beta_pair[0]
    if e < 0 and not qn and cert.steps:
        raise ZeroDivisionError(f"q = 0 raised to the power {e}")
    # q^(beta + t) as pn / pd, a nonzero denominator wherever it is used.
    pn, pd = (qn**e, qd**e) if e >= 0 else (qd**-e, qn**-e)
    for t, s in enumerate(cert.steps):
        i, j, k, l = s.rect.bounds
        num, den = _asm_ratio(s.source.entries, cell, pn, pd)
        # The minor x_ik x_jl - q^area x_il x_jk over x_ik x_jl, cells read in that order.
        (an, ad), (bn, bd), (cn, cd), (dn, dd) = cell(i, k), cell(j, l), cell(i, l), cell(j, k)
        if not (an and bn):
            raise ZeroDivisionError(f"divisor {s.divisor} is zero at step {t}")
        area = (j - i) * (l - k)
        head = an * bn * qd**area * cd * dd
        num *= head - qn**area * cn * dn * ad * bd
        den *= head
        pn *= qn
        pd *= qd
        total_num = total_num * den + num * total_den
        total_den *= den
        g = gcd(total_num, total_den)
        total_num //= g
        total_den //= g
    return Fraction(total_num, total_den)


def verify_certificate(
    cert: SflCertificate, *, samples: int = 5, seed: int = 0
) -> VerificationReport:
    """Decide a certificate exactly by its chain; spot-check the evaluator.

    Exact: the stored beta pair is right, and the steps walk from source
    to target, each a 2x2 solid minor with an almost positive
    prefix/divisor ratio, starting where the step before ended.  A point
    step adds (-1, +1, +1, -1) at its corners and 1 to beta, so step t is
    q^beta(A_t) x^A_t - q^beta(A_{t+1}) x^A_{t+1}: the sum telescopes at
    every matrix and every q, and the walk fixes the step count.  Spot
    check: at ``samples`` random positive rational matrices
    :func:`evaluate_certificate` equals x^source - x^target exactly.
    Raises VerificationFailureError on the first failure, and AsmError
    for negative ``samples``.
    """
    if samples < 0:
        raise AsmError(f"samples must be nonnegative, got {samples}")
    if tuple(cert.beta_pair) != (beta(cert.source), beta(cert.target)):
        raise VerificationFailureError("stored beta pair is wrong")
    entries = cert.source.entries
    for t, s in enumerate(cert.steps):
        bounds = i, j, k, l = s.rect.bounds
        rows = s.source.entries
        if j != i + 1 or l != k + 1 or max(j, l) > len(rows):
            raise VerificationFailureError(f"minor {s.minor} not 2x2 solid", step=t)
        # The ratio's exponents are the source's entries, less one at the
        # divisor; Rect keeps i and k >= 1, so the cells lie inside.
        if rows[i - 1][k - 1] < 0 or rows[j - 1][l - 1] < 0:
            raise VerificationFailureError(
                f"step ratio {monomial(_ratio_powers(s))} not almost positive", step=t
            )
        if rows != entries:
            raise VerificationFailureError("step does not continue the chain", step=t)
        entries = _shift_corners(entries, bounds, -1)
    if entries != cert.target.entries:
        raise VerificationFailureError(f"the {len(cert.steps)} steps do not end at the target")
    if samples > 0:
        rng = random.Random(seed)
        for _ in range(samples):
            rows = _random_positive_rows(cert.source.n, rng)
            expected = _asm_difference(cert.source, cert.target, rows)
            got = evaluate_certificate(cert, rows)
            if got != expected:
                raise VerificationFailureError(
                    f"certificate sum {got} != direct difference {expected}",
                    point=rows.fractions(),
                )
    return VerificationReport(len(cert.steps), samples, seed)


# ---------------------------------------------------------------------------
# common-denominator (fully subtraction-free) form
# ---------------------------------------------------------------------------

class CombinedForm(NamedTuple):
    """x^a - x^b = laurent_prefix * sum(mono_t * minor_t).

    The prefix is an almost positive Laurent monomial; every residual
    mono_t has nonnegative exponents, so the sum is a subtraction-free
    polynomial in matrix entries and 2x2 solid minors with no
    constant term.
    """

    laurent_prefix: LaurentMonomial
    terms: tuple[tuple[LaurentMonomial, MinorRef], ...]


def combined_form(cert: SflCertificate) -> CombinedForm:
    ratios = [_ratio_powers(s) for s in cert.steps]
    support = {v: min(r.get(v, 0) for r in ratios) for v in set().union(*ratios)}
    terms = tuple(
        (monomial({v: r.get(v, 0) - e for v, e in support.items()}), s.minor)
        for r, s in zip(ratios, cert.steps)
    )
    return CombinedForm(monomial(support), terms)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def _powers_to_json(m: LaurentMonomial) -> dict[str, int]:
    return {f"({i},{j})": e for (i, j), e in m.powers}


def _step_to_json(s: EdgeFactorization) -> dict:
    return {
        "prefix": _powers_to_json(s.prefix),
        "divisor": _powers_to_json(s.divisor),
        "minor": {"rows": list(s.minor.rows), "cols": list(s.minor.cols)},
    }


def certificate_to_json_dict(cert: SflCertificate) -> dict:
    return {
        "endpoints": [asm_to_json_dict(cert.source), asm_to_json_dict(cert.target)],
        "beta": list(cert.beta_pair),
        "steps": [_step_to_json(s) for s in cert.steps],
    }


def certificate_from_json_dict(d: Mapping) -> SflCertificate:
    """Rebuild a certificate by replaying its chain from the source: each
    step leaves the step before's upper matrix (an Asm, so checked) along
    its JSON minor and must write back as read.  A wrong shape raises
    VerificationFailureError, which names the step if one fails."""
    try:
        (e0, e1), (b0, b1), raw = d["endpoints"], d["beta"], list(d["steps"])
        beta_pair = _as_int(b0), _as_int(b1)
        if None in beta_pair:
            raise ValueError(f"beta {d['beta']!r} is not two integers")
    except (LookupError, TypeError, ValueError) as exc:
        raise VerificationFailureError(f"not a certificate document: {exc}") from exc
    source, target = asm_from_json_dict(e0), asm_from_json_dict(e1)
    steps, lower = [], source
    for t, s in enumerate(raw):
        try:
            (i, j), (k, l) = s["minor"]["rows"], s["minor"]["cols"]
            step = EdgeFactorization(lower, Rect(i, j, k, l))
            if _step_to_json(step) != s:
                raise ValueError("it is not the step its chain rebuilds")
            lower = Asm(_shift_corners(lower.entries, step.rect.bounds, -1))
        except (LookupError, TypeError, ValueError) as exc:
            raise VerificationFailureError(f"step {t} does not replay: {exc}", step=t) from exc
        steps.append(step)
    return SflCertificate(source, target, beta_pair, tuple(steps))


def certificate_to_json(cert: SflCertificate) -> str:
    return json.dumps(certificate_to_json_dict(cert), sort_keys=True)


def certificate_from_json(text: str) -> SflCertificate:
    return certificate_from_json_dict(json.loads(text))


# ---------------------------------------------------------------------------
# polynomials in q^(1/2): sparse, doubled integer exponents
# ---------------------------------------------------------------------------

class HalfExpPoly:
    """Integer-coefficient polynomial in q^(1/2).

    Terms map doubled exponents to coefficients: {t: c} stands for
    c * q^(t/2).  Doubling keeps every exponent an exact int; zero
    coefficients are never stored.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        clean = {}
        for t, c in (terms or {}).items():
            ti, ci = _as_int(t), _as_int(c)
            if ti is None or ci is None:
                raise AsmError(f"need integer exponent/coefficient, got {t!r}: {c!r}")
            if ci:
                clean[ti] = ci
        self.terms = clean

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls) -> "HalfExpPoly":
        return cls({})

    @classmethod
    def const(cls, c: int) -> "HalfExpPoly":
        return cls({0: c})

    @classmethod
    def one(cls) -> "HalfExpPoly":
        return cls.const(1)

    @classmethod
    def q_pow_twice(cls, twice: int, coeff: int = 1) -> "HalfExpPoly":
        """coeff * q^(twice/2)."""
        return cls({twice: coeff})

    @classmethod
    def q_pow(cls, k: int, coeff: int = 1) -> "HalfExpPoly":
        """coeff * q^k for integer k."""
        return cls({2 * k: coeff})

    # -- ring operations: the tests' oracle; no library path calls them --
    def __add__(self, other: "HalfExpPoly") -> "HalfExpPoly":
        """The sum keeps self's term order, then other's new exponents in
        theirs; repr shows that order."""
        out = dict(self.terms)
        for t, c in other.terms.items():
            out[t] = out.get(t, 0) + c
        return _trusted_poly({t: c for t, c in out.items() if c})

    def __sub__(self, other: "HalfExpPoly") -> "HalfExpPoly":
        return self + -other

    def __neg__(self) -> "HalfExpPoly":
        return _trusted_poly({t: -c for t, c in self.terms.items()})

    def __mul__(self, other: "HalfExpPoly") -> "HalfExpPoly":
        out: dict[int, int] = {}
        for t1, c1 in self.terms.items():
            for t2, c2 in other.terms.items():
                t = t1 + t2
                out[t] = out.get(t, 0) + c1 * c2
        return _trusted_poly({t: c for t, c in out.items() if c})

    def __pow__(self, k: int) -> "HalfExpPoly":
        if k < 0:
            raise ValueError("negative power")
        result = HalfExpPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, HalfExpPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.terms.items())))

    # -- queries --------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree_twice(self) -> int:
        """Doubled degree; the zero polynomial has no degree."""
        if not self.terms:
            raise ValueError("zero polynomial")
        return max(self.terms)

    def coefficient_q(self, k: int) -> int:
        """Coefficient of q^k (integer k)."""
        return self.terms.get(2 * k, 0)

    def has_integer_exponents(self) -> bool:
        return all(t % 2 == 0 for t in self.terms)

    def coeffs_q(self) -> dict[int, int]:
        """As {integer exponent: coefficient}; requires integer exponents."""
        if not self.has_integer_exponents():
            raise AsmError("polynomial has genuine half-integer exponents")
        return {t // 2: c for t, c in sorted(self.terms.items())}

    # -- evaluation and division ----------------------------------------
    def evaluate_sqrt(self, s: Fraction) -> Fraction:
        """Exact value with q^(1/2) = s, i.e. at q = s^2."""
        s = Fraction(s)
        return sum((c * s**t for t, c in self.terms.items()), Fraction(0))

    def evaluate_q(self, q: Fraction) -> Fraction:
        """Exact value at q; requires integer exponents."""
        q = Fraction(q)
        return sum((c * q**k for k, c in self.coeffs_q().items()), Fraction(0))

    def divexact(self, divisor: "HalfExpPoly") -> "HalfExpPoly":
        """Exact long division in integers, the quotient's terms in
        ascending exponent.

        Raises NonExactDivisionError as soon as a leading coefficient is
        not a multiple of the divisor's, or a remainder of lower degree
        is left over.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = dict(self.terms)
        dlead = max(divisor.terms)
        dcoeff = divisor.terms[dlead]
        quot: dict[int, int] = {}
        while rem:
            rlead = max(rem)
            if rlead < dlead:
                raise NonExactDivisionError("remainder of lower degree than divisor")
            qc, r = divmod(rem[rlead], dcoeff)
            if r:
                raise NonExactDivisionError(f"{rem[rlead]} is not a multiple of {dcoeff}")
            # The leading term cancels, so later quotient exponents are smaller.
            qt = rlead - dlead
            quot[qt] = qc
            for t, c in divisor.terms.items():
                new = rem.get(qt + t, 0) - qc * c
                if new:
                    rem[qt + t] = new
                else:
                    rem.pop(qt + t, None)
        return _trusted_poly(dict(reversed(quot.items())))

    # -- display ----------------------------------------------------------
    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for t in sorted(self.terms):
            c = self.terms[t]
            mag = abs(c)
            if t == 0:
                body = str(mag)
            else:
                power = "q" if t == 2 else (f"q^{t // 2}" if t % 2 == 0 else f"q^({t}/2)")
                body = power if mag == 1 else f"{mag}{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"HalfExpPoly({self.terms!r})"


def _trusted_poly(terms: dict[int, int]) -> HalfExpPoly:
    """A :class:`HalfExpPoly` around ``terms`` itself, for the ring
    operations whose terms are nonzero ints by construction."""
    p = object.__new__(HalfExpPoly)
    p.terms = terms
    return p
