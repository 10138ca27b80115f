"""End-to-end verification checks over the whole package.

Each check re-derives one headline fact from scratch and compares it
with frozen reference data that was computed by independent oracles
(entrywise enumeration, pairwise corner-sum differencing, brute-force
order search).  The checks are deliberately redundant with the unit
tests: they exercise the public API the way a user would, in one pass,
and report timings.

A new check is one function decorated with ``@_check(key, display
name)`` that returns its problems and a summary (see :func:`_check`);
the decorator registers it in :data:`ALL_CHECKS`, so nothing else needs
to change.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass
from functools import wraps
from typing import Callable, Iterable

from .core import (
    Permutation,
    identity_asm,
    permutation_to_asm,
    reverse_asm,
    sign,
)
from .enumeration import enumerate_asms, enumerate_permutations
from .lattice import (
    GraphEdge,
    IncomparableError,
    _beta_corner_sum,
    asm_leq,
    beta,
    beta_bigrassmannian_count,
    beta_permutation,
    build_graph,
    classify_edge,
    covered_by,
    edges_from,
    essential_points,
    fulton_essential_set,
)
from .polynomials import (
    BQ_METHODS,
    SingularInteriorError,
    bq_definition,
    bq_product,
    bq_qdet,
    dodgson,
    q_dodgson_check,
)
from .symbolic import evaluate_certificate, sfl_certificate, verify_certificate
from .tnn import (
    ComparableError,
    counterexample_matrix,
    det,
    evaluate_difference,
    is_tnn,
    random_rational_matrix,
    random_tnn,
)

# ---------------------------------------------------------------------------
# frozen reference data (hand-checked and confirmed by independent oracles)
# ---------------------------------------------------------------------------

#: The seven 3x3 ASMs by name; X is the unique one with a -1.
A3_MATRICES = {
    "123": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    "132": ((1, 0, 0), (0, 0, 1), (0, 1, 0)),
    "213": ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
    "X": ((0, 1, 0), (1, -1, 1), (0, 1, 0)),
    "231": ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    "312": ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    "321": ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
}

#: The 13 directed edges of the 3x3 ASM graph.
A3_EDGES = {
    ("123", "132"), ("123", "213"), ("123", "321"),
    ("132", "X"), ("213", "X"),
    ("132", "231"), ("132", "312"), ("213", "231"), ("213", "312"),
    ("X", "231"), ("X", "312"),
    ("231", "321"), ("312", "321"),
}

#: The types of the four edges through X.  Transposing swaps types 2 and
#: 3, so the censuses, equal across that swap, cannot tell them apart.
A3_CENTRE_TYPES = {("132", "X"): 5, ("213", "X"): 9, ("X", "231"): 2, ("X", "312"): 3}

#: (sign, beta) for every permutation of S_4.
S4_SIGN_BETA = {
    "1234": (1, 0), "1243": (-1, 1), "1324": (-1, 1), "1342": (1, 3),
    "1423": (1, 3), "1432": (-1, 4), "2134": (-1, 1), "2143": (1, 2),
    "2314": (1, 3), "2341": (-1, 6), "2413": (-1, 5), "2431": (1, 7),
    "3124": (1, 3), "3142": (-1, 5), "3214": (-1, 4), "3241": (1, 7),
    "3412": (1, 8), "3421": (-1, 9), "4123": (-1, 6), "4132": (1, 7),
    "4213": (1, 7), "4231": (-1, 9), "4312": (-1, 9), "4321": (1, 10),
}

#: B_3 and B_4 coefficient tables, exponent -> coefficient.
_B3_COEFFS = {0: 1, 1: -2, 3: 2, 4: -1}
_B4_COEFFS = {0: 1, 1: -3, 2: 1, 3: 4, 4: -2, 5: -2, 6: -2, 7: 4, 8: 1, 9: -3, 10: 1}

#: Edge-type census of the full 5x5 ASM graph (3134 edges).  Type 16
#: does not occur at this size; its corner pattern needs two -1 entries
#: in each of two adjacent rows, which takes a 6x6 matrix.
A5_TYPE_CENSUS = {
    1: 1212, 2: 382, 3: 382, 4: 39, 5: 382, 6: 75, 7: 75, 8: 4,
    9: 382, 10: 75, 11: 75, 12: 4, 13: 39, 14: 4, 15: 4,
}

#: Edge-type census of the full 6x6 ASM graph (84,016 edges): the first
#: size with a type-16 edge.
A6_TYPE_CENSUS = {
    1: 25810, 2: 10566, 3: 10566, 4: 1573, 5: 10566, 6: 2908, 7: 2908, 8: 287,
    9: 10566, 10: 2908, 11: 2908, 12: 287, 13: 1573, 14: 287, 15: 287, 16: 16,
}


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check."""

    name: str
    passed: bool
    details: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} ({self.seconds:.2f}s): {self.details}"


#: Every check by its ``--only`` key, in the order :func:`run_all` runs
#: them; :func:`_check` fills it as the checks below are defined.
ALL_CHECKS: dict[str, Callable[[int], CheckResult]] = {}


def _check(key: str, name: str):
    """Register a check as ``ALL_CHECKS[key]``, displayed as name.

    The decorated function takes the run's seed (the deterministic
    checks ignore it) and returns (problems, summary).  The registered
    function times it and returns a CheckResult that passes with the
    summary when there are no problems, and otherwise fails with the
    first three.  A check that raises fails with ``"<ExcType>: <message>"``
    and the checks after it still run.
    """

    def register(fn: Callable[[int], tuple[list[str], str]]) -> Callable[[int], CheckResult]:
        @wraps(fn)
        def run(seed: int = 0) -> CheckResult:
            start = time.perf_counter()
            try:
                problems, summary = fn(seed)
            except Exception as exc:
                problems = [f"{type(exc).__name__}: {exc}"]
            if problems:
                more = f" (+{len(problems) - 3} more)" if len(problems) > 3 else ""
                passed, details = False, "; ".join(problems[:3]) + more
            else:
                passed, details = True, summary
            return CheckResult(name, passed, details, time.perf_counter() - start)

        ALL_CHECKS[key] = run
        return run

    return register


# ---------------------------------------------------------------------------
# the checks
# ---------------------------------------------------------------------------

@_check("a3", "A3 reconstruction")
def check_a3_reconstruction(seed: int = 0):
    """The seven 3x3 ASMs, their 13-edge graph and its edge types through X."""
    problems = []
    asms = enumerate_asms(3)
    if {a.entries for a in asms} != set(A3_MATRICES.values()):
        problems.append("3x3 enumeration differs from the reference set")
    g = build_graph(3)
    names = {entries: name for name, entries in A3_MATRICES.items()}
    types = {
        (names[g.nodes[e.src].entries], names[g.nodes[e.dst].entries]): e.edge_type
        for e in g.edges
    }
    if set(types) != A3_EDGES:
        problems.append(f"edge set mismatch: {sorted(set(types) ^ A3_EDGES)}")
    centre = {pair: types.get(pair) for pair in A3_CENTRE_TYPES}
    if centre != A3_CENTRE_TYPES:
        problems.append(f"edge types through X differ: {centre}")
    out_min = [e for e in g.edges if g.nodes[e.src] == identity_asm(3)]
    in_max = [e for e in g.edges if g.nodes[e.dst] == reverse_asm(3)]
    if len(out_min) != 3 or len(in_max) != 3:
        problems.append("extremes should have 3 outgoing/incoming edges")
    long = [e for e in out_min if g.nodes[e.dst] == reverse_asm(3)]
    if len(long) != 1 or long[0].rect.area != 4:
        problems.append("missing the area-4 edge between the extremes")
    return problems, "7 nodes, 13 edges, extremes of degree 3"


@_check("beta", "beta table S4")
def check_beta_table(seed: int = 0):
    """sign and beta over S_4, all three beta evaluators agreeing."""
    problems = []
    for word, (expect_sign, expect_beta) in S4_SIGN_BETA.items():
        w = Permutation(tuple(int(c) for c in word))
        a = permutation_to_asm(w)
        values = {
            "sign": sign(w) == expect_sign,
            "perm": beta_permutation(w) == expect_beta,
            "corner": _beta_corner_sum(a) == expect_beta,
            "entry": beta(a) == expect_beta,
            "count": beta_bigrassmannian_count(a) == expect_beta,
        }
        bad = [k for k, ok in values.items() if not ok]
        if bad:
            problems.append(f"{word}: {','.join(bad)} disagree")
    return problems, "24 permutations, 3 evaluators, all equal"


@_check("bq", "Bq four ways")
def check_bq_four_ways(seed: int = 0):
    """Each way of ``BQ_METHODS`` (definition, product, q-determinant,
    recursion) against the definition, n <= 6, and the q-determinant
    against the product up to its guard, n <= 10."""
    problems = []
    for n in range(1, 7):
        values = {label: method(n) for label, method in BQ_METHODS.items()}
        for label, value in values.items():
            if value != values["def"]:
                problems.append(f"n={n}: {label} differs from definition")
    for n in range(7, 11):
        if bq_qdet(n) != bq_product(n):
            problems.append(f"n={n}: qdet differs from prod")
    if bq_definition(3).coeffs_q() != _B3_COEFFS:
        problems.append("B_3 coefficients differ from the frozen reference")
    if bq_definition(4).coeffs_q() != _B4_COEFFS:
        problems.append("B_4 coefficients differ from the frozen reference")
    return problems, "n=1..6 agree, qdet = prod to n=10; B_3, B_4 coefficient-exact"


def _constructive_sweep(n: int, seed: int) -> tuple[list[str], int, int]:
    """leq, certificates and counterexamples on every ordered pair of
    n x n ASMs: the problems, and the comparable and incomparable counts.

    The three must agree on each pair.  For each comparable pair the
    certificate is verified and evaluated at 5 seeded TNN sample
    matrices, where it must equal the direct monomial difference and be
    nonnegative; for each incomparable pair the 2-block counterexample
    must be TNN and evaluate negative.
    """
    problems = []
    asms = enumerate_asms(n)
    comparable_pairs = incomparable_pairs = 0
    for pi, a in enumerate(asms):
        for pj, b in enumerate(asms):
            comparable = asm_leq(a, b)
            try:
                cert = sfl_certificate(a, b)
            except IncomparableError:
                cert = None
            try:
                cm, _witness = counterexample_matrix(a, b)
            except ComparableError:
                cm = None
            if (cert is not None) != comparable or (cm is None) != comparable:
                problems.append(f"pair ({pi},{pj}): the three oracles disagree")
                continue
            if comparable:
                comparable_pairs += 1
                verify_certificate(cert, samples=1, seed=seed + pi)
                for k in range(5):
                    m = random_tnn(n, seed=seed + pi * 1303 + pj * 31 + k)
                    value = evaluate_certificate(cert, m.rows)
                    direct = evaluate_difference(a, b, m)
                    if value != direct or value < 0:
                        problems.append(f"pair ({pi},{pj}) sample {k}: value {value}")
            else:
                incomparable_pairs += 1
                if not is_tnn(cm):
                    problems.append(f"pair ({pi},{pj}): counterexample not TNN")
                elif evaluate_difference(a, b, cm) >= 0:
                    problems.append(f"pair ({pi},{pj}): difference not negative")
    return problems, comparable_pairs, incomparable_pairs


@_check("order", "order oracle A4")
def check_order_oracle(seed: int = 0):
    """leq, certificates, and counterexamples agree on all of A_4 x A_4:
    :func:`_constructive_sweep` at n = 4."""
    problems, comparable, incomparable = _constructive_sweep(4, seed)
    return problems, (
        f"{comparable} comparable and {incomparable} "
        "incomparable pairs, all certified or separated"
    )


@_check("lattice", "graded lattice A4/A5/A6")
def check_graded_lattice(seed: int = 0):
    """Coverings, beta grading, and edge typing on A_4; the graph's edges
    against edges_from, and its nodes' seeded beta against corner sums,
    on A_5; type censuses on A_5 and A_6."""
    problems = []
    asms = enumerate_asms(4)
    m = len(asms)
    strict = [
        [asm_leq(asms[i], asms[j]) and i != j for j in range(m)]
        for i in range(m)
    ]
    covers_by_order = set()
    for i in range(m):
        for j in range(m):
            if not strict[i][j]:
                continue
            if not any(strict[i][k] and strict[k][j] for k in range(m)):
                covers_by_order.add((i, j))
    index = {a: i for i, a in enumerate(asms)}
    covers_by_points = {
        (index[lower], j)
        for j, upper in enumerate(asms)
        for lower in covered_by(upper)
    }
    if covers_by_order != covers_by_points:
        problems.append("covering relations differ from essential points")
    for i, j in covers_by_order:
        if beta(asms[j]) - beta(asms[i]) != 1:
            problems.append(f"cover ({i},{j}) does not step beta by 1")
    g = build_graph(4)
    for e in g.edges:
        src, dst = g.nodes[e.src], g.nodes[e.dst]
        if beta(dst) - beta(src) != e.rect.area:
            problems.append(f"edge {e}: beta jump is not the area")
        corners = tuple(
            src.entry(p, q) - dst.entry(p, q) for (p, q) in e.rect.corners()
        )
        if corners != (1, -1, -1, 1):
            problems.append(f"edge {e}: corner difference {corners}")
        if classify_edge(src, dst, e.rect) != e.edge_type:
            problems.append(f"edge {e}: reclassification disagrees")
    g5 = build_graph(5)
    edges5 = [
        GraphEdge(s, g5.index_of(e.target), e.rect, e.edge_type)
        for s, a in enumerate(g5.nodes)
        for e in edges_from(a)
    ]
    if list(g5.edges) != edges5:
        problems.append("A5 graph edges differ from edges_from")
    for s, a in enumerate(g5.nodes):
        if beta(a) != _beta_corner_sum(a):
            problems.append(f"A5 node {s}: seeded beta {beta(a)} != {_beta_corner_sum(a)}")
    census5, census6 = Counter(g5.types), Counter(build_graph(6).types)
    if census5 != A5_TYPE_CENSUS:
        problems.append(f"A5 type census differs: {dict(census5)}")
    if census6 != A6_TYPE_CENSUS:
        problems.append(f"A6 type census differs: {dict(census6)}")
    present = sorted(census5)
    absent = sorted(set(range(1, 17)) - set(census5))
    return problems, (
        f"84 covers match essential points; {g.num_edges} A4 edges typed; "
        f"{len(edges5)} A5 edges match edges_from; "
        f"A5 types present {present}, absent {absent}; "
        f"{census6.total()} A6 edges, {census6[16]} of type 16"
    )


def _dodgson_trials(n: int, trials: int, rng: random.Random) -> dict[str, int]:
    """Condensation on ``trials`` random rational n x n matrices from rng.

    Each trial compares Dodgson's quotient with the Gaussian determinant
    (a zero interior minor counts as skipped) and checks the q-identity,
    whose left side at q = 1 must also be |A| |A'| scale^(2n-2): both
    sides come from one encoding, so agreeing alone cannot show a
    decoding fault.  The counts come in the order ``dodgson verify``
    prints them; a trial can fail both comparisons."""
    counts = dict.fromkeys(("numeric_ok", "singular_skipped", "q_ok", "failures"), 0)
    for _ in range(trials):
        matrix = random_rational_matrix(n, rng)
        value = det(matrix.rows)
        try:
            counts["numeric_ok" if dodgson(matrix) == value else "failures"] += 1
        except SingularInteriorError:
            counts["singular_skipped"] += 1
        report = q_dodgson_check(matrix)
        interior = det([row[1:-1] for row in matrix.rows[1:-1]])
        at_one = value * interior * report.scale ** (2 * n - 2)
        passed = report.passed and report.lhs.evaluate_sqrt(1) == at_one
        counts["q_ok" if passed else "failures"] += 1
    return counts


@_check("dodgson", "dodgson and q-dodgson")
def check_dodgson(seed: int = 0):
    """:func:`_dodgson_trials`, the trials of ``dodgson verify``: 100 at
    each n from 2 to 5, drawn from one generator, with no tolerance."""
    problems = []
    rng = random.Random(seed)
    totals = Counter()
    for n in (2, 3, 4, 5):
        counts = _dodgson_trials(n, 100, rng)
        if counts["failures"]:
            problems.append(f"n={n}: {counts['failures']} failed comparisons in 100 trials")
        totals.update(counts)
    return problems, (
        f"{totals['numeric_ok']} numeric (skipped {totals['singular_skipped']} singular interiors), "
        f"{totals['q_ok']} symbolic q-identities, each at q=1 against det, zero tolerance"
    )


@_check("fulton", "fulton S5")
def check_fulton(seed: int = 0):
    """Fulton's essential set equals the 1x1 essential rectangles on S_5."""
    problems = []
    for w in enumerate_permutations(5):
        if fulton_essential_set(w) != set(essential_points(permutation_to_asm(w))):
            problems.append(f"mismatch at {w}")
    return problems, "120 permutations, both definitions equal"


@_check("scope", "sampling scope note")
def check_sampling_scope(seed: int = 0):
    """The constructive sides carry the universally quantified claims.

    Statements over all TNN matrices or all q > 0 cannot be decided by
    sampling; the guarantees rest on certificates (comparable pairs),
    checked exactly by their chains, and explicit counterexamples
    (incomparable pairs); sampling only spot-checks evaluators.  This
    check re-runs both constructive sides, :func:`_constructive_sweep`,
    over every 3x3 ordered pair.
    """
    problems, _, _ = _constructive_sweep(3, seed)
    return problems, (
        "universal claims carried by certificates/counterexamples; "
        "sampling is falsification only"
    )


def run_all(seed: int = 0, names: Iterable[str] | None = None) -> tuple[CheckResult, ...]:
    """Run the named checks (every check by default) and return the results."""
    if names is None:
        names = ALL_CHECKS
    return tuple(ALL_CHECKS[name](seed) for name in names)
