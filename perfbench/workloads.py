"""The four workloads: inputs from a seed, the timed task, the checks.

Each workload has three parts:

- ``setup(pkg, seed)`` builds the inputs with the freshly imported
  package ``pkg`` (a namespace of the asmgraph modules);
- ``task(pkg, inputs, clock)`` solves the workload's fixed task and
  returns its output, timing only the task itself with ``clock``, a
  :class:`speed.Clock`;
- ``check(inputs, output)`` compares the output with the independent
  computations in :mod:`oracle` and returns ``(failed, problems)``:
  the number of operations that failed and the problems that are not
  tied to one operation (a wrong total count, say).

The program is called through module attributes at call time, so the
wrappers that :mod:`spans` installs see every call.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import oracle

REFS = Path(__file__).with_name("refs.json")


# ---------------------------------------------------------------------------
# graph-a6: the CLI's `graph --n 6 --json`, in-process
# ---------------------------------------------------------------------------

class Graph:
    name = "graph-a6"

    def __init__(self, n: int = 6, type_census: dict[int, int] | None = None):
        self.n = n
        if type_census is None:
            refs = json.loads(REFS.read_text(encoding="utf-8"))
            type_census = {int(t): c for t, c in refs[f"a{n}_edge_type_census"].items()}
        self.type_census = type_census

    def ops(self) -> int:
        return oracle.asm_count(self.n)

    def setup(self, pkg, seed: int):
        return ["graph", "--n", str(self.n), "--json"]

    def task(self, pkg, argv, clock):
        def run():
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = pkg.cli.main(argv)
            return code, buf.getvalue()

        with clock:
            return run()

    def check(self, argv, output):
        code, text = output
        n, expected = self.n, self.ops()
        if code != 0:
            return expected, [f"cli exit code {code}"]
        doc = json.loads(text)
        nodes = [tuple(map(tuple, d["entries"])) for d in doc["nodes"]]
        index = {a: i for i, a in enumerate(nodes)}
        problems = []
        if doc["n"] != n or len(nodes) != expected or len(index) != len(nodes):
            problems.append(f"{len(nodes)} nodes ({len(index)} distinct), expected {expected}")
        invalid = {i for i, a in enumerate(nodes) if len(a) != n or not oracle.is_asm(a)}
        bad = set(invalid)
        xs = [oracle.corner_sums(a) for a in nodes]
        betas = [oracle.beta(a) for a in nodes]
        census: dict[int, int] = {}
        edge_set = set()
        covers = [0] * len(nodes)
        for e in doc["edges"]:
            s, d, (i, j, k, l) = e["src"], e["dst"], e["rect"]
            census[e["type"]] = census.get(e["type"], 0) + 1
            if (
                not (0 <= s < len(nodes) and 0 <= d < len(nodes))
                or not (1 <= i < j <= n and 1 <= k < l <= n)
                or s in invalid
                or d in invalid
            ):
                bad.add(s)
                continue
            edge_set.add((s, d))
            area = (j - i) * (l - k)
            covers[s] += area == 1
            xs_, xd = xs[s], xs[d]
            diff_ok = all(
                xs_[p][q] - xd[p][q] == (i <= p < j and k <= q < l)
                for p in range(1, n + 1)
                for q in range(1, n + 1)
            )
            if (
                not diff_ok
                or betas[d] - betas[s] != area
                or oracle.edge_type(nodes[d], i, j, k, l) != e["type"]
            ):
                bad.add(s)
        if census != self.type_census:
            problems.append(f"edge-type census {census} != reference {self.type_census}")
        images = []
        for f in (oracle.transpose, oracle.rotate180):
            image = [index.get(f(a)) for a in nodes]
            if None in image:
                problems.append(f"node set not closed under {f.__name__}")
                return expected, problems
            images.append(image)
        for s, d in edge_set:
            if any((img[s], img[d]) not in edge_set for img in images):
                bad.add(s)
        for i, a in enumerate(nodes):
            if covers[i] != oracle.lowerable_cells(a):
                bad.add(i)
        return len(bad) + max(0, expected - len(nodes)), problems


# ---------------------------------------------------------------------------
# order-a4: certificate or counterexample for every ordered pair
# ---------------------------------------------------------------------------

class Order:
    name = "order-a4"
    n = 4
    samples = 2
    #: Comparable and incomparable ordered pairs of 4x4 ASMs.
    expected = (644, 1120)

    def ops(self) -> int:
        return oracle.asm_count(self.n) ** 2

    def setup(self, pkg, seed: int):
        asms = [pkg.core.validate_asm(a) for a in sorted(oracle.iter_asms(self.n))]
        rng = random.Random(seed)
        pairs = [(a, b) for a in asms for b in asms]
        rng.shuffle(pairs)
        return [
            (a, b, rng.randrange(2**31), [rng.randrange(2**31) for _ in range(self.samples)])
            for a, b in pairs
        ]

    def task(self, pkg, pairs, clock):
        symbolic, tnn = pkg.symbolic, pkg.tnn

        def run():
            out = []
            for a, b, vseed, sample_seeds in pairs:
                try:
                    try:
                        cert = symbolic.sfl_certificate(a, b)
                    except pkg.lattice.IncomparableError:
                        m, _witness = tnn.counterexample_matrix(a, b)
                        out.append(
                            ("counterexample", m.rows, tnn.is_tnn(m), tnn.evaluate_difference(a, b, m))
                        )
                        continue
                    symbolic.verify_certificate(cert, samples=1, seed=vseed)
                    points = [tnn.random_tnn(self.n, seed=s).rows for s in sample_seeds]
                    values = [symbolic.evaluate_certificate(cert, rows) for rows in points]
                    out.append(("certificate", cert, points, values))
                except Exception as exc:  # one failed pair must not stop the rest
                    out.append(("error", repr(exc)))
            return out

        with clock:
            return run()

    def check_pair(self, a, b, result) -> bool:
        a, b = a.entries, b.entries
        kind = result[0]
        if kind == "certificate":
            _, cert, points, values = result
            return (
                oracle.leq(a, b)
                and cert.source.entries == a
                and cert.target.entries == b
                and len(cert.steps) == oracle.beta(b) - oracle.beta(a)
                and len(values) == self.samples
                and all(
                    v == oracle.monomial_value(a, m) - oracle.monomial_value(b, m) and v >= 0
                    for v, m in zip(values, points)
                )
            )
        if kind == "counterexample":
            _, rows, program_tnn, value = result
            direct = oracle.monomial_value(a, rows) - oracle.monomial_value(b, rows)
            return (
                not oracle.leq(a, b)
                and program_tnn is True
                and value == direct < 0
                and oracle.is_tnn(rows)
            )
        return False

    def check(self, pairs, output):
        problems = []
        comparable = sum(oracle.leq(a.entries, b.entries) for a, b, _, _ in pairs)
        counts = (comparable, len(pairs) - comparable)
        if counts != self.expected or len(pairs) != self.ops():
            problems.append(f"{counts} comparable/incomparable pairs, expected {self.expected}")
        failed = sum(
            not self.check_pair(a, b, result)
            for (a, b, _, _), result in zip(pairs, output)
        )
        return failed + max(0, len(pairs) - len(output)), problems


# ---------------------------------------------------------------------------
# bq-condense: B_n(q) four ways, the permanent, Dodgson and q-Dodgson
# ---------------------------------------------------------------------------

class Bq:
    name = "bq-condense"
    methods = ("bq_definition", "bq_product", "bq_qdet", "bq_recursion")
    sizes = (3, 4, 5, 6)
    numeric_per_size = 40
    q_per_size = 3

    def ops(self) -> int:
        return 8 * len(self.methods) + 2 + 1 + len(self.sizes) * (
            self.numeric_per_size + self.q_per_size
        )

    def setup(self, pkg, seed: int):
        rng = random.Random(seed)

        def draw(n):
            # The condensation quotient needs a nonsingular interior.
            while True:
                rows = [
                    [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
                    for _ in range(n)
                ]
                if oracle.det([r[1:-1] for r in rows[1:-1]]) != 0:
                    return pkg.tnn.rational_matrix(rows)

        ops = [("bq", f, n) for n in range(1, 9) for f in self.methods]
        ops += [("bq", "bq_qdet", 9), ("bq", "bq_qdet", 10), ("permanent", "unsigned_permanent_q", 8)]
        for n in self.sizes:
            ops += [("dodgson", draw(n)) for _ in range(self.numeric_per_size)]
            ops += [("q-dodgson", draw(n)) for _ in range(self.q_per_size)]
        return ops

    def task(self, pkg, ops, clock):
        poly = pkg.polynomials

        def run():
            out = []
            for op in ops:
                try:
                    if op[0] == "dodgson":
                        out.append(poly.dodgson(op[1]))
                    elif op[0] == "q-dodgson":
                        out.append((poly.q_dodgson_check(op[1]), poly.q_dodgson_divided(op[1])))
                    else:
                        out.append(getattr(poly, op[1])(op[2]))
                except Exception as exc:  # one failed identity must not stop the rest
                    out.append(exc)
            return out

        with clock:
            return run()

    @staticmethod
    def _at_one(p) -> int:
        return sum(p.terms.values())

    @staticmethod
    def _coeffs(p) -> list[int] | None:
        """Integer-exponent coefficient list of a HalfExpPoly, or None."""
        if any(t % 2 for t in p.terms):
            return None
        return oracle.coeff_list({t // 2: c for t, c in p.terms.items()})

    def check_op(self, op, result) -> bool:
        if isinstance(result, Exception):
            return False
        if op[0] == "bq":
            return self._coeffs(result) == oracle.bn_product(op[2])
        if op[0] == "permanent":
            n = op[2]
            c = self._coeffs(result)
            return (
                c is not None
                and sum(c) == factorial(n)
                and min(c) >= 0
                and c[0] == 1
                and len(c) - 1 == comb(n + 1, 3)
            )
        rows = op[1].rows
        if op[0] == "dodgson":
            return result == oracle.det(rows)
        report, divided = result
        scale, ints = oracle.scaled(rows)
        whole = oracle.bareiss_det(ints)
        interior = oracle.bareiss_det([r[1:-1] for r in ints[1:-1]])
        return (
            report.passed
            and report.scale == scale
            and report.lhs.terms == report.rhs.terms
            and self._at_one(report.lhs) == whole * interior
            and self._at_one(divided) == whole
        )

    def check(self, ops, output):
        failed = sum(not self.check_op(op, r) for op, r in zip(ops, output))
        return failed + max(0, len(ops) - len(output)), []


# ---------------------------------------------------------------------------
# census-a7: stream every 7x7 ASM once, tally beta and -1 entries
# ---------------------------------------------------------------------------

class Census:
    name = "census-a7"
    batch = 4096

    def __init__(self, n: int = 7, fingerprint: int | None = None):
        self.n = n
        if fingerprint is None:
            refs = json.loads(REFS.read_text(encoding="utf-8"))
            fingerprint = refs[f"a{n}_fingerprint"]
        self.fingerprint = fingerprint

    def ops(self) -> int:
        return oracle.asm_count(self.n)

    def setup(self, pkg, seed: int):
        return self.n

    def task(self, pkg, n, clock):
        """The per-ASM checks run between timed stretches of the stream,
        a batch at a time, so no ASM is kept past its batch."""
        lattice = pkg.lattice
        summary = {"count": 0, "beta": {}, "minus_ones": {}, "bad": 0, "fingerprint": 0}
        beta_hist, neg_hist = summary["beta"], summary["minus_ones"]
        batch = []
        stream = iter(pkg.enumeration.iter_asms(n))
        streaming = True
        while streaming:
            with clock:
                for a in stream:
                    b = lattice.beta(a)
                    neg = sum(row.count(-1) for row in a.entries)
                    beta_hist[b] = beta_hist.get(b, 0) + 1
                    neg_hist[neg] = neg_hist.get(neg, 0) + 1
                    batch.append((a.entries, b))
                    if len(batch) == self.batch:
                        break
                else:
                    streaming = False
            self._check_batch(batch, summary)
        summary["count"] = sum(beta_hist.values())
        return summary

    @staticmethod
    def _check_batch(batch, summary) -> None:
        """Count the streamed matrices that are not ASMs or whose beta is
        not (1/2) sum (i - j)^2 A(i, j), and fold them into the fingerprint."""
        summary["bad"] += sum(
            not oracle.is_asm(entries) or b != oracle.beta(entries) for entries, b in batch
        )
        fp = summary["fingerprint"] + sum(oracle.fingerprint(entries) for entries, _ in batch)
        summary["fingerprint"] = fp % oracle.FINGERPRINT_MOD
        batch.clear()

    def check(self, n, summary):
        problems = []
        expected = self.ops()
        top = comb(n + 1, 3)
        hist = summary["beta"]
        if summary["count"] != expected:
            problems.append(f"{summary['count']} ASMs, expected {expected}")
        if summary["fingerprint"] != self.fingerprint:
            problems.append("the streamed set of matrices is not the set of all ASMs")
        if summary["minus_ones"].get(0) != factorial(n):
            problems.append(f"{summary['minus_ones'].get(0)} permutation matrices, expected {factorial(n)}")
        if sorted(hist) != list(range(top + 1)) or hist[0] != 1 or hist[top] != 1:
            problems.append(f"beta runs over {min(hist)}..{max(hist)}, expected 0..{top} with one at each end")
        elif any(hist[k] != hist[top - k] for k in range(top + 1)):
            problems.append("beta distribution is not palindromic")
        failed = summary["bad"] + max(0, expected - summary["count"])
        return failed, problems


WORKLOADS = {w.name: w for w in (Graph, Order, Bq, Census)}
