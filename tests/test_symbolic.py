"""Tests for monomials, SFL certificates, and q^(1/2) polynomials."""

import hashlib
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asmgraph import (
    KNOWN_ASM_COUNTS,
    AsmError,
    HalfExpPoly,
    IncomparableError,
    LaurentMonomial,
    MinorRef,
    NonExactDivisionError,
    NonSquareError,
    Rect,
    UndefinedEvaluationError,
    VerificationFailureError,
    asm_leq,
    asm_monomial,
    beta,
    certificate_from_json,
    certificate_to_json,
    combined_form,
    edge_between,
    enumerate_asms,
    evaluate_certificate,
    evaluate_certificate_q,
    identity_asm,
    monomial,
    reverse_asm,
    sfl_certificate,
    verify_certificate,
)
from asmgraph.lattice import SizeMismatchError
from asmgraph.polynomials import _decode, _kronecker, _q_weight_matrix
from asmgraph.symbolic import (
    EdgeFactorization,
    SflCertificate,
    _bordered,
    _det,
    certificate_to_json_dict,
    certificate_from_json_dict,
    step_str,
)
from asmgraph.tnn import det

F = Fraction


def _over(num, den):
    """The monomial num / den, for coefficient-1 monomials."""
    powers = dict(num.powers)
    for v, e in den.powers:
        powers[v] = powers.get(v, 0) - e
    return monomial(powers)


def _minor_value(minor, rows):
    """A MinorRef's value at a matrix, by Gaussian elimination."""
    return det([[rows[i - 1][j - 1] for j in minor.cols] for i in minor.rows])


class TestMonomials:
    def test_canonical_form(self):
        m = monomial({(1, 2): 1, (2, 1): 0, (1, 1): -1})
        assert m.powers == (((1, 1), -1), ((1, 2), 1))
        assert monomial({(1, 1): 0}) == monomial({}) == LaurentMonomial(F(1), ())

    def test_str(self):
        m = monomial({(1, 2): 1, (2, 1): 1, (2, 2): -1})
        assert str(m) == "x12 x21 x22^-1"
        assert str(monomial({})) == "1"
        assert str(monomial({(1, 1): 1}, coeff=3)) == "3 x11"
        assert str(monomial({(10, 2): 1})) == "x[10,2]"

    def test_almost_positive(self):
        assert monomial({(1, 1): -1, (2, 2): 5}).is_almost_positive()
        assert not monomial({(1, 1): -2}).is_almost_positive()
        assert not monomial({(1, 1): 1}, coeff=-1).is_almost_positive()

    def test_evaluate(self):
        m = monomial({(1, 1): 2, (1, 2): -1}, coeff=F(3, 2))
        assert m.evaluate([[F(2), F(3)], [F(1), F(1)]]) == F(3, 2) * 4 / 3

    @pytest.mark.parametrize("v", [(0, 1), (1, 0), (-1, 1), (3, 1), (1, 3)])
    def test_variable_outside_the_matrix(self, v):
        """A variable outside 1..n raises IndexError, as Asm.entry does:
        x01 does not read row -1, the last row."""
        with pytest.raises(IndexError, match=r"outside 1\.\.2"):
            monomial({v: 1}).evaluate([[2, 3], [5, 7]])

    def test_evaluate_zero_positive_power(self):
        assert monomial({(1, 1): 2}).evaluate([[F(0)]]) == 0

    def test_evaluate_zero_negative_power(self):
        with pytest.raises(UndefinedEvaluationError) as exc:
            monomial({(1, 1): -1}).evaluate([[F(0)]])
        assert exc.value.position == (1, 1)

    def test_asm_monomial_center(self, a3):
        m = asm_monomial(a3["X"])
        assert str(m) == "x12 x21 x22^-1 x23 x32"

    def test_asm_monomial_permutation(self, a3):
        assert str(asm_monomial(a3["123"])) == "x11 x22 x33"


class TestMinorRef:
    def test_validation(self):
        with pytest.raises(ValueError):
            MinorRef((2, 1), (1, 2))
        with pytest.raises(ValueError):
            MinorRef((1, 2), (1,))
        with pytest.raises(ValueError):
            MinorRef((), ())

    @pytest.mark.parametrize("rows, cols", [((0, 1), (1, 2)), ((1, 2), (0, 1)), ((-1,), (2,))])
    def test_index_below_1(self, rows, cols):
        with pytest.raises(ValueError, match="1-based"):
            MinorRef(rows, cols)

    def test_str(self):
        assert str(MinorRef((3, 4), (2, 3))) == "|x32 x33; x42 x43|"


class TestEdgeFactorization:
    def test_center_cover(self, a3):
        e = edge_between(a3["213"], a3["X"])
        f = EdgeFactorization(e.source, e.rect)
        assert str(f.prefix) == "x12 x21 x33"
        assert str(f.divisor) == "x22 x33"
        assert f.minor == MinorRef((2, 3), (2, 3))
        assert str(_over(f.prefix, f.divisor)) == "x12 x21 x22^-1"
        assert _over(f.prefix, f.divisor).is_almost_positive()

    def test_factorization_identity_numerically(self, a3):
        # x^source - x^target = prefix * minor / divisor at generic points.
        rows = [
            [F(2), F(3), F(5)],
            [F(7), F(11, 2), F(1, 3)],
            [F(4, 7), F(9), F(6)],
        ]
        for s, t in [("132", "X"), ("213", "X"), ("X", "231"), ("123", "321")]:
            e = edge_between(a3[s], a3[t])
            f = EdgeFactorization(e.source, e.rect)
            lhs = asm_monomial(a3[s]).evaluate(rows) - asm_monomial(a3[t]).evaluate(rows)
            rhs = (
                f.prefix.evaluate(rows)
                * _minor_value(f.minor, rows)
                / f.divisor.evaluate(rows)
            )
            assert lhs == rhs


class TestRowsReadOnce:
    """Each public evaluator reads its rows once, at the call, into a
    table of integer ratios by symbolic._pairs."""

    ROWS = [[F(2), F(3), F(5)], [F(7), F(11, 2), F(1, 3)], [F(4, 7), F(9), F(6)]]

    def _evaluators(self, a3):
        # The cover 123 -> 213 is one step on rows and columns 1 and 2, and
        # x^X reads no corner, so no factor of these reads cell (3, 1).
        cert = sfl_certificate(a3["123"], a3["213"])
        return (
            asm_monomial(a3["X"]).evaluate,
            lambda rows: evaluate_certificate(cert, rows),
            lambda rows: evaluate_certificate_q(cert, rows, F(9, 4)),
            lambda rows: evaluate_certificate(sfl_certificate(a3["X"], a3["X"]), rows),
        )

    @pytest.mark.parametrize(
        "bad, error", [(None, TypeError), ("x", ValueError), (float("nan"), ValueError)]
    )
    def test_malformed_unused_cell_raises_at_the_call(self, a3, bad, error):
        other = [row[:] for row in self.ROWS]
        other[2][0] = F(-1, 3)
        broken = [row[:] for row in self.ROWS]
        broken[2][0] = bad
        for evaluate in self._evaluators(a3):
            assert evaluate(other) == evaluate(self.ROWS)
            with pytest.raises(error):
                evaluate(broken)

    def test_pairs_is_called_once_per_call(self, a3, monkeypatch):
        import asmgraph.symbolic

        calls, pairs = [], asmgraph.symbolic._pairs
        monkeypatch.setattr(
            asmgraph.symbolic, "_pairs", lambda rows: calls.append(rows) or pairs(rows)
        )
        for evaluate in self._evaluators(a3):
            calls.clear()
            evaluate(self.ROWS)
            assert len(calls) == 1 and calls[0] is self.ROWS


class TestCertificates:
    def test_empty_certificate(self, a3):
        cert = sfl_certificate(a3["X"], a3["X"])
        assert cert.steps == ()
        assert str(cert) == "0"
        verify_certificate(cert)
        assert evaluate_certificate(cert, [[F(1)] * 3] * 3) == 0

    def test_incomparable(self, a3):
        with pytest.raises(IncomparableError):
            sfl_certificate(a3["231"], a3["312"])

    @pytest.mark.parametrize("lengths", [[2, 2], [4] * 4, [2, 2, 2], [3, 3], [3, 3, 4]])
    def test_matrix_of_another_size_is_rejected(self, lengths):
        """A square matrix of another size raises SizeMismatchError; rows
        that make no square matrix raise the constructor's NonSquareError,
        as every reader of rows does."""
        cert = sfl_certificate(identity_asm(3), reverse_asm(3))
        rows = [[F(1)] * k for k in lengths]
        square = all(k == len(lengths) for k in lengths)
        with pytest.raises(SizeMismatchError if square else NonSquareError):
            evaluate_certificate(cert, rows)
        with pytest.raises(SizeMismatchError if square else NonSquareError):
            evaluate_certificate_q(cert, rows, F(2))

    def test_rows_are_read_as_the_constructor_reads_them(self):
        """String and ragged rows raise the constructor's error, where an
        evaluator once read a str row as a list of digits and took
        ragged rows."""
        cert = sfl_certificate(identity_asm(2), reverse_asm(2))
        with pytest.raises(AsmError, match="row 1 '12' is not a sequence"):
            evaluate_certificate(cert, ["12", "34"])
        with pytest.raises(AsmError, match="row 1 '12' is not a sequence"):
            monomial({(2, 1): 1}).evaluate(["12", "34"])
        with pytest.raises(NonSquareError):
            monomial({(1, 1): 1}).evaluate([[2], [3, 4, 5]])
        with pytest.raises(NonSquareError):
            monomial({(1, 1): 1}).evaluate([[2, 3]])


    def test_step_count_is_beta_gap(self, a3):
        cert = sfl_certificate(a3["123"], a3["321"])
        assert len(cert.steps) == 4
        assert cert.beta_pair == (0, 4)
        report = verify_certificate(cert, samples=3, seed=11)
        assert report.steps == 4 and report.samples == 3

    def test_all_comparable_pairs_n3(self):
        asms = enumerate_asms(3)
        for a in asms:
            for b in asms:
                if asm_leq(a, b):
                    verify_certificate(sfl_certificate(a, b), samples=2, seed=5)

    def test_sample_pairs_n4(self):
        asms = enumerate_asms(4)
        lo, hi = asms[::6], asms[::7]
        checked = 0
        for a in lo:
            for b in hi:
                if asm_leq(a, b):
                    verify_certificate(sfl_certificate(a, b), samples=2, seed=1)
                    checked += 1
        assert checked > 10

    def test_str_joins_steps(self, a3):
        cert = sfl_certificate(a3["123"], a3["X"])
        assert str(cert) == " + ".join(step_str(s) for s in cert.steps)
        assert "|" in str(cert) and "/" in str(cert)

    def test_worked_5x5_chain_certificate(self, worked_5x5):
        a, b, c = worked_5x5
        cert = sfl_certificate(a, c)
        assert cert.beta_pair == (6, 8)
        assert [s.minor for s in cert.steps] == [
            MinorRef((3, 4), (2, 3)),
            MinorRef((2, 3), (1, 2)),
        ]
        verify_certificate(cert, samples=4, seed=3)

    def test_worked_5x5_combined_form(self, worked_5x5):
        a, _, c = worked_5x5
        cf = combined_form(sfl_certificate(a, c))
        assert str(cf.laurent_prefix) == (
            "x12 x22^-1 x23 x32^-1 x33^-1 x35 x43^-1 x44 x53"
        )
        assert [(str(m), str(mr)) for m, mr in cf.terms] == [
            ("x21 x32", "|x32 x33; x42 x43|"),
            ("x33 x42", "|x21 x22; x31 x32|"),
        ]

    def test_combined_form_properties(self, a3):
        # Residual monomials have nonnegative exponents and the combined
        # product still equals the monomial difference.
        import random

        for s, t in [("123", "321"), ("123", "X"), ("213", "231")]:
            cert = sfl_certificate(a3[s], a3[t])
            cf = combined_form(cert)
            assert cf.laurent_prefix.is_almost_positive()
            for m, _ in cf.terms:
                assert all(e >= 0 for _, e in m.powers)
            rng = random.Random(7)
            rows = [
                [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)]
                for _ in range(3)
            ]
            total = sum(
                (
                    m.evaluate(rows) * _minor_value(mr, rows)
                    for m, mr in cf.terms
                ),
                F(0),
            )
            lhs = asm_monomial(a3[s]).evaluate(rows) - asm_monomial(a3[t]).evaluate(rows)
            assert cf.laurent_prefix.evaluate(rows) * total == lhs

    def test_combined_form_empty(self, a3):
        cf = combined_form(sfl_certificate(a3["X"], a3["X"]))
        assert cf.laurent_prefix == monomial({}) and cf.terms == ()

    def test_steps_match_old_chain_on_all_a4_pairs(self, old_covering_chain):
        asms = enumerate_asms(4)
        for a in asms:
            for b in asms:
                if asm_leq(a, b):
                    assert sfl_certificate(a, b).steps == _old_steps(
                        old_covering_chain(a, b)
                    )

    @settings(deadline=None)
    @given(
        st.integers(min_value=0, max_value=KNOWN_ASM_COUNTS[5] - 1),
        st.integers(min_value=0, max_value=KNOWN_ASM_COUNTS[5] - 1),
    )
    def test_steps_match_old_chain_on_a5(self, old_covering_chain, i, j):
        a, b = _asms5()[i], _asms5()[j]
        if asm_leq(b, a):
            a, b = b, a
        if asm_leq(a, b):
            cert = sfl_certificate(a, b)
            assert cert.steps == _old_steps(old_covering_chain(a, b))


def _old_steps(chain):
    """Certificate steps as built before: each edge of the chain recovered
    by edge_between, then factored."""
    edges = (edge_between(lo, hi) for lo, hi in zip(chain, chain[1:]))
    return tuple(EdgeFactorization(e.source, e.rect) for e in edges)


@lru_cache(maxsize=None)
def _asms5():
    return tuple(enumerate_asms(5))


class TestVerificationFailures:
    def _cert(self, a3):
        return sfl_certificate(a3["123"], a3["321"])

    def test_wrong_beta_pair(self, a3):
        cert = self._cert(a3)
        bad = SflCertificate(cert.source, cert.target, (0, 5), cert.steps)
        with pytest.raises(VerificationFailureError, match="beta pair"):
            verify_certificate(bad)

    def test_three_item_beta_pair(self, a3):
        cert = self._cert(a3)
        bad = SflCertificate(cert.source, cert.target, (0, 4, 4), cert.steps)
        with pytest.raises(VerificationFailureError, match="beta pair"):
            verify_certificate(bad)

    def test_minor_outside_the_matrix(self, a3):
        cert = self._cert(a3)
        bad = SflCertificate(
            cert.source,
            cert.target,
            cert.beta_pair,
            (EdgeFactorization(cert.source, Rect(3, 4, 3, 4)),) + cert.steps[1:],
        )
        with pytest.raises(VerificationFailureError, match="solid") as exc:
            verify_certificate(bad)
        assert exc.value.step == 0

    def test_missing_step(self, a3):
        cert = self._cert(a3)
        bad = SflCertificate(cert.source, cert.target, cert.beta_pair, cert.steps[:-1])
        with pytest.raises(VerificationFailureError, match="steps"):
            verify_certificate(bad)

    def test_wrong_minor_fails_numerically(self, a3):
        # A wrong rectangle leads the walk off the chain, so the next step
        # is rejected exactly, before any sample point is drawn.
        cert = self._cert(a3)
        s0 = cert.steps[0]
        other = Rect(1, 2, 1, 2)
        if s0.rect == other:
            other = Rect(2, 3, 2, 3)
        bad = SflCertificate(
            cert.source,
            cert.target,
            cert.beta_pair,
            (EdgeFactorization(s0.source, other),) + cert.steps[1:],
        )
        with pytest.raises(VerificationFailureError) as exc:
            verify_certificate(bad)
        assert exc.value.step == 1
        assert exc.value.point is None

    def test_wrong_evaluator_fails_numerically(self, a3, monkeypatch):
        # The sampled pass checks the evaluator against the direct difference.
        import asmgraph.symbolic

        monkeypatch.setattr(asmgraph.symbolic, "_certificate_sum", lambda c, table: F(-1))
        with pytest.raises(VerificationFailureError, match="direct difference") as exc:
            verify_certificate(self._cert(a3), samples=1, seed=5)
        assert exc.value.step is None
        # The point is the matrix of Fractions drawn in the same order as before.
        rng = random.Random(5)
        drawn = [[F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)] for _ in range(3)]
        assert exc.value.point == drawn
        assert all(type(x) is F for row in exc.value.point for x in row)

    def test_no_samples_draw_nothing(self, a3, monkeypatch):
        import asmgraph.symbolic

        def refuse(seed):
            raise AssertionError("an RNG was built for no samples")

        monkeypatch.setattr(asmgraph.symbolic.random, "Random", refuse)
        assert verify_certificate(self._cert(a3), samples=0).samples == 0
        with pytest.raises(AssertionError, match="RNG"):
            verify_certificate(self._cert(a3), samples=1)

    def test_negative_samples_raise(self, a3):
        with pytest.raises(AsmError, match="nonnegative"):
            verify_certificate(self._cert(a3), samples=-3)

    def test_non_solid_minor_fails_structurally(self, worked_5x5):
        a, _, c = worked_5x5
        cert = sfl_certificate(a, c)
        s0 = cert.steps[0]
        r = s0.rect
        bad = SflCertificate(
            cert.source,
            cert.target,
            cert.beta_pair,
            (EdgeFactorization(s0.source, Rect(r.i, r.j + 1, r.k, r.l)),) + cert.steps[1:],
        )
        with pytest.raises(VerificationFailureError, match="solid") as exc:
            verify_certificate(bad)
        assert exc.value.step == 0

    def test_one_by_one_minor_fails_structurally(self, a3):
        # A step has no 1x1 minor, so the JSON reader rejects one.
        d = certificate_to_json_dict(self._cert(a3))
        d["steps"][0]["minor"] = {"rows": [2], "cols": [2]}
        with pytest.raises(VerificationFailureError, match="replay") as exc:
            certificate_from_json_dict(d)
        assert exc.value.step == 0

    def test_bad_ratio_fails_structurally(self, a3):
        # X has its -1 at (2, 2), a divisor corner of the point (2, 3, 2, 3).
        cert = self._cert(a3)
        bad = SflCertificate(
            cert.source,
            cert.target,
            cert.beta_pair,
            (EdgeFactorization(a3["X"], Rect(2, 3, 2, 3)),) + cert.steps[1:],
        )
        with pytest.raises(VerificationFailureError, match="almost positive") as exc:
            verify_certificate(bad)
        assert exc.value.step == 0


class TestQCertificates:
    @pytest.mark.parametrize("q", [F(1), F(1, 2), F(3), F(2, 5)])
    def test_q_telescoping_identity(self, a3, q):
        import random

        rng = random.Random(13)
        rows = [
            [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(3)]
            for _ in range(3)
        ]
        for s, t in [("123", "321"), ("123", "X"), ("132", "231"), ("X", "312")]:
            cert = sfl_certificate(a3[s], a3[t])
            got = evaluate_certificate_q(cert, rows, q)
            want = q ** beta(a3[s]) * asm_monomial(a3[s]).evaluate(rows) - q ** beta(
                a3[t]
            ) * asm_monomial(a3[t]).evaluate(rows)
            assert got == want

    def test_sum_matches_old_per_step_sum(self):
        """evaluate_certificate against the per-step sum it replaced:
        prefix * minor / divisor, the minor by Gaussian elimination."""
        import random

        rng = random.Random(29)
        asms = enumerate_asms(4)
        checked = 0
        for a in asms:
            for b in asms:
                if not asm_leq(a, b):
                    continue
                cert = sfl_certificate(a, b)
                rows = [
                    [F(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(4)]
                    for _ in range(4)
                ]
                old = sum(
                    (
                        s.prefix.evaluate(rows) * _minor_value(s.minor, rows)
                        / s.divisor.evaluate(rows)
                        for s in cert.steps
                    ),
                    F(0),
                )
                assert evaluate_certificate(cert, rows) == old
                checked += 1
        assert checked == 644

    def test_q_one_reduces_to_plain(self, a3):
        rows = [[F(3), F(1), F(2)], [F(1), F(4), F(1)], [F(2), F(1), F(5)]]
        cert = sfl_certificate(a3["123"], a3["321"])
        assert evaluate_certificate_q(cert, rows, F(1)) == evaluate_certificate(
            cert, rows
        )


def _raise_exponent(steps):
    key = next(iter(steps[2]["prefix"]))
    steps[2]["prefix"][key] += 1


def _move_divisor(steps):
    steps[1]["divisor"] = {"(1,1)": 1, "(3,3)": 1}


def _swap_steps(steps):
    steps[1], steps[2] = steps[2], steps[1]


class TestCertificateJson:
    def test_round_trip(self, worked_5x5):
        a, _, c = worked_5x5
        cert = sfl_certificate(a, c)
        text = certificate_to_json(cert)
        back = certificate_from_json(text)
        assert back == cert
        assert certificate_to_json(back) == text

    def test_schema(self, a3):
        d = certificate_to_json_dict(sfl_certificate(a3["123"], a3["X"]))
        assert set(d) == {"endpoints", "beta", "steps"}
        assert d["beta"] == [0, 2]
        for s in d["steps"]:
            assert set(s) == {"prefix", "divisor", "minor"}
            assert set(s["minor"]) == {"rows", "cols"}
            assert all(isinstance(e, int) for e in s["prefix"].values())

    def test_bad_exponent_key(self, a3):
        d = certificate_to_json_dict(sfl_certificate(a3["123"], a3["X"]))
        d["steps"][0]["prefix"] = {"x12": 1}
        with pytest.raises(AsmError) as exc:
            certificate_from_json_dict(d)
        assert isinstance(exc.value, VerificationFailureError)
        assert exc.value.step == 0

    @pytest.mark.parametrize(
        "tamper, step",
        [(_raise_exponent, 2), (_move_divisor, 1), (_swap_steps, 1)],
        ids=["prefix exponent", "divisor", "swapped steps"],
    )
    def test_tampered_step_is_named(self, a3, tamper, step):
        d = certificate_to_json_dict(sfl_certificate(a3["123"], a3["321"]))
        certificate_from_json_dict(d)
        tamper(d["steps"])
        with pytest.raises(VerificationFailureError, match="replay") as exc:
            certificate_from_json_dict(d)
        assert exc.value.step == step


def _without(key):
    return lambda d: {k: v for k, v in d.items() if k != key}


def _with(key, value):
    return lambda d: {**d, key: value}


@pytest.mark.parametrize(
    "reshape",
    [
        _without("endpoints"),
        _without("beta"),
        _with("beta", 4),
        _with("steps", 4),
        lambda d: {**d, "endpoints": d["endpoints"][:1]},
        _with("beta", [0, 4, 5]),
        _with("beta", "03"),
        _with("beta", [0.5, 4]),
        _with("beta", ["0", "4"]),
        _with("beta", [True, 4]),
        lambda d: [d],
        lambda d: None,
        lambda d: "steps",
    ],
    ids=[
        "no endpoints",
        "no beta",
        "int beta",
        "int steps",
        "one endpoint",
        "3-item beta",
        "string beta",
        "float beta",
        "string items beta",
        "bool beta",
        "list",
        "null",
        "string",
    ],
)
def test_malformed_certificate_document(a3, reshape):
    d = certificate_to_json_dict(sfl_certificate(a3["123"], a3["321"]))
    with pytest.raises(VerificationFailureError, match="not a certificate"):
        certificate_from_json_dict(reshape(d))


@lru_cache(maxsize=None)
def _a4_certificates():
    """Certificates of the comparable ordered A4 pairs, in enumerate_asms(4) order."""
    asms = enumerate_asms(4)
    return tuple(sfl_certificate(a, b) for a in asms for b in asms if asm_leq(a, b))


def _sha256(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestFrozenA4Certificates:
    """The JSON and text of every A4 certificate, frozen by digest."""

    def test_json_digest(self):
        certs = _a4_certificates()
        assert len(certs) == 644
        assert _sha256(map(certificate_to_json, certs)) == (
            "b713cecfa140fb9dd356061e787810e972a0e710d7a9258758d9874611dfdf39"
        )

    def test_str_digest(self):
        assert _sha256(map(str, _a4_certificates())) == (
            "3fe0af23daeab4120ec5ab2aae41e9aaa1104407672b308afd67ef9e7f4e73de"
        )

    def test_combined_form_digest(self):
        lines = (
            f"{c.laurent_prefix} | " + " + ".join(f"{m} * {r}" for m, r in c.terms)
            for c in map(combined_form, _a4_certificates())
        )
        assert _sha256(lines) == (
            "065e22f7ec2a8b3b5998238d4f8aaecc85778ac62a2a5a5dd0430906a8562da6"
        )

    def test_every_certificate_reads_back_to_itself(self):
        for cert in _a4_certificates():
            assert certificate_from_json(certificate_to_json(cert)) == cert


_A4_POINTS = tuple(Rect(i, i + 1, k, k + 1) for i in range(1, 4) for k in range(1, 4))


def _with_steps(cert, steps):
    return SflCertificate(cert.source, cert.target, cert.beta_pair, tuple(steps))


class TestExactVerdict:
    """With no sample points the chain walk alone decides every A4 certificate."""

    def test_valid_certificates_pass(self):
        for cert in _a4_certificates():
            assert verify_certificate(cert, samples=0).steps == len(cert.steps)

    def test_every_other_point_is_rejected(self):
        cases = 0
        for cert in _a4_certificates():
            for t, s in enumerate(cert.steps):
                for r in _A4_POINTS:
                    if r == s.rect:
                        continue
                    steps = list(cert.steps)
                    steps[t] = EdgeFactorization(s.source, r)
                    with pytest.raises(VerificationFailureError):
                        verify_certificate(_with_steps(cert, steps), samples=0)
                    cases += 1
        assert cases == 17360

    def test_adjacent_swaps_are_rejected_at_the_swap(self):
        cases = 0
        for cert in _a4_certificates():
            for t in range(len(cert.steps) - 1):
                steps = list(cert.steps)
                steps[t], steps[t + 1] = steps[t + 1], steps[t]
                with pytest.raises(VerificationFailureError) as exc:
                    verify_certificate(_with_steps(cert, steps), samples=0)
                assert exc.value.step == t
                cases += 1
        assert cases == 1568


def test_weighted_solid_minor_is_the_q_minor(laplace_det):
    """The 2x2 solid block of (q^((p-c)^2/2) x_pc) at a point (i, k) has
    determinant q^((i-k)^2) (x_ik x_(i+1)(k+1) - q x_i(k+1) x_(i+1)k), so a
    step's q-deformed minor is its weighted minor up to a power of q.  With
    the exact chain walk of verify_certificate this gives the comparable
    half of the qTNN claim for every q > 0."""
    import random

    rng = random.Random(3)
    c, q = HalfExpPoly.const, HalfExpPoly.q_pow(1)
    for i in range(1, 6):
        for k in range(1, 6):
            for _ in range(5):
                x = {(p, r): rng.randint(-9, 9) for p in (i, i + 1) for r in (k, k + 1)}
                block = [
                    [HalfExpPoly.q_pow_twice((p - r) ** 2, x[p, r]) for r in (k, k + 1)]
                    for p in (i, i + 1)
                ]
                q_minor = c(x[i, k] * x[i + 1, k + 1]) - q * c(x[i, k + 1] * x[i + 1, k])
                expected = HalfExpPoly.q_pow((i - k) ** 2) * q_minor
                assert laplace_det(block, HalfExpPoly.one()) == expected


def _polys(max_terms=5):
    return st.dictionaries(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=-5, max_value=5),
        max_size=max_terms,
    ).map(HalfExpPoly)


def _monomials():
    return st.builds(
        HalfExpPoly.q_pow_twice,
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=-5, max_value=5).filter(bool),
    )


# The ring operations as first written, kept as the oracle of the one-pass
# forms: each fills a dict in full and drops its zeros afterwards (the
# constructor drops them in order, as the old filter did).
def _old_add(p, r):
    out = dict(p.terms)
    for t, c in r.terms.items():
        out[t] = out.get(t, 0) + c
    return HalfExpPoly(out)


def _old_sub(p, r):
    return _old_add(p, -r)


def _old_mul(p, r):
    out = {}
    for t1, c1 in p.terms.items():
        for t2, c2 in r.terms.items():
            t = t1 + t2
            out[t] = out.get(t, 0) + c1 * c2
    return HalfExpPoly(out)


def _old_pow(p, k):
    result, base = HalfExpPoly.one(), p
    while k:
        if k & 1:
            result = _old_mul(result, base)
        base = _old_mul(base, base)
        k >>= 1
    return result


_P = HalfExpPoly({4: 2, 0: -1, 7: 3})  # not in exponent order, so order shows
_M = HalfExpPoly.q_pow_twice(3, -2)
_Z = HalfExpPoly.zero()


class TestRingOracle:
    """The one-pass ring operations against the bodies they replaced, on
    the terms and on their order, which repr shows."""

    @staticmethod
    def _assert_as_old(p, r, k=3):
        for new, old in (
            (p + r, _old_add(p, r)),
            (p - r, _old_sub(p, r)),
            (p * r, _old_mul(p, r)),
            (p**k, _old_pow(p, k)),
        ):
            assert list(new.terms.items()) == list(old.terms.items())

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(_polys(), _monomials()),
        st.one_of(_polys(), _monomials()),
        st.integers(min_value=0, max_value=5),
    )
    def test_matches_the_old_bodies(self, p, r, k):
        self._assert_as_old(p, r, k)

    @pytest.mark.parametrize(
        "p, r",
        [(_Z, _Z), (_Z, _P), (_P, _Z), (_Z, _M), (_M, _Z), (_M, _P), (_P, _M), (_M, _M), (_P, -_P)],
    )
    def test_zero_and_one_term_operands(self, p, r):
        self._assert_as_old(p, r)

    def test_one_term_product_shifts_in_order(self):
        assert list((_M * _P).terms.items()) == [(7, -4), (3, 2), (10, -6)]
        assert list((_P * _M).terms.items()) == [(7, -4), (3, 2), (10, -6)]

    def test_exact_cancellation(self):
        for zero in (_P - _P, _P + (-_P), _P * HalfExpPoly.const(-1) + _P):
            assert zero.terms == {}
            assert zero == _old_sub(_P, _P) == _Z
        partial = _P + HalfExpPoly({0: 1, 9: 1})
        assert list(partial.terms.items()) == [(4, 2), (7, 3), (9, 1)]
        assert list((_P - HalfExpPoly({4: 2})).terms.items()) == [(0, -1), (7, 3)]


class TestHalfExpPoly:
    def test_constructors(self):
        assert HalfExpPoly.zero().is_zero()
        assert HalfExpPoly.one() == HalfExpPoly.const(1)
        assert HalfExpPoly.q_pow(3) == HalfExpPoly.q_pow_twice(6)
        assert HalfExpPoly({0: 0}).is_zero()
        with pytest.raises(AsmError):
            HalfExpPoly({0: 1.5})
        with pytest.raises(AsmError):
            HalfExpPoly({1.5: 1})

    @pytest.mark.parametrize("terms", [{0: True}, {True: 1}, {0: None}])
    def test_rejects_bools_and_none(self, terms):
        with pytest.raises(AsmError, match="need integer exponent/coefficient"):
            HalfExpPoly(terms)

    @settings(max_examples=60, deadline=None)
    @given(_polys(), _polys())
    def test_ring_results_hold_the_constructor_invariant(self, p, r):
        for result in (p + r, p - r, -p, p * r, (p * r).divexact(r) if r.terms else p):
            assert all(type(t) is int and type(c) is int and c for t, c in result.terms.items())
            assert HalfExpPoly(result.terms) == result

    def test_hash_ignores_term_order(self):
        p, r = HalfExpPoly({4: 2, 0: -1, 7: 3}), HalfExpPoly({7: 3, 0: -1, 4: 2})
        assert list(p.terms) != list(r.terms)
        assert p == r and hash(p) == hash(r)
        assert len({p, r, HalfExpPoly({0: -1}) + HalfExpPoly({4: 2, 7: 3})}) == 1

    def test_str(self):
        assert str(HalfExpPoly.zero()) == "0"
        assert str(HalfExpPoly({0: 1, 2: -2, 6: 2, 8: -1})) == "1 - 2q + 2q^3 - q^4"
        assert str(HalfExpPoly({1: 1})) == "q^(1/2)"
        assert str(HalfExpPoly({3: -2})) == "-2q^(3/2)"
        assert str(HalfExpPoly({2: 1})) == "q"
        assert str(HalfExpPoly({4: 5})) == "5q^2"

    def test_queries(self):
        p = HalfExpPoly({0: 1, 2: -3, 5: 2})
        assert p.degree_twice == 5
        assert p.coefficient_q(1) == -3
        assert not p.has_integer_exponents()
        with pytest.raises(AsmError):
            p.coeffs_q()
        even = HalfExpPoly({0: 1, 4: 7})
        assert even.coeffs_q() == {0: 1, 2: 7}
        with pytest.raises(ValueError):
            HalfExpPoly.zero().degree_twice

    def test_evaluate(self):
        p = HalfExpPoly({1: 1, 2: 2})  # q^(1/2) + 2q
        assert p.evaluate_sqrt(F(3)) == 3 + 18
        q_only = HalfExpPoly({2: 1, 4: 1})
        assert q_only.evaluate_q(F(1, 2)) == F(1, 2) + F(1, 4)
        with pytest.raises(AsmError):
            p.evaluate_q(F(2))

    def test_divexact(self):
        one_minus_q = HalfExpPoly({0: 1, 2: -1})
        geom = HalfExpPoly({0: 1, 2: 1, 4: 1})
        assert (one_minus_q * geom).divexact(one_minus_q) == geom
        with pytest.raises(NonExactDivisionError):
            HalfExpPoly({0: 1, 4: 1}).divexact(HalfExpPoly({0: 1, 2: 1}))
        with pytest.raises(NonExactDivisionError):
            HalfExpPoly({0: 1, 2: 1}).divexact(HalfExpPoly.const(2))
        # The first leading step divides (2q^2 / 2q = q); the next leaves
        # 1/2, so the rational quotient q + 1/2 is not integral.
        with pytest.raises(NonExactDivisionError):
            HalfExpPoly({0: 1, 2: 3, 4: 2}).divexact(HalfExpPoly({0: 2, 2: 2}))
        with pytest.raises(ZeroDivisionError):
            HalfExpPoly.one().divexact(HalfExpPoly.zero())

    def test_pow(self):
        p = HalfExpPoly({0: 1, 2: 1})
        assert p**0 == HalfExpPoly.one()
        assert p**3 == p * p * p
        with pytest.raises(ValueError):
            p ** (-1)

    @settings(max_examples=60)
    @given(_polys(), _polys(), _polys())
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a - b) + b == a
        assert a * HalfExpPoly.one() == a

    @settings(max_examples=40)
    @given(_polys(), _polys())
    def test_divexact_inverts_mul(self, a, b):
        if b.is_zero():
            return
        assert (a * b).divexact(b) == a

    @settings(max_examples=40)
    @given(_polys(), _polys(), st.integers(min_value=-3, max_value=3))
    def test_evaluation_is_ring_hom(self, a, b, s):
        s = F(s)
        assert (a * b).evaluate_sqrt(s) == a.evaluate_sqrt(s) * b.evaluate_sqrt(s)
        assert (a + b).evaluate_sqrt(s) == a.evaluate_sqrt(s) + b.evaluate_sqrt(s)


@st.composite
def _fraction_matrices(draw, max_n):
    n = draw(st.integers(min_value=1, max_value=max_n))
    entries = st.one_of(
        st.just(F(0)), st.fractions(min_value=-5, max_value=5, max_denominator=6)
    )
    row = st.lists(entries, min_size=n, max_size=n)
    return draw(st.lists(row, min_size=n, max_size=n))


def _submatrix(rows, rmask, cmask):
    n = len(rows)
    return [
        [rows[r][c] for c in range(n) if cmask >> c & 1]
        for r in range(n)
        if rmask >> r & 1
    ]


class TestMinorKernel:
    """The Laplace minor kernel against Gaussian elimination."""

    @settings(max_examples=80, deadline=None)
    @given(_fraction_matrices(max_n=6), st.data())
    def test_det_matches_gaussian(self, laplace_det, rows, data):
        n = len(rows)
        assert laplace_det(rows, F(1)) == det(rows)
        k = data.draw(st.integers(min_value=1, max_value=n))
        picks = st.lists(
            st.integers(1, n), min_size=k, max_size=k, unique=True
        ).map(lambda xs: tuple(sorted(xs)))
        picked_rows, picked_cols = data.draw(picks), data.draw(picks)
        sub = [[rows[i - 1][j - 1] for j in picked_cols] for i in picked_rows]
        assert laplace_det(sub, F(1)) == det(sub)

    @settings(max_examples=60, deadline=None)
    @given(_fraction_matrices(max_n=4))
    def test_every_row_set_holds_every_minor(self, all_minors, rows):
        n = len(rows)
        seen = []
        for rmask, table in all_minors(rows, F(1)):
            seen.append(rmask)
            assert all(v != 0 for v in table.values())
            for cmask in range(1 << n):
                if cmask.bit_count() == rmask.bit_count():
                    expected = det(_submatrix(rows, rmask, cmask))
                    assert table.get(cmask, 0) == expected
        assert sorted(seen) == list(range(1 << n))


def _int_matrices(max_n):
    """Square int matrices with entries in -2..2: many zero pivots, row
    swaps and singular matrices."""
    return st.integers(min_value=0, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(min_value=-2, max_value=2), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


def _check_bordered(rows, keep, laplace_det):
    """_bordered(rows, keep) against Laplace determinants: the leading
    minor, and each bordered minor unless the leading minor is 0, when
    the block must be None.  Returns the leading minor."""
    lead = len(rows) - keep
    leading, block = _bordered(rows, keep)
    assert leading == laplace_det([row[:lead] for row in rows[:lead]], 1)
    if leading == 0:
        assert block is None
        return leading
    for r in range(keep):
        for c in range(keep):
            sub = [row[:lead] + [row[lead + c]] for row in [*rows[:lead], rows[lead + r]]]
            assert block[r][c] == laplace_det(sub, 1)
    return leading


class TestElimination:
    """Fraction-free elimination against the Laplace kernel and Gaussian
    elimination; a division that is not exact floors, and fails here."""

    @settings(max_examples=300, deadline=None)
    @given(_int_matrices(max_n=7))
    def test_matches_laplace_and_gaussian(self, laplace_det, rows):
        assert _det(rows) == laplace_det(rows, 1) == det(rows)

    def test_swaps_at_the_first_and_a_later_step(self, laplace_det):
        # Step 0 finds (1, 1) zero and swaps rows 1 and 2; step 1 finds
        # the 2-minor on rows 1, 2 and columns 1, 2 zero and swaps in row 4.
        rows = [[0, 0, 1, 2], [1, 2, 0, 1], [2, 4, 1, 3], [1, 3, 2, 1]]
        assert _det(rows) == laplace_det(rows, 1) == det(rows) == 1

    @settings(max_examples=60, deadline=None)
    @given(_int_matrices(max_n=6))
    def test_q_weighted_kronecker_encodings(self, laplace_det, rows):
        weighted = _q_weight_matrix(rows)
        encoded, width, low = _kronecker(weighted)
        value = _det(encoded)
        assert value == laplace_det(encoded, 1)
        assert _decode(value, width, len(rows) * low) == laplace_det(weighted, HalfExpPoly.one())

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bordered_matches_laplace(self, laplace_det, data):
        keep = data.draw(st.integers(min_value=0, max_value=2))
        rows = data.draw(
            _int_matrices(max_n=7).filter(lambda rows: len(rows) >= keep)
        )
        _check_bordered(rows, keep, laplace_det)

    @pytest.mark.parametrize(
        "rows, keep, leading",
        [
            # (1, 1) is zero, so step 0 swaps leading rows 1 and 2.
            ([[0, 1, 1], [2, 1, 0], [1, 1, 1]], 1, -2),
            ([[0, 1, 1, 2], [2, 1, 0, 1], [1, 1, 1, 0], [3, 0, 1, 1]], 2, -2),
            # No leading row has a nonzero first entry, but a border row
            # does: it must not become the pivot.
            ([[0, 1, 1], [0, 2, 2], [1, 0, 0]], 1, 0),
            ([[0, 1, 5], [0, 2, 1], [1, 0, 0]], 1, 0),
            # Singular only at step 1, after a pivot was found.
            ([[1, 2, 0, 1], [2, 4, 1, 0], [0, 1, 1, 1], [1, 0, 1, 2]], 2, 0),
        ],
    )
    def test_bordered_swaps_and_singular_leading_blocks(self, laplace_det, rows, keep, leading):
        assert _check_bordered(rows, keep, laplace_det) == leading
