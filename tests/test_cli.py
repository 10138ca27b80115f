"""CLI behaviour: output formats, exit codes, and round trips.

Everything here drives ``main(argv)`` in-process for speed; the
subprocess tests at the end check the ``python -m`` entry point and a
stdout pipe that its reader closes early.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from asmgraph.cli import main
from asmgraph.core import (
    asm_to_json_dict,
    format_asm_text,
    parse_asm_text,
    parse_permutation,
    permutation_to_asm,
)
from asmgraph.enumeration import enumerate_asms, iter_asms
from asmgraph.lattice import build_graph
from asmgraph import polynomials, verify
from asmgraph.symbolic import (
    VerificationFailureError,
    certificate_from_json,
    verify_certificate,
)
from asmgraph.verify import check_dodgson

B3_STR = "1 - 2q + 2q^3 - q^4"
B4_STR = (
    "1 - 3q + q^2 + 4q^3 - 2q^4 - 2q^5 - 2q^6 + 4q^7 + q^8 - 3q^9 + q^10"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--count-only")
        assert code == 0
        assert out.strip() == "7"

    def test_stream_round_trip(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3")
        assert code == 0
        records = [block for block in out.split("\n\n") if block.strip()]
        parsed = {parse_asm_text(block) for block in records}
        assert parsed == set(enumerate_asms(3))

    def test_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--json")
        assert code == 0
        docs = json.loads(out)
        assert len(docs) == 7
        assert all(doc["n"] == 3 and "entries" in doc for doc in docs)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_json_is_the_dumped_list(self, capsys, n):
        """The streamed list is byte for byte json.dumps of the dicts."""
        code, out, _ = run(capsys, "enumerate", "--n", str(n), "--json")
        assert code == 0
        assert out == json.dumps([asm_to_json_dict(a) for a in iter_asms(n)]) + "\n"


class TestGraph:
    def test_dot_file(self, capsys, tmp_path):
        target = tmp_path / "a3.dot"
        code, out, _ = run(capsys, "graph", "--n", "3", "--dot", str(target))
        assert code == 0
        assert "13 edges" in out
        text = target.read_text()
        assert text.startswith("digraph")
        assert "->" in text

    def test_dot_stdout(self, capsys):
        code, out, _ = run(capsys, "graph", "--n", "2")
        assert code == 0
        assert out.startswith("digraph")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "graph", "--n", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["nodes"]) == 7
        assert len(doc["edges"]) == 13
        assert all(1 <= e["type"] <= 16 for e in doc["edges"])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_json_is_the_dumped_payload(self, capsys, n):
        """The streamed document is byte for byte json.dumps of the dict
        payload built from the edge view, plus print's newline."""
        g = build_graph(n)
        payload = {
            "n": g.n,
            "nodes": [asm_to_json_dict(a) for a in g.nodes],
            "edges": [
                {
                    "src": e.src,
                    "dst": e.dst,
                    "type": e.edge_type,
                    "rect": [e.rect.i, e.rect.j, e.rect.k, e.rect.l],
                }
                for e in g.edges
            ],
        }
        code, out, _ = run(capsys, "graph", "--n", str(n), "--json")
        assert code == 0
        assert out == json.dumps(payload) + "\n"

    def test_json_a6_digest(self, capsys):
        code, out, _ = run(capsys, "graph", "--n", "6", "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "29eb28d536206cd4376ffcd929a4b6814341fff135e711280a560b3b6f4cc2fd"
        )

    def test_dot_a4_digest(self, capsys):
        code, out, _ = run(capsys, "graph", "--n", "4")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "b72f157d34166c6233d81652bf3d1c02f3f6cc37e4ed34d7666342c399ca936b"
        )

    def test_json_and_dot_exclude_each_other(self, capsys, tmp_path):
        target = tmp_path / "a2.dot"
        code, out, err = run(capsys, "graph", "--n", "2", "--json", "--dot", str(target))
        assert code == 2
        assert out == "" and "not allowed" in err
        assert not target.exists()


class TestLeqAndBeta:
    def test_leq_literals(self, capsys):
        code, out, _ = run(capsys, "leq", "123", "321")
        assert (code, out.strip()) == (0, "true")
        code, out, _ = run(capsys, "leq", "321", "123")
        assert (code, out.strip()) == (3, "false")

    def test_leq_files(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text(format_asm_text(permutation_to_asm(parse_permutation("2143"))))
        b.write_text(format_asm_text(permutation_to_asm(parse_permutation("4321"))))
        code, out, _ = run(capsys, "leq", str(a), str(b), "--json")
        assert code == 0
        assert json.loads(out) == {"leq": True}

    def test_beta_literal(self, capsys):
        code, out, _ = run(capsys, "beta", "4321")
        assert (code, out.strip()) == (0, "10")

    def test_beta_file_json(self, capsys, tmp_path):
        x = tmp_path / "x.txt"
        x.write_text("3\n0 1 0\n1 -1 1\n0 1 0\n")
        code, out, _ = run(capsys, "beta", str(x), "--json")
        assert code == 0
        assert json.loads(out) == {"n": 3, "beta": 2}

    def test_non_integer_json_entry_is_an_error(self, capsys, tmp_path):
        x = tmp_path / "x.json"
        x.write_text(json.dumps({"n": 2, "entries": [[1.7, 0], [0, 1]]}))
        code, out, err = run(capsys, "beta", str(x))
        assert code == 1
        assert out == "" and err.startswith("error:") and "not an integer" in err

    @pytest.mark.parametrize(
        "doc", [{"n": 2, "entries": 5}, {"n": 1, "entries": [1]}, {"n": 0}]
    )
    def test_malformed_json_matrix_is_an_error(self, capsys, tmp_path, doc):
        x = tmp_path / "x.json"
        x.write_text(json.dumps(doc))
        code, out, err = run(capsys, "beta", str(x))
        assert code == 1
        assert out == "" and err.startswith("error:") and "Traceback" not in err

    def test_beta_beyond_the_permutation_guard(self, capsys):
        # beta of the 10x10 maximum is C(11, 3), counted by 165
        # bigrassmannians without walking S_10.
        code, out, _ = run(capsys, "beta", "10,9,8,7,6,5,4,3,2,1")
        assert (code, out.strip()) == (0, "165")

    def test_beta_beyond_its_own_guard_is_an_error(self, capsys):
        literal = ",".join(str(k) for k in range(29, 0, -1))
        code, out, err = run(capsys, "beta", literal)
        assert code == 1
        assert out == ""
        assert err.startswith("error: n=29 exceeds the guard (28)")
        assert "Traceback" not in err

    def test_size_mismatch_is_an_error(self, capsys):
        code, _, err = run(capsys, "leq", "123", "4321")
        assert code == 1
        assert "error" in err


class TestChain:
    def test_cover_step(self, capsys):
        code, out, _ = run(capsys, "chain", "123", "132")
        assert code == 0
        records = [b for b in out.split("\n\n") if b.strip()]
        chain = [parse_asm_text(b) for b in records]
        assert chain == [
            permutation_to_asm(parse_permutation("123")),
            permutation_to_asm(parse_permutation("132")),
        ]

    def test_full_interval_length(self, capsys):
        code, out, _ = run(capsys, "chain", "123", "321", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["length"] == 5

    def test_incomparable(self, capsys):
        code, _, err = run(capsys, "chain", "231", "312")
        assert code == 3
        assert "error" in err


class TestCertify:
    def test_comparable_with_out_file(self, capsys, tmp_path):
        target = tmp_path / "cert.json"
        code, out, _ = run(capsys, "certify", "123", "321", "--out", str(target))
        assert code == 0
        assert out.startswith("CERTIFICATE")
        assert "beta: 0 -> 4" in out
        cert = certificate_from_json(target.read_text())
        verify_certificate(cert, samples=2, seed=0)

    def test_comparable_json(self, capsys):
        code, out, _ = run(capsys, "certify", "123", "132", "--json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"endpoints", "beta", "steps"}
        assert doc["beta"] == [0, 1]
        assert len(doc["steps"]) == 1

    def test_incomparable(self, capsys):
        code, out, _ = run(capsys, "certify", "231", "312")
        assert code == 3
        assert out.startswith("COUNTEREXAMPLE")
        assert "witness cell: (2, 1)" in out
        assert "difference value: -1" in out

    def test_incomparable_json(self, capsys):
        code, out, _ = run(capsys, "certify", "231", "312", "--json")
        assert code == 3
        doc = json.loads(out)
        assert doc["result"] == "counterexample"
        assert doc["witness"] == [2, 1]
        assert doc["matrix"][0][0] == "2"


class TestScan:
    def test_requires_seed(self, capsys):
        code, _, err = run(capsys, "scan", "123", "321")
        assert code == 2

    def test_comparable_clean(self, capsys):
        code, out, _ = run(capsys, "scan", "123", "321", "--seed", "5")
        assert code == 0
        assert "comparable: true" in out
        assert all(
            line.endswith("violations=0")
            for line in out.splitlines()
            if line.startswith("q0=")
        )

    def test_incomparable_always_violated(self, capsys):
        code, out, _ = run(capsys, "scan", "231", "312", "--seed", "5", "--samples", "4")
        assert code == 3
        assert "comparable: false" in out
        for line in out.splitlines():
            if line.startswith("q0="):
                assert "samples=5" in line
                assert "violations=0" not in line

    def test_deterministic(self, capsys):
        first = run(capsys, "scan", "123", "321", "--seed", "9", "--samples", "6")
        second = run(capsys, "scan", "123", "321", "--seed", "9", "--samples", "6")
        assert first == second

    def test_custom_grid(self, capsys):
        code, out, _ = run(
            capsys, "scan", "123", "321", "--seed", "1", "--grid", "9/4,1"
        )
        assert code == 0
        assert "q0=9/4" in out and "q0=1" in out

    def test_irrational_grid_point(self, capsys):
        code, _, err = run(capsys, "scan", "123", "321", "--seed", "1", "--grid", "2")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("grid", ["abc", "1/0", "0"])
    def test_malformed_grid_is_a_usage_error(self, capsys, grid):
        code, out, err = run(capsys, "scan", "123", "321", "--seed", "1", "--grid", grid)
        assert code == 2
        assert out == "" and "--grid" in err


class TestBq:
    def test_all_methods_agree(self, capsys):
        code, out, _ = run(capsys, "bq", "--n", "3", "--method", "all")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert {line.split(": ", 1)[1] for line in lines} == {B3_STR}

    def test_single_method(self, capsys):
        code, out, _ = run(capsys, "bq", "--n", "4", "--method", "qdet")
        assert (code, out.strip()) == (0, B4_STR)

    def test_json_coeffs(self, capsys):
        code, out, _ = run(capsys, "bq", "--n", "3", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"n": 3, "coeffs": {"0": 1, "1": -2, "3": 2, "4": -1}}

    def test_disagreeing_methods_fail(self, capsys, monkeypatch):
        """One route giving another polynomial fails `--method all` with
        an error line and no output."""
        monkeypatch.setitem(polynomials.BQ_METHODS, "rec", lambda n: polynomials.bq_product(n + 1))
        code, out, err = run(capsys, "bq", "--n", "3", "--method", "all")
        assert (code, out, err) == (1, "", "error: the methods disagree\n")


class TestDodgson:
    def test_verify_summary(self, capsys):
        code, out, _ = run(
            capsys, "dodgson", "verify", "--n", "3", "--trials", "10", "--seed", "3"
        )
        assert code == 0
        assert "failures=0" in out

    def test_verify_json_counts(self, capsys):
        code, out, _ = run(
            capsys,
            "dodgson", "verify", "--n", "2", "--trials", "10", "--seed", "3", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["numeric_ok"] + doc["singular_skipped"] == 10
        assert doc["q_ok"] == 10
        assert doc["failures"] == 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_each_trial_counts_twice(self, capsys, n):
        """Each trial adds one to numeric_ok, singular_skipped or failures
        for Dodgson against det, and one to q_ok or failures for the
        q-identity."""
        code, out, _ = run(
            capsys, "dodgson", "verify", "--n", str(n), "--trials", "40", "--seed", "2", "--json"
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["numeric_ok"] + doc["singular_skipped"] + doc["q_ok"] + doc["failures"] == 80

    def test_decoding_fault_fails(self, capsys, monkeypatch):
        """A decoder that negates every coefficient keeps the two sides of
        the q-identity equal, as both come from one encoding; the left
        side's value at q = 1 against the determinants shows the fault."""
        decode = polynomials._decode
        monkeypatch.setattr(polynomials, "_decode", lambda *args: -decode(*args))
        code, out, _ = run(
            capsys, "dodgson", "verify", "--n", "4", "--trials", "20", "--seed", "1", "--json"
        )
        doc = json.loads(out)
        assert code == 1
        assert (doc["q_ok"], doc["failures"]) == (0, 20)

    def test_needs_subcommand(self, capsys):
        assert run(capsys, "dodgson")[0] == 2

    def test_small_n_rejected(self, capsys):
        code, _, err = run(
            capsys, "dodgson", "verify", "--n", "1", "--trials", "1", "--seed", "0"
        )
        assert code == 2


class TestVerifyAll:
    def test_subset(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--only", "a3,beta,fulton,scope")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert all(line.startswith("PASS") for line in lines)

    def test_subset_json(self, capsys):
        code, out, _ = run(capsys, "verify-all", "--only", "bq", "--json")
        assert code == 0
        (doc,) = json.loads(out)
        assert doc["passed"] is True

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "verify-all", "--only", "nope")
        assert code == 2
        assert "unknown" in err

    @pytest.mark.parametrize("only", ["", " , "])
    def test_only_naming_no_check_is_a_usage_error(self, capsys, only):
        code, out, err = run(capsys, "verify-all", "--only", only)
        assert code == 2
        assert out == "" and "choose from" in err

    def test_subset_uses_the_seed(self, capsys):
        code, out, _ = run(
            capsys, "verify-all", "--only", "dodgson", "--seed", "5", "--json"
        )
        assert code == 0
        (doc,) = json.loads(out)
        assert doc["details"] == check_dodgson(seed=5).details
        assert doc["details"] != check_dodgson(seed=0).details


    @pytest.fixture
    def failing_certificates(self, monkeypatch):
        def fail(*args, **kwargs):
            raise VerificationFailureError("injected failure")

        monkeypatch.setattr(verify, "verify_certificate", fail)

    def test_a_raising_check_fails_alone(self, capsys, failing_certificates):
        code, out, err = run(capsys, "verify-all", "--only", "beta,order,fulton")
        assert code == 1 and err == ""
        beta, order, fulton = out.splitlines()
        assert beta.startswith("PASS beta table S4 ")
        assert order.startswith("FAIL order oracle A4 ")
        assert order.endswith("): VerificationFailureError: injected failure")
        assert fulton.startswith("PASS fulton S5 ")

    def test_a_raising_check_fails_alone_json(self, capsys, failing_certificates):
        code, out, _ = run(capsys, "verify-all", "--only", "order,scope,bq", "--json")
        assert code == 1
        docs = json.loads(out)
        assert [d["passed"] for d in docs] == [False, False, True]
        assert docs[1]["details"] == "VerificationFailureError: injected failure"

class TestUsageAndGuards:
    def test_no_arguments(self, capsys):
        assert run(capsys)[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert run(capsys, "enumerate")[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("leq", "123", "321", "--seed", "4"),
            ("leq", "123", "321", "--limit-override", "2"),
            ("beta", "123", "--seed", "1"),
            ("chain", "123", "321", "--limit-override", "0"),
            ("certify", "123", "321", "--limit-override", "0"),
            ("scan", "123", "321", "--seed", "1", "--limit-override", "0"),
            ("enumerate", "--n", "3", "--seed", "1"),
            ("graph", "--n", "2", "--seed", "1"),
            ("bq", "--n", "3", "--seed", "1"),
            ("dodgson", "verify", "--n", "3", "--seed", "1", "--limit-override", "0"),
            ("verify-all", "--only", "a3", "--limit-override", "0"),
        ],
    )
    def test_flag_the_subcommand_does_not_read_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and "unrecognized arguments" in err

    def test_limit_override_tightens(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "3", "--limit-override", "2")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("argv", [("enumerate", "--count-only"), ("graph",), ("bq",)])
    def test_negative_limit_override_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--n", "8", "--limit-override", "-1")
        assert (code, out) == (2, "")
        assert "expected a non-negative integer, got '-1'" in err

    def test_limit_override_lifts(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--n", "3", "--count-only", "--limit-override", "0"
        )
        assert (code, out.strip()) == (0, "7")

    def test_count_only_past_the_guard(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--n", "9", "--count-only", "--limit-override", "0"
        )
        assert (code, out.strip()) == (0, "911835460")

    @pytest.mark.parametrize(
        "argv, n, limit",
        [
            (("enumerate", "--n", "8", "--count-only"), 8, 7),
            (("graph", "--n", "8"), 8, 7),
            (("bq", "--n", "10"), 10, 9),
        ],
    )
    def test_guard_error_names_the_flag(self, capsys, argv, n, limit):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == (
            f"error: n={n} exceeds the guard ({limit}); pass --limit-override 0 to override\n"
        )

    def test_bad_matrix_argument(self, capsys):
        code, _, err = run(capsys, "beta", "not-a-thing")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("spec", ["1,x", "1,,2", "x,1"])
    def test_bad_comma_list_names_the_text(self, capsys, spec):
        code, out, err = run(capsys, "beta", spec)
        assert (code, out) == (1, "")
        assert err == (
            f"error: {spec!r} is neither a readable file nor a permutation: "
            f"cannot parse permutation from {spec!r}\n"
        )

    def test_negative_trials_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "dodgson", "verify", "--n", "3", "--trials", "-5", "--seed", "0"
        )
        assert code == 2
        assert out == "" and "positive integer" in err

    def test_negative_samples_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "scan", "123", "321", "--seed", "1", "--samples", "-3"
        )
        assert code == 2
        assert out == "" and "positive integer" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("graph", "--n", "0"),
            ("enumerate", "--n", "0"),
            ("bq", "--n", "0"),
            ("dodgson", "verify", "--n", "0", "--seed", "0"),
        ],
    )
    def test_zero_size_is_a_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == "" and "positive integer" in err

    def test_non_integer_size_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "enumerate", "--n", "three")
        assert code == 2
        assert "positive integer" in err


#: The subprocesses import asmgraph from this checkout's src/, with or
#: without PYTHONPATH set for the test run.
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}


def test_python_dash_m_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "asmgraph", "enumerate", "--n", "3", "--count-only"],
        env=SUBPROCESS_ENV,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "7"


@pytest.mark.parametrize(
    "argv",
    [["enumerate", "--n", "6"], ["enumerate", "--n", "6", "--json"], ["graph", "--n", "6", "--json"]],
    ids=["text", "json", "graph-json"],
)
def test_closed_stdout_pipe_exits_1_without_an_error_line(argv):
    """`enumerate --n 6 | head -c 10`: the 7,436 matrices (or the
    84,016 edges of their graph) overfill the pipe, so the writer meets
    the closed pipe while still streaming."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "asmgraph", *argv],
        env=SUBPROCESS_ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")
