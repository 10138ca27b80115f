"""Acceptance suite: one test and one printed line per criterion.

Each criterion runs an end-to-end check from asmgraph.verify and prints
a single PASS/FAIL line (visible in plain ``pytest`` runs as well as
with ``-s``), then asserts the result and its runtime bound.
"""

import json

from asmgraph import verify
from asmgraph.cli import main
from asmgraph.core import Permutation, parse_asm_text
from asmgraph.lattice import beta_permutation


def _emit(capsys, num, result, bound):
    status = "PASS" if result.passed else "FAIL"
    line = (
        f"{status} criterion {num}: {result.name} "
        f"({result.seconds:.2f}s) - {result.details}"
    )
    with capsys.disabled():
        print(line)
    assert result.passed, result.details
    assert result.seconds < bound, f"took {result.seconds:.2f}s, bound {bound}s"


def test_criterion_1_a3_reconstruction(capsys, a3):
    assert main(["enumerate", "--n", "3"]) == 0
    out = capsys.readouterr().out
    records = {parse_asm_text(block) for block in out.split("\n\n") if block.strip()}
    assert records == set(a3.values())
    assert main(["graph", "--n", "3", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["nodes"]) == 7 and len(doc["edges"]) == 13
    _emit(capsys, 1, verify.check_a3_reconstruction(), 1.0)


def test_criterion_2_beta_table(capsys):
    assert beta_permutation(Permutation((3, 4, 1, 2))) == 8
    assert beta_permutation(Permutation((4, 2, 3, 1))) == 9
    assert beta_permutation(Permutation((4, 3, 2, 1))) == 10
    _emit(capsys, 2, verify.check_beta_table(), 1.0)


def test_criterion_3_bq_four_ways(capsys):
    _emit(capsys, 3, verify.check_bq_four_ways(), 5.0)


def test_criterion_4_order_oracle(capsys):
    result = verify.check_order_oracle()
    assert "644 comparable" in result.details
    assert "1120 incomparable" in result.details
    _emit(capsys, 4, result, 60.0)


def test_criterion_5_graded_lattice(capsys):
    result = verify.check_graded_lattice()
    assert "present [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]" in result.details
    assert "absent [16]" in result.details
    assert "84016 A6 edges, 16 of type 16" in result.details
    _emit(capsys, 5, result, 60.0)


def test_criterion_6_dodgson(capsys):
    _emit(capsys, 6, verify.check_dodgson(), 30.0)


def test_criterion_7_fulton(capsys):
    _emit(capsys, 7, verify.check_fulton(), 1.0)


def test_criterion_8_sampling_scope(capsys):
    _emit(capsys, 8, verify.check_sampling_scope(), 30.0)
