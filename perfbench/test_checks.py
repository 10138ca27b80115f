"""The benchmark's checks reject corrupted outputs.

    python3 -m pytest -q perfbench/test_checks.py

Each test runs a workload's real task on a small input, shows that the
check accepts the output, corrupts it in one place and shows that the
check rejects it.
"""

import json
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
from run import drop_program, fresh_import  # noqa: E402
from speed import Clock  # noqa: E402
from workloads import REFS, Bq, Census, Graph, Order  # noqa: E402


def program():
    drop_program()
    return fresh_import()


def test_graph_check_rejects_a_wrong_type_and_an_unknown_node():
    w = Graph(n=4, type_census=oracle.edge_type_census(4))
    pkg = program()
    argv = w.setup(pkg, 0)
    code, text = w.task(pkg, argv, Clock())
    assert w.check(argv, (code, text)) == (0, [])
    doc = json.loads(text)
    doc["edges"][7]["type"] = doc["edges"][7]["type"] % 16 + 1
    failed, problems = w.check(argv, (code, json.dumps(doc)))
    assert failed == 1
    assert problems  # the type census no longer matches either
    # An edge to a node that does not exist is a failed node, not a crash.
    doc = json.loads(text)
    doc["edges"][7]["dst"] = len(doc["nodes"])
    failed, _ = w.check(argv, (code, json.dumps(doc)))
    assert failed >= 1


def test_order_check_rejects_a_dropped_certificate_step():
    w = Order()
    pkg = program()
    pairs = w.setup(pkg, 0)[:60]
    out = w.task(pkg, pairs, Clock())
    assert all(w.check_pair(a, b, r) for (a, b, _, _), r in zip(pairs, out))
    at = next(
        i for i, r in enumerate(out) if r[0] == "certificate" and len(r[1].steps) > 1
    )
    kind, cert, points, values = out[at]
    dropped = (kind, replace(cert, steps=cert.steps[:-1]), points, values)
    a, b, _, _ = pairs[at]
    assert not w.check_pair(a, b, dropped)


def test_bq_check_rejects_a_coefficient_off_by_one():
    w = Bq()
    pkg = program()
    ops = [("bq", "bq_product", 5), ("bq", "bq_definition", 5)]
    out = w.task(pkg, ops, Clock())
    assert w.check(ops, out) == (0, [])
    terms = dict(out[1].terms)
    terms[4] += 1
    out[1] = pkg.symbolic.HalfExpPoly(terms)
    assert w.check(ops, out) == (1, [])


def census5():
    return Census(n=5, fingerprint=oracle.set_fingerprint(oracle.iter_asms(5)))


def streamed(pkg, replace_one):
    """pkg with iter_asms patched to pass the 101st ASM through replace_one,
    which returns the ASMs to yield in its place."""

    def patched(n):
        for i, a in enumerate(pkg.enumeration.iter_asms(n)):
            yield from (replace_one(a) if i == 100 else (a,))

    short = types.SimpleNamespace(**vars(pkg))
    short.enumeration = types.SimpleNamespace(iter_asms=patched)
    return short


def test_census_check_rejects_a_missing_asm():
    w = census5()
    pkg = program()
    summary = w.task(pkg, 5, Clock())
    assert w.check(5, summary) == (0, [])
    summary = w.task(streamed(pkg, lambda a: ()), 5, Clock())
    failed, problems = w.check(5, summary)
    assert failed == 1
    assert any("428 ASMs" in p for p in problems)


def test_census_check_rejects_a_transpose_in_place_of_an_asm():
    w = census5()
    pkg = program()
    swapped = []

    def transpose(a):
        t = pkg.core.validate_asm(oracle.transpose(a.entries))
        assert t.entries != a.entries
        swapped.append(t)
        return (t,)

    # Count, beta and -1 entries are unchanged; only the set differs.
    summary = w.task(streamed(pkg, transpose), 5, Clock())
    assert swapped
    failed, problems = w.check(5, summary)
    assert failed == 0
    assert problems == ["the streamed set of matrices is not the set of all ASMs"]


def test_stored_references_match_an_independent_rebuild():
    refs = json.loads(REFS.read_text(encoding="utf-8"))
    census = {int(t): c for t, c in refs["a6_edge_type_census"].items()}
    assert census == oracle.edge_type_census(6)
    assert refs["a7_fingerprint"] == oracle.set_fingerprint(oracle.iter_asms(7))


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "order-a4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
