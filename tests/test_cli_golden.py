"""Golden CLI transcripts: stdout, stderr and the exit code of fixed
invocations, pinned byte for byte in ``cli_golden.json``.

``verify-all`` prints each check's run time; the ``(N.NNs)`` field is
masked before comparing.  After a deliberate change of output, rewrite
the file with ``PYTHONPATH=src python tests/test_cli_golden.py`` and
review the diff.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from asmgraph.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

INVOCATIONS = [
    "enumerate --n 3",
    "enumerate --n 4 --json",
    "enumerate --n 5 --count-only",
    "enumerate --n 8 --count-only",
    "graph --n 4",
    "graph --n 4 --json",
    "leq 123 321",
    "leq 231 312 --json",
    "leq 321 123",
    "beta 4312",
    "beta 4312 --json",
    "beta 1,x",
    "chain 123 321",
    "chain 123 321 --json",
    "chain 231 312",
    "certify 1234 4321",
    "certify 1234 4321 --json",
    "certify 231 312",
    "certify 231 312 --json",
    "scan 123 321 --seed 1 --samples 3",
    "scan 231 312 --seed 1 --samples 3 --json",
    "bq --n 4",
    "bq --n 4 --method all",
    "bq --n 4 --json",
    "bq --n 10",
    "dodgson verify --n 3 --trials 10 --seed 3",
    "dodgson verify --n 3 --trials 10 --seed 3 --json",
    "dodgson verify --n 1 --seed 0",
    "verify-all --only a3,beta,fulton",
    "verify-all --only nope",
    "verify-all --only ,",
]

_TIMING = re.compile(r" \(\d+\.\d\ds\): ")


def transcript(invocation):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(invocation.split())
    text = out.getvalue()
    if invocation.startswith("verify-all"):
        text = _TIMING.sub(" (N.NNs): ", text)
    return {"code": code, "stdout": text, "stderr": err.getvalue()}


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_invocation():
    assert list(_golden()) == INVOCATIONS


@pytest.mark.parametrize("invocation", INVOCATIONS)
def test_transcript(invocation):
    assert transcript(invocation) == _golden()[invocation]


if __name__ == "__main__":
    doc = {invocation: transcript(invocation) for invocation in INVOCATIONS}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"{len(doc)} transcripts -> {GOLDEN}")
