"""Every script in demos/ runs to completion against the source tree and
prints exactly its pinned output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: sha256 of each demo's stdout.  The demos are deterministic.
STDOUT_SHA256 = {
    "01_corner_sums.py": "fe5fa55dabeb866635279825cfcd5ab5daeec29038a3e1c02cc5eac7484fbcd6",
    "02_order_and_graph.py": "a52432f74dd094af076da7aa5d932de533f879d02738dad6663d2e6d9c7f4b19",
    "03_certificates.py": "d7b7aa42d1bfad69cb6cccbda63511858c43050c17ced5c56b912b7726ac848c",
    "04_bq_polynomials.py": "18c0664f3f0404f4848e773e6a39074906e372453a64f8f7066e8d502b5bcfef",
    "05_qtnn_scan.py": "eed67f666132cd695e5e5ea267df63c65da4c54ffd90fcb3ad7dcd006b129313",
}


def test_demos_present():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    digest = hashlib.sha256(result.stdout.encode()).hexdigest()
    assert digest == STDOUT_SHA256[demo.name]
