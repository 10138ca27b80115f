"""Re-measure the baseline rows of ROADMAP.md with one command.

    python3 perfbench/baseline.py

Each row is timed ``REPEAT`` times and the median is printed as a
Markdown table.  In-process rows run on a fresh import of asmgraph, so
no memoised value carries over from an earlier row; the tier-1 tests,
``verify-all`` and the CLI cold start run as child processes, one at a
time.
"""

import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPEAT = 3
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from run import drop_program, fresh_import  # noqa: E402


def in_process(call):
    def measure():
        drop_program()
        pkg = fresh_import()
        start = time.perf_counter()
        call(pkg)
        return time.perf_counter() - start

    return measure


def child(*args):
    def measure():
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, timeout=900
        )
        seconds = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"{args} exited {proc.returncode}: {proc.stderr[-500:]!r}")
        return seconds

    return measure


ROWS = [
    ("tier-1 pytest", child("-m", "pytest", "-q", "-p", "no:cacheprovider")),
    ("acceptance criterion 4, order oracle on A4",
     in_process(lambda p: sys.modules["asmgraph.verify"].check_order_oracle())),
    ("`asmgraph verify-all`, end to end", child("-m", "asmgraph", "verify-all")),
    ("CLI cold start (`leq 123 321`)", child("-m", "asmgraph", "leq", "123", "321")),
    ("`count_asms(6)`", in_process(lambda p: p.enumeration.count_asms(6))),
    ("`count_asms(7)`", in_process(lambda p: p.enumeration.count_asms(7))),
    ("`build_graph(5)`, 3,134 edges", in_process(lambda p: p.lattice.build_graph(5))),
    ("`build_graph(6)`, 84,016 edges", in_process(lambda p: p.lattice.build_graph(6))),
    ("`is_tnn`, random 8x8", in_process(lambda p: p.tnn.is_tnn(p.tnn.random_tnn(8, seed=0)))),
    ("`bq_qdet(10)`", in_process(lambda p: p.polynomials.bq_qdet(10))),
    ("`bq_definition(8)`", in_process(lambda p: p.polynomials.bq_definition(8))),
    ("`sfl_certificate`, identity to reverse at n=7 (56 steps)",
     in_process(lambda p: p.symbolic.sfl_certificate(p.core.identity_asm(7), p.core.reverse_asm(7)))),
]


def main() -> int:
    print(f"Python {platform.python_version()}, {os.cpu_count()} CPUs, median of {REPEAT}\n")
    print("| measurement | time |\n|---|---|")
    for label, measure in ROWS:
        seconds = statistics.median(measure() for _ in range(REPEAT))
        print(f"| {label} | {seconds:.3g} s |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
