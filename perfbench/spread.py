"""Run a workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload order-a4 --seeds 1-10

For every metric it prints the median of the runs and the distance
between the first and third quartile as a share of that median, as
``statistics.quantiles(values, n=4)`` gives them, next to the bound set
in BENCHMARK.json.  Runs are made one after another, each in its own
process, with the run length from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    first, last = (int(x) for x in args.seeds.split("-"))
    values: dict[str, list[float]] = {}
    shares = set()
    for seed in range(first, last + 1):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        shares.add((result["failed"], result["attempted"], result["correct"]))
        print(f"seed {seed}: " + " ".join(
            f"{k}={m['value']:.4f}" for k, m in result["metrics"].items()
        ), flush=True)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for k, v in values.items():
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        print(f"{k:40s} median {med:.4f} spread {spread:.4f} bound {bounds.get(k)}")
    print("failed/attempted/correct per run:", sorted(shares))
    return 0


if __name__ == "__main__":
    sys.exit(main())
