"""Run one asmgraph benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload graph-a6 --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the program is imported from
its ``src/``.  The run sets up several times (each a fresh import of
asmgraph plus the seeded inputs) and then solves the workload's fixed
task in whole rounds until ``--seconds`` have passed, each round on a
fresh import so that no memoised value carries over.  Every round's
output is checked against independent computations, outside the timed
region.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (median
round time), ``setup_s`` (median set-up time) and ``peak_rss_mb`` (peak
resident memory at the end of the first round).  Both times are taken at
the reference speed of :mod:`speed`, which cancels the drift of a shared
machine's speed; the plain round times go to standard error.  With
``--trace 1`` each round is run twice, untraced and then traced, and the
metrics are the per-layer ones of the traced rounds plus
``trace.overhead_s``, at the reference speed too; the spans are
written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import types
from pathlib import Path

from speed import Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 9


def drop_program() -> None:
    """Forget every asmgraph module, and with them every memoised value."""
    for name in [m for m in sys.modules if m == "asmgraph" or m.startswith("asmgraph.")]:
        del sys.modules[name]
    gc.collect()


def fresh_import() -> types.SimpleNamespace:
    """Import asmgraph from this checkout's src/."""
    pkg = importlib.import_module("asmgraph")
    if Path(pkg.__file__).resolve().parent != SRC / "asmgraph":
        raise ImportError(f"asmgraph imported from {pkg.__file__}, not from {SRC}")
    importlib.import_module("asmgraph.cli")
    return types.SimpleNamespace(
        **{m: sys.modules[f"asmgraph.{m}"] for m in (
            "core", "enumeration", "lattice", "symbolic", "tnn", "polynomials", "cli",
        )}
    )


def setup(workload, seed: int):
    drop_program()
    clock = Clock()
    with clock:
        pkg = fresh_import()
        inputs = workload.setup(pkg, seed)
    return clock.reference_seconds, pkg, inputs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "asmgraph" / "__init__.py").is_file():
        print(f"error: no asmgraph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()

    setup_s = [setup(workload, args.seed)[0] for _ in range(SETUPS - 1)]
    walls, traced_walls, layer_rows = [], [], []
    attempted = failed = 0
    problems: list[str] = []
    peak = None
    tracer = None
    began = time.perf_counter()
    while True:
        for traced in ((False, True) if args.trace else (False,)):
            seconds, pkg, inputs = setup(workload, args.seed)
            setup_s.append(seconds)
            if traced:
                tracer = spans.Tracer()
                installed = spans.install(tracer)
            clock = Clock()
            output = workload.task(pkg, inputs, clock)
            if peak is None:
                peak = peak_rss_mb()
            (traced_walls if traced else walls).append(clock.reference_seconds)
            if traced:
                layer_rows.append(spans.report(tracer, installed))
            bad, found = workload.check(inputs, output)
            attempted += workload.ops()
            failed += bad
            problems += found
            print(
                f"{workload.name} round {len(walls) + len(traced_walls)}"
                f"{' traced' if traced else ''}: {clock.reference_seconds:.4f} s at"
                f" reference speed, {clock.seconds:.4f} s plain, {bad} failed"
                + "".join(f"\n  problem: {p}" for p in found),
                file=sys.stderr,
            )
            # Let the next set-up's collection free this round's caches.
            del output, inputs, pkg
        if time.perf_counter() - began >= args.seconds:
            break

    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(str(out_dir / f"{workload.name}-seed{args.seed}.spans.tsv.gz"))
        units = spans.metric_units()
        values = {k: statistics.median(row[k] for row in layer_rows) for k in units}
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    else:
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak,
        }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
