"""Spans and counters recorded around asmgraph's layer boundaries.

The program has no tracing of its own, so the benchmark installs
wrappers from outside.  A wrapper must replace the function in every
namespace it is looked up from (``cli`` calls the ``build_graph`` it
imported from ``lattice``), so :func:`install` swaps every module-level
binding of the original object across the loaded ``asmgraph`` modules.

A span is (name, parent span, start, end), kept in flat arrays in
memory and written out at the end of the run.  Calls too frequent for a
span (rectangle tests, minors) only bump a counter; memoised functions
report their ``cache_info()``.
"""

from __future__ import annotations

import gzip
import sys
import time
import types
from array import array
from collections import Counter
from functools import wraps

#: Timed per-layer names: each is reported as ``<name>.s`` (time in the
#: call, nested calls of the same name counted once) and ``<name>.self_s``
#: (that time minus the time covered by child spans).
SPANS = {
    "core": ("from_corner_sum", "sign"),
    "enumeration": ("iter_asms", "enumerate_permutations"),
    "lattice": (
        "build_graph", "edges_from", "apply_rect", "classify_edge",
        "edge_between", "covering_chain", "asm_leq", "beta", "beta_permutation",
    ),
    "symbolic": ("sfl_certificate", "verify_certificate", "evaluate_certificate"),
    "tnn": (
        "is_tnn", "det", "random_tnn", "counterexample_matrix", "evaluate_difference",
    ),
    "polynomials": (
        "bq_definition", "bq_product", "bq_qdet", "bq_recursion",
        "unsigned_permanent_q", "sym_det", "dodgson", "q_dodgson_check",
    ),
    "cli": ("main",),
}
HALF_EXP_POLY = "symbolic.HalfExpPoly"
HALF_EXP_POLY_OPS = ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "divexact")

#: Per-layer metrics that are not span times, with their unit.
EXTRA = {
    "core.from_corner_sum.calls": "count",
    "core.corner_sum.misses": "count",
    "core.corner_sum.hit_ratio": "ratio",
    "lattice.edges_from.calls": "count",
    "lattice.rects_tested": "count",
    "lattice.edges_per_rect": "ratio",
    "lattice.beta.misses": "count",
    "symbolic.cert_steps": "count",
    "symbolic.HalfExpPoly.ops": "count",
    "tnn.is_tnn.calls": "count",
    "tnn.minors_evaluated": "count",
    "trace.overhead_s": "s",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in [f"{layer}.{fn}" for layer, fns in SPANS.items() for fn in fns] + [HALF_EXP_POLY]:
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(EXTRA)
    return units


class Tracer:
    """In-memory span store for one single-threaded run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("H")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.active: list[int] = []
        self.counts: Counter[str] = Counter()

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.active.append(0)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self.stack[-1])
        self.outer.append(self.active[nid] == 0)
        self.active[nid] += 1
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int, nid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.active[nid] -= 1
        self.stack.pop()

    def span(self, name: str, fn, on_result=None):
        nid = self._name_id(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, nid)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def span_generator(self, name: str, fn):
        """Each resumption of the generator is one span."""
        nid = self._name_id(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sid = self._open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(sid, nid)
                yield item

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results ------------------------------------------------------------
    def totals(self) -> dict[str, tuple[float, float, int]]:
        """name -> (time in the call, self time, number of spans)."""
        child = [0.0] * len(self.start)
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[sid] - self.start[sid]
        out = {name: [0.0, 0.0, 0] for name in self.names}
        for sid, nid in enumerate(self.name_of):
            dur = self.end[sid] - self.start[sid]
            row = out[self.names[nid]]
            if self.outer[sid]:
                row[0] += dur
            row[1] += dur - child[sid]
            row[2] += 1
        return {name: tuple(row) for name, row in out.items()}

    def write(self, path: str) -> None:
        """Spans as gzipped TSV: id, parent, name, start, end (seconds)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for sid, nid in enumerate(self.name_of):
                fh.write(
                    f"{sid}\t{self.parent[sid]}\t{self.names[nid]}\t"
                    f"{self.start[sid]:.9f}\t{self.end[sid]:.9f}\n"
                )


def _modules() -> list[types.ModuleType]:
    return [
        m for name, m in sys.modules.items()
        if m is not None and (name == "asmgraph" or name.startswith("asmgraph."))
    ]


def _rebind(original, replacement, modules) -> None:
    for m in modules:
        for attr, value in list(vars(m).items()):
            if value is original:
                setattr(m, attr, replacement)


def install(tracer: Tracer) -> dict:
    """Wrap the layer boundaries of the loaded asmgraph; returns the
    memoised originals whose cache_info() the report reads."""
    modules = _modules()
    mod = {m.__name__.rpartition(".")[2]: m for m in modules}
    core, lattice, symbolic, tnn = mod["core"], mod["lattice"], mod["symbolic"], mod["tnn"]

    def count_edges(result):
        tracer.counts["lattice.edges_found"] += len(result)

    def count_steps(result):
        tracer.counts["symbolic.cert_steps"] += len(result.steps)

    hooks = {"edges_from": count_edges, "sfl_certificate": count_steps}
    for layer, fns in SPANS.items():
        for fn_name in fns:
            original = getattr(mod[layer], fn_name)
            name = f"{layer}.{fn_name}"
            if fn_name == "iter_asms":
                wrapper = tracer.span_generator(name, original)
            else:
                wrapper = tracer.span(name, original, hooks.get(fn_name))
            _rebind(original, wrapper, modules)

    # Minors: tnn looks det up for every minor of is_tnn, so there it is
    # counted; every other namespace keeps the tnn.det span.
    tnn.det = tracer.counter("tnn.minors_evaluated", vars(tnn)["det"].__wrapped__)
    for test in ("is_essential", "is_dual_essential"):
        original = getattr(lattice, test)
        _rebind(original, tracer.counter("lattice.rects_tested", original), modules)

    poly = symbolic.HalfExpPoly
    for op in HALF_EXP_POLY_OPS:
        setattr(poly, op, tracer.span(HALF_EXP_POLY, vars(poly)[op]))

    return {"corner_sum": core.corner_sum, "beta": vars(lattice)["beta"].__wrapped__}


def report(tracer: Tracer, installed: dict) -> dict[str, float]:
    """Every per-layer metric of one traced round (0 where unexercised)."""
    units = metric_units()
    values = dict.fromkeys(units, 0)
    for name, (total, self_time, calls) in tracer.totals().items():
        values[f"{name}.s"] = total
        values[f"{name}.self_s"] = self_time
        if f"{name}.calls" in values:
            values[f"{name}.calls"] = calls
        if name == HALF_EXP_POLY:
            values[f"{name}.ops"] = calls
    for key in ("lattice.rects_tested", "tnn.minors_evaluated", "symbolic.cert_steps"):
        values[key] = tracer.counts[key]
    if values["lattice.rects_tested"]:
        values["lattice.edges_per_rect"] = (
            tracer.counts["lattice.edges_found"] / values["lattice.rects_tested"]
        )
    cs = _cache_info(installed["corner_sum"])
    if cs is not None:
        values["core.corner_sum.misses"] = cs.misses
        if cs.hits + cs.misses:
            values["core.corner_sum.hit_ratio"] = cs.hits / (cs.hits + cs.misses)
    b = _cache_info(installed["beta"])
    if b is not None:
        values["lattice.beta.misses"] = b.misses
    return values


def _cache_info(fn):
    info = getattr(fn, "cache_info", None)
    return info() if info is not None else None
