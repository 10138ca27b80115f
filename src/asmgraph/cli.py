"""Command line interface.

Subcommands map one-to-one onto the library's capabilities:

    enumerate   stream or count all n x n ASMs
    graph       build the full edge graph, optionally as DOT
    leq         test the lattice order between two matrices
    beta        the rank statistic of one matrix
    chain       a saturated covering chain between two matrices
    certify     subtraction-free certificate, or a TNN counterexample
    scan        sample q-weighted locally-TNN matrices for violations
    bq          the signed generating function B_n(q), four ways
    dodgson     random trials: Dodgson against the Gaussian determinant,
                and the q-identity together with its value at q = 1
    verify-all  run the package's end-to-end verification checks

Matrix arguments accept a file path (text or JSON format) or a
permutation literal such as ``4312``.  Exit codes: 0 success (and the
order holds where one is queried), 2 usage error, 3 the relation fails
or the pair is incomparable, 1 anything else that goes wrong (silently
when the reader closes the stdout pipe early).

Each handler returns ``(exit code, JSON document, text)`` and leaves
printing to :func:`main`, which prints ``json.dumps(document)`` under
``--json`` and the text otherwise.  The streaming writers (``enumerate``
and ``graph``) write their own output and return None in place of
what they wrote.  An error exit reports on stderr through ``_fail``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from functools import cache
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .core import (
    Asm,
    AsmError,
    asm_from_json,
    asm_to_json_dict,
    format_asm_text,
    parse_asm_text,
    parse_permutation,
    permutation_to_asm,
)
from .enumeration import SizeLimitExceededError, count_asms, iter_asms
from .lattice import (
    AsmGraph,
    IncomparableError,
    asm_leq,
    beta_checked,
    build_graph,
    covering_chain,
    export_dot,
    _Table,
)
from .polynomials import BQ_METHODS
from .symbolic import certificate_to_json_dict, sfl_certificate, verify_certificate
from .tnn import (
    DEFAULT_Q_GRID,
    counterexample_matrix,
    evaluate_difference,
    qtnn_scan,
    rational_sqrt,
)
from .verify import ALL_CHECKS, _dodgson_trials, run_all


def _load_asm(spec: str) -> Asm:
    """Read a matrix from a file path or a permutation literal."""
    path = Path(spec)
    if path.is_file():
        text = path.read_text(encoding="utf-8")
        if text.lstrip().startswith("{"):
            return asm_from_json(text)
        return parse_asm_text(text)
    try:
        return permutation_to_asm(parse_permutation(spec))
    except AsmError as exc:
        raise AsmError(
            f"{spec!r} is neither a readable file nor a permutation: {exc}"
        ) from exc


def _asm_texts(asms: Iterable[Asm]) -> Iterator[str]:
    """json.dumps(asm_to_json_dict(a)) for each a, the matrix text of every
    streamed document.  Rows repeat across the matrices of one size, so
    each distinct row is encoded once."""
    row = cache(json.dumps)
    for a in asms:
        yield f'{{"n": {a.n}, "entries": [{", ".join(map(row, a.entries))}]}}'


def _write_items(chunks: Iterable[str]) -> None:
    """Write the items of a JSON list to stdout as json.dumps separates
    them; each chunk holds the text of zero or more items."""
    write = sys.stdout.write
    sep = ""
    for chunk in chunks:
        if chunk:
            write(sep)
            write(chunk)
            sep = ", "


def _edge_chunks(g: AsmGraph) -> Iterator[str]:
    """The JSON text of the edges leaving each node, one node at a time.
    An edge is its source's head, its dst and the tail of its (type,
    packed rect) pair.  Each head is formatted once, and each tail on
    its pair's first edge; one pass over the columns feeds every node."""
    tails = _Table(
        lambda pair: ', "type": %d, "rect": [%d, %d, %d, %d]}' % (pair[0], *g.bounds(pair[1]))
    )
    edges = zip(g.dst, map(tails.__getitem__, zip(g.types, g.rects)))
    offsets = g.offsets
    for src in range(len(g.nodes)):
        head = f'{{"src": {src}, "dst": '
        count = offsets[src + 1] - offsets[src]
        yield ", ".join([f"{head}{d}{tail}" for d, tail in islice(edges, count)])


def _size_kw(args: argparse.Namespace) -> dict:
    if args.limit_override is None:
        return {}
    return {"size_limit": args.limit_override or None}


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

#: A handler's (exit code, JSON document, text); see the module docstring.
_Outcome = tuple[int, object, str | None]


def _fail(code: int, message: str) -> _Outcome:
    """Report an error on stderr and exit with code, printing nothing else."""
    print(f"error: {message}", file=sys.stderr)
    return code, None, None


def cmd_enumerate(args: argparse.Namespace) -> _Outcome:
    kw = _size_kw(args)
    if args.count_only:
        count = count_asms(args.n, **kw)
        return 0, count, str(count)
    asms = iter_asms(args.n, **kw)  # the size guard fires here, before any output
    if args.json:
        sys.stdout.write("[")
        _write_items(_asm_texts(asms))
        sys.stdout.write("]\n")
    else:
        sys.stdout.writelines(format_asm_text(a) + "\n" for a in asms)
    return 0, None, None


def cmd_graph(args: argparse.Namespace) -> _Outcome:
    g = build_graph(args.n, **_size_kw(args))
    if args.json:
        sys.stdout.write(f'{{"n": {g.n}, "nodes": [')
        _write_items(_asm_texts(g.nodes))
        sys.stdout.write('], "edges": [')
        _write_items(_edge_chunks(g))
        sys.stdout.write("]}\n")
        return 0, None, None
    dot = export_dot(g)
    if args.dot:
        Path(args.dot).write_text(dot, encoding="utf-8")
        return 0, None, f"{len(g.nodes)} nodes, {g.num_edges} edges -> {args.dot}"
    sys.stdout.write(dot)
    return 0, None, None


def cmd_leq(args: argparse.Namespace) -> _Outcome:
    holds = asm_leq(_load_asm(args.a), _load_asm(args.b))
    return (0 if holds else 3), {"leq": holds}, ("true" if holds else "false")


def cmd_beta(args: argparse.Namespace) -> _Outcome:
    a = _load_asm(args.matrix)
    value = beta_checked(a)
    return 0, {"n": a.n, "beta": value}, str(value)


def cmd_chain(args: argparse.Namespace) -> _Outcome:
    a, b = _load_asm(args.a), _load_asm(args.b)
    try:
        chain = covering_chain(a, b)
    except IncomparableError as exc:
        return _fail(3, str(exc))
    doc = {"length": len(chain), "chain": [asm_to_json_dict(x) for x in chain]}
    return 0, doc, "\n".join(map(format_asm_text, chain))


def cmd_certify(args: argparse.Namespace) -> _Outcome:
    a, b = _load_asm(args.a), _load_asm(args.b)
    try:
        cert = sfl_certificate(a, b)
    except IncomparableError:
        matrix, witness = counterexample_matrix(a, b)
        value = evaluate_difference(a, b, matrix)
        doc = {
            "result": "counterexample",
            "matrix": [[str(v) for v in row] for row in matrix.rows],
            "witness": list(witness),
            "value": str(value),
        }
        text = f"COUNTEREXAMPLE\n{matrix}\nwitness cell: {witness}\ndifference value: {value}"
        return 3, doc, text
    verify_certificate(cert, seed=args.seed)
    doc = certificate_to_json_dict(cert)
    lines = ["CERTIFICATE", f"beta: {cert.beta_pair[0]} -> {cert.beta_pair[1]}", str(cert)]
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        lines.append(f"json -> {args.out}")
    return 0, doc, "\n".join(lines)


def cmd_scan(args: argparse.Namespace) -> _Outcome:
    a, b = _load_asm(args.a), _load_asm(args.b)
    report = qtnn_scan(a, b, q_grid=args.grid, samples=args.samples, seed=args.seed)
    doc = {
        "comparable": report.comparable,
        "violations": report.has_violations,
        "points": [
            {"q0": str(p.q0), "samples": p.samples, "violations": len(p.violations)}
            for p in report.results
        ],
    }
    lines = [
        f"q0={p.q0}: samples={p.samples} violations={len(p.violations)}"
        for p in report.results
    ]
    lines.append(f"comparable: {'true' if report.comparable else 'false'}")
    return (0 if report.comparable else 3), doc, "\n".join(lines)


def cmd_bq(args: argparse.Namespace) -> _Outcome:
    names = list(BQ_METHODS) if args.method == "all" else [args.method]
    kw = _size_kw(args)
    # Only the definition and the q-determinant have a size guard.
    polys = {
        name: BQ_METHODS[name](args.n, **(kw if name in ("def", "qdet") else {}))
        for name in names
    }
    if len({str(p) for p in polys.values()}) != 1:
        return _fail(1, "the methods disagree")
    poly = polys[names[0]]
    doc = {"n": args.n, "coeffs": {str(k): v for k, v in sorted(poly.coeffs_q().items())}}
    if args.method != "all":
        return 0, doc, str(poly)
    return 0, doc, "\n".join(f"{name}: {polys[name]}" for name in names)


def cmd_dodgson_verify(args: argparse.Namespace) -> _Outcome:
    if args.n < 2:
        return _fail(2, "condensation needs n >= 2")
    counts = _dodgson_trials(args.n, args.trials, random.Random(args.seed))
    summary = {"n": args.n, "trials": args.trials, **counts}
    text = " ".join(f"{k}={v}" for k, v in summary.items())
    return (0 if counts["failures"] == 0 else 1), summary, text


def cmd_verify_all(args: argparse.Namespace) -> _Outcome:
    names = None
    if args.only is not None:
        names = [s.strip() for s in args.only.split(",") if s.strip()]
        unknown = [s for s in names if s not in ALL_CHECKS]
        if unknown or not names:
            what = f"unknown checks {unknown}" if unknown else f"--only {args.only!r} names no check"
            return _fail(2, f"{what}; choose from {', '.join(ALL_CHECKS)}")
    results = run_all(seed=args.seed, names=names)
    doc = [
        {"name": r.name, "passed": r.passed, "details": r.details, "seconds": round(r.seconds, 3)}
        for r in results
    ]
    code = 0 if all(r.passed for r in results) else 1
    return code, doc, "\n".join(r.line() for r in results)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _positive_int(text: str, least: int = 1) -> int:
    """argparse type for sizes and counts: a usage error unless >= least
    (0 for ``--limit-override``, where 0 removes the guard)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < least:
        kind = "positive" if least else "non-negative"
        raise argparse.ArgumentTypeError(f"expected a {kind} integer, got {text!r}")
    return value


def _q_grid(text: str) -> tuple[Fraction, ...]:
    """argparse type for ``--grid``: a usage error unless every token is
    a positive rational with an exact rational square root."""
    grid = []
    for tok in text.split(","):
        try:
            q0 = Fraction(tok)
            rational_sqrt(q0)
        except (ValueError, ZeroDivisionError):
            q0 = 0
        if q0 <= 0:
            raise argparse.ArgumentTypeError(
                f"expected positive rational squares such as 1/4,1,4, got {tok!r}"
            )
        grid.append(q0)
    return tuple(grid)


def _flags(p: argparse.ArgumentParser, *, seed: str = "", limit: bool = False):
    """Add the shared flags that p's handler reads: ``--json``, plus
    ``--seed`` when seed is "optional" (default 0) or "required", and
    ``--limit-override`` when limit is set.  Returns the group that holds
    ``--json``, so an output option that excludes it can join."""
    if seed:
        required = seed == "required"
        p.add_argument(
            "--seed",
            type=int,
            required=required,
            default=None if required else 0,
            help="seed for any randomized step" + (" (required)" if required else ""),
        )
    if limit:
        p.add_argument(
            "--limit-override",
            type=lambda text: _positive_int(text, 0),
            metavar="N",
            help="replace the built-in size guard (0 removes it entirely)",
        )
    out = p.add_mutually_exclusive_group()
    out.add_argument("--json", action="store_true", help="emit JSON instead of text")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asmgraph",
        description="alternating sign matrices: lattice, certificates, polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream or count all n x n ASMs")
    p.add_argument("--n", type=_positive_int, required=True, help="matrix size")
    p.add_argument("--count-only", action="store_true", help="print only the count")
    _flags(p, limit=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("graph", help="the full n x n edge graph, DOT by default")
    p.add_argument("--n", type=_positive_int, required=True, help="matrix size")
    out = _flags(p, limit=True)
    out.add_argument("--dot", metavar="PATH", help="write DOT here instead of stdout")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("leq", help="is A below B in the order?")
    p.add_argument("a", help="matrix file or permutation literal")
    p.add_argument("b", help="matrix file or permutation literal")
    _flags(p)
    p.set_defaults(func=cmd_leq)

    p = sub.add_parser("beta", help="the rank statistic of A")
    p.add_argument("matrix", help="matrix file or permutation literal")
    _flags(p)
    p.set_defaults(func=cmd_beta)

    p = sub.add_parser("chain", help="a saturated covering chain from A to B")
    p.add_argument("a", help="matrix file or permutation literal")
    p.add_argument("b", help="matrix file or permutation literal")
    _flags(p)
    p.set_defaults(func=cmd_chain)

    p = sub.add_parser(
        "certify", help="subtraction-free certificate for A <= B, or a counterexample"
    )
    p.add_argument("a", help="matrix file or permutation literal")
    p.add_argument("b", help="matrix file or permutation literal")
    p.add_argument("--out", metavar="PATH", help="also write the certificate JSON here")
    _flags(p, seed="optional")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser(
        "scan", help="sample q-weighted locally-TNN matrices for sign violations"
    )
    p.add_argument("a", help="matrix file or permutation literal")
    p.add_argument("b", help="matrix file or permutation literal")
    p.add_argument(
        "--grid",
        type=_q_grid,
        default=DEFAULT_Q_GRID,
        metavar="Q0,...",
        help="comma-separated grid of positive rational squares, default 1/4,1,4",
    )
    p.add_argument(
        "--samples", type=_positive_int, default=20, help="samples per grid point"
    )
    _flags(p, seed="required")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("bq", help="the signed generating function B_n(q)")
    p.add_argument("--n", type=_positive_int, required=True, help="matrix size")
    p.add_argument(
        "--method",
        choices=sorted(BQ_METHODS) + ["all"],
        default="def",
        help="which evaluation to use",
    )
    _flags(p, limit=True)
    p.set_defaults(func=cmd_bq)

    p = sub.add_parser("dodgson", help="randomized condensation checks")
    dsub = p.add_subparsers(dest="dodgson_command", required=True)
    pv = dsub.add_parser(
        "verify", help="check the identity and its q-analogue on random matrices"
    )
    pv.add_argument("--n", type=_positive_int, required=True, help="matrix size")
    pv.add_argument("--trials", type=_positive_int, default=100, help="matrices to draw")
    _flags(pv, seed="required")
    pv.set_defaults(func=cmd_dodgson_verify)

    p = sub.add_parser("verify-all", help="run the end-to-end checks")
    p.add_argument(
        "--only",
        metavar="NAME,...",
        help="run a subset: " + ", ".join(ALL_CHECKS),
    )
    _flags(p, seed="optional")
    p.set_defaults(func=cmd_verify_all)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, doc, text = args.func(args)
        if args.json:
            text = None if doc is None else json.dumps(doc)
        if text is not None:
            print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`| head`); what is still buffered goes
        # to devnull, so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, ValueError, ZeroDivisionError) as exc:
        message = str(exc)
        if isinstance(exc, SizeLimitExceededError) and "limit_override" in args:
            message = message.replace("size_limit=None", "--limit-override 0")
        return _fail(1, message)[0]
    return code


if __name__ == "__main__":
    raise SystemExit(main())
