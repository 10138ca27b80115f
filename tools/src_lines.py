"""Count the lines and the code lines of the Python files under src/ at a
git revision, or compare two revisions.

    python tools/src_lines.py [REV]
    python tools/src_lines.py BASE REV

REV defaults to HEAD.  The files are listed with ``git ls-tree`` and read
with ``git show``, so the working tree plays no part.  Lines are newline
characters.  A code line holds a token other than a comment, NL,
NEWLINE, INDENT, DEDENT or ENDMARKER that lies outside every module,
class and function docstring.  Prints both totals, lines first, for each
revision; given two, also prints the change, as in "4,200 → 4,205 lines,
2,331 → 2,329 code lines".  ``-h`` or ``--help`` prints this text; any
other option, or more than two revisions, exits with status 2.
"""

from __future__ import annotations

import ast
import io
import subprocess
import sys
import tokenize

SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}
OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
USAGE = "usage:\n" + "\n".join(line for line in __doc__.splitlines() if line.startswith("    python "))


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout


def _docstrings(source: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, OWNERS) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                spans.append(((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of lines that hold a code token (see the module docstring)."""
    docstrings = _docstrings(source)
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in SKIPPED:
            continue
        if any(start <= token.start < end for start, end in docstrings):
            continue
        lines.add(token.start[0])
    return len(lines)


def _counts(rev: str) -> tuple[int, int]:
    """Lines and code lines of the Python files under src/ at rev."""
    paths = _git("ls-tree", "-r", "--name-only", rev, "--", "src").split()
    total = code = 0
    for path in paths:
        if path.endswith(".py"):
            source = _git("show", f"{rev}:{path}")
            total += source.count("\n")
            code += code_lines(source)
    return total, code


def main(argv: list[str]) -> int:
    if "-h" in argv or "--help" in argv:
        print(__doc__, end="")
        return 0
    options = [arg for arg in argv if arg.startswith("-")]
    if options or len(argv) > 2:
        problem = f"unknown option {options[0]}" if options else "at most two revisions"
        print(f"src_lines.py: {problem}\n{USAGE}", file=sys.stderr)
        return 2
    counts = []
    for rev in argv or ["HEAD"]:
        total, code = _counts(rev)
        print(f"src/ at {rev}: {total:,} lines, {code:,} code lines")
        counts.append((total, code))
    if len(counts) == 2:
        (base, base_code), (total, code) = counts
        print(f"{base:,} → {total:,} lines, {base_code:,} → {code:,} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
