"""The line counter and the argument checks of tools/src_lines.py, on a
source given as text, so no git repository is needed, and its git
failures, in a fresh empty repository or in a directory outside one."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

# A comment line.
x = 1  # a trailing comment


class C:
    """Class docstring."""

    def f(self):
        """Function docstring,
        over two lines."""
        return """not a docstring,
        but a value"""
'''


def _tool():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_docstrings_comments_and_blanks():
    """The code lines are x = 1, class C, def f and return; a token
    counts on the line where it starts, so the string's second line is
    not one."""
    assert _tool().code_lines(SOURCE) == 4


def test_help_prints_the_usage(capsys):
    assert _tool().main(["--help"]) == 0
    assert _tool().main(["-h"]) == 0
    out = capsys.readouterr()
    assert out.out.count("python tools/src_lines.py BASE REV") == 2
    assert out.err == ""


@pytest.mark.parametrize(
    "argv, problem",
    [(["--x"], "unknown option --x"), (["HEAD", "-v"], "unknown option -v"),
     (["A", "B", "C"], "at most two revisions")],
)
def test_bad_arguments_exit_2_with_the_usage(argv, problem, capsys):
    """Checked before git is run, so no revision needs to exist."""
    assert _tool().main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines()[:2] == [f"src_lines.py: {problem}", "usage:"]
    assert "python tools/src_lines.py BASE REV" in out.err


def _git_failure(argv, capsys) -> str:
    """The reason main prints for a failed git command, after checking
    that it exits 2 with the usage and prints nothing else."""
    assert _tool().main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    first, usage = out.err.splitlines()[:2]
    assert first.startswith("src_lines.py: ") and usage == "usage:"
    assert "python tools/src_lines.py BASE REV" in out.err
    return first


def test_unknown_revision_exits_2_with_the_usage(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    monkeypatch.delenv("GIT_DIR", raising=False)
    subprocess.run(["git", "init", "-q", str(tmp_path)], check=True)
    monkeypatch.chdir(tmp_path)
    assert "no-such-rev" in _git_failure(["no-such-rev"], capsys)


def test_outside_a_work_tree_exits_2_with_the_usage(tmp_path, monkeypatch, capsys):
    """As in a git archive copy of the repository: git finds no
    repository above the directory."""
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))
    monkeypatch.delenv("GIT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    assert "not a git repository" in _git_failure([], capsys)
