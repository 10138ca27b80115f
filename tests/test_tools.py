"""The line counter in tools/src_lines.py, on a source given as text, so
no git repository is needed."""

import importlib.util
from pathlib import Path

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
