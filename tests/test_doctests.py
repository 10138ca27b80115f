"""The ``>>>`` examples in the package's docstrings, run as tests."""

import doctest
import importlib
import pkgutil

import asmgraph


def test_docstring_examples():
    modules = [asmgraph] + [
        importlib.import_module(f"asmgraph.{info.name}")
        for info in pkgutil.iter_modules(asmgraph.__path__)
    ]
    attempted = 0
    for module in modules:
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        attempted += result.attempted
    # core.py alone has 12 examples.
    assert attempted >= 12
