"""The docstring examples of every qalcove module run and pass."""

import doctest
import importlib
import pkgutil

import qalcove


def test_module_doctests_pass():
    attempted = 0
    for info in pkgutil.iter_modules(qalcove.__path__):
        module = importlib.import_module(f"qalcove.{info.name}")
        result = doctest.testmod(module)
        assert result.failed == 0, info.name
        attempted += result.attempted
    assert attempted >= 5
