"""Every function and method in src/ has a caller outside the tests.

A name counts as called when some ``ast.Name`` or ``ast.Attribute`` in
``src/qalcove/*.py`` or ``bench/*.py`` refers to it, or when
``bench/tracer.py`` wraps it by name in ``SPANS``.  Code that only a test
uses belongs in ``tests/helpers.py``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "qalcove").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

# The paper-lemma checks, which the acceptance suite reproduces the paper
# with, and the hook argparse calls on a rejected argument.
ALLOWED = {"reducedness_check", "pair_involution", "pair_domain",
           "collapse_check", "_Parser.error"}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _defined(tree):
    """Module-level functions by name, methods as Class.method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name


def _referenced(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _spans():
    for node in _tree(ROOT / "bench" / "tracer.py").body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "SPANS" for t in node.targets)):
            return {name for names in ast.literal_eval(node.value).values()
                    for name in names}
    raise AssertionError("bench/tracer.py defines no SPANS")


def test_every_src_function_has_a_caller():
    refs = {name for path in SRC + BENCH for name in _referenced(_tree(path))}
    spans = _spans()
    uncalled = sorted(
        f"{path.name}: {qual}"
        for path in SRC
        for qual, name in _defined(_tree(path))
        if not (name.startswith("__") and name.endswith("__"))
        and name not in refs and qual not in spans and qual not in ALLOWED)
    assert not uncalled, uncalled
