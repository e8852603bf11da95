"""No module in src/qalcove or tests imports a name it never uses.

An imported name counts as used when some ``ast.Name`` in the same module
refers to it (annotations included), or when it is the base of a dotted
``import a.b``.  ``from __future__`` imports and imports on a line marked
``# noqa: F401`` (kept for their side effect) are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "qalcove").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never uses, in import order."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append(alias.asname or alias.name.partition(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_checker_sees_unused_and_exempt_imports():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import sys  # noqa: F401\n"
              "from json import (\n    dumps,\n    loads,  # noqa: F401\n)\n"
              "from re import compile as rx, sub\n"
              "x: rx = os.path.join(sub)\n")
    assert unused_imports(source) == ["dumps"]


def test_no_unused_imports():
    found = sorted(f"{path.relative_to(ROOT)}: {name}"
                   for path in FILES for name in unused_imports(path.read_text()))
    assert not found, found
