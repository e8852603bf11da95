"""Only ``ring`` builds combinations term by term.

Every ``DemazureCombo`` in ``src/qalcove`` comes from
``DemazureCombo.folded``, the one loop that reduces each bucket through
``RationalCoeff`` and joins buckets with ``add_term``.  A call to either in
another module would be a second fold.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qalcove"
FOLD_ONLY = {"RationalCoeff", "add_term"}


def _fold_calls(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in FOLD_ONLY:
                yield f"{path.name}:{node.lineno}: {name}(...)"


def test_only_ring_folds():
    calls = {path.name: list(_fold_calls(path)) for path in sorted(SRC.glob("*.py"))}
    # ring itself makes both calls, so the guard looks for the right names
    assert {c.rpartition(" ")[2] for c in calls.pop("ring.py")} == {
        "RationalCoeff(...)", "add_term(...)"}
    assert not [c for found in calls.values() for c in found]
