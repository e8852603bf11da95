"""Only ``ring`` builds combinations term by term.

Every ``DemazureCombo`` in ``src/qalcove`` comes from
``DemazureCombo.folded``, the one loop that reduces each bucket through
``RationalCoeff`` and joins buckets with ``add_term``.  A call to either in
another module would be a second fold.

``verify`` decides and reports each identity from its summand streams, so
it names none of the display builders of ``expansions``: a builder there
would be a second description of a side.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qalcove"
FOLD_ONLY = {"RationalCoeff", "add_term"}
DISPLAY_BUILDERS = {"ic_lhs", "ic_rhs_first", "ic_rhs_second",
                    "ic_rhs_cancel_free_first", "ic_rhs_conjecture_second"}


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


def test_verify_names_no_display_builder():
    tree = ast.parse((SRC / "verify.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    # the guard sees the streams verify does use
    assert {"ic_lhs_term", "ic_first_summed"} <= names
    assert not names & DISPLAY_BUILDERS
