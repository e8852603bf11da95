"""The admissible-subset walk has one stepping code and no window product,
and each root's move is computed in one place.

``alcove.admissible_subsets`` steps by the ``qbg.move`` of each chain
position (``chain_moves``) on doubled windows, and ``subset_stats`` reads
its subsets from that walk.  A call to ``typec.mul`` in ``alcove.py`` would
bring a window product back into the walk, and a ``_step`` function a
second way to step.  The quantum length change 1 - 2<rho, alpha^vee> is
formed only in ``qbg.move``, so ``rho`` is called nowhere else in src/.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qalcove"
ALCOVE = SRC / "alcove.py"


def _names():
    imported, called, defined = set(), set(), set()
    for node in ast.walk(ast.parse(ALCOVE.read_text(), filename=str(ALCOVE))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(alias.name.rpartition(".")[2] for alias in node.names)
        elif isinstance(node, ast.Call):
            func = node.func
            called.add(getattr(func, "id", None) or getattr(func, "attr", None))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defined.add(node.name)
    return imported, called, defined


def test_walk_has_no_window_product_and_one_step():
    imported, called, defined = _names()
    # the guard sees what the walk does use
    assert "move" in imported and "doubled" in called
    assert {"admissible_subsets", "rec", "subset_stats"} <= defined
    assert "mul" not in imported
    assert "mul" not in called
    assert "_step" not in defined


def _rho_callers(node, where):
    """Yield the innermost function around each call of ``rho``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    if isinstance(node, ast.Call) and "rho" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)):
        yield where
    for child in ast.iter_child_nodes(node):
        yield from _rho_callers(child, where)


def test_rho_is_called_only_in_move():
    callers = [
        f"{path.name}: {where}"
        for path in sorted(SRC.glob("*.py"))
        for where in _rho_callers(ast.parse(path.read_text(), filename=str(path)),
                                  "<module>")]
    assert callers == ["qbg.py: move"], callers
