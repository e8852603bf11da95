"""Chains are stepped by one enumerating walk and one summing pass, with no
window product, and each root's move is computed in one place.

``alcove.walk_subsets`` steps by the ``qbg.move`` of each chain position
(``chain_moves``) on doubled windows, and ``subset_stats`` reads its
subsets from that walk.  The other reader of ``chain_moves`` is the plan of
``expansions._middle``, the forward pass that sums the Chevalley heads, and
only that pass reads the plan: no third code steps along a chain.  A call
to ``typec.mul`` in ``alcove.py`` would bring a window product back into
the walk, and a ``_step`` function a second way to step.  The quantum
length change 1 - 2<rho, alpha^vee> is formed only in ``qbg.move``, so
``rho`` is called nowhere else in src/.
"""

import ast

from helpers import SRC, callers_in_src

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


def test_rho_is_called_only_in_move():
    assert callers_in_src("rho") == ["qbg.py: move"]


def test_one_walk_and_one_pass_read_the_moves():
    assert callers_in_src("chain_moves") == ["alcove.py: walk_subsets",
                                             "expansions.py: _head_plan"]
    assert callers_in_src("_head_plan") == ["expansions.py: _middle"]
    assert callers_in_src("walk_subsets") == ["alcove.py: admissible_subsets"]
