"""Only ``ring`` builds combinations, by one common-denominator rule.

Every ``DemazureCombo`` in ``src/qalcove`` comes from
``DemazureCombo.from_buckets``, which adds each symbol's buckets over the
union of their atoms (``ring.over_common``, the sum ``cancels`` decides
on) and reduces that sum once through ``RationalCoeff``.  A call to
``RationalCoeff`` in another module would be a second fold.
``ring.times_atom``, inside ``over_common``, is the one product of a bucket
and an atom: no command multiplies two ``Coeff``s.  The one-at-a-time fold
(``add_term``) and its atom polynomial (``atom_coeff``) live in
``tests/helpers.py`` as the oracle and are named nowhere in src/.

``verify`` decides and reports each identity from its summand streams, so
it names none of the display builders of ``expansions``: a builder there
would be a second description of a side.
"""

import ast
import io
from contextlib import redirect_stdout
from pathlib import Path

from helpers import flip_block_sign
from qalcove.cli import main
from qalcove.ring import Coeff

SRC = Path(__file__).resolve().parent.parent / "src" / "qalcove"
FOLD_ONLY = {"RationalCoeff"}
ORACLE_ONLY = {"add_term", "atom_coeff"}
DISPLAY_BUILDERS = {"ic_lhs", "ic_rhs_first", "ic_rhs_second",
                    "ic_rhs_cancel_free_first", "ic_rhs_conjecture_second"}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _fold_calls(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in FOLD_ONLY:
                yield f"{path.name}:{node.lineno}: {name}(...)"


def test_only_ring_folds():
    calls = {path.name: list(_fold_calls(path)) for path in sorted(SRC.glob("*.py"))}
    # ring itself makes the call, so the guard looks for the right name
    assert {c.rpartition(" ")[2] for c in calls.pop("ring.py")} == {"RationalCoeff(...)"}
    assert not [c for found in calls.values() for c in found]


def test_src_names_no_oracle():
    named = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) for node in ast.walk(_tree(path))
             if (getattr(node, "id", None) or getattr(node, "attr", None)
                 or getattr(node, "name", None)) in ORACLE_ONLY]
    assert not named, named


def _callers(node, name, where):
    """Yield the innermost function around each call of ``name``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    if isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)):
        yield where
    for child in ast.iter_child_nodes(node):
        yield from _callers(child, name, where)


def test_times_atom_is_called_only_in_over_common():
    callers = [f"{path.name}: {where}" for path in sorted(SRC.glob("*.py"))
               for where in _callers(_tree(path), "times_atom", "<module>")]
    assert callers == ["ring.py: over_common"], callers


def test_no_command_multiplies_coeffs(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Coeff product")

    monkeypatch.setattr(Coeff, "__mul__", refuse)
    runs = [["expand", "--rank", "3", "--w", "[2,-1,3]", "--k", str(k), "--sign", sign]
            for k in (1, 3) for sign in ("plus", "minus")]
    runs += [["expand", "--rank", "3", "--w", "[2,-1,3]", "--m", "2", "--xi", "1,0,-1",
              "--variant", variant, "--format", fmt] + (["--l", "2"] if variant == "conj" else [])
             for variant in ("first", "second", "cf", "conj") for fmt in ("text", "latex")]
    for argv in runs:
        with redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0, argv
        assert out.getvalue().strip(), argv
    # a failing identity shows its residual, denominators cleared
    flip_block_sign(monkeypatch)
    with redirect_stdout(io.StringIO()) as out:
        assert main(["verify", "--rank", "3", "--w", "[2,-1,3]",
                     "--variant", "first,key", "--format", "json"]) == 1
    assert '"residual"' in out.getvalue()


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
