"""Every function and method in src/ has a caller outside the tests.

A name counts as called when some ``ast.Name`` or ``ast.Attribute`` in
``src/qalcove/*.py`` or ``bench/*.py`` refers to it, or when
``bench/tracer.py`` wraps it by name in ``SPANS``.  A dunder method is
called through an operator or protocol, which no name shows, so it must be
a ``SPANS`` entry or listed in ``DUNDERS`` with the reason it stays; the
commands are run to see that each listed protocol is used.  Code that only
a test uses belongs in ``tests/helpers.py``.
"""

import ast
import io
from contextlib import redirect_stdout
from pathlib import Path

from helpers import flip_block_sign
from qalcove import ring, verify
from qalcove.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "qalcove").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

# The paper-lemma checks, which the acceptance suite reproduces the paper
# with, and the hook argparse calls on a rejected argument.
ALLOWED = {"reducedness_check", "pair_involution", "pair_domain",
           "collapse_check", "_Parser.error"}
# Dunders a command calls, with the command, ...
PROTOCOL = {
    "Coeff.__init__": "every numerator expand or a failing verify shows",
    "Coeff.__eq__": "a failing verify compares its sides (DemazureCombo.__eq__)",
    "Coeff.__str__": "expand and a failing verify in text",
    "RationalCoeff.__eq__": "a failing verify compares its sides",
    "RationalCoeff.__str__": "expand and a failing verify in text",
    "DemazureCombo.__init__": "from_buckets builds every combination shown",
    "DemazureCombo.__eq__": "a failing verify compares its sides",
    "DemazureCombo.__sub__": "a failing verify's residual",
    "DemazureCombo.__str__": "expand and a failing verify in text",
    "VerificationReport.__str__": "verify in text",
}
# ... and the one a SPANS entry calls.
SPANS_CALLEES = {"Coeff.__add__": "RationalCoeff.__add__ adds two numerators"}
DUNDERS = PROTOCOL | SPANS_CALLEES


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
        if qual not in spans and qual not in ALLOWED and qual not in DUNDERS
        and (name not in refs or (name.startswith("__") and name.endswith("__"))))
    assert not uncalled, uncalled


def test_every_allowed_name_exists():
    defined = {qual for path in SRC for qual, _ in _defined(_tree(path))}
    missing = (ALLOWED | set(DUNDERS)) - defined
    assert not missing, missing
    assert not set(DUNDERS) & _spans()  # a SPANS entry needs no listing


def test_commands_use_every_protocol(monkeypatch):
    """expand in text, and verify of the key identities at the identity in
    text with one flipped summand sign in ``_block``, call each ``PROTOCOL``
    dunder."""
    called = set()
    for qual in PROTOCOL:
        cls_name, _, name = qual.partition(".")
        cls = getattr(verify if cls_name == "VerificationReport" else ring, cls_name)

        def counted(*args, _orig=getattr(cls, name), _qual=qual, **kwargs):
            called.add(_qual)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)
    with redirect_stdout(io.StringIO()):
        assert main(["expand", "--rank", "2", "--k", "1"]) == 0
        flip_block_sign(monkeypatch)
        assert main(["verify", "--rank", "3", "--w", "[1,2,3]", "--variant", "key"]) == 1
    assert called == set(PROTOCOL), set(PROTOCOL) - called
