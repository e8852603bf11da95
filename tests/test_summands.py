"""The packed summand path against the Coeff path it replaced.

A summand is the ``fold_into`` entry ((symbol, atoms), packed monomial,
count) that ``_block`` yields, the translation of its affine symbol already
in the key.  ``helpers.term_block`` is ``_block`` as it was when a summand
was the 4-tuple (affine symbol, mu, packed q^k e^nu, count), and
``helpers.normalized`` turned such a summand into its entry.  Block by
block, ``_block`` must yield exactly the normalized 4-tuples.

The stream oracles run each builder with ``term_block`` in its place
(``term_stream``).  They turn each 4-tuple into a one-term Coeff and
multiply it by its ``normalize`` translation with ``Coeff.__mul__``:
``summed_oracle`` adds the products one at a time through ``add_term``,
and ``product_certificate`` compares their monomials by sign.  Neither goes
through ``DemazureCombo.folded``.

There is one summand format, so one rule puts a translation into a key:
only ``_block``, ``ic_lhs_term`` and the Chevalley sum call
``translation_key``, and no ``normalized`` converts summands.
"""

import ast
import random

import pytest

from helpers import (
    SRC,
    add_symbol,
    callers_in_src,
    monomial,
    normalized,
    term_stream,
    product_certificate,
    read_at,
    summed_oracle,
    term_block,
)
from qalcove.expansions import (
    _block,
    fold_terms,
    ic_cf_first_terms,
    ic_conj_second_terms,
    ic_first_terms,
    ic_lhs,
    ic_second_terms,
)
from qalcove.ring import EXP_MAX, EXP_MIN, DemazureCombo
from qalcove.typec import act, eps_vec, zero_vec
from qalcove.verify import _key_sides, _key_terms, cancellation_certificate


def assert_same(a, b):
    assert a == b
    assert a.to_json() == b.to_json()


def _letters(n):
    return [t for k in range(1, n + 1) for t in (k, -k)]


def check_blocks(qbg, v, rng):
    """``_block`` from v against the normalized 4-tuples of ``term_block``
    for every letter, zero and nonzero dxi, s in {1, -2}, nu absent and
    present, read at eps_t and at 0."""
    n = qbg.n
    zero = zero_vec(n)
    for t in _letters(n):
        for dxi in (zero, tuple(rng.randint(-2, 2) for _ in range(n))):
            for s in (1, -2):
                for nu in (None, act(v, eps_vec(rng.choice(_letters(n)), n))):
                    terms = list(term_block(qbg, v, t, dxi, s, nu))
                    assert list(_block(qbg, v, t, dxi, s, nu)) == list(normalized(terms))
                    assert (list(_block(qbg, v, t, dxi, s, nu, at=zero))
                            == list(normalized(read_at(terms, zero))))


@pytest.mark.parametrize("n", [2, 3])
def test_block_matches_term_block_exhaustive(n, request):
    qbg = request.getfixturevalue(f"qbg{n}")
    rng = random.Random(20 + n)
    for v in qbg.group:
        check_blocks(qbg, v, rng)


def test_block_matches_term_block_rank4_sample(qbg4):
    rng = random.Random(24)
    for v in rng.sample(qbg4.group, 24):
        check_blocks(qbg4, v, rng)


def _streams(qbg, x):
    """Every inverse-form summand builder of x = (w, xi) with its arguments,
    at every m and l."""
    for m in range(1, qbg.n + 1):
        yield ic_first_terms, (qbg, x, m)
        yield ic_second_terms, (qbg, x, m)
        yield ic_cf_first_terms, (qbg, x, m)
        for l in range(m, qbg.n + 1):
            yield ic_conj_second_terms, (qbg, x, m, l)


def check_streams(qbg, w, xi):
    """Folds and certificates of every stream of (w, xi), and ic_lhs; returns
    the certificate outcomes seen."""
    n = qbg.n
    x = (w, xi)
    outcomes = set()
    for build, args in _streams(qbg, x):
        terms, old = list(build(*args)), term_stream(build, *args)
        assert_same(fold_terms(n, terms), summed_oracle(n, old))
        got = cancellation_certificate(terms)
        assert got is product_certificate(old), (w, xi)
        outcomes.add(got)
    for m in range(1, n + 1):
        for sign, mu in (("+", eps_vec(m, n)), ("-", eps_vec(-m, n))):
            want = DemazureCombo(n)
            add_symbol(want, x, zero_vec(n), monomial(n, nu=act(w, mu)))
            assert_same(ic_lhs(qbg, x, m, sign), want)
    return outcomes


def check_key_sides(qbg, w):
    """Both key sides of w for every signed letter, from their block streams:
    the lhs at lam + eps_t, the rhs read at lam."""
    n = qbg.n
    zero = zero_vec(n)
    for t in _letters(n):
        lhs = list(term_block(qbg, w, t, zero))
        rhs = list(read_at(term_block(qbg, w, -t, zero, nu=act(w, eps_vec(t, n))), zero))
        for side, (terms, _), old in zip(_key_sides(qbg, w, t), _key_terms(qbg, w, t),
                                            (lhs, rhs)):
            assert_same(side, summed_oracle(n, old))
            assert cancellation_certificate(terms()) is product_certificate(old)


@pytest.mark.parametrize("n", [2, 3])
def test_summands_match_coeff_path_exhaustive(n, request):
    qbg = request.getfixturevalue(f"qbg{n}")
    rng = random.Random(30 + n)
    outcomes = set()
    for w in qbg.group:
        for xi in (zero_vec(n), tuple(rng.randint(-2, 2) for _ in range(n))):
            outcomes |= check_streams(qbg, w, xi)
        check_key_sides(qbg, w)
    assert outcomes == {True, False}


def test_summands_match_coeff_path_rank4_sample(qbg4):
    rng = random.Random(34)
    outcomes = set()
    for w in rng.sample(qbg4.group, 12):
        for xi in (zero_vec(4), tuple(rng.randint(-2, 2) for _ in range(4))):
            outcomes |= check_streams(qbg4, w, xi)
        check_key_sides(qbg4, w)
    assert outcomes == {True, False}


def _yielded(block):
    """The entries a block yields before it raises its "packed range" error."""
    out = []
    with pytest.raises(ValueError, match="packed range"):
        for entry in block:
            out.append(entry)
    return out


@pytest.mark.parametrize("edge", [EXP_MIN, EXP_MAX], ids=["min", "max"])
def test_summand_out_of_range_raises(qbg2, edge):
    # From v = (-1, 2) the block for the letter 1 walks subsets with
    # downs 0, eps_1, eps_1, eps_1 - eps_2, whose x_1 exponents are 0, -1,
    # -1, -1.  xi = (c, -c) has simple-coroot coordinates (c, 0), so its
    # translation x_1^{-c} sets the x_1 exponent of the whole block.
    v, t, zero = (-1, 2), 1, zero_vec(2)
    dxi = (-edge, edge)  # x_1 at the edge
    old = term_block(qbg2, v, t, dxi)
    if edge == EXP_MIN:
        # the first subset stays at the edge, the second pushes x_1 past it
        got = _yielded(_block(qbg2, v, t, dxi))
        want = _yielded(normalized(old))
        assert len(got) == 1 and got == want
        for consume, stream in ((lambda s: fold_terms(2, s), _block),
                                (lambda s: summed_oracle(2, s), term_block),
                                (cancellation_certificate, _block),
                                (product_certificate, term_block)):
            with pytest.raises(ValueError, match="packed range"):
                consume(stream(qbg2, v, t, dxi))
    else:
        # every subset lowers x_1, so the block stays in range ...
        got = list(_block(qbg2, v, t, dxi))
        assert len(got) == 4 and got == list(normalized(old))
        # ... and one step further the head is out of range at once
        past = (-edge - 1, edge + 1)
        assert _yielded(_block(qbg2, v, t, past)) == []
        assert _yielded(_block(qbg2, v, t, past, at=zero)) == []


def test_one_translation_rule():
    assert sorted(set(callers_in_src("translation_key"))) == [
        "expansions.py: _block", "expansions.py: _head_plan",
        "expansions.py: expand_to_base", "expansions.py: ic_lhs_term"]
    defined = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
    # the guard sees the names src/ does define
    assert {"_block", "fold_terms", "Buckets"} <= defined
    assert "normalized" not in defined
