"""The packed summand path against the Coeff path it replaced.

A summand is (affine symbol, mu, packed q^k e^nu, count).  ``fold_terms``
and ``cancellation_certificate`` read it through ``normalized``, which adds
the translation's packed key to the summand's.  The oracles turn each
summand into a one-term Coeff and multiply it by its ``normalize``
translation with ``Coeff.__mul__``: ``summed_oracle`` adds the products one
at a time through ``add_term``, and ``product_certificate`` compares their
monomials by sign.  Neither goes through ``DemazureCombo.folded``.
"""

import random

import pytest

from helpers import add_symbol, monomial, product_certificate, summed_oracle
from qalcove.expansions import (
    _block,
    fold_terms,
    ic_cf_first_terms,
    ic_conj_second_terms,
    ic_first_terms,
    ic_lhs,
    ic_second_terms,
)
from qalcove.ring import EXP_MAX, EXP_MIN, DemazureCombo, pack
from qalcove.typec import act, eps_vec, zero_vec
from qalcove.verify import _key_sides, cancellation_certificate


def assert_same(a, b):
    assert a == b
    assert a.to_json() == b.to_json()


def _streams(qbg, x):
    """Every inverse-form summand stream of x = (w, xi), at every m and l."""
    for m in range(1, qbg.n + 1):
        yield list(ic_first_terms(qbg, x, m))
        yield list(ic_second_terms(qbg, x, m))
        yield list(ic_cf_first_terms(qbg, x, m))
        for l in range(m, qbg.n + 1):
            yield list(ic_conj_second_terms(qbg, x, m, l))


def check_streams(qbg, w, xi):
    """Folds and certificates of every stream of (w, xi), and ic_lhs; returns
    the certificate outcomes seen."""
    n = qbg.n
    x = (w, xi)
    outcomes = set()
    for terms in _streams(qbg, x):
        assert_same(fold_terms(n, terms), summed_oracle(n, terms))
        got = cancellation_certificate(terms)
        assert got is product_certificate(terms), (w, xi)
        outcomes.add(got)
    for m in range(1, n + 1):
        for sign, mu in (("+", eps_vec(m, n)), ("-", eps_vec(-m, n))):
            want = DemazureCombo(n)
            add_symbol(want, x, zero_vec(n), monomial(n, nu=act(w, mu)))
            assert_same(ic_lhs(qbg, x, m, sign), want)
    return outcomes


def check_key_sides(qbg, w):
    """Both key sides of w for every signed letter, from their block streams."""
    n = qbg.n
    zero = zero_vec(n)
    for k in range(1, n + 1):
        for t in (k, -k):
            lhs = list(_block(qbg, w, t, zero))
            rhs = [(sym, zero, key, c) for sym, _, key, c in
                   _block(qbg, w, -t, zero, nu=act(w, eps_vec(t, n)))]
            for side, terms in zip(_key_sides(qbg, w, t), (lhs, rhs)):
                assert_same(side, summed_oracle(n, terms))
                assert cancellation_certificate(terms) is product_certificate(terms)


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


@pytest.mark.parametrize("xi, edge", [((1, 0), EXP_MIN), ((-1, 0), EXP_MAX)],
                         ids=["min", "max"])
def test_summand_out_of_range_raises(xi, edge):
    # xi = +-eps_1^vee has simple-coroot coordinates +-(1, 1), so its
    # translation pushes an x_1 exponent at the edge of the packed range past it
    n = 2
    sym, mu = ((1, 2), xi), zero_vec(n)
    bad = (sym, mu, pack(n, (0, (edge, 0), (0, 0))), 1)
    fine = (sym, mu, pack(n, (1, (0, 0), (0, 0))), 1)
    for terms in ([bad], [fine, bad]):
        for fold in (fold_terms, summed_oracle):
            with pytest.raises(ValueError, match="packed range"):
                fold(n, terms)
        for certificate in (cancellation_certificate, product_certificate):
            with pytest.raises(ValueError, match="packed range"):
                certificate(terms)
