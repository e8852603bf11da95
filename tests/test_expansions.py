"""Expansion builders: decreasing sequences, Chevalley oracle, inverse forms.

The three rank-3 worked instances are frozen here end to end: the letter
sequences, the filtered subset families, the collapsed displays with their
q-prefactors, and the equality of the collapsed and alternating forms.
"""

import random

import pytest

from helpers import (
    add_symbol,
    add_term,
    atom_coeff,
    chevalley_record,
    combo_sum,
    display_block,
    expand_buckets,
    expand_combo,
    monomial,
    normalized,
    term_stream,
    shift_lambda,
)
from qalcove.alcove import filtered_A
from qalcove.expansions import (
    chevalley_expand,
    enumerate_S,
    fold_terms,
    ic_cf_first_terms,
    ic_conj_second_terms,
    ic_first_terms,
    ic_lhs,
    ic_rhs_cancel_free_first,
    ic_rhs_conjecture_second,
    ic_rhs_first,
    ic_rhs_second,
    ic_second_terms,
)
from qalcove.ring import DemazureCombo, RationalCoeff, unpack
from qalcove.typec import (
    act,
    eps_vec,
    pair,
    parse_word,
    vec_add,
    vec_neg,
    zero_vec,
)

A1CV = (1, -1, 0)   # alpha_1^vee
A2CV = (0, 1, -1)   # alpha_2^vee
A3CV = (0, 0, 1)    # alpha_3^vee


def _x(w, n=3):
    return (w, zero_vec(n))


def _positions(subsets):
    return sorted(s.positions for s in subsets)


# -- decreasing letter sequences -----------------------------------------


def test_enumerate_S_frozen():
    assert enumerate_S(3, 2, 3) == [(2,)]
    assert set(enumerate_S(3, 1, 3)) == {(1,), (2, 1)}
    assert set(enumerate_S(-2, 2, 3)) == {(2,), (3, 2), (-3, 2), (-3, 3, 2)}
    assert enumerate_S(-2, -3, 3) == [(-3,)]
    assert set(enumerate_S(-2, 3, 3)) == {(3,), (-3, 3)}
    eight = enumerate_S(-2, 1, 3)
    assert len(eight) == 8
    assert set(eight) == {(1,), (2, 1), (3, 1), (-3, 1), (3, 2, 1), (-3, 2, 1),
                          (-3, 3, 1), (-3, 3, 2, 1)}


def test_enumerate_S_counts():
    # 2^{d-1} sequences for separation d in the total order
    from qalcove.typec import letter_pos
    for n in (2, 3):
        letters = [letter_pos(a, n) for a in range(1, n + 1)]
        for src in list(range(1, n + 1)) + [-a for a in range(1, n + 1)]:
            for dst in list(range(1, n + 1)) + [-a for a in range(1, n + 1)]:
                ps, pd = letter_pos(src, n), letter_pos(dst, n)
                if pd >= ps:
                    with pytest.raises(ValueError):
                        enumerate_S(src, dst, n)
                    continue
                seqs = enumerate_S(src, dst, n)
                assert len(seqs) == 2 ** (ps - pd - 1)
                assert len(set(seqs)) == len(seqs)
                for s in seqs:
                    assert s[-1] == dst
                    pos = [letter_pos(a, n) for a in s]
                    assert pos == sorted(pos, reverse=True)
                    assert pos[0] < ps


# -- the Chevalley oracle -------------------------------------------------


def test_chevalley_empty_subset_term(qbg3):
    # ed = w with down = 0 can only come from A = {}; its coefficient is
    # e^{w eps_k} over the single atom.
    w = parse_word("s2 s1", 3)
    for k in (1, 2, 3):
        combo = chevalley_expand(qbg3, w, "+", k)
        rc = combo.terms[(w, zero_vec(3))]
        want = RationalCoeff(
            monomial(3, 1, nu=act(w, eps_vec(k, 3))), (k,))
        assert rc == want


def test_chevalley_minus_atom_indices(qbg3):
    w = parse_word("s1 s3", 3)
    assert chevalley_record(qbg3, w, "-", 1).atoms == ()
    for rc in chevalley_expand(qbg3, w, "-", 1).terms.values():
        assert rc.atoms == ()
    for k in (2, 3):
        assert chevalley_record(qbg3, w, "-", k).atoms == (k - 1,)
        assert chevalley_record(qbg3, w, "+", k).atoms == (k,)
        for rc in chevalley_expand(qbg3, w, "-", k).terms.values():
            assert set(rc.atoms) <= {k - 1}
        for rc in chevalley_expand(qbg3, w, "+", k).terms.values():
            assert set(rc.atoms) <= {k}


def test_chevalley_bad_args(qbg3):
    with pytest.raises(ValueError):
        chevalley_expand(qbg3, (1, 2, 3), "+", 0)
    with pytest.raises(ValueError):
        chevalley_expand(qbg3, (1, 2, 3), "*", 1)


def test_plus_then_minus_roundtrip(qbg3):
    # Read the plus expansion at base weight lam - eps_k, clear its atom,
    # then expand every V_y(lam - eps_k) through the minus direction: the
    # composite must collapse to the single symbol V_w(lam).  This pins the
    # minus-direction atom index k-1 against the plus-direction index k.
    n = 3
    for w in [parse_word("s1 s2 s1", n), parse_word("s3 s2", n),
              (1, 2, 3), (-3, 1, -2)]:
        for k in (1, 2, 3):
            shift = vec_neg(eps_vec(k, n))
            plus = chevalley_expand(qbg3, w, "+", k)
            atom = RationalCoeff(atom_coeff(n, k))
            rhs = DemazureCombo(n)
            for (y, mu), rc in plus.terms.items():
                assert mu == zero_vec(n)
                cleared = rc * atom
                assert cleared.atoms == ()
                poly = shift_lambda(cleared.numer, shift)
                for key, rc2 in chevalley_expand(qbg3, y, "-", k).terms.items():
                    add_term(rhs, key, rc2 * poly)
            lhs = DemazureCombo(n)
            add_symbol(lhs, (w, zero_vec(n)), zero_vec(n),
                       shift_lambda(atom_coeff(n, k), shift))
            assert (lhs - rhs).is_zero()


def test_expand_to_base_passthrough_and_errors(qbg3):
    combo = DemazureCombo(3)
    add_symbol(combo, ((1, 2, 3), zero_vec(3)), zero_vec(3), monomial(3))
    assert expand_buckets(qbg3, combo) == combo
    bad = DemazureCombo(3)
    add_term(bad, ((1, 2, 3), (1, 1, 0)), RationalCoeff(monomial(3)))
    with pytest.raises(ValueError):
        expand_buckets(qbg3, bad)


def test_stream_terms_are_signed_q_powers(qbg3):
    # before its translation is absorbed, every summand is +-q^k; each
    # entry is that summand normalized, with no atoms
    w = parse_word("s3 s2", 3)
    for build, *args in ((ic_first_terms, 2), (ic_second_terms, 2),
                         (ic_cf_first_terms, 2), (ic_conj_second_terms, 2, 3)):
        terms = term_stream(build, qbg3, _x(w), *args)
        for _sym, _mu, key, co in terms:
            qe, xv, nu = unpack(3, key)
            assert co in (1, -1)
            assert xv == zero_vec(3) and nu == zero_vec(3)
        assert list(build(qbg3, _x(w), *args)) == list(normalized(terms))


# -- worked instance 1: first half, w = s1 s2 s1, m = 3 -------------------


def test_instance1_filtered_families(qbg3):
    w = parse_word("s1 s2 s1", 3)
    assert _positions(filtered_A(qbg3, w, 3, 1)) == [(1,), (1, 2)]
    assert _positions(filtered_A(qbg3, w, 3, 2)) == [(2,)]
    s2s1 = parse_word("s2 s1", 3)
    assert _positions(filtered_A(qbg3, s2s1, 2, 1)) == [(1,)]


def test_instance1_paths_and_prefactors(qbg3):
    w = parse_word("s1 s2 s1", 3)
    p2 = qbg3.p_path(w, 3, 2)
    assert p2.end == parse_word("s2 s1", 3)
    assert p2.weight == A2CV
    assert pair(eps_vec(2, 3), p2.weight) == 1
    p1 = qbg3.p_path(w, 3, 1)
    assert p1.end == (1, 2, 3)
    assert p1.weight == vec_add(A1CV, A2CV)
    assert pair(eps_vec(1, 3), p1.weight) == 1


def test_instance1_display(qbg3):
    w = parse_word("s1 s2 s1", 3)
    x = _x(w)
    expected = combo_sum(
        display_block(qbg3, w, "gamma", 3, zero_vec(3), 0, eps_vec(3, 3)),
        display_block(qbg3, parse_word("s2 s1", 3), "gamma", 2, A2CV, 1, eps_vec(2, 3)),
        display_block(qbg3, (1, 2, 3), "gamma", 1, vec_add(A1CV, A2CV), 1, eps_vec(1, 3))
    )
    cf = ic_rhs_cancel_free_first(qbg3, x, 3)
    assert cf == expected
    # the alternating form agrees after its internal cancellations
    assert ic_rhs_first(qbg3, x, 3) == expected
    # and expands to e^{w eps_3} gch V_w(lam)
    assert expand_combo(qbg3, cf) == ic_lhs(qbg3, x, 3, "+")


def test_instance1_precancellation_blocks(qbg3):
    # before summation the alternating form hits base s2 in the j=1 block
    # with both signs; the collapsed form never does
    w = parse_word("s1 s2 s1", 3)
    s2 = parse_word("s2", 3)
    full = [t for t in ic_first_terms(qbg3, _x(w), 3)]
    hits = set()
    for ((y, mu), _atoms), _key, co in full:
        if mu == eps_vec(1, 3):
            hits.add((y, co > 0))
    assert (s2, True) in hits and (s2, False) in hits
    cf_bases = {y for ((y, mu), _), _, _ in ic_cf_first_terms(qbg3, _x(w), 3)
                if mu == eps_vec(1, 3)}
    assert s2 not in cf_bases


# -- worked instance 2: second half, w = s3 s2, m = 2 ---------------------


def test_instance2_filtered_families(qbg3):
    w = parse_word("s3 s2", 3)
    assert filtered_A(qbg3, w, -2, 1) == []
    assert _positions(filtered_A(qbg3, w, -2, 2)) == [(2, 3, 4), (2, 4)]
    assert _positions(filtered_A(qbg3, w, -2, 3)) == [(2,), (2, 3)]
    assert _positions(filtered_A(qbg3, w, -2, -3)) == [(4,)]
    s3 = parse_word("s3", 3)
    assert filtered_A(qbg3, s3, -3, 1) == []
    assert _positions(filtered_A(qbg3, s3, -3, 2)) == [(2,), (2, 3)]
    assert _positions(filtered_A(qbg3, s3, -3, 3)) == [(3,)]
    e = (1, 2, 3)
    assert filtered_A(qbg3, e, 3, 1) == []
    assert _positions(filtered_A(qbg3, e, 3, 2)) == [(2,)]
    s232 = parse_word("s2 s3 s2", 3)
    assert _positions(filtered_A(qbg3, s232, 3, 1)) == [(1,), (1, 2)]
    assert _positions(filtered_A(qbg3, s232, 3, 2)) == [(2,)]
    assert _positions(filtered_A(qbg3, parse_word("s2 s3", 3), 2, 1)) == [(1,)]
    assert _positions(filtered_A(qbg3, parse_word("s2", 3), 2, 1)) == [(1,)]


def test_instance2_display(qbg3):
    w = parse_word("s3 s2", 3)
    x = _x(w)
    s3 = parse_word("s3", 3)
    s232 = parse_word("s2 s3 s2", 3)
    s23 = parse_word("s2 s3", 3)
    s2312 = parse_word("s2 s3 s1 s2", 3)
    # collapsed paths: down(bp) and prefactor exponents off the display
    assert qbg3.p_path(w, -2, -3).end == s3
    assert qbg3.p_path(w, -2, -3).weight == A2CV
    assert -pair(eps_vec(3, 3), A2CV) == 1
    assert qbg3.p_path(w, -2, 3).end == s232
    assert qbg3.p_path(w, -2, 3).weight == zero_vec(3)
    assert qbg3.p_path(w, -2, 2).end == s23
    assert qbg3.p_path(w, -2, 2).weight == A2CV
    assert pair(eps_vec(2, 3), A2CV) == 1
    assert qbg3.p_path(w, -2, 1).end == s2312
    assert qbg3.p_path(w, -2, 1).weight == zero_vec(3)
    expected = combo_sum(
        display_block(qbg3, w, "theta", 2, zero_vec(3), 0, vec_neg(eps_vec(2, 3))),
        display_block(qbg3, s3, "theta", 3, A2CV, 1, vec_neg(eps_vec(3, 3))),
        display_block(qbg3, s232, "gamma", 3, zero_vec(3), 0, eps_vec(3, 3)),
        display_block(qbg3, s23, "gamma", 2, A2CV, 1, eps_vec(2, 3)),
        display_block(qbg3, s2312, "gamma", 1, zero_vec(3), 0, eps_vec(1, 3))
    )
    conj = ic_rhs_conjecture_second(qbg3, x, 2, 3)
    assert conj == expected
    assert ic_rhs_second(qbg3, x, 2) == expected
    assert expand_combo(qbg3, conj) == ic_lhs(qbg3, x, 2, "-")


# -- worked instance 3: second half, w = s1 s2 s3 s2 s1, m = 1 ------------


def test_instance3_filtered_families(qbg3):
    w = parse_word("s1 s2 s3 s2 s1", 3)
    assert _positions(filtered_A(qbg3, w, -1, 1)) == [(3,)]
    assert _positions(filtered_A(qbg3, w, -1, 2)) == [(3, 5)]
    assert filtered_A(qbg3, w, -1, 3) == []
    assert filtered_A(qbg3, w, -1, -3) == []
    assert _positions(filtered_A(qbg3, w, -1, -2)) == [(5,)]
    s1232 = parse_word("s1 s2 s3 s2", 3)
    assert filtered_A(qbg3, s1232, -2, 1) == []
    assert _positions(filtered_A(qbg3, s1232, -2, 2)) == [(3,)]
    assert _positions(filtered_A(qbg3, s1232, -2, 3)) == [(3, 4)]
    assert _positions(filtered_A(qbg3, s1232, -2, -3)) == [(4,)]
    s123 = parse_word("s1 s2 s3", 3)
    assert filtered_A(qbg3, s123, -3, 1) == []
    assert filtered_A(qbg3, s123, -3, 2) == []
    assert _positions(filtered_A(qbg3, s123, -3, 3)) == [(3,)]
    s12 = parse_word("s1 s2", 3)
    assert filtered_A(qbg3, s12, 3, 1) == []
    assert _positions(filtered_A(qbg3, s12, 3, 2)) == [(2,)]
    assert _positions(filtered_A(qbg3, parse_word("s1", 3), 2, 1)) == [(1,)]


def test_instance3_display(qbg3):
    w = parse_word("s1 s2 s3 s2 s1", 3)
    x = _x(w)
    s1232 = parse_word("s1 s2 s3 s2", 3)
    s123 = parse_word("s1 s2 s3", 3)
    e = (1, 2, 3)
    a12 = vec_add(A1CV, A2CV)
    a123 = vec_add(a12, A3CV)
    assert qbg3.p_path(w, -1, -2).end == s1232
    assert qbg3.p_path(w, -1, -2).weight == A1CV
    assert -pair(eps_vec(2, 3), A1CV) == 1
    assert qbg3.p_path(w, -1, -3).end == s123
    assert qbg3.p_path(w, -1, -3).weight == a12
    assert -pair(eps_vec(3, 3), a12) == 1
    assert qbg3.p_path(w, -1, 1).end == e
    assert qbg3.p_path(w, -1, 1).weight == a123
    assert pair(eps_vec(1, 3), a123) == 1
    expected = combo_sum(
        display_block(qbg3, w, "theta", 1, zero_vec(3), 0, vec_neg(eps_vec(1, 3))),
        display_block(qbg3, s1232, "theta", 2, A1CV, 1, vec_neg(eps_vec(2, 3))),
        display_block(qbg3, s123, "theta", 3, a12, 1, vec_neg(eps_vec(3, 3))),
        display_block(qbg3, e, "gamma", 1, a123, 1, eps_vec(1, 3))
    )
    conj = ic_rhs_conjecture_second(qbg3, x, 1, 1)
    assert conj == expected
    assert ic_rhs_second(qbg3, x, 1) == expected
    assert expand_combo(qbg3, conj) == ic_lhs(qbg3, x, 1, "-")


# -- collapsed vs alternating forms ---------------------------------------


def test_cf_equals_first_sampled(qbg3):
    sample = qbg3.group[::5]
    for w in sample:
        for m in (1, 2, 3):
            x = _x(w)
            assert ic_rhs_cancel_free_first(qbg3, x, m) == ic_rhs_first(qbg3, x, m)


def test_cf_trivial_at_m1(qbg2):
    # at m = 1 both forms are the single full-chain block
    for w in qbg2.group:
        x = (w, zero_vec(2))
        assert ic_rhs_cancel_free_first(qbg2, x, 1) == ic_rhs_first(qbg2, x, 1)
        assert len(list(ic_first_terms(qbg2, x, 1))) == \
            len(list(ic_cf_first_terms(qbg2, x, 1)))


def test_rhs_builders_match_folded_streams(qbg3):
    w = parse_word("s2 s3", 3)
    xi = (1, 0, -1)
    x = (w, xi)
    assert ic_rhs_first(qbg3, x, 2) == fold_terms(3, ic_first_terms(qbg3, x, 2))
    assert ic_rhs_second(qbg3, x, 2) == fold_terms(3, ic_second_terms(qbg3, x, 2))


def test_fold_is_independent_of_summation_order(qbg3):
    # in order, reversed and shuffled, folded and then expanded to the base
    # weight, where the rational sums run in each fold's key order
    rng = random.Random(11)
    for word, m in (("s1 s2 s1", 3), ("s3 s2", 2), ("s2 s3", 1), ("s1", 2)):
        terms = list(ic_second_terms(qbg3, _x(parse_word(word, 3)), m))
        shuffled = rng.sample(terms, len(terms))
        folds = [fold_terms(3, t) for t in (terms, terms[::-1], shuffled)]
        for combos in (folds, [expand_buckets(qbg3, f) for f in folds]):
            first, *rest = combos
            assert all(c == first for c in rest)
            assert all(c.to_json() == first.to_json() for c in rest)


def test_conjecture_l_out_of_range(qbg3):
    w = parse_word("s3 s2", 3)
    with pytest.raises(ValueError):
        ic_rhs_conjecture_second(qbg3, _x(w), 2, 1)
    with pytest.raises(ValueError):
        ic_rhs_conjecture_second(qbg3, _x(w), 2, 4)
