"""Verification engine: identity sweeps, pairing, collapse, certificates."""

import random

import pytest

from helpers import (
    add_symbol,
    add_term,
    expand_combo,
    monomial,
    normalized,
    term_stream,
    product_certificate,
    shift_lambda,
    specialized_equal,
)
from qalcove.alcove import make_chain, subset_stats
from qalcove.expansions import (
    expand_to_base,
    ic_cf_first_terms,
    ic_conj_second_terms,
    ic_first_terms,
    ic_lhs,
    ic_rhs_first,
)
from qalcove.ring import (
    EXP_MAX,
    EXP_MIN,
    DemazureCombo,
    RationalCoeff,
    fold_into,
    pack,
    packed_words,
)
from qalcove.typec import (
    act,
    eps_vec,
    parse_word,
    vec_add,
    vec_neg,
    zero_vec,
)
from qalcove.verify import (
    ConjectureScanResult,
    cancellation_certificate,
    collapse_check,
    combo_latex,
    conjecture_scan,
    key_first_sides,
    key_second_sides,
    pair_domain,
    pair_involution,
    verify_first_half,
    verify_key_props,
    verify_second_half,
)

CASE_SWAP = {1: 2, 2: 1, 3: 4, 4: 3, 5: 5, 6: 6}


# -- identity sweeps -------------------------------------------------------


def test_smallest_instances(qbg2):
    assert verify_first_half(qbg2, (1, 2), 1).ok
    assert verify_second_half(qbg2, (1, 2), 1).ok
    assert verify_key_props(qbg2, (1, 2), 1).ok


def test_exhaustive_rank2(qbg2):
    for w in qbg2.group:
        for m in (1, 2):
            assert verify_first_half(qbg2, w, m).ok
            assert verify_second_half(qbg2, w, m).ok
            assert verify_key_props(qbg2, w, m).ok


def test_worked_instances_rank3(qbg3):
    assert verify_first_half(qbg3, parse_word("s1 s2 s1", 3), 3).ok
    assert verify_second_half(qbg3, parse_word("s3 s2", 3), 2).ok
    assert verify_second_half(qbg3, parse_word("s1 s2 s3 s2 s1", 3), 1).ok


def test_nonzero_translation_instances(qbg3):
    rng = random.Random(11)
    for _ in range(4):
        w = rng.choice(qbg3.group)
        m = rng.randrange(1, 4)
        xi = tuple(rng.randrange(-2, 3) for _ in range(3))
        r1 = verify_first_half(qbg3, w, m, xi)
        r2 = verify_second_half(qbg3, w, m, xi)
        assert r1.ok and r2.ok, (r1, r2)


def test_key_props_rank3_exhaustive(qbg3):
    for w in qbg3.group:
        for k in (1, 2, 3):
            assert verify_key_props(qbg3, w, k).ok


def test_key_props_theta1_trivial(qbg3):
    # Theta_1 is the empty chain, so the first RHS is the single term
    # e^{w eps_1} V_w(lam)
    w = parse_word("s2 s3", 3)
    _lhs, rhs = key_first_sides(qbg3, w, 1)
    assert list(rhs.terms) == [(w, zero_vec(3))]


def test_key_second_is_shifted_key_first(qbg3):
    # reading the first identity at lam - eps_k and multiplying both sides
    # by e^{-w eps_k} gives the second identity with sides swapped: the
    # Gamma sum becomes the second RHS, the Theta sum the second LHS
    n = 3
    for w in [parse_word("s1 s2", 3), parse_word("s3 s2 s3", 3), (1, 2, 3)]:
        for k in (1, 2, 3):
            l1, r1 = key_first_sides(qbg3, w, k)
            l2, r2 = key_second_sides(qbg3, w, k)
            shift = vec_neg(eps_vec(k, n))
            emu = monomial(n, 1, nu=vec_neg(act(w, eps_vec(k, n))))

            def shifted(combo):
                out = DemazureCombo(n)
                for (y, mu), rc in combo.terms.items():
                    assert rc.atoms == ()
                    add_term(out, (y, vec_add(mu, shift)),
                                 RationalCoeff(shift_lambda(rc.numer, shift) * emu))
                return out

            assert shifted(l1) == r2
            assert shifted(r1) == l2


def test_report_failure_shape(qbg2):
    # compare deliberately mismatched sides to exercise the failure path
    from qalcove.verify import _compare
    import time
    lhs = ic_lhs(qbg2, ((1, 2), zero_vec(2)), 1, "+")
    rhs = ic_lhs(qbg2, ((1, 2), zero_vec(2)), 2, "+")
    rep = _compare("mismatch", lhs, rhs, time.time())
    assert not rep.ok
    assert rep.residual is not None and not rep.residual.is_zero()
    js = rep.to_json()
    assert js["status"] == "failed" and "residual" in js and "residual_latex" in js
    assert "FAIL" in str(rep)


def test_specialization_consistency(qbg3):
    rng = random.Random(5)
    w = parse_word("s1 s2 s1", 3)
    x = (w, zero_vec(3))
    lhs = ic_lhs(qbg3, x, 3, "+")
    rhs = expand_combo(qbg3, ic_rhs_first(qbg3, x, 3))
    for _ in range(3):
        d = sorted((rng.randrange(0, 6) for _ in range(3)), reverse=True)
        lam = tuple(d)
        assert specialized_equal(lhs, rhs, lam)


# -- the six-case pairing ---------------------------------------------------


def test_pairing_fixed_points(qbg3):
    w = parse_word("s2 s1", 3)
    for k in (1, 2, 3):
        L = 2 * 3 - k
        assert pair_involution(qbg3, w, k, (), ()) == ((), (), 6)
        B2, A2, case = pair_involution(qbg3, w, k, (L,), (1,))
        assert (B2, A2, case) == ((L,), (1,), 5)


def test_pairing_rejects_bad_input(qbg3):
    w = (1, 2, 3)
    # position out of range for Gamma_3(3) (length 3 at n=3)
    with pytest.raises((ValueError, IndexError)):
        pair_involution(qbg3, w, 3, (7,), ())
    # admissible B but inadmissible A1 from ed(B)
    with pytest.raises(ValueError):
        pair_involution(qbg3, w, 1, (), (2, 3, 4, 5))


def test_pairing_exhaustive_rank3(qbg3):
    n = 3
    for w in qbg3.group:
        for k in (1, 2, 3):
            gamma = make_chain("gamma", k, n)
            gstar = make_chain("gamma_star", k, n)
            P = pair_domain(qbg3, w, k)
            fixed = 0
            for B, A1 in P:
                B2, A2, case = pair_involution(qbg3, w, k, B, A1)
                B3, A3, case2 = pair_involution(qbg3, w, k, B2, A2)
                assert (B3, A3) == (B, A1)
                assert case2 == CASE_SWAP[case]
                if case in (5, 6):
                    fixed += 1
                    assert (B2, A2) == (B, A1)
                    continue
                assert len(B2) == len(B) + (1 if case in (2, 4) else -1)
                sB = subset_stats(qbg3, w, gamma, B)
                sA = subset_stats(qbg3, sB.end, gstar, A1)
                sB2 = subset_stats(qbg3, w, gamma, B2)
                sA2 = subset_stats(qbg3, sB2.end, gstar, A2)
                assert vec_add(sB2.down, sA2.down) == vec_add(sB.down, sA.down)
                assert sA2.end == sA.end
            assert fixed == 2  # exactly (empty, empty) and the simple pair
            assert len(set(P)) == len(P)


# -- collapse of chained sums ----------------------------------------------


def test_collapse_adjacent_trivial(qbg3):
    # j = m-1 has a single one-letter sequence and single-step paths
    for w in qbg3.group[::7]:
        for m in (2, 3):
            assert collapse_check(qbg3, w, m, m - 1)


def test_collapse_frozen_instance(qbg3):
    # the chained sums from s1s2s1 with (m,j)=(3,1) collapse onto the
    # identity element with coefficient q^{-<lam, a1v+a2v>} = (x1 x2)^{-1}
    w = parse_word("s1 s2 s1", 3)
    assert collapse_check(qbg3, w, 3, 1)
    p = qbg3.p_path(w, 3, 1)
    assert p.end == (1, 2, 3) and p.weight == (1, 0, -1)


def test_collapse_exhaustive_rank2(qbg2):
    for w in qbg2.group:
        assert collapse_check(qbg2, w, 2, 1)


def test_collapse_bad_range(qbg3):
    with pytest.raises(ValueError):
        collapse_check(qbg3, (1, 2, 3), 2, 2)
    with pytest.raises(ValueError):
        collapse_check(qbg3, (1, 2, 3), 1, 2)


# -- cancellation certificates and the conjecture scan ----------------------


def test_certificate_polarity(qbg3):
    w = parse_word("s1 s2 s1", 3)
    x = (w, zero_vec(3))
    assert cancellation_certificate(ic_cf_first_terms(qbg3, x, 3))
    assert not cancellation_certificate(ic_first_terms(qbg3, x, 3))
    single = [((((1, 2, 3), zero_vec(3)), ()), pack(3, (0, zero_vec(3), zero_vec(3))), 1)]
    assert cancellation_certificate(single)


def _certificate_streams(qbg, w, xi):
    """Every collapsed-first, alternating-first and collapsed-second builder
    of (w, xi) with its arguments; some alternating-first streams cancel."""
    x = (w, xi)
    for m in range(1, qbg.n + 1):
        yield ic_cf_first_terms, (qbg, x, m)
        yield ic_first_terms, (qbg, x, m)
        for l in range(m, qbg.n + 1):
            yield ic_conj_second_terms, (qbg, x, m, l)


def _certificates_match_product_oracle(qbg, elements, rng):
    """Each stream's certificate against the oracle's on the same builder's
    4-tuple summands."""
    outcomes = set()
    for w in elements:
        for xi in (zero_vec(qbg.n), tuple(rng.randint(-2, 2) for _ in range(qbg.n))):
            for build, args in _certificate_streams(qbg, w, xi):
                got = cancellation_certificate(build(*args))
                assert got == product_certificate(term_stream(build, *args)), (w, xi)
                outcomes.add(got)
    return outcomes


def test_certificate_matches_product_oracle(qbg2, qbg3, qbg4):
    rng = random.Random(25)
    outcomes = set()
    for qbg in (qbg2, qbg3):
        outcomes |= _certificates_match_product_oracle(qbg, qbg.group, rng)
    assert outcomes == {True, False}
    sample = random.Random(4).sample(qbg4.group, 12)
    assert _certificates_match_product_oracle(qbg4, sample, rng) == {True, False}


def test_certificate_hand_built_streams():
    """Hand-built 4-tuple streams: the certificate of their ``normalized``
    entries against the product oracle."""
    def certificate(stream):
        return cancellation_certificate(normalized(stream))

    n = 2
    sym, mu = ((2, 1), (1, 0)), eps_vec(1, n)
    plus = pack(n, (1, (1, 0), (0, 0)))
    other = pack(n, (2, (0, 0), (0, 0)))
    # +c and -c on one symbol cancel, whatever lies between them
    stream = [(sym, mu, plus, 1), (sym, mu, other, 1), (sym, mu, plus, -1)]
    assert certificate(stream) is product_certificate(stream) is False
    # the same normalized monomial reached from two translations cancels too:
    # V_{y t_xi}(lam+mu) = q^{-<mu,xi>} x^{-c} V_y(lam+mu) with
    # xi = sum c_i alpha_i^vee, here q^-1 x_1^-1 x_2^-1, so q x_1 -> x_2^-1
    shifted = pack(n, (0, (0, -1), (0, 0)))
    stream = [(sym, mu, plus, 1), (((2, 1), (0, 0)), mu, shifted, -1)]
    assert certificate(stream) is product_certificate(stream) is False
    stream = [(sym, mu, plus, 1), (sym, mu, plus, 1), (sym, vec_neg(mu), plus, -1)]
    assert certificate(stream) is product_certificate(stream) is True


@pytest.mark.parametrize("edge", [EXP_MIN, EXP_MAX], ids=["min", "max"])
def test_certificate_out_of_range_raises(qbg2, edge):
    # one more step from the edge leaves the x_1 field of the key out of
    # range: the sum of two keys sets its guard bit (see packed_words)
    n, zero = 2, zero_vec(2)
    step = pack(n, (0, (1 if edge == EXP_MAX else -1, 0), zero))
    bad = pack(n, (0, (edge, 0), zero)) + step - packed_words(n)[0]
    fine = pack(n, (1, zero, zero))
    for mu in (zero, eps_vec(1, n)):
        sym = (((1, 2), mu), ())
        for stream in ([(sym, bad, 1)], [(sym, fine, 1), (sym, bad, 1), (sym, fine, -1)]):
            for consume in (cancellation_certificate,
                            lambda s: fold_into(n, {}, s),
                            lambda s: expand_to_base(qbg2, {}, s)):
                with pytest.raises(ValueError, match="packed range"):
                    consume(stream)


def test_conjecture_scan_rank2(qbg2):
    res = conjecture_scan(qbg2)
    assert isinstance(res, ConjectureScanResult)
    assert res.counterexamples == []
    assert res.expectation_holds
    assert all(res.certificates.values())
    assert set(res.working) == {(w, m) for w in qbg2.group for m in (1, 2)}
    js = res.to_json()
    assert js["n"] == 2 and js["counterexamples"] == []


def test_conjecture_scan_worked_instances(qbg3):
    res = conjecture_scan(qbg3,
                          elements=[parse_word("s3 s2", 3),
                                    parse_word("s1 s2 s3 s2 s1", 3)])
    assert 3 in res.working[(parse_word("s3 s2", 3), 2)]
    assert 1 in res.working[(parse_word("s1 s2 s3 s2 s1", 3), 1)]
    assert res.counterexamples == []
    assert all(res.certificates.values())


def test_latex_rendering(qbg3):
    combo = DemazureCombo(3)
    add_symbol(combo, (parse_word("s1 s2", 3), (1, 0, -1)), eps_vec(2, 3),
               monomial(3, -2, q=-1, nu=(1, 0, 0)))
    tex = combo_latex(combo)
    assert "V^{-}" in tex and "\\lambda" in tex and "\\varepsilon_{2}" in tex
    assert combo_latex(DemazureCombo(3)) == "0"
