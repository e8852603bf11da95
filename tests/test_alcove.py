"""Root chains, geometric alcove walks, admissible subsets."""

import random

import pytest

from helpers import oracle_filtered, oracle_subsets
from qalcove.alcove import (
    CHAIN_KINDS,
    RootChain,
    admissible_subsets,
    alcove_walk,
    filtered_A,
    make_chain,
    reducedness_check,
    subset_stats,
)
from qalcove.qbg import QBG
from qalcove.typec import (
    act,
    eps_vec,
    image,
    letter_from_pos,
    letter_pos,
    pair,
    vec_add,
    vec_neg,
)


def test_make_chain_frozen():
    # Gamma_2(2) at n=3: -(1,2b), -(2,3b), -(2,2b), -(2,3)
    g = make_chain("gamma", 2, 3)
    assert g.entries == ((-1, -1, 0), (0, -1, -1), (0, -2, 0), (0, -1, 1))
    assert g.mu is None
    # Gamma*_3(3) at n=3
    gs = make_chain("gamma_star", 3, 3)
    assert gs.entries == ((0, 0, 2), (0, 1, 1), (1, 0, 1))
    # Theta_3 at n=3: -(1,3), -(2,3); Theta_1 is empty
    th = make_chain("theta", 3, 3)
    assert th.entries == ((-1, 0, 1), (0, -1, 1))
    assert make_chain("theta", 1, 3).entries == ()
    # Gamma_1(1) at n=2
    assert make_chain("gamma", 1, 2).entries == ((-1, -1), (-2, 0), (-1, 1))


def test_make_chain_star_is_reverse_negate():
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            g = make_chain("gamma", k, n).entries
            gs = make_chain("gamma_star", k, n).entries
            assert gs == tuple(vec_neg(a) for a in reversed(g))
            t = make_chain("theta", k, n).entries
            ts = make_chain("theta_star", k, n).entries
            assert ts == tuple(vec_neg(a) for a in reversed(t))


def test_make_chain_mu_chains_concatenate():
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            e = make_chain("eps", k, n)
            assert e.entries == (make_chain("gamma_star", k, n).entries
                                 + make_chain("theta", k, n).entries)
            assert e.mu == eps_vec(k, n)
            f = make_chain("eps_neg", k, n)
            assert f.entries == (make_chain("theta_star", k, n).entries
                                 + make_chain("gamma", k, n).entries)
            assert f.mu == vec_neg(eps_vec(k, n))
            assert len(e.entries) == len(f.entries) == 2 * n - 1


def test_make_chain_rejects_bad_args():
    with pytest.raises(ValueError):
        make_chain("eps", 0, 3)
    with pytest.raises(ValueError):
        make_chain("eps", 4, 3)
    with pytest.raises(ValueError):
        make_chain("zeta", 1, 3)


def test_walk_levels_frozen():
    assert alcove_walk(make_chain("eps", 3, 3)).levels == (0, 0, 0, 1, 1)
    assert alcove_walk(make_chain("eps_neg", 3, 3)).levels == (0, 0, 1, 1, 1)
    assert alcove_walk(make_chain("eps", 1, 2)).levels == (0, 0, 0)
    assert alcove_walk(make_chain("eps_neg", 1, 2)).levels == (1, 1, 1)


def test_walk_level_pattern():
    # eps_k: zeros on the Gamma* part, ones on the Theta part; mirrored for -eps_k
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            levels = alcove_walk(make_chain("eps", k, n)).levels
            assert levels == (0,) * (2 * n - k) + (1,) * (k - 1)
            levels = alcove_walk(make_chain("eps_neg", k, n)).levels
            assert levels == (0,) * (k - 1) + (1,) * (2 * n - k)


def test_walk_rejects_wall_jumping_chain():
    # second step crosses H_{e1+e3,0}, H_{e1-e2,0} and H_{e2+e3,0} at once
    bad = RootChain(((0, 0, 2), (1, 0, 1)), "gamma", 1, 3, None)
    with pytest.raises(ValueError, match="3 walls"):
        alcove_walk(bad)


def test_walk_rejects_wrong_endpoint():
    good = make_chain("eps", 1, 2)
    bad = RootChain(good.entries, "eps", 1, 2, (0, 1))
    with pytest.raises(ValueError, match="end"):
        alcove_walk(bad)


def test_reducedness():
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            assert reducedness_check(make_chain("eps", k, n))
            assert reducedness_check(make_chain("eps_neg", k, n))
    assert len(make_chain("eps", 3, 3).entries) == 5
    assert len(make_chain("eps_neg", 1, 2).entries) == 3
    # crossing a wall and back is a valid walk but not reduced
    e = make_chain("eps", 3, 3)
    padded = RootChain(e.entries + ((0, 0, 2), (0, 0, -2)), "eps", 3, 3, e.mu)
    assert not reducedness_check(padded)
    with pytest.raises(ValueError):
        reducedness_check(make_chain("gamma", 2, 3))


def test_admissible_subsets_theta3_frozen(qbg3):
    # base (3,2,1), chain Theta_3 = ((1,3) then (2,3), negated)
    subs = admissible_subsets(qbg3, (3, 2, 1), make_chain("theta", 3, 3))
    table = [(A.positions, A.end, A.down) for A in subs]
    assert table == [
        ((), (3, 2, 1), (0, 0, 0)),
        ((1,), (1, 2, 3), (1, 0, -1)),
        ((1, 2), (1, 3, 2), (1, 0, -1)),
        ((2,), (3, 1, 2), (0, 1, -1)),
    ]


def test_empty_subset_statistics(qbg3):
    for k in (1, 2, 3):
        chain = make_chain("eps", k, 3)
        for w in ((1, 2, 3), (3, -1, 2), (-2, -1, -3)):
            A = subset_stats(qbg3, w, chain, ())
            assert A.end == w
            assert A.down == (0, 0, 0)
            # the oracle walk's empty subset: n(A) = 0, wt = w eps_k, height 0
            first = oracle_subsets(qbg3, w, chain)[0]
            assert first == ((), w, (0, 0, 0), 0, act(w, eps_vec(k, 3)), 0)


def test_subset_stats_matches_enumeration(qbg3):
    for kind in CHAIN_KINDS:
        for k in (1, 2, 3):
            chain = make_chain(kind, k, 3)
            for w in qbg3.group:
                for A in admissible_subsets(qbg3, w, chain):
                    assert subset_stats(qbg3, w, chain, A.positions) == A


def test_subset_stats_rejects_non_admissible(qbg3):
    # from identity the label (1,3) is neither a Bruhat nor a quantum edge
    with pytest.raises(ValueError):
        subset_stats(qbg3, (1, 2, 3), make_chain("theta", 3, 3), (1,))


def test_filtered_A_frozen(qbg3):
    got = filtered_A(qbg3, (3, 2, 1), 3, 2)
    assert [A.positions for A in got] == [(2,)]
    assert got[0].end == (3, 1, 2)

    got = filtered_A(qbg3, (1, -3, 2), -2, 2)
    assert {A.positions for A in got} == {(2, 4), (2, 3, 4)}

    got = filtered_A(qbg3, (2, -1, 3), -2, -3)
    assert [A.positions for A in got] == [(4,)]
    assert got[0].end == (2, 3, -1)
    assert got[0].down == (0, 1, -1)

    assert filtered_A(qbg3, (-1, 2, 3), -1, 3) == []


def test_filtered_A_rejects_bad_ranges(qbg3):
    with pytest.raises(ValueError):
        filtered_A(qbg3, (1, 2, 3), 3, 3)
    with pytest.raises(ValueError):
        filtered_A(qbg3, (1, 2, 3), -2, -2)
    with pytest.raises(ValueError):
        filtered_A(qbg3, (1, 2, 3), -2, -1)


def test_filtered_A_endpoint_condition(qbg3):
    # every returned subset is nonempty and satisfies the endpoint twist
    from qalcove.typec import inv, mul

    for w in ((1, -3, 2), (3, 2, 1), (-2, -1, -3)):
        for src, dst in ((3, 1), (3, 2), (2, 1), (-2, 2), (-2, -3), (-1, 1)):
            for A in filtered_A(qbg3, w, src, dst):
                assert A.positions
                assert image(mul(inv(A.end), w), src) == dst


def _valid_filters(n):
    """Every (src, dst) that ``filtered_A`` accepts at rank n."""
    letters = [letter_from_pos(p, n) for p in range(1, 2 * n + 1)]
    for k in range(1, n + 1):
        yield from ((k, dst) for dst in range(1, k))
        yield from ((-k, dst) for dst in letters[:letter_pos(-k, n) - 1])


def _assert_filters_agree(qbg, elements):
    for w in elements:
        for src, dst in _valid_filters(qbg.n):
            got = [tuple(A) for A in filtered_A(qbg, w, src, dst)]
            assert got == oracle_filtered(qbg, w, src, dst), (w, src, dst)


@pytest.mark.parametrize("n", [2, 3])
def test_filtered_A_matches_inverse_oracle_exhaustively(n):
    qbg = QBG(n)
    _assert_filters_agree(qbg, qbg.group)


def test_filtered_A_matches_inverse_oracle_on_rank4_sample(qbg4):
    _assert_filters_agree(qbg4, random.Random(16).sample(qbg4.group, 48))


def _split_walk(qbg, w, t):
    """The subsets of the eps_t-chain P * Q (t = +-k) from A_1 over P and
    A_2 over Q from ed(A_1), with the split statistics, in the form of
    ``oracle_subsets``."""
    n, k = qbg.n, abs(t)
    mu = eps_vec(t, n)
    head = make_chain("gamma_star" if t > 0 else "theta_star", k, n)
    tail = make_chain("theta" if t > 0 else "gamma", k, n)
    cut = len(head.entries)
    out = []
    for A1 in admissible_subsets(qbg, w, head):
        for A2 in admissible_subsets(qbg, A1.end, tail):
            positions = A1.positions + tuple(p + cut for p in A2.positions)
            out.append((positions, A2.end, vec_add(A1.down, A2.down),
                        len(A2.positions), act(A1.end, mu), pair(mu, A1.down)))
    return sorted(out)


def _assert_split_identities(qbg, elements):
    # ed, down compose; wt(A) = ed(A1) mu, height(A) = <mu, down(A1)>, n(A) = |A2|
    count = 0
    for k in range(1, qbg.n + 1):
        for t in (k, -k):
            chain = make_chain("eps" if t > 0 else "eps_neg", k, qbg.n)
            for w in elements:
                want = oracle_subsets(qbg, w, chain)
                assert _split_walk(qbg, w, t) == want, (t, w)
                count += len(want)
    return count


def test_split_identities_exhaustive(qbg2, qbg3):
    assert _assert_split_identities(qbg2, qbg2.group) == 144
    assert _assert_split_identities(qbg3, qbg3.group) == 2320


def test_split_identities_rank4_sample(qbg4):
    assert _assert_split_identities(qbg4, random.Random(9).sample(qbg4.group, 24)) > 1000


def test_theta_paths_are_geodesics(qbg3):
    from helpers import assert_theta_paths_shortest

    assert_theta_paths_shortest(qbg3)
