"""The chained-sum recursion against the sequence-by-sequence streams.

``ic_rhs_first`` / ``ic_rhs_second`` evaluate the letter-sequence sums with
the memoized ``chained_sum``; ``ic_first_terms`` / ``ic_second_terms`` still
enumerate every decreasing sequence and every chained product, and serve as
the reference here.
"""

import random
from collections import Counter

import pytest

from qalcove import expansions
from qalcove.alcove import filtered_A, make_chain
from qalcove.expansions import (
    chained_filtered,
    chained_sum,
    enumerate_S,
    fold_terms,
    ic_first_terms,
    ic_rhs_first,
    ic_rhs_second,
    ic_second_terms,
)
from qalcove.qbg import QBG
from qalcove.typec import letter_from_pos, zero_vec


def _tally(qbg, w, src, dst):
    """Signed (end, down) counts of enumerate_S x chained_filtered."""
    acc = Counter()
    for seq in enumerate_S(src, dst, qbg.n):
        for v, d, s in chained_filtered(qbg, w, src, seq):
            acc[(v, d)] += s
    return {k: c for k, c in acc.items() if c}


def _assert_rhs_match_streams(qbg, elements, xis):
    n = qbg.n
    for w in elements:
        for m in range(1, n + 1):
            for xi in xis:
                x = (w, xi)
                assert ic_rhs_first(qbg, x, m) == \
                    fold_terms(n, ic_first_terms(qbg, x, m)), (w, m, xi)
                assert ic_rhs_second(qbg, x, m) == \
                    fold_terms(n, ic_second_terms(qbg, x, m)), (w, m, xi)


@pytest.mark.parametrize("qbg", ["qbg2", "qbg3"])
def test_rhs_builders_match_streams_exhaustive(qbg, request):
    qbg = request.getfixturevalue(qbg)
    n = qbg.n
    xi = (1,) + (0,) * (n - 2) + (-1,)
    _assert_rhs_match_streams(qbg, qbg.group, [zero_vec(n), xi])


def test_rhs_builders_match_streams_rank4_sample(qbg4):
    elements = random.Random(4).sample(qbg4.group, 20)
    _assert_rhs_match_streams(qbg4, elements, [zero_vec(4)])


def test_chained_sum_matches_tally_rank3(qbg3):
    n = qbg3.n
    pairs = [(letter_from_pos(ps, n), letter_from_pos(pd, n))
             for ps in range(1, 2 * n + 1) for pd in range(1, ps)]
    assert len(pairs) == 15
    for w in qbg3.group:
        for src, dst in pairs:
            assert chained_sum(qbg3, w, src, dst) == _tally(qbg3, w, src, dst), \
                (w, src, dst)


def test_chained_sum_empty_sequence_and_order(qbg3):
    w = (2, -3, 1)
    assert chained_sum(qbg3, w, -2, -2) == {(w, zero_vec(3)): 1}
    with pytest.raises(ValueError):  # -2 follows 3 in the letter order
        chained_sum(qbg3, w, 3, -2)


def test_chained_sum_cache_is_declared_on_qbg():
    qbg = QBG(2)
    assert vars(qbg)["_chained_sums"] == {}
    w = qbg.group[3]
    got = chained_sum(qbg, w, -1, 1)
    assert qbg._chained_sums[(w, -1, 1)] is got
    assert chained_sum(qbg, w, -1, 1) is got


@pytest.mark.parametrize("src, dst", [(-2, -4), (-2, 4), (-1, -4)])
def test_letters_outside_the_rank_are_rejected(qbg3, src, dst):
    # filtered_A raised IndexError on these, and chained_sum returned the
    # sum for another dst: letter_pos(-4, 3) is the position of 3
    for build in (filtered_A, chained_sum):
        with pytest.raises(ValueError, match=f"src={src} dst={dst}"):
            build(qbg3, (1, 2, 3), src, dst)
    assert ((1, 2, 3), src, dst) not in qbg3._chained_sums


def test_chained_sum_checks_letters_on_a_miss_only(monkeypatch):
    checked = []
    check = expansions.check_letters
    monkeypatch.setattr(expansions, "check_letters",
                        lambda *args: checked.append(args) or check(*args))
    qbg, w = QBG(2), (2, 1)
    got = chained_sum(qbg, w, 1, 1)
    assert checked == [(2, 1, 1)]
    assert chained_sum(qbg, w, 1, 1) is got and len(checked) == 1


def test_make_chain_is_cached():
    for kind in ("gamma", "theta", "eps"):
        assert make_chain(kind, 2, 3) is make_chain(kind, 2, 3)
