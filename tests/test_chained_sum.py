"""The chained-sum pass against the sequence-by-sequence streams.

``ic_rhs_first`` / ``ic_rhs_second`` evaluate the letter-sequence sums of
every target letter with one uncached forward pass, ``chained_sums``;
``ic_first_terms`` / ``ic_second_terms`` still enumerate every decreasing
sequence and every chained product, and serve as the reference here, with
the recursion the pass replaced (``helpers.oracle_chained_sum``) and the
tally of ``enumerate_S`` x ``chained_filtered``.
"""

import random
from collections import Counter

import pytest

from helpers import oracle_chained_sum
from qalcove.alcove import filtered_A, make_chain
from qalcove.expansions import (
    chained_filtered,
    chained_sums,
    enumerate_S,
    fold_terms,
    ic_first_terms,
    ic_rhs_first,
    ic_rhs_second,
    ic_second_terms,
)
from qalcove.typec import letter_from_pos, letter_pos, zero_vec


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


def _letters_below(src, n):
    return [letter_from_pos(p, n) for p in range(letter_pos(src, n) - 1, 0, -1)]


def _assert_tables_match_oracles(qbg, elements):
    """Every table of ``chained_sums`` from each element, barred sources
    included, against the recursion and the sequence-by-sequence tally."""
    n = qbg.n
    sums = 0
    for w in elements:
        for src in (letter_from_pos(p, n) for p in range(1, 2 * n + 1)):
            table = chained_sums(qbg, w, src)
            assert list(table) == _letters_below(src, n), (w, src)
            for dst, got in table.items():
                assert got == oracle_chained_sum(qbg, w, src, dst) \
                    == _tally(qbg, w, src, dst), (w, src, dst)
                sums += 1
    return sums


def test_chained_sum_matches_tally_rank3(qbg2, qbg3):
    assert _assert_tables_match_oracles(qbg2, qbg2.group) == 8 * 6
    assert _assert_tables_match_oracles(qbg3, qbg3.group) == 48 * 15


def test_chained_sums_match_oracles_rank4_sample(qbg4):
    elements = random.Random(4).sample(qbg4.group, 12)
    assert _assert_tables_match_oracles(qbg4, elements) == 12 * 28


def test_chained_sum_empty_sequence_and_order(qbg3):
    w = (2, -3, 1)
    assert chained_sums(qbg3, w, 1) == {}  # no letter lies below 1
    table = chained_sums(qbg3, w, 3)
    assert list(table) == [2, 1]
    # -2 follows 3 in the letter order, and -4 is no letter at rank 3 (a
    # lookup by position once read it as 3)
    for dst in (3, -2, -4):
        with pytest.raises(KeyError):
            table[dst]


@pytest.mark.parametrize("src", [4, -4, 0, -6])
def test_chained_sums_rejects_a_src_outside_the_rank(qbg3, src):
    # letter_pos(-6, 3) is the position of 1: unchecked, the pass would
    # return the empty table of the letter 1
    with pytest.raises(ValueError, match=f"src={src}"):
        chained_sums(qbg3, (1, 2, 3), src)


@pytest.mark.parametrize("src, dst", [(-2, -4), (-2, 4), (-1, -4)])
def test_letters_outside_the_rank_are_rejected(qbg3, src, dst):
    # filtered_A raised IndexError on these
    with pytest.raises(ValueError, match=f"src={src} dst={dst}"):
        filtered_A(qbg3, (1, 2, 3), src, dst)


def test_make_chain_is_cached():
    for kind in ("gamma", "theta", "eps"):
        assert make_chain(kind, 2, 3) is make_chain(kind, 2, 3)
