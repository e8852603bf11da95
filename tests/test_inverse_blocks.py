"""One block loop for every inverse form, against the callbacks it replaced.

``_inverse_blocks(qbg, x, m, l, counts)`` states the letters of each form
and turns every ((end, down), count) pair of a count source into a block.
The oracles in ``helpers`` are the block-yielding callbacks before it:
``oracle_streamed``, ``oracle_summed`` and ``oracle_collapsed``, driven by
``oracle_inverse_blocks`` with the letters each builder passed.  Every form
must give the oracle's blocks, letter by letter and summand by summand:
ranks 2 and 3 exhaustively and a seeded rank-4 sample, every m and cut l,
zero and nonzero xi.  The checks of m and l run at the call, as before.
"""

import random

import pytest

from helpers import (
    oracle_collapsed,
    oracle_inverse_blocks,
    oracle_inverse_terms,
    oracle_second_dsts,
    oracle_streamed,
    oracle_summed,
)
from qalcove.expansions import (
    _collapsed,
    _inverse_blocks,
    _streamed,
    _summed,
    chained_sums,
    conj_second_blocks,
    ic_cf_first_terms,
    ic_conj_second_terms,
    ic_first_summed,
    ic_first_terms,
    ic_second_summed,
    ic_second_terms,
)
from qalcove.typec import zero_vec

XIS = {2: ((0, 0), (1, -1)), 3: ((0, 0, 0), (1, 0, -1)), 4: ((0, 0, 0, 0), (0, 1, 0, -1))}


def forms(n, m):
    """(l, src, oracle letters) of every form at m: the first, then the
    second cut at each l = m..n."""
    yield None, m, range(1, m)
    for l in range(m, n + 1):
        yield l, -m, oracle_second_dsts(n, m, l)


def sources(qbg, w, src):
    """Each count source with the callback it replaced."""
    yield _streamed, oracle_streamed
    yield _summed, oracle_summed(chained_sums(qbg, w, src))
    yield _collapsed, oracle_collapsed


def check_element(qbg, w):
    n = qbg.n
    blocks = 0
    for xi in XIS[n]:
        x = (w, xi)
        for m in range(1, n + 1):
            for l, src, dsts in forms(n, m):
                for counts, oracle in sources(qbg, w, src):
                    got = [list(b) for b in _inverse_blocks(qbg, x, m, l, counts)]
                    want = [list(b) for b in oracle_inverse_blocks(qbg, x, src, dsts, oracle)]
                    assert got == want, (w, xi, m, l, counts.__name__)
                    blocks += len(got)
    return blocks


@pytest.mark.parametrize("n", [2, 3])
def test_inverse_blocks_match_the_callbacks_exhaustive(n, request):
    qbg = request.getfixturevalue(f"qbg{n}")
    assert sum(check_element(qbg, w) for w in qbg.group) > 0


def test_inverse_blocks_match_the_callbacks_rank4_sample(qbg4):
    for w in random.Random(29).sample(qbg4.group, 10):
        check_element(qbg4, w)


def test_each_builder_is_its_form_and_source(qbg3):
    """The builders pick the letters and the source they did before."""
    n = qbg3.n
    for w in qbg3.group:
        for xi in XIS[n]:
            x = (w, xi)
            for m in range(1, n + 1):
                first, second = range(1, m), oracle_second_dsts(n, m, n)
                summed = [oracle_summed(chained_sums(qbg3, w, s)) for s in (m, -m)]
                for got, src, dsts, oracle in (
                        (ic_first_terms, m, first, oracle_streamed),
                        (ic_second_terms, -m, second, oracle_streamed),
                        (ic_cf_first_terms, m, first, oracle_collapsed),
                        (ic_first_summed, m, first, summed[0]),
                        (ic_second_summed, -m, second, summed[1])):
                    assert list(got(qbg3, x, m)) == list(
                        oracle_inverse_terms(qbg3, x, src, dsts, oracle)), (w, m, got)
                for l in range(m, n + 1):
                    want = oracle_inverse_blocks(qbg3, x, -m, oracle_second_dsts(n, m, l),
                                                 oracle_collapsed)
                    assert conj_second_blocks(qbg3, x, m, l) == \
                        [list(b) for b in want], (w, m, l)


@pytest.mark.parametrize("m", [0, 4, -1])
def test_a_bad_m_raises_at_the_call(qbg3, m):
    x = ((1, 2, 3), zero_vec(3))
    msg = f"m must be in 1..3, got {m}"
    for build, args in ((ic_first_summed, ()), (ic_second_summed, ()),
                        (conj_second_blocks, (3,))):
        with pytest.raises(ValueError, match=msg):
            build(qbg3, x, m, *args)
    for build, args in ((ic_first_terms, ()), (ic_second_terms, ()),
                        (ic_cf_first_terms, ()), (ic_conj_second_terms, (3,))):
        terms = build(qbg3, x, m, *args)  # a generator: nothing runs yet
        with pytest.raises(ValueError, match=msg):
            next(terms)


@pytest.mark.parametrize("m, l", [(2, 1), (2, 4), (1, 0), (3, 2)])
def test_a_bad_cut_raises_at_the_call(qbg3, m, l):
    x = ((1, 2, 3), zero_vec(3))
    msg = f"l must be in {m}..3, got {l}"
    with pytest.raises(ValueError, match=msg):
        conj_second_blocks(qbg3, x, m, l)
    terms = ic_conj_second_terms(qbg3, x, m, l)
    with pytest.raises(ValueError, match=msg):
        next(terms)
