"""The forward pass of the Chevalley heads against the per-source head walks.

``expansions._middle`` sums c_y head(y, t) over the sources of a shifted
group in one pass over the head chain.  Before it, ``expand_to_base`` walked
the head of each source (y, t) and added every entry into the middle tally;
that code is kept as ``helpers.oracle_middle``, and the pass must give its
nonzero middle exactly:

* one source for every (y, t), t = k and t = -k, with a positive and a
  negative count, exhaustively at ranks 2-3;
* seeded random groups of many sources at ranks 4-5 for every t: sources
  that share an element under several keys, pairs whose heads overlap
  with opposite counts so that part of the tally cancels, and keys drawn
  from a small pool so that many ends repeat.
"""

import random

import pytest

from helpers import flat_middle, oracle_middle
from qalcove.expansions import _head_plan, _middle
from qalcove.qbg import QBG
from qalcove.ring import pack, packed_words
from qalcove.typec import doubled, zero_vec


@pytest.fixture(scope="module")
def qbg5():
    return QBG(5)


def _letters(n):
    return [*range(1, n + 1), *range(-n, 0)]


def _key(n, q, x):
    return pack(n, (q, x, zero_vec(n)))


def assert_pass_matches_oracle(qbg, t, sources, heads):
    assert flat_middle(_middle(qbg, t, sources)) == oracle_middle(qbg, t, sources, heads)


@pytest.mark.parametrize("qbg", ["qbg2", "qbg3"])
def test_single_sources_exhaustive(qbg, request):
    qbg = request.getfixturevalue(qbg)
    n = qbg.n
    key = _key(n, 1, (0,) * (n - 1) + (-1,))
    for t in _letters(n):
        heads = {}
        for y in qbg.group:
            for c in (1, -2, 0):
                assert_pass_matches_oracle(qbg, t, {y: {key: c}}, heads)


def random_sources(rng, qbg, t):
    """A few dozen sources: some elements under several keys from a pool of
    four, and for some sources a second one at the end of a step of the
    head chain with the opposite count, so that the two heads overlap."""
    n = qbg.n
    pool = [_key(n, rng.randint(-1, 1), tuple(rng.randint(-1, 1) for _ in range(n)))
            for _ in range(4)]
    steps, _ = _head_plan(n, t)
    sources = {}
    for y in rng.sample(qbg.group, 12):
        for key in rng.sample(pool, rng.randint(1, 3)):
            c = rng.choice((-2, -1, 1, 3))
            sources.setdefault(y, {})[key] = c
            if steps and rng.random() < 0.5:
                prod = rng.choice(steps)[0]
                sources.setdefault(prod(doubled(y)), {})[key] = -c
    return sources


@pytest.mark.parametrize("qbg", ["qbg4", "qbg5"])
def test_random_groups(qbg, request):
    qbg = request.getfixturevalue(qbg)
    rng = random.Random(qbg.n)
    bias = packed_words(qbg.n)[0]
    cancelled = 0
    for t in _letters(qbg.n):
        heads = {}
        for _ in range(6):
            sources = random_sources(rng, qbg, t)
            assert_pass_matches_oracle(qbg, t, sources, heads)
            tally = {}
            for y, counts in sources.items():
                for k1, c in counts.items():
                    for u, k2 in zip(*heads[(y, t)]):
                        tally[(u, k1 + k2 - bias)] = tally.get((u, k1 + k2 - bias), 0) + c
            cancelled += 0 in tally.values()
    # most groups have head entries that cancel
    assert cancelled > 2 * qbg.n
