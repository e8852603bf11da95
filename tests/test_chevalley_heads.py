"""``expand_to_base`` through cached heads against the record path it replaced.

``expand_to_base`` sums the shifted entries per (y, key), adds each
nonzero sum's cached head into a middle tally keyed (ed(A_1), key), and
reads a tail only for a nonzero middle entry.  Before, it multiplied every
shifted entry by each entry of a whole Chevalley record.  That path is kept
in ``helpers.oracle_expand_to_base``, and the two must give the same
nonzero buckets on every stream a sweep reads at the base weight: the
summed first and second right-hand sides at xi = 0 and a nonzero xi, the
key left sides, the scan's ``conj_second_blocks`` (each block alone and all
together) and the random atom-carrying combinations of ``test_fold``.
Exhaustive at ranks 2-3, on a seeded sample at rank 4.
"""

import random
from itertools import chain

import pytest

from helpers import (
    buckets_of,
    nonzero_buckets,
    oracle_expand_to_base,
    oracle_record,
)
from qalcove.expansions import (
    _block,
    chevalley_expand,
    conj_second_blocks,
    expand_to_base,
    ic_first_summed,
    ic_second_summed,
)
from qalcove.typec import zero_vec
from test_fold import random_combo


def at_base_streams(qbg, w, xi):
    """Every stream of summands of w that a sweep reads at the base weight."""
    n = qbg.n
    x = (w, xi)
    for m in range(1, n + 1):
        yield ic_first_summed(qbg, x, m)
        yield ic_second_summed(qbg, x, m)
        blocks = conj_second_blocks(qbg, x, m, n)
        yield chain.from_iterable(blocks)
        yield from blocks
    for k in range(1, n + 1):
        for t in (k, -k):
            yield _block(qbg, w, t, zero_vec(n))


def assert_matches_oracle(qbg, entries, records):
    entries = list(entries)
    for sign in (1, -1):
        got = expand_to_base(qbg, {}, entries, sign)
        want = oracle_expand_to_base(qbg, {}, entries, sign, records)
        assert nonzero_buckets(got) == nonzero_buckets(want)


def _check_streams(qbg, elements):
    records = {}
    xi = (1,) + (0,) * (qbg.n - 2) + (-1,)
    for w in elements:
        for shift in (zero_vec(qbg.n), xi):
            for stream in at_base_streams(qbg, w, shift):
                assert_matches_oracle(qbg, stream, records)


@pytest.mark.parametrize("qbg", ["qbg2", "qbg3"])
def test_streams_match_record_path_exhaustive(qbg, request):
    qbg = request.getfixturevalue(qbg)
    _check_streams(qbg, qbg.group)


def test_streams_match_record_path_rank4_sampled(qbg4):
    _check_streams(qbg4, random.Random(31).sample(qbg4.group, 10))


def test_random_combos_match_record_path(qbg2, qbg3):
    rng = random.Random(7)
    for qbg in (qbg2, qbg3):
        records = {}
        for _ in range(60):
            combo = random_combo(rng, qbg)
            assert_matches_oracle(qbg, ((sym, key, c) for sym, bucket in
                                        buckets_of(combo).items()
                                        for key, c in bucket.items()), records)


def _entries(record):
    return sorted(zip(record.ends, record.keys, record.counts))


def _check_records(qbg, elements):
    records = {}
    for w in elements:
        for k in range(1, qbg.n + 1):
            for sign in "+-":
                got = chevalley_expand(qbg, w, sign, k)
                want = oracle_record(qbg, w, sign, k, records)
                assert got.n == want.n and got.atoms == want.atoms
                assert _entries(got) == _entries(want)


def test_chevalley_expand_matches_record_path(qbg2, qbg3, qbg4):
    for qbg in (qbg2, qbg3):
        _check_records(qbg, qbg.group)
    _check_records(qbg4, random.Random(32).sample(qbg4.group, 24))
