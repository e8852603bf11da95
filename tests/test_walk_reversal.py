"""The reversal w -> w w0 of the admissible-subset walks.

In type C the longest element w0 is -1, so w w0 is the window -w.  The map
w -> -w turns an edge w -> w s_alpha into the edge -w s_alpha -> -w, with
the same root and the same length change.  So a subset P of the star chain
Gamma*_k(k), admissible from w and ending at y with down d, is the subset
{L + 1 - p : p in P} of Gamma_k(k), admissible from -y and ending at -w with
the same down, and the other way round.  Likewise for Theta*_k and Theta_k.

Any edge rule that reads only the root and the length change keeps this
reversal, a wrong quantum length change included.  The numbers of subsets
walked are therefore pinned as well.

The reversal also transposes the Chevalley records.  The '+' record of w
at k sums over pairs (A_1, B): A_1 in A(w, Gamma*_k(k)) ending at y_1, then
B in A(y_1, Theta_k) ending at e.  Reversed, B becomes the first subset of
the '-' record of -e at k (over Theta*_k) and A_1 its second (over
Gamma_k(k)), ending at -w.  The e-part e^{eps_{y_1(k)}} and the x-part
x^{-down(A_1) - down(B)} carry over; the q-part q^{<eps_k, down(B)>} and
the sign (-1)^{|A_1|} are those of the '-' record.  Rebuilding every '-'
record this way from direct walks is an oracle for the record that
``chevalley_expand`` reduces (``helpers.chevalley_record``, which reads the
'-' heads and their tails) that shares none of its bookkeeping.
"""

import random

import pytest

from helpers import chevalley_record
from qalcove.alcove import admissible_subsets, make_chain, subset_stats
from qalcove.qbg import QBG
from qalcove.ring import pack
from qalcove.typec import alpha_coords, eps_vec, image, pair, vec_add

PAIRS = (("gamma_star", "gamma"), ("theta_star", "theta"))
# star-chain subsets over every w and k at ranks 2-4
STAR_SUBSETS = {2: 76, 3: 944, 4: 12896}


def _neg(w):
    return tuple(-a for a in w)


def _assert_reversed(qbg, w, chain, other):
    """Every subset of ``chain`` from w reverses to one of ``other``;
    returns how many there were."""
    size = len(chain.entries)
    subsets = admissible_subsets(qbg, w, chain)
    for A in subsets:
        positions = tuple(size + 1 - p for p in reversed(A.positions))
        # ValueError if the reversed subset is not admissible from -ed(A)
        B = subset_stats(qbg, _neg(A.end), other, positions)
        assert (B.end, B.down) == (_neg(w), A.down), (w, chain.kind, chain.k, A, B)
    return len(subsets)


def _reversal_counts(qbg, group):
    star = plain = 0
    for w in group:
        for k in range(1, qbg.n + 1):
            for s, p in PAIRS:
                cs, cp = make_chain(s, k, qbg.n), make_chain(p, k, qbg.n)
                star += _assert_reversed(qbg, w, cs, cp)
                plain += _assert_reversed(qbg, w, cp, cs)
    return star, plain


@pytest.mark.parametrize("n", [2, 3, 4])
def test_walk_reversal_exhaustive(n, request):
    qbg = request.getfixturevalue(f"qbg{n}")
    assert _reversal_counts(qbg, qbg.group) == (STAR_SUBSETS[n], STAR_SUBSETS[n])


def test_walk_reversal_rank5_sampled():
    qbg = QBG(5)
    sample = random.Random(5).sample(qbg.group, 24)
    assert _reversal_counts(qbg, sample) == (1231, 1108)


def _transposed_records(qbg, k):
    """{y: {(end, packed key): count}} of the '-' records at k, rebuilt from
    the '+' pairs (A_1, B) of every w; zero counts dropped."""
    n = qbg.n
    head, tail = make_chain("gamma_star", k, n), make_chain("theta", k, n)
    eps = eps_vec(k, n)
    out = {}
    for w in qbg.group:
        for A1 in admissible_subsets(qbg, w, head):
            e = eps_vec(image(A1.end, k), n)
            sign = -1 if len(A1.positions) % 2 else 1
            for B in admissible_subsets(qbg, A1.end, tail):
                x = tuple(-c for c in alpha_coords(vec_add(A1.down, B.down)))
                entry = (_neg(w), pack(n, (pair(eps, B.down), x, e)))
                record = out.setdefault(_neg(B.end), {})
                record[entry] = record.get(entry, 0) + sign
    return {y: {entry: c for entry, c in record.items() if c}
            for y, record in out.items()}


def _check_transposed(qbg, k, elements):
    """Every '-' record at k of ``elements`` against the transposed pairs;
    returns how many were compared."""
    transposed = _transposed_records(qbg, k)
    for y in elements:
        record = chevalley_record(qbg, y, "-", k)
        assert record.atoms == ((k - 1,) if k > 1 else ())
        assert (dict(zip(zip(record.ends, record.keys), record.counts))
                == transposed.get(y, {})), (y, k)
    return len(elements)


@pytest.mark.parametrize("n, records", [(2, 16), (3, 144), (4, 1536)])
def test_minus_records_are_transposed_plus_pairs(n, records, request):
    qbg = request.getfixturevalue(f"qbg{n}")
    assert sum(_check_transposed(qbg, k, qbg.group) for k in range(1, n + 1)) == records


def test_minus_records_are_transposed_plus_pairs_rank5_sampled():
    # the transposition walks every w, so the sample is of k and of y
    rng = random.Random(5)
    qbg = QBG(5)
    k = rng.randrange(1, 6)
    assert _check_transposed(qbg, k, rng.sample(qbg.group, 48)) == 48
