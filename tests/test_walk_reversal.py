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
"""

import random

import pytest

from qalcove.alcove import admissible_subsets, make_chain, subset_stats
from qalcove.qbg import QBG

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
