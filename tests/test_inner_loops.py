"""The inner loops against the code they replaced: the closed-form Weyl
length, the walk over precomputed reflection products and packed monomial
keys, and the chain hash the walk cache takes."""

import random

import pytest

from helpers import coeff, normalize, oracle_subsets, root_count_length, terms_of
from qalcove.alcove import (
    CHAIN_KINDS,
    RootChain,
    admissible_subsets,
    make_chain,
    subset_stats,
)
from qalcove.qbg import QBG
from qalcove.ring import (
    EXP_MAX,
    EXP_MIN,
    pack,
    unpack,
)
from qalcove.typec import (
    doubled,
    length,
    mul,
    positive_roots,
    refl_window,
    times_reflection,
    vec_add,
    weyl_group,
)

# -- Weyl length -------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_length_matches_root_count_exhaustively(n):
    for w in weyl_group(n):
        assert length(w) == root_count_length(w), w


def test_length_matches_root_count_on_rank6_sample():
    rng = random.Random(6)
    for _ in range(400):
        p = rng.sample(range(1, 7), 6)
        w = tuple(a * rng.choice((1, -1)) for a in p)
        assert length(w) == root_count_length(w), w


# -- reflection products ---------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reflection_product_matches_mul_exhaustively(n):
    for alpha in positive_roots(n):
        prod, s = times_reflection(alpha), refl_window(alpha)
        for u in weyl_group(n):
            assert prod(doubled(u)) == mul(u, s), (alpha, u)


# -- admissible subsets --------------------------------------------------------


def _assert_walks_agree(qbg, elements):
    n = qbg.n
    for kind in CHAIN_KINDS:
        for k in range(1, n + 1):
            chain = make_chain(kind, k, n)
            for w in elements:
                got = [tuple(A) for A in admissible_subsets(qbg, w, chain)]
                want = [o[:3] for o in oracle_subsets(qbg, w, chain)]
                assert got == want, (kind, k, w)


@pytest.mark.parametrize("n", [2, 3])
def test_admissible_subsets_match_oracle_walk_exhaustively(n):
    qbg = QBG(n)
    _assert_walks_agree(qbg, qbg.group)


def test_admissible_subsets_match_oracle_walk_on_rank4_sample(qbg4):
    _assert_walks_agree(qbg4, random.Random(4).sample(qbg4.group, 16))


def test_admissible_subsets_match_oracle_walk_on_rank5_sample():
    qbg = QBG(5)
    _assert_walks_agree(qbg, random.Random(5).sample(qbg.group, 16))


@pytest.mark.parametrize("positions", [(0,), (-1,), (2, 4)])
def test_subset_stats_rejects_positions_outside_the_chain(qbg3, positions):
    # Theta_3 has positions 1 and 2; 0 and -1 must not wrap to the end
    with pytest.raises(ValueError, match="out of range"):
        subset_stats(qbg3, (1, 2, 3), make_chain("theta", 3, 3), positions)


@pytest.mark.parametrize("positions", [(5, 5), (5, 4)])
def test_subset_stats_rejects_positions_that_do_not_increase(qbg3, positions):
    with pytest.raises(ValueError, match="strictly increase"):
        subset_stats(qbg3, (1, 2, 3), make_chain("gamma", 1, 3), positions)


# -- chain keys ----------------------------------------------------------------


def test_chain_hash_depends_only_on_kind_k_n():
    for kind in CHAIN_KINDS:
        chain = make_chain(kind, 2, 3)
        assert hash(chain) == hash((kind, 2, 3))
        other = RootChain((), kind, 2, 3, (1, 0, 0))
        assert hash(other) == hash(chain)
        assert other != chain  # equality still compares the entries and mu


def test_equal_chains_compare_and_hash_equal(qbg4):
    w = (2, -4, 1, 3)
    for kind in CHAIN_KINDS:
        chain = make_chain(kind, 3, 4)
        copy = RootChain(tuple(chain.entries), chain.kind, chain.k, chain.n, chain.mu)
        assert copy is not chain
        assert copy == chain and hash(copy) == hash(chain)
        # so a chain built anew finds the walk cached under make_chain's
        assert admissible_subsets(qbg4, w, copy) is admissible_subsets(qbg4, w, chain)


# -- packed monomials ----------------------------------------------------------


def _random_key(rng, n, span):
    return (rng.randint(-span, span),
            tuple(rng.randint(-span, span) for _ in range(n)),
            tuple(rng.randint(-span, span) for _ in range(n)))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
def test_unpack_inverts_pack(n):
    rng = random.Random(n)
    edge = (0, (EXP_MIN,) + (EXP_MAX,) * (n - 1), (EXP_MAX,) * (n - 1) + (EXP_MIN,))
    keys = [edge, (-10 ** 40, (0,) * n, (0,) * n)]
    keys += [_random_key(rng, n, 5) for _ in range(200)]
    keys += [_random_key(rng, n, EXP_MAX) for _ in range(200)]
    for key in keys:
        assert unpack(n, pack(n, key)) == key
    # integer order of packed keys is the order of the (q, x, nu) tuples
    assert sorted(keys) == [unpack(n, k) for k in sorted(pack(n, k) for k in keys)]


@pytest.mark.parametrize("key", [
    (0, (EXP_MAX + 1, 0), (0, 0)),
    (0, (0, EXP_MIN - 1), (0, 0)),
    (0, (0, 0), (EXP_MIN - 1, 0)),
    (0, (0, 0), (0, EXP_MAX + 1)),
])
def test_pack_rejects_exponent_out_of_range(key):
    with pytest.raises(ValueError, match="packed range"):
        pack(2, key)
    with pytest.raises(ValueError, match="packed range"):
        coeff(2, {key: 1})


def test_pack_rejects_wrong_rank():
    with pytest.raises(ValueError, match="rank"):
        pack(2, (0, (0, 0, 0), (0, 0)))


def _mono(x, nu, q=0):
    return coeff(len(x), {(q, x, nu): 1})


@pytest.mark.parametrize("field", range(4))
def test_product_out_of_range_raises(field):
    def unit(e):
        v = [0] * 4
        v[field] = e
        return tuple(v[:2]), tuple(v[2:])

    top, one = _mono(*unit(EXP_MAX)), _mono(*unit(1))
    bottom, minus_one = _mono(*unit(EXP_MIN)), _mono(*unit(-1))
    with pytest.raises(ValueError, match="packed range"):
        top * one
    with pytest.raises(ValueError, match="packed range"):
        bottom * minus_one
    with pytest.raises(ValueError, match="packed range"):
        top * top
    with pytest.raises(ValueError, match="packed range"):
        bottom * bottom
    # the extremes themselves are reachable, and q is unbounded
    assert (top * minus_one) * one == top
    assert (bottom * one) * minus_one == bottom
    assert top * bottom == _mono(*unit(-1))
    big = _mono((0, 0), (0, 0), q=10 ** 30)
    assert terms_of(big * big) == {(2 * 10 ** 30, (0, 0), (0, 0)): 1}


def _tuple_product(a, b):
    """The nested-tuple product the packed one replaced."""
    out = {}
    for (q1, x1, n1), c1 in terms_of(a).items():
        for (q2, x2, n2), c2 in terms_of(b).items():
            k = (q1 + q2, vec_add(x1, x2), vec_add(n1, n2))
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_packed_product_matches_tuple_product(n):
    rng = random.Random(100 + n)
    for _ in range(60):
        a, b = (coeff(n, {_random_key(rng, n, 3): rng.randint(-2, 2)
                          for _ in range(rng.randint(0, 6))}) for _ in "ab")
        prod = a * b
        assert terms_of(prod) == _tuple_product(a, b)
        assert list(terms_of(prod)) == list(_tuple_product(a, b))  # same order
        assert prod.sorted_terms() == sorted(_tuple_product(a, b).items())


def test_huge_translation_is_refused():
    with pytest.raises(ValueError, match="packed range"):
        normalize(((1, 2), (2 * EXP_MAX, 0)), (0, 0))
