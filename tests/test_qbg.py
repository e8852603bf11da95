"""Quantum Bruhat graph: edges, criterion, letter paths, geodesics."""

import random

import pytest

from helpers import (
    assert_criterion_matches,
    assert_exchange,
    assert_exchange2,
    assert_existence,
    assert_filtered_structure,
    assert_minimum,
    assert_shortest_weights_unique,
    gamma_label,
    oracle_p_path,
    p_path_letters,
    path_weight,
    shortest_paths,
)
from qalcove import qbg as qbg_module
from qalcove.qbg import QBG, move
from qalcove.typec import (
    coroot,
    doubled,
    identity_w,
    pair,
    parse_word,
    positive_roots,
    rho,
    root_from_letters,
    simple_root,
    times_reflection,
)


def test_edge_kind_frozen(qbg3):
    e = identity_w(3)
    for i in (1, 2, 3):
        assert qbg3.edge_kind(e, simple_root(i, 3)) == "B"
    assert qbg3.edge_kind(e, (1, 0, -1)) is None
    assert qbg3.edge_kind((3, 2, 1), (1, 0, -1)) == "Q"
    assert qbg3.edge_kind((1, -3, 2), (0, 1, -1)) == "Q"
    assert qbg3.edge_kind((1, -3, 2), (0, 1, 1)) == "B"
    assert qbg3.edge_kind((1, -3, 2), (0, 2, 0)) is None


def test_simple_roots_always_give_edges(qbg3):
    for w in qbg3.group:
        for i in (1, 2, 3):
            assert qbg3.edge_kind(w, simple_root(i, 3)) is not None


def test_edge_length_conditions(qbg2):
    for w in qbg2.group:
        for a, kind, y in qbg2.edges_from(w):
            if kind == "B":
                assert qbg2.length[y] == qbg2.length[w] + 1
            else:
                assert qbg2.length[y] == qbg2.length[w] + 1 - 2 * pair(rho(2), coroot(a))


def test_criterion_matches_rank2(qbg2):
    assert_criterion_matches(qbg2)


def test_criterion_matches_rank3(qbg3):
    assert_criterion_matches(qbg3)


def test_criterion_matches_rank4_sampled(qbg4):
    sample = qbg4.group[::7]
    assert_criterion_matches(qbg4, group=sample)


def test_gamma_label():
    assert gamma_label(2, 3, 3) == (0, 1, 1)
    assert gamma_label(2, 2, 3) == (0, 2, 0)
    assert gamma_label(2, -3, 3) == (0, 1, -1)
    assert gamma_label(1, 1, 3) == (2, 0, 0)
    assert gamma_label(2, 1, 3) == (1, 1, 0)
    with pytest.raises(ValueError):
        gamma_label(2, -2, 3)


def test_move_matches_its_definition():
    for n in range(1, 7):
        for a in positive_roots(n):
            # the product itself is checked against mul in test_inner_loops
            assert move(a) == (times_reflection(a), coroot(a),
                               1 - 2 * pair(rho(n), coroot(a)))


def test_label_rule_is_gamma_label_ranks_1_to_6():
    # the label from the barred letter -l to an earlier letter k is (k, -l)
    for n in range(1, 7):
        for l in range(1, n + 1):
            ks = list(range(1, n + 1)) + [-p for p in range(l + 1, n + 1)]
            for k in ks:
                assert root_from_letters(k, -l, n) == gamma_label(l, k, n), (n, l, k)


def _assert_p_path_matches_oracle(qbg, group):
    for w in group:
        for src, dst in p_path_letters(qbg.n):
            assert qbg.p_path(w, src, dst) == oracle_p_path(qbg, w, src, dst), (w, src, dst)


def test_p_path_matches_oracle_rank2(qbg2):
    _assert_p_path_matches_oracle(qbg2, qbg2.group)


def test_p_path_matches_oracle_rank3(qbg3):
    _assert_p_path_matches_oracle(qbg3, qbg3.group)


def test_p_path_matches_oracle_rank4_sampled(qbg4):
    _assert_p_path_matches_oracle(qbg4, random.Random(4).sample(qbg4.group, 48))


def test_p_path_unbarred(qbg3):
    w = (3, 2, 1)  # s1 s2 s1
    p = qbg3.p_path(w, 3, 2)
    assert p.steps == (((0, 1, -1), "Q"),)
    assert p.end == (3, 1, 2)
    p = qbg3.p_path(w, 3, 1)
    assert p.steps == (((1, 0, -1), "Q"),)
    assert p.end == identity_w(3)
    assert p.weight == (1, 0, -1)
    p = qbg3.p_path(w, 2, 2)
    assert p.steps == () and p.end == w


def test_p_path_barred(qbg3):
    w = parse_word("s3 s2", 3)  # (1,-3,2)
    assert qbg3.p_path(w, -2, -3).steps == (((0, 1, -1), "Q"),)
    assert qbg3.p_path(w, -2, -3).end == (1, 2, -3)
    assert qbg3.p_path(w, -2, 3).steps == (((0, 1, 1), "B"),)
    assert qbg3.p_path(w, -2, 3).end == (1, -2, 3)
    p = qbg3.p_path(w, -2, 2)
    assert p.steps == (((0, 1, 1), "B"), ((0, 1, -1), "Q"))
    assert p.end == (1, 3, -2)
    assert p.weight == (0, 1, -1)
    p = qbg3.p_path(w, -2, 1)
    assert p.steps == (((0, 1, 1), "B"), ((1, 0, -1), "B"))
    assert p.end == (3, -2, 1)
    assert p.weight == (0, 0, 0)

    v = parse_word("s1 s2 s3 s2 s1", 3)  # (-1,2,3)
    p = qbg3.p_path(v, -1, 1)
    assert p.steps == (((2, 0, 0), "Q"),)
    assert p.end == identity_w(3)
    assert p.weight == (1, 0, 0)
    p = qbg3.p_path(v, -1, -2)
    assert p.steps == (((1, -1, 0), "Q"),)
    assert p.end == (2, -1, 3)
    p = qbg3.p_path(v, -1, -3)
    assert p.steps == (((1, -1, 0), "Q"), ((0, 1, -1), "Q"))
    assert p.end == (2, 3, -1)


def test_p_path_rejects_bad_ranges(qbg3):
    # dst after src, a barred dst equal to src, and letters outside +-1..+-3;
    # the message names both letters
    for src, dst in ((2, 3), (-2, -1), (-2, -2), (-2, 4), (4, 1), (-4, 1),
                     (-2, -4), (0, 1), (1, 0), (3, -4)):
        with pytest.raises(ValueError, match=f"src={src} dst={dst}"):
            qbg3.p_path(identity_w(3), src, dst)
    # an unbarred dst equal to src is the empty path
    p = qbg3.p_path(identity_w(3), 2, 2)
    assert p.steps == () and p.end == identity_w(3) and p.weight == (0, 0, 0)


def test_p_path_rejects_exactly_the_letters_it_cannot_join(qbg2):
    valid = set(p_path_letters(2))
    for src in range(-3, 4):
        for dst in range(-3, 4):
            if (src, dst) in valid:
                qbg2.p_path(identity_w(2), src, dst)
            else:
                with pytest.raises(ValueError):
                    qbg2.p_path(identity_w(2), src, dst)


def test_one_product_per_root_tried(monkeypatch):
    """p_path and edges_from form w s_alpha once for each root they try."""
    calls = []
    monkeypatch.setattr(qbg_module, "doubled",
                        lambda w: calls.append(w) or doubled(w))
    qbg = QBG(3)
    # from the letter -1 the path tries 5 + 4 + 3 + 2 + 1 labels, one step
    # for each letter it passes; forming each target again made 20 products
    path = qbg.p_path((1, 2, 3), -1, 1)
    assert len(path.steps) == 5 and len(calls) == 15
    calls.clear()
    qbg.edges_from((2, -1, 3))
    assert len(calls) == len(qbg.pos_roots) == 9


def test_p_path_weight_helper(qbg3):
    for w in qbg3.group:
        for src, dst in p_path_letters(3):
            p = qbg3.p_path(w, src, dst)
            assert path_weight(p.steps, 3) == p.weight, (w, src, dst)
    assert path_weight((), 3) == (0, 0, 0)


def test_shortest_paths_frozen(qbg3):
    paths = shortest_paths(qbg3, (3, 2, 1), identity_w(3))
    assert len(paths) == 1
    assert paths[0].steps == (((1, 0, -1), "Q"),)


def test_shortest_path_weights_unique_rank2(qbg2):
    assert_shortest_weights_unique(qbg2)


def test_exchange_lemma_rank3(qbg3):
    assert_exchange(qbg3)


def test_exchange2_lemma_rank3(qbg3):
    assert_exchange2(qbg3)


def test_existence_lemma_rank3(qbg3):
    # positive count: the unmodified second bullet would be self-contradictory
    assert assert_existence(qbg3) > 0


def test_minimum_corollary_rank3(qbg3):
    assert_minimum(qbg3)


def test_filtered_structure_rank3(qbg3):
    assert_filtered_structure(qbg3)


def test_lemma_suite_rank4_sampled(qbg4):
    sample = qbg4.group[::17]
    assert_exchange(qbg4, group=sample)
    assert_minimum(qbg4, group=sample)
