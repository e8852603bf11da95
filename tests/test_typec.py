"""Root-system and signed-permutation arithmetic."""

import pytest

from helpers import coroot_from_alpha_coords
from qalcove.typec import (
    act,
    alpha_coords,
    coroot,
    eps_vec,
    identity_w,
    image,
    inv,
    is_positive_root,
    length,
    letter_from_pos,
    letter_pos,
    mul,
    pair,
    parse_window,
    parse_word,
    positive_roots,
    reduced_word,
    reflect,
    refl_window,
    rho,
    root_from_letters,
    root_letters,
    root_str,
    simple_refl,
    simple_root,
    vec_add,
    vec_sub,
    w_from_word,
    weyl_group,
    window_str,
    word_str,
)


def test_vec_add_and_sub():
    assert vec_add((1, -2, 0), (3, 2, -1)) == (4, 0, -1)
    assert vec_sub((1, -2, 0), (3, 2, -1)) == (-2, -4, 1)
    assert vec_add((), ()) == ()
    for f in (vec_add, vec_sub):
        for u, v in (((1, 2), (1, 2, 3)), ((1, 2, 3), (1, 2)), ((), (0,))):
            with pytest.raises(ValueError, match="lengths"):
                f(u, v)


def test_pairings_rank3():
    assert pair(rho(3), coroot(root_from_letters(1, 3, 3))) == 2
    assert pair(eps_vec(3, 3), coroot((0, 0, 2))) == 1
    assert pair(rho(3), coroot((0, 0, 2))) == 1


def test_rho_and_simples():
    assert rho(3) == (3, 2, 1)
    assert simple_root(1, 3) == (1, -1, 0)
    assert simple_root(3, 3) == (0, 0, 2)
    assert coroot(simple_root(3, 3)) == (0, 0, 1)
    assert coroot(simple_root(1, 3)) == (1, -1, 0)


def test_positive_roots_count_and_sign():
    for n in (2, 3, 4):
        roots = positive_roots(n)
        assert len(roots) == n * n
        assert len(set(roots)) == n * n
        assert all(is_positive_root(a) for a in roots)


def test_root_letters_round_trip():
    for n in (2, 3, 4):
        for a in positive_roots(n):
            i, j = root_letters(a)
            assert root_from_letters(i, j, n) == a


def test_root_str():
    assert root_str((1, -1, 0)) == "(1,2)"
    assert root_str((1, 0, 1)) == "(1,-3)"
    assert root_str((0, 2, 0)) == "(2,-2)"
    assert root_str((0, -2, 0)) == "-(2,-2)"


def test_reflect():
    # s_{eps1+eps2} swaps eps_1 with -eps_2
    assert reflect((1, 1, 0), eps_vec(1, 3)) == (0, -1, 0)
    assert reflect((0, 0, 2), eps_vec(3, 3)) == (0, 0, -1)
    assert reflect((1, -1, 0), eps_vec(3, 3)) == (0, 0, 1)


def test_window_action():
    w = (3, 2, 1)
    assert act(w, eps_vec(3, 3)) == eps_vec(1, 3)
    assert act(w, (1, 2, 3)) == (3, 2, 1)
    assert act((-1, -2, -3), (1, 2, 3)) == (-1, -2, -3)
    assert image((3, -2, 1), 2) == -2
    assert image((3, -2, 1), -2) == 2


def test_image_is_the_action_on_eps_exhaustively_at_rank3():
    # eps of a barred letter -a is -eps_a
    for w in weyl_group(3):
        for a in (1, 2, 3, -3, -2, -1):
            assert eps_vec(image(w, a), 3) == act(w, eps_vec(a, 3)), (w, a)


def test_mul_inv_words():
    s1, s2 = simple_refl(1, 3), simple_refl(2, 3)
    assert mul(s1, s2) == (2, 3, 1)
    assert inv((2, 3, 1)) == (3, 1, 2)
    assert w_from_word([1, 2, 1], 3) == (3, 2, 1)
    assert w_from_word([3], 3) == (1, 2, -3)
    for n in (2, 3):
        for w in weyl_group(n):
            assert mul(w, inv(w)) == identity_w(n)


def test_length_frozen_values():
    assert length(w_from_word([1, 2, 1], 3)) == 3
    assert length((-1, -2, -3)) == 9
    assert length((-1, -2)) == 4
    assert length(identity_w(3)) == 0
    assert length((1, -3, 2)) == 2  # s3 s2


def test_length_matches_greedy_word_oracle():
    for n in (2, 3):
        for w in weyl_group(n):
            word = reduced_word(w)
            assert w_from_word(word, n) == w
            assert len(word) == length(w)
            assert length(inv(w)) == length(w)


def test_refl_window():
    assert refl_window((1, 1, 0)) == (-2, -1, 3)
    assert refl_window((1, -1, 0)) == simple_refl(1, 3)
    assert refl_window((0, 0, 2)) == simple_refl(3, 3)
    for n in (2, 3):
        for a in positive_roots(n):
            s = refl_window(a)
            assert mul(s, s) == identity_w(n)
            assert act(s, a) == tuple(-c for c in a)


def test_alpha_coords():
    assert alpha_coords((1, 0, -1)) == (1, 1, 0)
    assert alpha_coords((0, 1, -1)) == (0, 1, 0)
    assert alpha_coords((0, 0, 1)) == (0, 0, 1)
    for cv in [(1, 2, 3), (-1, 0, 2), (0, 0, 0)]:
        assert coroot_from_alpha_coords(alpha_coords(cv)) == cv


def test_letter_positions():
    assert [letter_pos(a, 3) for a in (1, 2, 3, -3, -2, -1)] == [1, 2, 3, 4, 5, 6]
    for p in range(1, 7):
        assert letter_pos(letter_from_pos(p, 3), 3) == p


def test_parse_and_render():
    assert parse_window("[3,-2,1]") == (3, -2, 1)
    assert window_str((3, -2, 1)) == "[3,-2,1]"
    assert parse_word("s1 s2 s1", 3) == (3, 2, 1)
    assert parse_word("e", 3) == (1, 2, 3)
    assert word_str([]) == "e"
    assert word_str([2, 1, 3, 2]) == "s2 s1 s3 s2"
    with pytest.raises(ValueError):
        parse_window("[1,1,2]")
    with pytest.raises(ValueError):
        parse_word("s4", 3)


@pytest.mark.parametrize("token", ["s", "sx", "s1x", "t1", "s+1"])
def test_parse_word_names_a_bad_generator(token):
    with pytest.raises(ValueError) as err:
        parse_word(f"s1 {token}", 3)
    assert str(err.value) == f"bad generator '{token}'; expected e.g. 's1'"
