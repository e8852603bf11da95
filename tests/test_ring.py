"""Coefficient ring, atom division, normalization, formal combinations."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    add_symbol,
    add_term,
    atom_coeff,
    coeff,
    combo_sum,
    coroot_from_alpha_coords,
    monomial,
    neg,
    normalize,
    shift_lambda,
    simple_coroot,
    specialize,
)
from qalcove.ring import (
    Coeff,
    DemazureCombo,
    RationalCoeff,
    clear_denominators,
    divide_by_atom,
)
from qalcove.typec import pair, vec_add


def mono(n, c=1, q=0, x=None, nu=None):
    return monomial(n, c, q=q, x=x, nu=nu)


def test_coeff_basic_arithmetic():
    one = monomial(2)
    q = mono(2, q=1)
    x1 = mono(2, x=(1, 0))
    assert (one + q) + neg(q) == one
    assert q * x1 == mono(2, q=1, x=(1, 0))
    assert (one + q) * (one + neg(q)) == one + neg(mono(2, q=2))
    # a count that adds to zero is dropped
    assert one + one + one + mono(2, -3) == Coeff(2)
    assert Coeff(2).is_zero() and not one.is_zero()
    # exponentials add in nu
    e1 = mono(2, nu=(1, 0))
    assert e1 * e1 == mono(2, nu=(2, 0))


def test_coeff_specialize_is_evaluation():
    # x1 -> q^{<lam,a1^vee>}, x2 -> q^{<lam,a2^vee>} at lam=(3,1): exps 2 and 1
    c = mono(3, q=2, x=(1, -1, 0)) + mono(3, x=(0, 0, 1))
    lam = (3, 1, 0)
    # <lam,a1^vee>=2, <lam,a2^vee>=1, <lam,a3^vee>=0
    assert specialize(c, lam) == mono(3, q=2 + 2 - 1) + mono(3, q=0)


def test_coeff_shift_lambda_commutes_with_specialize():
    rng = random.Random(7)
    for _ in range(20):
        terms = {
            (rng.randint(-3, 3),
             tuple(rng.randint(-2, 2) for _ in range(3)),
             tuple(rng.randint(-1, 1) for _ in range(3))): rng.randint(-4, 4)
            for _ in range(4)
        }
        c = coeff(3, terms)
        lam = tuple(rng.randint(0, 4) for _ in range(3))
        delta = tuple(rng.randint(-2, 2) for _ in range(3))
        assert specialize(shift_lambda(c, delta), lam) == specialize(c, vec_add(lam, delta))


def test_atom_division_round_trip():
    a2 = atom_coeff(3, 2)
    c = mono(3, 2, q=1, x=(1, 0, -1), nu=(0, 1, 0)) + mono(3, -1, x=(0, 2, 0))
    assert divide_by_atom(c * a2, 2) == c
    assert divide_by_atom(monomial(3), 2) is None
    assert divide_by_atom(a2 * a2, 2) == a2


def test_atom_geometric_series():
    n, k, N = 2, 1, 6
    y = mono(n, q=-1, x=(-1, 0))  # q^{-1} x_1^{-1}
    s = Coeff(n)
    p = monomial(n)
    for _ in range(N + 1):
        s = s + p
        p = p * y
    assert s * atom_coeff(n, k) == monomial(n) + neg(p)


def test_rational_reduces():
    a1 = atom_coeff(2, 1)
    rc = RationalCoeff(a1 * mono(2, 5, q=2), (1,))
    assert rc.atoms == ()
    assert rc.numer == mono(2, 5, q=2)
    # an honest denominator survives
    rc = RationalCoeff(monomial(2), (1,))
    assert rc.atoms == (1,)


def test_rational_arithmetic():
    one = RationalCoeff(monomial(2))
    a = RationalCoeff(monomial(2), (1,))
    b = RationalCoeff(monomial(2), (2,))
    assert (a + neg(a)).is_zero()
    assert a + b == b + a
    # 1/(1-y1) * (1-y1) = 1
    assert a * atom_coeff(2, 1) == one
    # 1/(1-y1) - y1/(1-y1) = 1
    y1 = mono(2, q=-1, x=(-1, 0))
    assert a + RationalCoeff(neg(y1), (1,)) == one
    s = a + one
    assert s.atoms == (1,)
    assert s * atom_coeff(2, 1) == RationalCoeff(monomial(2) + atom_coeff(2, 1))


def test_rational_eq_cross_multiplies():
    # (1 - y1^2)/[(1-y1)(1-y2)] == (1 + y1)/(1-y2)
    y1 = mono(2, q=-1, x=(-1, 0))
    lhs = RationalCoeff(monomial(2) + neg(y1 * y1), (1, 2))
    rhs = RationalCoeff(monomial(2) + y1, (2,))
    assert lhs == rhs
    assert lhs.atoms == (2,)  # reduction already cancelled the first atom


def test_repeated_atom_is_rejected():
    with pytest.raises(ValueError):
        RationalCoeff(monomial(2), (1, 1))
    a = RationalCoeff(monomial(2), (1,))
    ab = RationalCoeff(monomial(2), (1, 2))
    with pytest.raises(ValueError):
        a * ab


@pytest.mark.parametrize("make", [lambda: RationalCoeff(monomial(2)),
                                  lambda: DemazureCombo(2)],
                         ids=["RationalCoeff", "DemazureCombo"])
def test_rational_unhashable(make):
    with pytest.raises(TypeError):
        hash(make())


def test_normalize_frozen():
    # translation by a2^vee at mu=0: x2^{-1}
    key, mult = normalize(((1, 2, 3), (0, 1, -1)), (0, 0, 0))
    assert key == ((1, 2, 3), (0, 0, 0))
    assert mult == mono(3, x=(0, -1, 0))
    # translation by a1^vee+a2^vee at mu=e2: <e2,(1,0,-1)>=0
    key, mult = normalize(((1, 2, 3), (1, 0, -1)), (0, 1, 0))
    assert key == ((1, 2, 3), (0, 1, 0))
    assert mult == mono(3, x=(-1, -1, 0))
    # translation by a1^vee at mu=e1 picks up q^{-1}
    key, mult = normalize(((2, 1, 3), (1, -1, 0)), (1, 0, 0))
    assert key == ((2, 1, 3), (1, 0, 0))
    assert mult == mono(3, q=-1, x=(-1, 0, 0))


def test_normalize_multiplicative_in_translation():
    rng = random.Random(11)
    for _ in range(25):
        mu = tuple(rng.randint(-1, 1) for _ in range(3))
        xi = coroot_from_alpha_coords(tuple(rng.randint(-2, 2) for _ in range(3)))
        eta = coroot_from_alpha_coords(tuple(rng.randint(-2, 2) for _ in range(3)))
        w = (1, 2, 3)
        _, m1 = normalize((w, xi), mu)
        _, m2 = normalize((w, eta), mu)
        _, m12 = normalize((w, vec_add(xi, eta)), mu)
        assert m12 == m1 * m2


def test_combo_absorbs_translation():
    combo = DemazureCombo(3)
    add_symbol(combo, ((1, 2, 3), (0, 1, -1)), (0, 0, 0), monomial(3))
    assert list(combo.terms) == [((1, 2, 3), (0, 0, 0))]
    rc = combo.terms[((1, 2, 3), (0, 0, 0))]
    assert rc == RationalCoeff(mono(3, x=(0, -1, 0)))


def test_combo_addition_and_cancellation():
    a = DemazureCombo(2)
    add_symbol(a, ((1, 2), (0, 0)), (1, 0), monomial(2))
    b = DemazureCombo(2)
    add_symbol(b, ((1, 2), (0, 0)), (1, 0), mono(2, -1))
    assert (a - a).is_zero()
    assert (DemazureCombo(2) - b) == a
    assert not (a - b).is_zero()
    assert (a - b) == combo_sum(a, a)


def test_combo_eq_across_denominator_forms():
    key = ((1, 2), (0, 0))
    a = DemazureCombo(2)
    add_term(a, key, RationalCoeff(atom_coeff(2, 1), (1,)))  # reduces to 1
    b = DemazureCombo(2)
    add_term(b, key, RationalCoeff(monomial(2)))
    assert a == b


def test_clear_denominators():
    key = ((1, 2), (0, 0))
    a = DemazureCombo(2)
    add_term(a, key, RationalCoeff(monomial(2), (1,)))
    b = DemazureCombo(2)
    add_term(b, key, RationalCoeff(monomial(2), (2,)))
    a2, b2, atoms = clear_denominators(a, b)
    assert sorted(atoms) == [1, 2]
    assert all(rc.atoms == () for rc in a2.terms.values())
    assert all(rc.atoms == () for rc in b2.terms.values())
    assert a2.terms[key] == RationalCoeff(atom_coeff(2, 2))
    assert b2.terms[key] == RationalCoeff(atom_coeff(2, 1))


coeff_st = st.builds(
    lambda terms: coeff(2, terms),
    st.dictionaries(
        st.tuples(
            st.integers(-3, 3),
            st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
            st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
        ),
        st.integers(-5, 5),
        max_size=4,
    ),
)


@settings(max_examples=60, deadline=None)
@given(coeff_st, coeff_st, coeff_st)
def test_coeff_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + Coeff(2) == a
    assert a * monomial(2) == a


@settings(max_examples=40, deadline=None)
@given(coeff_st, coeff_st, st.tuples(st.integers(0, 3), st.integers(0, 3)))
def test_specialize_is_homomorphism(a, b, lam):
    assert specialize(a + b, lam) == specialize(a, lam) + specialize(b, lam)
    assert specialize(a * b, lam) == specialize(a, lam) * specialize(b, lam)


def test_atom_specializes_to_dominant_values():
    # at dominant lam the atom is 1 - q^{-1-<lam,a_k^vee>}
    rng = random.Random(3)
    for _ in range(5):
        raw = sorted((rng.randint(0, 5) for _ in range(3)), reverse=True)
        lam = tuple(raw)
        for k in (1, 2, 3):
            d = pair(lam, simple_coroot(k, 3))
            want = monomial(3) + neg(mono(3, q=-1 - d))
            assert specialize(atom_coeff(3, k), lam) == want
