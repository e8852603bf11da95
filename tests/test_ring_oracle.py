"""The coefficient ring against sympy, an implementation that shares none of
its code: Coeff sums and products, atom division and reduced fractions, on
seeded random inputs at ranks 2 and 3."""

import random

import pytest

from helpers import atom_coeff, coeff, neg, terms_of
from qalcove.ring import Coeff, RationalCoeff, divide_by_atom

sp = pytest.importorskip("sympy")

Q = sp.Symbol("q")
X = sp.symbols("x1:4")
E = sp.symbols("e1:4")
RANKS = (2, 3)


def to_sympy(c: Coeff):
    return sp.Add(*(v * Q**q * sp.Mul(*(X[i] ** b for i, b in enumerate(x)))
                    * sp.Mul(*(E[i] ** a for i, a in enumerate(nu)))
                    for (q, x, nu), v in terms_of(c).items()))


def atom_sympy(k):
    return 1 - 1 / (Q * X[k - 1])


def cleared(rc: RationalCoeff):
    """rc times the product of all n atoms: a Laurent polynomial."""
    return over_all(rc.numer, rc.atoms)


def over_all(numer: Coeff, atoms):
    """numer / prod(atoms) times the product of all n atoms."""
    return to_sympy(numer) * sp.Mul(*(atom_sympy(k) for k in range(1, numer.n + 1)
                                      if k not in atoms))


def sympy_divisible(c: Coeff, k: int) -> bool:
    """Does 1 - q^-1 x_k^-1 divide the Laurent polynomial c?

    A monomial shift makes c a polynomial, and the atom is (q x_k - 1) over
    the unit q x_k, so this is polynomial division by q x_k - 1."""
    terms = terms_of(c)
    if not terms:
        return True
    exps = [(q, *x, *nu) for q, x, nu in terms]
    low = [min(col) for col in zip(*exps)]
    gens = (Q, *X[:c.n], *E[:c.n])
    poly = sp.Poly.from_dict(
        {tuple(e - b for e, b in zip(exp, low)): v
         for exp, v in zip(exps, terms.values())}, *gens)
    return poly.rem(sp.Poly(Q * X[k - 1] - 1, *gens)).is_zero


def is_zero(expr) -> bool:
    return sp.expand(expr) == 0


def random_coeff(rng, n) -> Coeff:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        key = (rng.randint(-2, 2), tuple(rng.randint(-2, 2) for _ in range(n)),
               tuple(rng.randint(-1, 1) for _ in range(n)))
        terms[key] = rng.choice((-3, -2, -1, 1, 2, 3))
    return coeff(n, terms)


def random_numer(rng, n) -> Coeff:
    numer = random_coeff(rng, n)
    for k in range(1, n + 1):  # now and then a factor the reduction cancels
        if rng.random() < 0.3:
            numer = numer * atom_coeff(n, k)
    return numer


def random_atoms(rng, atoms):
    return rng.sample(atoms, rng.randint(0, len(atoms)))


def random_rational(rng, n, atoms) -> RationalCoeff:
    return RationalCoeff(random_numer(rng, n), random_atoms(rng, atoms))


def assert_reduced(rc: RationalCoeff):
    assert list(rc.atoms) == sorted(set(rc.atoms))
    for k in rc.atoms:
        assert not sympy_divisible(rc.numer, k)


@pytest.mark.parametrize("n", RANKS)
def test_coeff_sum_and_product(n):
    rng = random.Random(100 + n)
    for _ in range(20):
        a, b = random_coeff(rng, n), random_coeff(rng, n)
        sa, sb = to_sympy(a), to_sympy(b)
        assert is_zero(to_sympy(a + b) - (sa + sb))
        assert is_zero(to_sympy(a * b) - sa * sb)


@pytest.mark.parametrize("n", RANKS)
def test_divide_by_atom(n):
    rng = random.Random(200 + n)
    hits = 0
    for _ in range(30):
        k = rng.randint(1, n)
        c = random_coeff(rng, n)
        if rng.random() < 0.5:
            c = c * atom_coeff(n, rng.randint(1, n))
        quot = divide_by_atom(c, k)
        assert (quot is not None) == sympy_divisible(c, k)
        if quot is not None:
            hits += 1
            assert is_zero(to_sympy(quot) * atom_sympy(k) - to_sympy(c))
    assert 0 < hits < 30


@pytest.mark.parametrize("n", RANKS)
def test_rational_arithmetic(n):
    rng = random.Random(300 + n)
    for _ in range(12):
        a = random_rational(rng, n, range(1, n + 1))
        b = random_rational(rng, n, range(1, n + 1))
        c = random_rational(rng, n, [k for k in range(1, n + 1) if k not in a.atoms])
        # compared after multiplying through by every atom, where the
        # values are Laurent polynomials
        every = sp.Mul(*(atom_sympy(k) for k in range(1, n + 1)))
        ta, tb, tc = cleared(a), cleared(b), cleared(c)
        assert_reduced(a + b)
        assert is_zero(cleared(a + b) - (ta + tb))
        assert_reduced(a + neg(b))
        assert is_zero(cleared(a + neg(b)) - (ta - tb))
        assert_reduced(a * c)
        assert is_zero(cleared(a * c) * every - ta * tc)
        assert (a == b) == is_zero(ta - tb)
        bare = RationalCoeff(a.numer)
        assert (a == bare) == is_zero(ta - cleared(bare))
        # the same value over every atom, reduced back
        same = RationalCoeff(a.over(range(1, n + 1)), range(1, n + 1))
        assert a == same and is_zero(cleared(same) - ta)


@pytest.mark.parametrize("n", RANKS)
def test_reduction_keeps_the_value_and_leaves_no_dividing_atom(n):
    rng = random.Random(400 + n)
    for _ in range(20):
        numer, atoms = random_numer(rng, n), random_atoms(rng, range(1, n + 1))
        rc = RationalCoeff(numer, atoms)
        assert_reduced(rc)
        assert is_zero(cleared(rc) - over_all(numer, atoms))


def assert_one_form(x: RationalCoeff, y: RationalCoeff):
    """x and y hold one value (sympy agrees) and so one reduced form."""
    assert is_zero(cleared(x) - cleared(y))
    assert x == y
    assert x.atoms == y.atoms and x.numer.packed == y.numer.packed


@pytest.mark.parametrize("n", RANKS)
def test_equal_values_reached_by_different_routes_are_identical(n):
    rng = random.Random(500 + n)
    for _ in range(12):
        a = random_rational(rng, n, range(1, n))
        b = random_rational(rng, n, range(1, n))
        c = random_rational(rng, n, [k for k in range(1, n + 1)
                                     if k not in a.atoms + b.atoms])
        assert_one_form((a + b) + neg(b), a)
        assert_one_form((a + b) * c, a * c + b * c)
        assert ((a + b) + neg(b) == b) == is_zero(cleared(a) - cleared(b))
