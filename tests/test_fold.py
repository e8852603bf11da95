"""The one fold that builds every DemazureCombo, against one-at-a-time sums.

``DemazureCombo.folded`` builds every combination: the inverse-form
right-hand sides, the key sides, the Chevalley expansions (the record
``helpers.chevalley_record`` through its ``combo``), the integer buckets of
``expand_to_base`` shown through ``from_buckets``, differences and
denominator clearing.  ``from_buckets`` adds the buckets of a symbol over
their common atoms with ``times_atom`` and reduces once.  Each oracle below
adds one RationalCoeff at a time through the helpers' ``add_term``, which
puts two fractions over their common atoms with ``atom_coeff`` and
``Coeff.__mul__`` and reduces after every addition.  A reduced fraction is
the unique form of its value, so every builder must give the oracle's
combination exactly: equal, and with the same JSON.
"""

import random
from functools import lru_cache

import pytest

from helpers import (
    add_symbol,
    add_term,
    atom_coeff,
    chevalley_record,
    coeff,
    coeff_terms,
    expand_buckets,
    expand_combo,
    monomial,
    neg,
    oracle_subsets,
    patch_head_plan,
    term_stream,
    term_block,
)
from qalcove import cli, expansions
from qalcove.alcove import make_chain
from qalcove.expansions import (
    _block,
    _mu_index,
    chevalley_expand,
    fold_terms,
    ic_first_summed,
    ic_lhs,
    ic_lhs_term,
    ic_rhs_first,
    ic_rhs_second,
    ic_second_summed,
)
from qalcove.ring import (
    EXP_MAX,
    EXP_MIN,
    Coeff,
    DemazureCombo,
    RationalCoeff,
    clear_denominators,
    divide_by_atom,
    pack,
    packed_words,
    unpack,
)
from qalcove.qbg import QBG
from qalcove.typec import act, eps_vec, zero_vec
from qalcove.verify import _key_sides


def fold_oracle(n, terms):
    combo = DemazureCombo(n)
    for sym, mu, c in terms:
        add_symbol(combo, sym, mu, c)
    return combo


def chevalley_oracle(qbg, w, sign, k, cache):
    """gch V_w(lam +- eps_k) over the whole reduced chain, with wt, height
    and n(A) from the oracle walk: subsets summed one at a time, then each
    coefficient divided by the atom."""
    if (w, sign, k) not in cache:
        n = qbg.n
        chain = make_chain("eps" if sign == "+" else "eps_neg", k, n)
        plain = fold_oracle(n, (
            ((end, down), zero_vec(n),
             monomial(n, -1 if n_neg % 2 else 1, q=-height, nu=wt))
            for _, end, down, n_neg, wt, height in oracle_subsets(qbg, w, chain)))
        atom = k if sign == "+" else k - 1
        combo = DemazureCombo(n)
        for key, rc in plain.terms.items():
            add_term(combo, key, rc * RationalCoeff(monomial(n), (atom,) if atom else ()))
        cache[(w, sign, k)] = combo
    return cache[(w, sign, k)]


def expand_oracle(qbg, combo, cache):
    out = DemazureCombo(combo.n)
    for (y, mu), rc in combo.terms.items():
        if not any(mu):
            add_term(out, (y, mu), rc)
            continue
        k, sign = _mu_index(mu)
        for key2, rc2 in chevalley_oracle(qbg, y, sign, k, cache).terms.items():
            add_term(out, key2, rc2 * rc)
    return out


def key_sides_oracle(qbg, w, t):
    n = qbg.n
    shift = monomial(n, 1, nu=act(w, eps_vec(t, n)))
    rhs = fold_oracle(n, ((sym, zero_vec(n), c * shift)
                          for sym, _, c in coeff_terms(term_block(qbg, w, -t, zero_vec(n)))))
    return fold_oracle(n, coeff_terms(term_block(qbg, w, t, zero_vec(n)))), rhs


def assert_same(a, b):
    assert a == b
    assert a.to_json() == b.to_json()


def assert_record(qbg, w, sign, k, oracle):
    """``chevalley_expand`` gives the oracle's combination, and so does the
    record it reduces, whose entries are distinct (end, key) pairs with
    nonzero counts."""
    assert_same(chevalley_expand(qbg, w, sign, k), oracle)
    record = chevalley_record(qbg, w, sign, k)
    assert_same(record.combo(), oracle)
    assert len(record.ends) == len(record.keys) == len(record.counts)
    assert all(record.counts)
    assert len(set(zip(record.ends, record.keys))) == len(record.keys)


def check_element(qbg, w, xi, cache):
    """Every inverse-form RHS and key side of w, folded and expanded."""
    n = qbg.n
    x = (w, xi)
    for m in range(1, n + 1):
        for built, stream in (
                (ic_rhs_first(qbg, x, m),
                 term_stream(ic_first_summed, qbg, x, m)),
                (ic_rhs_second(qbg, x, m),
                 term_stream(ic_second_summed, qbg, x, m))):
            oracle = fold_oracle(n, coeff_terms(stream))
            assert_same(built, oracle)
            assert_same(expand_buckets(qbg, built), expand_oracle(qbg, oracle, cache))
    for k in range(1, n + 1):
        for t in (k, -k):
            sides = _key_sides(qbg, w, t)
            oracles = key_sides_oracle(qbg, w, t)
            for side, oracle in zip(sides, oracles):
                assert_same(side, oracle)
            assert_same(expand_buckets(qbg, sides[0]),
                        expand_oracle(qbg, oracles[0], cache))


def test_chevalley_expand_matches_oracle(qbg2, qbg3):
    for qbg in (qbg2, qbg3):
        cache = {}
        for w in qbg.group:
            for k in range(1, qbg.n + 1):
                for sign in "+-":
                    assert_record(qbg, w, sign, k, chevalley_oracle(qbg, w, sign, k, cache))


def test_sweep_caches_follow_the_cache_rules():
    """After an exhaustive rank-3 sweep the QBG holds no cache but the walk
    cache, which holds no star walk (the heads are one uncached forward
    pass per shifted group), and the expansions read through that pass
    equal the oracle's for every (y, t) the sweep expanded."""
    qbg = QBG(3)
    for w in qbg.group:
        for m in range(1, 4):
            for variant in ("first", "second", "key"):
                assert cli.VERIFIERS[variant](qbg, w, m, (0, 0, 0)).ok
    assert [name for name, value in vars(qbg).items()
            if isinstance(value, dict)] == ["length", "_adm_cache"]
    assert {chain.kind for _, chain in qbg._adm_cache} == {"gamma", "theta"}
    stored = len(qbg._adm_cache)
    cache = {}
    for w in qbg.group:
        for k in range(1, 4):
            for sign in "+-":
                assert_record(qbg, w, sign, k, chevalley_oracle(qbg, w, sign, k, cache))
    assert {chain.kind for _, chain in qbg._adm_cache} == {"gamma", "theta"}
    assert len(qbg._adm_cache) == stored  # every tail walk was cached already


@pytest.mark.parametrize("xi", [None, "shifted"])
def test_builders_match_oracle_exhaustive(qbg2, qbg3, xi):
    for qbg in (qbg2, qbg3):
        cache = {}
        shift = zero_vec(qbg.n) if xi is None else (1, -1, 0)[:qbg.n]
        for w in qbg.group:
            check_element(qbg, w, shift, cache)


def test_builders_match_oracle_rank4_sampled(qbg4):
    cache = {}
    for w in random.Random(4).sample(qbg4.group, 20):
        check_element(qbg4, w, zero_vec(4), cache)


def _random_coeff(rng, n):
    return coeff(n, {(rng.randint(-2, 1), tuple(rng.randint(-1, 1) for _ in range(n)),
                      tuple(rng.randint(-1, 1) for _ in range(n))): rng.randint(-3, 3)
                     for _ in range(rng.randint(1, 3))})


def _random_items(rng, n):
    """(key, sorted atoms, numer) items over a few keys; some numerators are
    divisible by their atoms, and some cancel an earlier item from another
    bucket of the same key."""
    keys = [((tuple(range(1, n + 1)), zero_vec(n))),
            ((tuple(range(n, 0, -1)), zero_vec(n))),
            ((tuple(range(1, n + 1)), eps_vec(1, n)))]
    items = []
    for _ in range(rng.randint(1, 12)):
        atoms = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, min(2, n)))))
        numer = _random_coeff(rng, n)
        if atoms and rng.random() < 0.3:
            numer = numer * atom_coeff(n, atoms[0])
        items.append((rng.choice(keys), atoms, numer))
        if rng.random() < 0.3:
            key, atoms, numer = rng.choice(items)
            free = [k for k in range(1, n + 1) if k not in atoms]
            if free:
                k = rng.choice(free)
                items.append((key, tuple(sorted(atoms + (k,))),
                              neg(numer * atom_coeff(n, k))))
    return items


def _folded(n, items):
    """``DemazureCombo.folded`` of the items, one entry per monomial."""
    return DemazureCombo.folded(n, (((key, atoms), t, c) for key, atoms, numer in items
                                    for t, c in numer.packed.items()))


def test_summed_random_items_match_oracle():
    """Random items summed by ``folded``, and ``-`` and
    ``clear_denominators`` of the results, against one-at-a-time sums."""
    rng = random.Random(6)
    cancelled = divisible = 0
    for n in (2, 3):
        for _ in range(200):
            items = _random_items(rng, n)
            oracle = DemazureCombo(n)
            for key, atoms, numer in items:
                add_term(oracle, key, RationalCoeff(numer, atoms))
            folded = _folded(n, items)
            assert_same(folded, oracle)
            cancelled += len({item[0] for item in items} - set(folded.terms))
            divisible += sum(not numer.is_zero()
                             and any(divide_by_atom(numer, k) is not None for k in atoms)
                             for _, atoms, numer in items)
            other = _folded(n, _random_items(rng, n))
            want = DemazureCombo(n)
            for key, rc in folded.terms.items():
                add_term(want, key, rc)
            for key, rc in other.terms.items():
                add_term(want, key, neg(rc))
            assert_same(folded - other, want)
            a2, b2, lcm = clear_denominators(folded, other)
            for got, combo in ((a2, folded), (b2, other)):
                want = DemazureCombo(n)
                for key, rc in combo.terms.items():
                    add_term(want, key, RationalCoeff(rc.over(lcm)))
                assert_same(got, want)
    assert cancelled > 0  # some keys cancel to zero across buckets
    assert divisible > 0


def random_combo(rng, qbg):
    """A random combination of up to 6 symbols at every shift, some with an
    atom other than their Chevalley atom, some numerators divisible by it."""
    n = qbg.n
    shifts = [zero_vec(n)] + [eps_vec(t, n) for t in range(-n, n + 1) if t]
    combo = DemazureCombo(n)
    for _ in range(rng.randint(1, 6)):
        mu = rng.choice(shifts)
        k, sign = _mu_index(mu) if any(mu) else (0, "+")
        chev_atom = k if sign == "+" else k - 1
        free = [a for a in range(1, n + 1) if a != chev_atom]
        atoms = rng.sample(free, rng.randint(0, 1))
        numer = _random_coeff(rng, n)
        if atoms and rng.random() < 0.3:
            numer = numer * atom_coeff(n, atoms[0])
        add_term(combo, (rng.choice(qbg.group), mu), RationalCoeff(numer, atoms))
    return combo


def test_expand_to_base_random_combos_match_oracle(qbg2, qbg3):
    """Products of random numerators, with atoms, and Chevalley numerators,
    through the integer buckets and through the combination-level oracle."""
    rng = random.Random(7)
    for qbg in (qbg2, qbg3):
        cache = {}
        for _ in range(60):
            combo = random_combo(rng, qbg)
            want = expand_oracle(qbg, combo, cache)
            assert_same(expand_buckets(qbg, combo), want)
            assert_same(expand_combo(qbg, combo), want)


def _expand_with(monkeypatch, numer, factor, *passing):
    """The integer ``expand_to_base`` of numer V_{12}(lam + eps_1), plus each
    of ``passing`` times V_{21}(lam), with every head chain replaced by one
    with no position and the e-key ``factor``: the forward pass from V_{12}
    takes no step and gives the one middle entry (V_{12}, numer factor),
    each key checked by the pass's real guard.  The tail from V_{12} for
    the letter -1 walks the empty Theta_1, so each expansion is numer factor
    V_{12}(lam) over the atom 1.  The combination-level oracle, which reads
    the same pass through ``chevalley_record``, must agree."""
    assert len(factor.packed) == 1 and set(factor.packed.values()) == {1}
    patch_head_plan(monkeypatch, (), next(iter(factor.packed)) - packed_words(2)[0])
    combo = DemazureCombo(2)
    add_term(combo, ((1, 2), eps_vec(1, 2)), RationalCoeff(numer))
    for rc in passing:
        add_term(combo, ((2, 1), zero_vec(2)), rc)
    try:
        want = expand_combo(QBG(2), combo)
    except ValueError:
        with pytest.raises(ValueError, match="packed range"):
            expand_buckets(QBG(2), combo)
        raise
    got = expand_buckets(QBG(2), combo)
    assert_same(got, want)
    return got


@pytest.mark.parametrize("field", range(4))
def test_summed_product_out_of_range_raises(field, monkeypatch):
    """A product that ``expand_to_base`` sums out of the packed range, here
    an entry's key times a head key at a field edge, raises."""
    def mono(e):
        v = [0] * 4
        v[field] = e
        return coeff(2, {(0, tuple(v[:2]), tuple(v[2:])): 1})

    key = ((1, 2), zero_vec(2))
    top, one, bottom, minus_one = mono(EXP_MAX), mono(1), mono(EXP_MIN), mono(-1)
    for numer, factor in ((top, one), (bottom, minus_one), (top, top),
                          (bottom, bottom), (one, top), (minus_one, bottom)):
        with pytest.raises(ValueError, match="packed range"):
            _expand_with(monkeypatch, numer, factor)
        # the same product among in-range ones still raises
        with pytest.raises(ValueError, match="packed range"):
            _expand_with(monkeypatch, numer + one, factor,
                         RationalCoeff(minus_one, (1,)))
    # the extremes themselves are reachable
    for numer, factor, want in ((top, minus_one, mono(EXP_MAX - 1)),
                                (bottom, one, mono(EXP_MIN + 1)),
                                (top, bottom, mono(-1))):
        got = _expand_with(monkeypatch, numer, factor)
        assert got.terms == {key: RationalCoeff(want, (1,))}


def test_cancelled_head_product_out_of_range_raises(monkeypatch):
    """A key the forward pass forms out of the packed range raises even when
    its count cancels later in the pass, so that no tail is read.

    The head chain is replaced by the roots 2eps_1, whose quantum step adds
    x_1, then 2eps_2.  From V_{(-1,2)} and -V_{(-1,-2)} at the key x_1^top,
    the first position moves both along quantum edges to V_{(1,2)} and
    -V_{(1,-2)} at x_1^{top+1}; at the second the pairs {(1,2), (1,-2)} and
    {(-1,2), (-1,-2)} swap their counts along edges both ways, and every
    count cancels."""
    one, two = (pack(2, (0, (e, 0), (0, 0))) for e in (1, 2))
    bias = packed_words(2)[0]
    patch_head_plan(monkeypatch, (((2, 0), one - bias), ((0, 2), 0)), 0)
    for top, raises in ((pack(2, (0, (EXP_MAX, 0), (0, 0))), True), (two, False)):
        entries = [((((-1, 2), eps_vec(1, 2)), ()), top, 1),
                   ((((-1, -2), eps_vec(1, 2)), ()), top, -1)]
        if raises:
            with pytest.raises(ValueError, match="packed range"):
                expansions.expand_to_base(QBG(2), {}, entries)
        else:
            # in range, every count cancels and no bucket is left
            assert expansions.expand_to_base(QBG(2), {}, entries) == {}


@pytest.mark.parametrize("edge", [EXP_MIN, EXP_MAX])
def test_chevalley_sum_out_of_range_raises(edge, monkeypatch):
    """Every summand key is an A_1 key times a B key; put both at one edge
    through ``translation_key``.  The head plan reads it for the key delta
    of each quantum step, so a fresh plan cache is patched in with it: the
    head of V_{(-1,2)}(lam + eps_1) has the A_1 {1}, {1, 2} and {2}, each
    with one quantum step, and their middle keys carry the edge, which the
    tail then pushes past it."""
    def key_at_edge(mu, xi):
        n = len(xi)
        return pack(n, (0, (edge,) + (0,) * (n - 1), (0,) * n))

    monkeypatch.setattr(expansions, "translation_key", key_at_edge)
    monkeypatch.setattr(expansions, "_head_plan",
                        lru_cache(maxsize=None)(expansions._head_plan.__wrapped__))
    qbg, w, base = QBG(2), (-1, 2), pack(2, (0, (0, 0), (0, 0)))
    middle = expansions._middle(qbg, 1, {w: {base: 1}})
    x_1 = sorted(unpack(2, key)[1][0] for counts in middle.values() for key in counts)
    assert x_1 == sorted([0, edge, edge, edge])
    with pytest.raises(ValueError, match="packed range"):
        expansions.chevalley_expand(qbg, w, "+", 1)


def test_monomial_numerator_keeps_every_atom():
    rng = random.Random(13)
    for n in (3, 4):
        for _ in range(200):
            mono = coeff(n, {(rng.randint(-3, 3), tuple(rng.randint(-2, 2) for _ in range(n)),
                              tuple(rng.randint(-1, 1) for _ in range(n))):
                             rng.choice((-2, -1, 1, 3))})
            atoms = tuple(rng.sample(range(1, n + 1), rng.randint(1, 3)))
            # what the division loop would give: no atom divides a monomial
            assert all(divide_by_atom(mono, k) is None for k in atoms)
            rc = RationalCoeff(mono, atoms)
            assert rc.numer == mono and rc.atoms == tuple(sorted(atoms))
            with pytest.raises(ValueError):
                RationalCoeff(mono, atoms + atoms[:1])


def test_chevalley_expand_matches_oracle_rank4_sampled(qbg4):
    cache = {}
    for w in random.Random(41).sample(qbg4.group, 24):
        for k in range(1, 5):
            for sign in "+-":
                assert_record(qbg4, w, sign, k, chevalley_oracle(qbg4, w, sign, k, cache))


def test_repeated_atom_raises(qbg3, monkeypatch):
    one = monomial(3)
    key = ((1, 2, 3), zero_vec(3))
    t = pack(3, (0, zero_vec(3), zero_vec(3)))
    with pytest.raises(ValueError, match="repeated"):
        DemazureCombo.folded(3, [((key, (1, 1)), t, 1)])
    # a repeated atom raises even when its numerators cancel
    with pytest.raises(ValueError, match="repeated"):
        DemazureCombo.folded(3, [((key, (2, 2)), t, 1), ((key, (2, 2)), t, -1)])
    # an input atom that repeats the Chevalley atom: k for +eps_k, k-1 for -eps_k
    for mu, atom in ((eps_vec(2, 3), 2), (eps_vec(-3, 3), 2)):
        combo = DemazureCombo(3)
        add_term(combo, ((2, 1, 3), mu), RationalCoeff(one, (atom,)))
        for expand in (expand_buckets, expand_combo):
            with pytest.raises(ValueError):
                expand(qbg3, combo)
        with pytest.raises(ValueError):
            expand_oracle(qbg3, combo, {})
    # ... even when the two products that repeat it cancel in the forward
    # pass, so that no tail is read and no bucket holds the repeated atom:
    # along the simple root eps_1 - eps_2 the two elements swap their counts
    patch_head_plan(monkeypatch, (((1, -1, 0), 0),), 0)
    combo = DemazureCombo(3)
    add_term(combo, ((1, 2, 3), eps_vec(2, 3)), RationalCoeff(one, (2,)))
    add_term(combo, ((2, 1, 3), eps_vec(2, 3)), RationalCoeff(neg(one), (2,)))
    for expand in (expand_buckets, expand_combo):
        with pytest.raises(ValueError, match="repeated"):
            expand(QBG(3), combo)


def test_entries_absorb_translation(qbg3):
    # V_{y t_xi}(lam) = prod x_i^{-c_i} V_y(lam) with xi = sum c_i alpha_i^vee
    w, zero, e1 = (1, 2, 3), zero_vec(3), eps_vec(1, 3)
    (sym, atoms), packed, c = ic_lhs_term(qbg3, (w, (0, 1, -1)), 1, "+")
    assert sym == (w, zero) and atoms == () and c == 1
    assert Coeff(3, {packed: c}) == monomial(3, x=(0, -1, 0), nu=e1)
    assert ic_lhs(qbg3, (w, (0, 1, -1)), 1, "+").terms == {
        (w, zero): RationalCoeff(monomial(3, x=(0, -1, 0), nu=e1))}
    # the block's q^{<eps_1, xi>} cancels the translation's q^{-<eps_1, xi>}
    # when it is read at eps_1, not when it is read at 0; here
    # <eps_1, xi> = 1, xi has coordinates (1, 1, 1), and both subsets from
    # w have down 0
    xi = (1, 0, 0)
    for at, mu, q in ((None, e1, 0), (zero, zero, 1)):
        mono = monomial(3, q=q, x=(-1, -1, -1))
        assert fold_terms(3, _block(qbg3, w, 1, xi, at=at)).terms == {
            (w, mu): RationalCoeff(mono), ((2, 1, 3), mu): RationalCoeff(neg(mono))}
