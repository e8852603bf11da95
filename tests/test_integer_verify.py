"""Identities decided in integers, against the combination path they replace.

Every verifier and the conjecture scan fold lhs - rhs into integer buckets
{(symbol, atoms): {packed monomial: count}} and ask ``ring.cancels`` whether
each symbol's buckets sum to zero over their common denominator.  The oracle
here is the path before: both sides as reduced ``DemazureCombo``s, the
shifted side through the combination-level ``expand_combo``, compared with
``==`` by ``verify._compare``.  A verified path builds no rational
coefficient; a failing one shows the oracle's residual byte for byte.
"""

import random
import time

import pytest

from helpers import (
    add_term,
    atom_coeff,
    buckets_of,
    coeff,
    combo_sum,
    expand_combo,
    flip_block_sign,
    monomial,
    neg,
)
from qalcove import expansions, verify
from qalcove.cli import VERIFIERS
from qalcove.expansions import (
    expand_to_base,
    ic_lhs,
    ic_rhs_cancel_free_first,
    ic_rhs_first,
    ic_rhs_second,
)
from qalcove.qbg import QBG
from qalcove.ring import (
    EXP_MAX,
    EXP_MIN,
    Coeff,
    DemazureCombo,
    RationalCoeff,
    cancels,
    pack,
    times_atom,
)
from qalcove.typec import window_str, zero_vec

XIS = {2: ((0, 0), (1, -1)), 3: ((0, 0, 0), (1, 0, -1))}


def oracle_report(qbg, variant, w, m, xi):
    """The report of the combination path, as ``verify`` made it before."""
    t0 = time.perf_counter()
    x = (w, xi)
    tail = f"w={window_str(w)} m={m} xi={window_str(xi)}"
    if variant == "first":
        return verify._compare(f"first-half {tail}", ic_lhs(qbg, x, m, "+"),
                               expand_combo(qbg, ic_rhs_first(qbg, x, m)), t0)
    if variant == "second":
        return verify._compare(f"second-half {tail}", ic_lhs(qbg, x, m, "-"),
                               expand_combo(qbg, ic_rhs_second(qbg, x, m)), t0)
    if variant == "cf":
        return verify._compare(f"cancel-free {tail}", ic_rhs_cancel_free_first(qbg, x, m),
                               ic_rhs_first(qbg, x, m), t0)
    inst = f"key-props w={window_str(w)} k={m}"
    reps = [verify._compare(inst, expand_combo(qbg, lhs), rhs, t0)
            for lhs, rhs in (verify.key_first_sides(qbg, w, m),
                             verify.key_second_sides(qbg, w, m))]
    ok = all(r.ok for r in reps)
    return verify.VerificationReport(
        inst, "verified" if ok else "failed",
        sum(r.lhs_terms for r in reps), sum(r.rhs_terms for r in reps), 0.0,
        None if ok else (reps[0].residual or reps[1].residual))


def shown(report):
    """The report's JSON and text without its timing."""
    js = report.to_json()
    js.pop("seconds")
    return js, str(report).replace(f"{report.seconds:.3f}s", "")


def instances(qbg, elements=None):
    for w in elements or qbg.group:
        for m in range(1, qbg.n + 1):
            for xi in XIS.get(qbg.n, (zero_vec(qbg.n),)):
                for variant in VERIFIERS:
                    if variant != "key" or not any(xi):
                        yield variant, w, m, xi


# -- the integer decision against the combination path --------------------


@pytest.mark.parametrize("n", [2, 3])
def test_decision_matches_oracle_exhaustive(n, request):
    qbg = request.getfixturevalue(f"qbg{n}")
    count = 0
    for variant, w, m, xi in instances(qbg):
        got = VERIFIERS[variant](qbg, w, m, xi)
        assert shown(got) == shown(oracle_report(qbg, variant, w, m, xi))
        assert got.ok and got.lhs_terms == got.rhs_terms > 0
        count += 1
    assert count == len(qbg.group) * n * (4 + 3)


def test_decision_matches_oracle_rank4_sampled(qbg4):
    for variant, w, m, xi in instances(qbg4, random.Random(17).sample(qbg4.group, 16)):
        got = VERIFIERS[variant](qbg4, w, m, xi)
        assert shown(got) == shown(oracle_report(qbg4, variant, w, m, xi))


def test_sign_fault_reports_the_oracle_residual(monkeypatch):
    """One flipped summand sign in ``_block`` fails some identities; each
    failing report must show exactly the oracle's residual."""
    flip_block_sign(monkeypatch)
    qbg = QBG(3)
    failed = set()
    for variant, w, m, xi in instances(qbg, random.Random(5).sample(qbg.group, 12)):
        got = VERIFIERS[variant](qbg, w, m, xi)
        want = oracle_report(qbg, variant, w, m, xi)
        assert shown(got) == shown(want)
        if not got.ok:
            failed.add(variant)
            assert got.to_json()["residual"] and got.to_json()["residual_latex"]
    # both sides of cf are made of the same faulty blocks, so cf still holds
    assert failed == {"first", "second", "key"}


def test_collapsed_sign_fault_fails_cf_with_the_oracle_residual(monkeypatch):
    """The count ``_collapsed`` gives the letter 1 negated touches only the
    collapsed side of cf, so cf fails; each report must be the oracle's."""
    collapsed = expansions._collapsed

    def faulty(qbg, w, src):
        counts = collapsed(qbg, w, src)
        return lambda dst: [(k, -c if dst == 1 else c) for k, c in counts(dst)]

    monkeypatch.setattr(expansions, "_collapsed", faulty)
    qbg = QBG(3)
    failed = set()
    for variant, w, m, xi in instances(qbg):
        if variant != "cf":
            continue
        got = VERIFIERS[variant](qbg, w, m, xi)
        assert shown(got) == shown(oracle_report(qbg, variant, w, m, xi))
        if not got.ok:
            failed.add((w, m, xi))
            assert got.to_json()["residual"] and got.to_json()["residual_latex"]
    assert len(failed) == 192 and {xi for _, _, xi in failed} == set(XIS[3])


def test_minus_expansion_fault_fails_the_second_key_identity_only(monkeypatch):
    """With the first entry, A_1 empty, dropped from the head of every
    gch V_w(lam - eps_k) expansion, only the -eps_k key identity reads its
    lhs through such an expansion: every key report fails with the second
    identity's residual, which the oracle reads through the same heads."""
    head = expansions._head

    def faulty(qbg, w, t):
        ends, keys = head(qbg, w, t)
        return (ends[1:], keys[1:]) if t < 0 else (ends, keys)

    monkeypatch.setattr(expansions, "_head", faulty)
    qbg = QBG(3)
    count = 0
    for variant, w, k, xi in instances(qbg):
        if variant != "key":
            continue
        got = VERIFIERS[variant](qbg, w, k, xi)
        assert shown(got) == shown(oracle_report(qbg, variant, w, k, xi))
        inst = f"key-props w={window_str(w)} k={k}"
        first, second = (verify._compare(inst, expand_combo(qbg, lhs), rhs, 0.0)
                         for lhs, rhs in (verify.key_first_sides(qbg, w, k),
                                          verify.key_second_sides(qbg, w, k)))
        assert first.ok and not second.ok and not got.ok
        assert got.residual == second.residual
        count += 1
    assert count == 144


def test_no_rationals_on_the_verified_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a rational coefficient on the verified path")

    monkeypatch.setattr(RationalCoeff, "__init__", refuse)
    monkeypatch.setattr(Coeff, "__init__", refuse)
    qbg = QBG(3)
    for variant, w, m, xi in instances(qbg):
        assert VERIFIERS[variant](qbg, w, m, xi).ok, (variant, w, m, xi)
    scan = verify.conjecture_scan(qbg)
    assert not scan.counterexamples and len(scan.working) == 48 * 3


def test_expand_to_base_adds_the_signed_side(qbg3):
    """Shift-0 symbols pass through and shifted ones expand, both times sign."""
    x = ((2, -1, 3), (1, 0, -1))
    for m in (1, 3):
        combo = combo_sum(ic_lhs(qbg3, x, m, "+"), ic_rhs_first(qbg3, x, m))
        entries = [(sym, key, c) for sym, bucket in buckets_of(combo).items()
                   for key, c in bucket.items()]
        want = expand_combo(qbg3, combo)
        for sign, shown_want in ((1, want), (-1, DemazureCombo(3) - want)):
            got = DemazureCombo.from_buckets(3, expand_to_base(qbg3, {}, entries, sign))
            assert got == shown_want and got.to_json() == shown_want.to_json()
        diff = expand_to_base(qbg3, expand_to_base(qbg3, {}, entries), entries, -1)
        assert cancels(3, diff)


# -- zero buckets are never reduced -----------------------------------------


def test_folded_skips_cancelling_buckets(monkeypatch):
    made = []
    init = RationalCoeff.__init__

    def counted(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RationalCoeff, "__init__", counted)
    key, t = ((1, 2, 3), zero_vec(3)), pack(3, (0, zero_vec(3), zero_vec(3)))
    u = pack(3, (1, (0, 2, 0), zero_vec(3)))
    combo = DemazureCombo.folded(3, [((key, ()), t, 2), ((key, (1,)), u, 1),
                                     ((key, ()), t, -2), ((key, (1,)), u, -1)])
    assert combo.is_zero() and made == []
    # a bucket that survives is still reduced once
    DemazureCombo.folded(3, [((key, (1,)), u, 1), ((key, ()), t, 2), ((key, ()), t, -2)])
    assert made == [1]


# -- the common-denominator zero test -----------------------------------------


def _numer(c):
    return dict(c.packed)


def test_cancels_over_different_atom_sets():
    """x/(1 - a_1) and -x(1 - a_2)/((1 - a_1)(1 - a_2)) cancel."""
    n, sym = 3, ((1, 2, 3), zero_vec(3))
    x = monomial(n, 1, q=1, x=(0, 1, 0))
    acc = {(sym, (1,)): _numer(x),
           (sym, (1, 2)): _numer(neg(x * atom_coeff(n, 2)))}
    assert cancels(n, acc)
    # a second symbol that cancels on its own keeps the verdict
    other = ((2, 1, 3), zero_vec(3))
    acc[(other, ())] = {pack(n, (0, zero_vec(3), zero_vec(3))): 0}
    assert cancels(n, acc)


def test_cancels_detects_a_nonzero_sum():
    n, sym = 3, ((1, 2, 3), zero_vec(3))
    x = monomial(n, 1, q=1, x=(0, 1, 0))
    # x/(1 - a_1) - x/(1 - a_2) is not zero
    assert not cancels(n, {(sym, (1,)): _numer(x), (sym, (2,)): _numer(neg(x))})
    # a lone nonzero bucket never cancels, over any denominator
    assert not cancels(n, {(sym, (1, 3)): _numer(x)})
    # the same numerators on different symbols do not cancel each other
    other = ((2, 1, 3), zero_vec(3))
    assert not cancels(n, {(sym, ()): _numer(x), (other, ()): _numer(neg(x))})
    with pytest.raises(ValueError, match="repeated"):
        cancels(n, {(sym, (2, 2)): _numer(x)})


def _random_buckets(rng, n):
    """Integer buckets over one to three symbols with mixed atom sets.  A
    symbol gets random buckets, or pairs c / prod(atoms) and
    -c (1 - a_k) / (prod(atoms) (1 - a_k)) that cancel only across atom
    sets, or both; a symbol with only such pairs vanishes."""
    syms = [(w, mu) for w in ((1, 2, 3)[:n], (2, 1, 3)[:n]) for mu in (zero_vec(n),
                                                                      (1,) + (0,) * (n - 1))]
    acc = {}

    def add(sym, atoms, c):
        bucket = acc.setdefault((sym, atoms), {})
        for key, v in c.packed.items():
            bucket[key] = bucket.get(key, 0) + v

    for sym in rng.sample(syms, rng.randint(1, 3)):
        mode = rng.choice(("random", "pairs", "both"))
        for _ in range(rng.randint(1, 3)):
            atoms = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, min(2, n)))))
            c = coeff(n, {(rng.randint(-2, 1), tuple(rng.randint(-1, 1) for _ in range(n)),
                           (0,) * n): rng.randint(-2, 2) for _ in range(rng.randint(1, 3))})
            if mode != "pairs":
                add(sym, atoms, c)
            free = [k for k in range(1, n + 1) if k not in atoms]
            if mode != "random" and free:
                k = rng.choice(free)
                add(sym, atoms, c)
                add(sym, tuple(sorted(atoms + (k,))), neg(c * atom_coeff(n, k)))
    return acc


def test_decision_display_and_oracle_agree():
    """``cancels``, ``from_buckets`` and one-at-a-time ``add_term`` agree on
    random buckets, and a repeated atom raises from both library paths."""
    rng = random.Random(22)
    verdicts, across, vanished = set(), 0, 0
    for n in (2, 3):
        for _ in range(300):
            acc = _random_buckets(rng, n)
            oracle = DemazureCombo(n)
            for (sym, atoms), bucket in acc.items():
                add_term(oracle, sym, RationalCoeff(Coeff(n, bucket), atoms))
            shown = DemazureCombo.from_buckets(n, acc)
            assert shown == oracle and shown.to_json() == oracle.to_json()
            verdict = cancels(n, acc)
            assert verdict == shown.is_zero() == oracle.is_zero()
            verdicts.add(verdict)
            syms = {sym for sym, _ in acc}
            vanished += len(syms - set(shown.terms))
            across += sum(
                1 for sym in syms - set(shown.terms)
                if sum(1 for (s, _), b in acc.items() if s == sym and any(b.values())) > 1)
            # a repeated atom raises, also in a bucket whose counts cancel
            sym, k = ((1, 2, 3)[:n], zero_vec(n)), rng.randint(1, n)
            key = pack(n, (0, zero_vec(n), zero_vec(n)))
            for count in (1, 0):
                bad = dict(acc)
                bad[(sym, (k, k))] = {key: count}
                for decide in (cancels, DemazureCombo.from_buckets):
                    with pytest.raises(ValueError, match="repeated"):
                        decide(n, bad)
    assert verdicts == {True, False}
    assert across > 0 and vanished > across


def test_times_atom_is_the_coeff_product():
    rng = random.Random(3)
    for n in (2, 3):
        for _ in range(50):
            c = coeff(n, {(rng.randint(-2, 2), tuple(rng.randint(-2, 2) for _ in range(n)),
                           tuple(rng.randint(-1, 1) for _ in range(n))): rng.randint(-3, 3)
                          for _ in range(rng.randint(1, 4))})
            k = rng.randint(1, n)
            got = Coeff(n, times_atom(n, c.packed, k))
            assert got == c * atom_coeff(n, k)


@pytest.mark.parametrize("k", [1, 2])
def test_times_atom_below_exp_min_raises(k):
    n = 2
    x = tuple(EXP_MIN if i == k else 0 for i in range(1, n + 1))
    low = pack(n, (0, x, zero_vec(n)))
    with pytest.raises(ValueError, match="packed range"):
        times_atom(n, {low: 1}, k)
    # the other field and the top of the range are fine
    other = 3 - k
    assert times_atom(n, {low: 1}, other)
    top = pack(n, (0, tuple(EXP_MAX if i == k else 0 for i in range(1, n + 1)), zero_vec(n)))
    assert Coeff(n, times_atom(n, {top: 1}, k)) == \
        Coeff(n, {top: 1}) * atom_coeff(n, k)
    # a zero count is not multiplied, so it cannot leave the range
    assert times_atom(n, {low: 0}, k) == {low: 0}
