r"""Identity verification engine and proof-machinery property checks.

Every identity is checked exactly, in integers: both sides are folded into
one set of integer buckets holding lhs - rhs, with the shifted-weight
symbols rewritten through Chevalley heads and tails to the base weight
(``expand_to_base``), and the identity holds iff every symbol's buckets
cancel over their common denominator (``ring.cancels``).  Each identity is
stated once, as the summand streams of its two sides; only a failure folds
those same streams again into reduced ``DemazureCombo``s, for a
``VerificationReport`` carrying the residual (difference, denominators
cleared) for inspection.

Alongside the identity checks this module houses the mechanisms the proofs
rest on: the six-case pairing on (B, A1) subset pairs, the group-algebra
collapse of chained filtered sums onto a single directed path, the
cancellation certificate for streamed summands, and the scan over the
conjectured collapsed second-form identities.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

from .alcove import admissible_subsets, make_chain, subset_stats
from .expansions import (
    _block,
    chained_sums,
    conj_second_blocks,
    expand_to_base,
    fold_terms,
    ic_cf_first_terms,
    ic_first_summed,
    ic_lhs_term,
    ic_second_summed,
)
from .qbg import QBG
from .ring import (
    Buckets,
    Coeff,
    DemazureCombo,
    Entry,
    RationalCoeff,
    cancels,
    check_packed,
    clear_denominators,
    fold_into,
)
from .typec import (
    Vec,
    Window,
    act,
    eps_vec,
    reduced_word,
    window_str,
    zero_vec,
)


# -- report plumbing -----------------------------------------------------


@dataclass
class VerificationReport:
    instance: str
    status: str  # "verified" | "failed"
    lhs_terms: int
    rhs_terms: int
    seconds: float
    residual: DemazureCombo | None = None

    @property
    def ok(self) -> bool:
        return self.status == "verified"

    def to_json(self):
        out = {
            "instance": self.instance,
            "status": self.status,
            "lhs_terms": self.lhs_terms,
            "rhs_terms": self.rhs_terms,
            "seconds": round(self.seconds, 6),
        }
        if self.residual is not None:
            out["residual"] = self.residual.to_json()
            out["residual_latex"] = combo_latex(self.residual)
        return out

    def __str__(self) -> str:
        line = (f"[{'ok' if self.ok else 'FAIL'}] {self.instance} "
                f"(lhs {self.lhs_terms}, rhs {self.rhs_terms}, "
                f"{self.seconds:.3f}s)")
        if self.residual is not None:
            line += "\n  residual: " + str(self.residual)
            line += "\n  residual latex: " + combo_latex(self.residual)
        return line


def _compare(instance: str, lhs: DemazureCombo, rhs: DemazureCombo,
             t0: float) -> VerificationReport:
    residual = None
    if lhs != rhs:
        pl, pr, _ = clear_denominators(lhs, rhs)
        residual = pl - pr
    return VerificationReport(instance, "verified" if residual is None else "failed",
                              len(lhs.terms), len(rhs.terms),
                              time.perf_counter() - t0, residual)


def _fold(qbg: QBG, acc: Buckets, terms, at_base: bool, sign: int = 1) -> Buckets:
    """Add sign times a stream of summands to the integer buckets ``acc``,
    rewritten to the base weight by ``expand_to_base`` when ``at_base``."""
    if at_base:
        return expand_to_base(qbg, acc, terms, sign)
    return fold_into(qbg.n, acc, terms, sign)


def _identity(qbg: QBG, instance: str, t0: float, lhs, rhs) -> VerificationReport:
    """The report on the identity lhs = rhs.

    Each side is (a zero-argument callable streaming its summands, whether
    it is read at the base weight).  A side not read at the base weight is
    folded first, and a verified identity has its number of nonzero symbols
    on each side; the other side is subtracted and ``cancels`` decides.  A
    failure folds both sides again from the same streams and goes through
    ``_compare``, which reports the residual.  It stays a failure if the
    reduced sides are equal: the two deciders disagree, which is a fault,
    and the report keeps their zero difference as its residual.
    """
    n = qbg.n
    (terms, at_base), (other, other_at_base) = (rhs, lhs) if lhs[1] else (lhs, rhs)
    diff = _fold(qbg, {}, terms(), at_base)
    symbols = sum(1 for bucket in diff.values() if any(bucket.values()))
    if cancels(n, _fold(qbg, diff, other(), other_at_base, -1)):
        return VerificationReport(instance, "verified", symbols, symbols,
                                  time.perf_counter() - t0)
    lhs, rhs = (DemazureCombo.from_buckets(n, _fold(qbg, {}, side(), at_base))
                for side, at_base in (lhs, rhs))
    report = _compare(instance, lhs, rhs, t0)
    if report.ok:
        report.status, report.residual = "failed", lhs - rhs
    return report


# -- identity checks -----------------------------------------------------


def _verify_inverse(qbg: QBG, w: Window, m: int, xi: Vec | None,
                    sign: str) -> VerificationReport:
    t0 = time.perf_counter()
    xi = zero_vec(qbg.n) if xi is None else tuple(xi)
    x = (w, xi)
    summed, half = (ic_first_summed, "first") if sign == "+" else (ic_second_summed, "second")
    inst = f"{half}-half w={window_str(w)} m={m} xi={window_str(xi)}"
    return _identity(qbg, inst, t0, (lambda: [ic_lhs_term(qbg, x, m, sign)], False),
                     (lambda: summed(qbg, x, m), True))


def verify_first_half(qbg: QBG, w: Window, m: int,
                      xi: Vec | None = None) -> VerificationReport:
    """Check e^{+w(eps_m)} gch V_{w t_xi}(lam) against its expansion."""
    return _verify_inverse(qbg, w, m, xi, "+")


def verify_second_half(qbg: QBG, w: Window, m: int,
                       xi: Vec | None = None) -> VerificationReport:
    """Check e^{-w(eps_m)} gch V_{w t_xi}(lam) against its expansion."""
    return _verify_inverse(qbg, w, m, xi, "-")


def verify_cancel_free(qbg: QBG, w: Window, m: int,
                       xi: Vec | None = None) -> VerificationReport:
    """Check that the collapsed first form equals the alternating one."""
    t0 = time.perf_counter()
    xi = zero_vec(qbg.n) if xi is None else tuple(xi)
    x = (w, xi)
    inst = f"cancel-free w={window_str(w)} m={m} xi={window_str(xi)}"
    return _identity(qbg, inst, t0, (lambda: ic_cf_first_terms(qbg, x, m), False),
                     (lambda: ic_first_summed(qbg, x, m), False))


def _key_terms(qbg: QBG, w: Window, t: int):
    """Both sides of the key identity for t = +-k, as ``_identity`` takes them.

    LHS: the block from w for t, landing at lam + eps_t, read at the base
    weight.  RHS: the block for -t read at lam, times e^{w eps_t}.
    """
    zero = zero_vec(qbg.n)
    nu = act(w, eps_vec(t, qbg.n))
    return ((lambda: _block(qbg, w, t, zero), True),
            (lambda: _block(qbg, w, -t, zero, nu=nu, at=zero), False))


def _key_sides(qbg: QBG, w: Window, t: int) -> tuple[DemazureCombo, DemazureCombo]:
    """Both sides of the key identity for the signed letter t = +-k, folded."""
    return tuple(fold_terms(qbg.n, terms()) for terms, _ in _key_terms(qbg, w, t))


def key_first_sides(qbg: QBG, w: Window, k: int) -> tuple[DemazureCombo, DemazureCombo]:
    """Both sides of the first key identity, unexpanded.

    LHS: sum over B in A(w, Gamma_k(k)) of (-1)^{|B|} V_{ed t_down}(lam+eps_k).
    RHS: sum over A in A(w, Theta_k) of (-1)^{|A|} e^{w eps_k} V_{ed t_down}(lam).
    """
    return _key_sides(qbg, w, k)


def key_second_sides(qbg: QBG, w: Window, k: int) -> tuple[DemazureCombo, DemazureCombo]:
    """Both sides of the second key identity, unexpanded.

    LHS: sum over B in A(w, Theta_k) of (-1)^{|B|} V_{ed t_down}(lam-eps_k).
    RHS: sum over A in A(w, Gamma_k(k)) of (-1)^{|A|} e^{-w eps_k} V_{ed t_down}(lam).
    """
    return _key_sides(qbg, w, -k)


def verify_key_props(qbg: QBG, w: Window, k: int) -> VerificationReport:
    """Check both key identities for (w, k), each lhs read at the base weight."""
    t0 = time.perf_counter()
    inst = f"key-props w={window_str(w)} k={k}"
    rep1 = _identity(qbg, inst, t0, *_key_terms(qbg, w, k))
    rep2 = _identity(qbg, inst, t0, *_key_terms(qbg, w, -k))
    ok = rep1.ok and rep2.ok
    return VerificationReport(
        inst, "verified" if ok else "failed",
        rep1.lhs_terms + rep2.lhs_terms, rep1.rhs_terms + rep2.rhs_terms,
        time.perf_counter() - t0,
        None if ok else (rep1.residual or rep2.residual))


# -- the six-case pairing ------------------------------------------------


def pair_involution(qbg: QBG, w: Window, k: int,
                    B: Iterable[int], A1: Iterable[int]):
    """One application of the six-case pairing to (B, A1); returns
    (B', A1', case) with case in 1..6.

    B is a set of 1-based positions in Gamma_k(k) admissible from w; A1 a
    set of positions in Gamma*_k(k) admissible from ed(B).  With
    L = len(Gamma_k(k)), the element of B at position p has rank L+1-p and
    the element of A1 at position p' has rank p'; ranks can only coincide
    at rank 1 (the unique simple label, position L resp. 1), since equal
    ranks elsewhere would force a two-cycle on a non-simple root.

    Cases: (6) both empty and (5) B={L}, A1={1} are fixed; otherwise the
    element of smallest rank moves across: from B to the front of A1 when
    B's last rank is smaller (case 1), from A1 to the end of B when A1's
    first rank is smaller (case 2); cases 3 and 4 are cases 1 and 2 with
    the rank-1 pair set aside while the element moves, when both L in B
    and 1 in A1.
    """
    n = qbg.n
    L = 2 * n - k
    B = tuple(sorted(set(B)))
    A1 = tuple(sorted(set(A1)))
    gamma = make_chain("gamma", k, n)
    gstar = make_chain("gamma_star", k, n)
    sB = subset_stats(qbg, w, gamma, B)
    subset_stats(qbg, sB.end, gstar, A1)

    if not B and not A1:
        return B, A1, 6
    if B == (L,) and A1 == (1,):
        return B, A1, 5
    # set the rank-1 pair aside, move one element, then put the pair back
    paired = B[-1:] == (L,) and A1[:1] == (1,)
    if paired:
        B, A1 = B[:-1], A1[1:]
    rb = L + 1 - B[-1] if B else None
    ra = A1[0] if A1 else None
    if rb is not None and rb == ra:
        raise AssertionError(f"equal ranks off the simple label: {B} {A1}")
    if ra is None or (rb is not None and rb < ra):
        B, A1, case = B[:-1], tuple(sorted(A1 + (L + 1 - B[-1],))), 1
    else:
        B, A1, case = tuple(sorted(B + (L + 1 - A1[0],))), A1[1:], 2
    if paired:
        return B + (L,), (1,) + A1, case + 2
    return B, A1, case


def pair_domain(qbg: QBG, w: Window, k: int):
    """All (B, A1) pairs: B admissible over Gamma_k(k) from w, A1
    admissible over Gamma*_k(k) from ed(B)."""
    n = qbg.n
    gamma = make_chain("gamma", k, n)
    gstar = make_chain("gamma_star", k, n)
    out = []
    for sB in admissible_subsets(qbg, w, gamma):
        for sA in admissible_subsets(qbg, sB.end, gstar):
            out.append((sB.positions, sA.positions))
    return out


# -- collapse of chained sums --------------------------------------------


def collapse_check(qbg: QBG, w: Window, m: int, j: int) -> bool:
    """Group-algebra collapse of the chained filtered sums onto one path.

    The signed sum over decreasing sequences m -> j and chained filtered
    subsets, tallied by (end, total down) in ``chained_sums``, must be the
    single term (ed(p), wt(p)) with coefficient 1 for the greedy directed
    path p: w -> j.
    """
    if not 1 <= j < m <= qbg.n:
        raise ValueError(f"need 1 <= j < m <= n, got j={j} m={m}")
    p = qbg.p_path(w, m, j)
    return chained_sums(qbg, w, m)[j] == {(p.end, p.weight): 1}


# -- cancellation certificates and the conjecture scan --------------------


def cancellation_certificate(terms: Iterable[Entry]) -> bool:
    """True iff no two streamed summands cancel.

    Each summand is a ``fold_into`` entry ((symbol, atoms), packed
    monomial, count); the stream is cancellation-free when no (symbol,
    atoms, monomial) is hit with both signs.  If a key read before the
    answer lies outside the packed range, ValueError is raised instead: the
    keys are OR-ed together and checked once, as in ``expand_to_base``.
    """
    seen: dict[tuple, bool] = {}
    bits, sym, free = 0, None, True
    for sym, key, c in terms:
        bits |= key
        if seen.setdefault((sym, key), c > 0) != (c > 0):
            free = False
            break
    if sym is not None:
        check_packed(len(sym[0][1]), bits)
    return free


@dataclass
class ConjectureScanResult:
    n: int
    working: dict[tuple[Window, int], tuple[int, ...]]
    expectation_holds: bool  # every working set meets {m, n}
    counterexamples: list[tuple[Window, int]] = field(default_factory=list)
    certificates: dict[tuple[Window, int, int], bool] = field(default_factory=dict)

    def to_json(self):
        return {
            "n": self.n,
            "working": [
                {"w": list(w), "m": m, "l_set": list(ls)}
                for (w, m), ls in sorted(self.working.items())
            ],
            "expectation_holds": self.expectation_holds,
            "counterexamples": [{"w": list(w), "m": m}
                                for w, m in self.counterexamples],
            "certificates": [
                {"w": list(w), "m": m, "l": l, "cancellation_free": ok}
                for (w, m, l), ok in sorted(self.certificates.items())
            ],
        }


def conjecture_scan(qbg: QBG, ms: Iterable[int] | None = None,
                    elements: Iterable[Window] | None = None) -> ConjectureScanResult:
    """Scan the collapsed second-form identity over (w, m) and cut points l.

    For each instance the working set is every l in m..n whose collapsed
    combination expands to e^{-w(eps_m)} gch V_w(lam); an empty working
    set is recorded as a counterexample.  For each working l the
    pre-summation stream is tested for cancellation-freeness.

    The scan is incremental in l: the blocks of ``conj_second_blocks`` are
    built once, and the integer difference lhs - rhs for l is the one for
    l - 1 minus the expanded block for the letter l.
    """
    n = qbg.n
    working: dict[tuple[Window, int], tuple[int, ...]] = {}
    certs: dict[tuple[Window, int, int], bool] = {}
    counter: list[tuple[Window, int]] = []
    ms = tuple(ms) if ms is not None else range(1, n + 1)
    for w in (tuple(elements) if elements is not None else qbg.group):
        for m in ms:
            x = (w, zero_vec(n))
            diff = _fold(qbg, {}, [ic_lhs_term(qbg, x, m, "-")], False)
            blocks = conj_second_blocks(qbg, x, m, n)
            ls = []
            for l in range(m, n + 1):
                cut = n - m + l + 1  # blocks[:cut] make up the form for l
                new = blocks[:cut] if l == m else blocks[cut - 1:cut]
                _fold(qbg, diff, chain.from_iterable(new), True, -1)
                if cancels(n, diff):
                    ls.append(l)
                    certs[(w, m, l)] = cancellation_certificate(
                        chain.from_iterable(blocks[:cut]))
            working[(w, m)] = tuple(ls)
            if not ls:
                counter.append((w, m))
    expectation = all(set(ls) & {m, n}
                      for (w, m), ls in working.items())
    return ConjectureScanResult(n, working, expectation, counter, certs)


# -- LaTeX rendering ------------------------------------------------------


def _eps_latex(nu: Vec) -> str:
    parts = []
    for i, c in enumerate(nu, start=1):
        if not c:
            continue
        if c == 1:
            s = ""
        elif c == -1:
            s = "-"
        else:
            s = str(c)
        s += f"\\varepsilon_{{{i}}}"
        if parts and not s.startswith("-"):
            parts.append("+")
        parts.append(s)
    return "".join(parts) if parts else "0"


def coeff_latex(c: Coeff) -> str:
    if c.is_zero():
        return "0"
    parts = []
    for (qe, xv, nu), co in c.sorted_terms():
        bits = []
        if qe:
            bits.append(f"q^{{{qe}}}")
        for i, e in enumerate(xv, start=1):
            if e:
                bits.append(f"x_{{{i}}}^{{{e}}}" if e != 1 else f"x_{{{i}}}")
        if any(nu):
            bits.append(f"e^{{{_eps_latex(nu)}}}")
        mag = "" if abs(co) == 1 and bits else str(abs(co))
        body = (mag + " ".join(bits)).strip() or "1"
        parts.append(("-" if co < 0 else "+", body))
    out = ""
    for sign, body in parts:
        if not out:
            out = ("-" if sign == "-" else "") + body
        else:
            out += f" {sign} {body}"
    return out


def rc_latex(rc: RationalCoeff) -> str:
    num = coeff_latex(rc.numer)
    if not rc.atoms:
        return num
    den = " ".join(f"(1 - q^{{-1}} x_{{{k}}}^{{-1}})" for k in rc.atoms)
    return f"\\frac{{{num}}}{{{den}}}"


def symbol_latex(key: tuple[Window, Vec]) -> str:
    w, mu = key
    arg = "\\lambda"
    if any(mu):
        s = _eps_latex(mu)
        arg += s if s.startswith("-") else "+" + s
    word = reduced_word(w)
    sub = "e" if not word else "".join(f"s_{{{i}}}" for i in word)
    return f"\\operatorname{{gch}} V^{{-}}_{{{sub}}}({arg})"


def combo_latex(combo: DemazureCombo) -> str:
    if combo.is_zero():
        return "0"
    lines = []
    for key, rc in combo.sorted_items():
        lines.append(f"\\left({rc_latex(rc)}\\right) {symbol_latex(key)}")
    return " + ".join(lines)
