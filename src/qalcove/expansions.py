r"""Chevalley-type expansions of Demazure characters and their inverses.

``chevalley_expand`` writes gch V_w(lam +- eps_k) in terms of the gch V_y(lam)
as a ``ChevalleyExpansion``: one shared atom tuple and flat (end, packed
monomial, count) entries, with no rational coefficient.  Its ``combo`` is
the rational combination, built only to show or compare it.  The ``ic_*``
builders produce right-hand sides for the inverse problem, expanding
e^{+-w(eps_m)} gch V_{w t_xi}(lam) back into characters at the shifted
weights lam +- eps_j.  ``_inverse_blocks`` builds every form from its
target letters and one count source, which gives each letter after the
first its ((end, down), count) pairs, one block each:

* ``_streamed``  -- every decreasing letter sequence and chained filtered
  product, unsummed: ``ic_first_terms`` / ``ic_second_terms``;
* ``_summed``    -- one ``chained_sums`` table per instance: ``ic_rhs_first``
  / ``ic_rhs_second`` and the ``*_summed`` streams ``verify`` reads;
* ``_collapsed`` -- the one directed path ``p_path``: the collapsed first
  form and the second form cut at ``l``, whose blocks ``conj_second_blocks``
  returns one list each, so a scan over l can add one block per step.

``ic_lhs`` and the ``ic_rhs_*`` builders return a ``DemazureCombo`` keyed
by (window, weight shift), for display; the ``*_terms`` and ``*_summed``
streams yield the summands before any cancellation, and ``ic_lhs_term``
is the one summand of ``ic_lhs``.  A summand is the
entry ((symbol (y, mu), no atoms), key, c) that ``ring.fold_into`` reads:
c times the packed monomial ``key`` times gch V_y(lam + mu).  The key
already holds the translation of the paper's gch V_{y t_xi}(lam + mu),
q^{-<mu, xi>} prod x_i^{-c_i} with xi = sum c_i alpha_i^vee.  Every
summand of a right-hand side comes from ``_block``: one per admissible
subset of the gamma or theta chain of a target letter, all sharing the
block's head monomial.  ``fold_into`` sums them per symbol in integer
buckets, and ``expand_to_base`` adds them to such buckets at the base
weight, still in integers, which is how ``verify`` decides an identity;
``DemazureCombo.folded`` reduces buckets only for a combination that is
shown.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations
from typing import Callable, Iterable, Iterator, NamedTuple

from .alcove import admissible_subsets, filtered_A, make_chain, walk_subsets
from .qbg import QBG
from .ring import (
    Buckets,
    DemazureCombo,
    Entry,
    check_packed,
    pack,
    packed_words,
    translation_key,
)
from .typec import (
    Vec,
    Window,
    act,
    check_letters,
    eps_vec,
    image,
    letter_from_pos,
    letter_pos,
    pair,
    vec_add,
    zero_vec,
)

AffinePair = tuple[Window, Vec]


def _sign(c: int) -> int:
    return -1 if c % 2 else 1


def enumerate_S(src: int, dst: int, n: int) -> list[tuple[int, ...]]:
    """Strictly decreasing letter sequences from just below src down to dst.

    Letters are signed ints ("barred" = negative) in the total order
    1 < .. < n < -n < .. < -1.  A sequence (j_1 > .. > j_r) must start
    strictly below src and end with j_r = dst; there are 2^(d-1) of them
    where d is the separation of src and dst in the order.

    >>> enumerate_S(3, 2, 3)
    [(2,)]
    >>> sorted(enumerate_S(3, 1, 3))
    [(1,), (2, 1)]
    """
    ps, pd = letter_pos(src, n), letter_pos(dst, n)
    if not pd < ps:
        raise ValueError(f"dst {dst} must precede src {src}")
    between = [letter_from_pos(p, n) for p in range(pd + 1, ps)]
    out = []
    for r in range(len(between) + 1):
        for sub in combinations(between, r):
            seq = tuple(sorted(sub + (dst,), key=lambda a: -letter_pos(a, n)))
            out.append(seq)
    out.sort(key=lambda s: tuple(-letter_pos(a, n) for a in s))
    return out


class ChevalleyExpansion(NamedTuple):
    """gch V_w(lam +- eps_k) as flat entries over one shared denominator.

    Entry i stands for counts[i] q^k x^a e^nu / prod(atoms) gch V_{ends[i]}(lam),
    where keys[i] is the packed monomial q^k x^a e^nu.  Each (end, key)
    occurs once and no count is zero.  The record holds only tuples and
    ints, so it is what ``chevalley_expand`` caches; ``combo`` is the one
    place it becomes a rational combination.
    """

    n: int
    atoms: tuple[int, ...]
    ends: tuple[Window, ...]
    keys: tuple[int, ...]
    counts: tuple[int, ...]

    def combo(self) -> DemazureCombo:
        """The reduced combination, for display and comparison."""
        zero = zero_vec(self.n)
        return DemazureCombo.folded(self.n, (
            (((end, zero), self.atoms), key, c)
            for end, key, c in zip(self.ends, self.keys, self.counts)))

    def to_json(self):
        return self.combo().to_json()


def chevalley_expand(qbg: QBG, w: Window, sign: str, k: int) -> ChevalleyExpansion:
    """gch V_w(lam + eps_k) (sign '+') or gch V_w(lam - eps_k) (sign '-')
    in terms of the gch V_y(lam), as a cached ``ChevalleyExpansion``.

    Over the reduced chain for mu = +-eps_k,

        gch V_w(lam + mu)
            = f * sum_A (-1)^{n(A)} q^{-height(A)} e^{wt(A)}
                        gch V_{ed(A) t_{down(A)}}(lam)

    where f = 1/(1 - q^{-1} x_k^{-1}) in the plus direction,
    f = 1/(1 - q^{-1} x_{k-1}^{-1}) in the minus direction for k >= 2,
    and f = 1 for the minus direction at k = 1.

    The chain is P * Q with P = Gamma*_k(k), Q = Theta_k for eps_k and
    P = Theta*_k, Q = Gamma_k(k) for -eps_k.  Splitting A = A_1 u A_2 gives
    wt(A) = ed(A_1) mu, height(A) = <mu, down(A_1)> and n(A) = |A_2|, so
    the sum runs over A_1 in A(w, P), each with the subsets B = A_2 that
    ``_block`` from ed(A_1) sums for the letter -t, where mu = eps_t, read
    at lam.
    """
    n = qbg.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    cache = qbg._chev_cache
    key = (w, sign, k)
    if key not in cache:
        cache[key] = _chevalley_sum(qbg, w, k if sign == "+" else -k)
    return cache[key]


@lru_cache(maxsize=None)
def _eps_key(n: int, a: int) -> int:
    """The packed monomial e^{eps_a} of a letter a, eps_{-a} meaning -eps_a."""
    return pack(n, (0, zero_vec(n), eps_vec(a, n)))


def _chevalley_sum(qbg: QBG, w: Window, t: int) -> ChevalleyExpansion:
    """The sum of ``chevalley_expand`` for mu = eps_t, counted per (end, key).

    The summand of (A_1, B) is (-1)^{|B|} times the monomial of A_1,
    q^{<eps_{-t}, down(A_1)>} x^{-down(A_1)} e^{ed(A_1) mu}, times the
    monomial x^{-down(B)} of B, added as one sum of packed keys; ed(A_1) mu
    is eps of the letter ed(A_1)(t).  ValueError if a key left the packed
    range.

    The head walk from w is read only here, once per record, so it is
    walked uncached; the tail walks from each ed(A_1) are the blocks'
    cached ones.  Few distinct keys occur in all records, so each kept key
    is the one int ``QBG._keys`` holds for its value.
    """
    n = qbg.n
    mu, zero = eps_vec(t, n), zero_vec(n)
    bias = packed_words(n)[0]
    head = make_chain("gamma_star" if t > 0 else "theta_star", abs(t), n)
    tail = _block_chain(-t, n)
    atom = t if t > 0 else -t - 1
    acc: dict[tuple[Window, int], int] = {}
    x_keys: dict[Vec, int] = {}  # down(B) -> packed x^{-down(B)}
    seen = 0
    for A1 in walk_subsets(qbg, w, head):
        off = (translation_key(mu, A1.down)
               + _eps_key(n, image(A1.end, t)) - 2 * bias)
        for B in admissible_subsets(qbg, A1.end, tail):
            x = x_keys.get(B.down)
            if x is None:
                x = x_keys[B.down] = translation_key(zero, B.down)
            p = off + x  # see packed_words
            seen |= p
            entry = (B.end, p)
            acc[entry] = acc.get(entry, 0) + (-1 if len(B.positions) % 2 else 1)
    check_packed(n, seen)
    one = qbg._keys.setdefault
    kept = [(end, one(p, p), c) for (end, p), c in acc.items() if c]
    ends, keys, counts = zip(*kept) if kept else ((), (), ())
    return ChevalleyExpansion(n, (atom,) if atom else (), ends, keys, counts)


def _mu_index(mu: Vec) -> tuple[int, str]:
    nz = [(i, c) for i, c in enumerate(mu, start=1) if c]
    if len(nz) != 1 or nz[0][1] not in (1, -1):
        raise ValueError(f"weight shift must be +-eps_k, got {mu}")
    i, c = nz[0]
    return i, "+" if c == 1 else "-"


def expand_to_base(qbg: QBG, acc: Buckets, entries, sign: int = 1) -> Buckets:
    """Add sign times the entries (((y, mu), sorted atoms), packed
    monomial, count) to the integer buckets ``acc`` (see
    ``ring.fold_into``), read at the base weight; returns acc.

    An entry already at the base weight (shift 0) is added as it is.  A
    V_y(lam +- eps_k) is rewritten through ``chevalley_expand`` in the same
    loop: each entry of the expansion costs one packed addition and one
    integer product, added to the bucket of the entry's end over both atom
    tuples.  ValueError if an entry's key or a product left the packed
    range.
    """
    n = qbg.n
    bias = packed_words(n)[0]
    zero = zero_vec(n)
    seen = 0
    for (sym, atoms), k1, c1 in entries:
        y, mu = sym
        c1 *= sign
        seen |= k1
        if not any(mu):
            out = acc.get((sym, atoms))
            if out is None:
                out = acc[(sym, atoms)] = {}
            out[k1] = out.get(k1, 0) + c1
            continue
        k, s = _mu_index(mu)
        chev = chevalley_expand(qbg, y, s, k)
        both = tuple(sorted(chev.atoms + atoms))
        k1 -= bias  # see packed_words
        for end, k2, c2 in zip(chev.ends, chev.keys, chev.counts):
            key = k1 + k2
            seen |= key
            out = acc.get(((end, zero), both))
            if out is None:
                out = acc[((end, zero), both)] = {}
            out[key] = out.get(key, 0) + c1 * c2
    check_packed(n, seen)
    return acc


def ic_lhs_term(qbg: QBG, x: AffinePair, m: int, sign: str) -> Entry:
    """The one summand e^{+-w(eps_m)} gch V_{w t_xi}(lam), as the entry of
    V_w(lam) with the translation in its key."""
    n = qbg.n
    _check_m(n, m)
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    (w, xi), zero = x, zero_vec(n)
    nu = act(w, eps_vec(m if sign == "+" else -m, n))
    key = pack(n, (0, zero, nu)) + translation_key(zero, xi) - packed_words(n)[0]
    check_packed(n, key)
    return ((w, zero), ()), key, 1


def ic_lhs(qbg: QBG, x: AffinePair, m: int, sign: str) -> DemazureCombo:
    """The one-term combination of ``ic_lhs_term``."""
    return DemazureCombo.folded(qbg.n, [ic_lhs_term(qbg, x, m, sign)])


def chained_filtered(qbg: QBG, w: Window, src: int,
                     seq: tuple[int, ...]) -> Iterator[tuple[Window, Vec, int]]:
    """Stream (end, total down, sign) over products A_1 x .. x A_r.

    A_i runs over the filtered admissible subsets from the previous
    endpoint along the letter sequence, and sign = (-1)^{sum|A_i| - r}.
    """
    if not seq:
        yield w, zero_vec(qbg.n), 1
        return
    for A in filtered_A(qbg, w, src, seq[0]):
        s = _sign(len(A.positions) - 1)
        for end, d, s2 in chained_filtered(qbg, A.end, seq[0], seq[1:]):
            yield end, vec_add(A.down, d), s * s2


ChainedSum = dict[AffinePair, int]


def chained_sums(qbg: QBG, w: Window, src: int) -> dict[int, ChainedSum]:
    """The chained filtered sums from src to every lower letter, in one pass.

    Maps each letter dst below src to its tally: (end, total down) to the
    signed count of the products that ``chained_filtered`` streams along the
    sequences of ``enumerate_S(src, dst)``; zero counts are dropped.  The
    pass takes the letters from src downward, starting from {(w, 0): 1} at
    src.  When it reaches a letter b, the tally at b is complete, and each
    of its (v, d) pushes (-1)^{|A|-1} times its count, for every A in
    filtered_A(v, b, a), into the tally of each lower letter a, keyed
    (ed(A), d + down(A)).  Nothing is stored on the QBG.
    """
    n = qbg.n
    check_letters(n, src, src)
    letters = [letter_from_pos(p, n) for p in range(letter_pos(src, n), 0, -1)]
    sums: dict[int, ChainedSum] = {a: {} for a in letters}
    sums[src] = {(w, zero_vec(n)): 1}
    for i, b in enumerate(letters):
        tally = sums[b] = {k: c for k, c in sums[b].items() if c}
        for (v, d), c in tally.items():
            for a in letters[i + 1:]:
                out = sums[a]
                for A in filtered_A(qbg, v, b, a):
                    k = (A.end, vec_add(d, A.down))
                    out[k] = out.get(k, 0) + _sign(len(A.positions) - 1) * c
    del sums[src]
    return sums


def _check_m(n: int, m: int):
    if not 1 <= m <= n:
        raise ValueError(f"m must be in 1..{n}, got {m}")


def _block(qbg: QBG, v: Window, t: int, dxi: Vec, s: int = 1,
           nu: Vec | None = None, at: Vec | None = None) -> Iterator[Entry]:
    """Signed summands of the block from v for the target letter t.

    An unbarred t sums over Gamma_t(t) and lands at lam + eps_t; a barred
    t = -j sums over Theta_j and lands at lam - eps_j.  Each subset B gives
    s (-1)^{|B|} q^{<eps_t, dxi>} e^{nu} V_{ed(B) t_{down(B) + dxi}}(lam + at),
    with ``at`` = eps_t unless given (the key identity reads one side at 0),
    as the entry of V_{ed(B)}(lam + at) whose key holds the translation: one
    head per block, q^{<eps_t, dxi>} e^{nu} ``translation_key(at, dxi)``,
    times ``translation_key(at, down(B))``.  A key outside the packed range
    raises ValueError before it is yielded.
    """
    n = qbg.n
    mu, zero = eps_vec(t, n), zero_vec(n)
    at = mu if at is None else at
    head = (pack(n, (pair(mu, dxi), zero, nu or zero)) + translation_key(at, dxi)
            - 2 * packed_words(n)[0])  # see packed_words
    for B in admissible_subsets(qbg, v, _block_chain(t, n)):
        key = head + translation_key(at, B.down)
        check_packed(n, key)
        yield ((B.end, at), ()), key, s * _sign(len(B.positions))


def _block_chain(t: int, n: int):
    """The chain of the block for the letter t: Gamma_t(t), or Theta_j for t = -j."""
    return make_chain("gamma", t, n) if t > 0 else make_chain("theta", -t, n)


# counts(qbg, w, src) gives, per target letter dst, the ((end, total down),
# count) pairs whose blocks dst gets.
Counts = Callable[[int], Iterable[tuple[AffinePair, int]]]


def _streamed(qbg: QBG, w: Window, src: int) -> Counts:
    """Each sequence of ``enumerate_S`` and product ``chained_filtered``
    streams along it, counted by its sign, with nothing summed."""
    return lambda dst: (((v, d), s) for seq in enumerate_S(src, dst, qbg.n)
                        for v, d, s in chained_filtered(qbg, w, src, seq))


def _summed(qbg: QBG, w: Window, src: int) -> Counts:
    """The items of one ``chained_sums`` table, built at the call."""
    sums = chained_sums(qbg, w, src)
    return lambda dst: sums[dst].items()


def _collapsed(qbg: QBG, w: Window, src: int) -> Counts:
    """The end and weight of the one directed path ``p_path``, count 1."""
    return lambda dst: [((p.end, p.weight), 1) for p in [qbg.p_path(w, src, dst)]]


def _inverse_blocks(qbg: QBG, x: AffinePair, m: int, l: int | None,
                    counts: Callable[[QBG, Window, int], Counts]
                    ) -> list[Iterator[Entry]]:
    """The blocks of an inverse form, one lazy stream per letter.

    The first form (l None) has the letters m, then 1..m-1; the second form
    cut at l has -m, then -(m+1)..-n and 1..l.  The first letter src gets
    the block from w; each later letter dst gets, per ((v, d), c) of
    ``counts(qbg, w, src)(dst)``, the block from v for translation d, scaled
    by c; xi is added to every translation.  m and l are checked and
    ``counts`` is called now; a letter's pairs are read with its block.
    """
    n = qbg.n
    _check_m(n, m)
    if l is None:
        src, dsts = m, range(1, m)
    elif m <= l <= n:
        src, dsts = -m, [*range(-m - 1, -n - 1, -1), *range(1, l + 1)]
    else:
        raise ValueError(f"l must be in {m}..{n}, got {l}")
    w, xi = x
    pairs = counts(qbg, w, src)

    def letter(dst: int) -> Iterator[Entry]:
        for (v, d), c in pairs(dst):
            yield from _block(qbg, v, dst, vec_add(d, xi), c)

    return [_block(qbg, w, src, xi), *map(letter, dsts)]


def ic_first_terms(qbg: QBG, x: AffinePair, m: int) -> Iterator[Entry]:
    """Summands of the expansion of e^{+w(eps_m)} gch V_{w t_xi}(lam):
    the block for m lands at lam + eps_m, and each j < m gets one block at
    lam + eps_j per decreasing sequence from m to j and chained product."""
    yield from chain.from_iterable(_inverse_blocks(qbg, x, m, None, _streamed))


def ic_second_terms(qbg: QBG, x: AffinePair, m: int) -> Iterator[Entry]:
    """Summands of the expansion of e^{-w(eps_m)} gch V_{w t_xi}(lam):
    blocks land at lam - eps_m, at lam - eps_j for the barred targets
    j = m+1..n and at lam + eps_j for j = 1..n, streamed as in
    ``ic_first_terms``."""
    yield from chain.from_iterable(_inverse_blocks(qbg, x, m, qbg.n, _streamed))


def ic_cf_first_terms(qbg: QBG, x: AffinePair, m: int) -> Iterator[Entry]:
    """Summands of the collapsed (cancellation-free) first expansion: the
    sums of ``ic_first_terms`` collapse to one directed path per target
    letter, whose weight gives the block's translation."""
    yield from chain.from_iterable(_inverse_blocks(qbg, x, m, None, _collapsed))


def conj_second_blocks(qbg: QBG, x: AffinePair, m: int,
                       l: int) -> list[list[Entry]]:
    """The blocks of the collapsed second expansion with unbarred cut ``l``,
    one list per letter -m, -(m+1)..-n, 1..l; the first n - m + l' + 1 are
    those of any cut m <= l' <= l.  m and l are checked at the call."""
    return [list(b) for b in _inverse_blocks(qbg, x, m, l, _collapsed)]


def ic_conj_second_terms(qbg: QBG, x: AffinePair, m: int,
                         l: int) -> Iterator[Entry]:
    """Summands of the collapsed second expansion with unbarred cut ``l``.

    Barred blocks use the directed path to each -k, k = m+1..n; unbarred
    blocks use the path to each k = 1..l, for a chosen m <= l <= n.
    """
    yield from chain.from_iterable(conj_second_blocks(qbg, x, m, l))


def fold_terms(n: int, terms: Iterable[Entry]) -> DemazureCombo:
    """Sum a stream of summands, each a ``fold_into`` entry."""
    return DemazureCombo.folded(n, terms)


def ic_first_summed(qbg: QBG, x: AffinePair, m: int) -> Iterator[Entry]:
    """The summands of ``ic_first_terms`` with the sequence sums of every
    target letter from one ``chained_sums`` table: one block per entry,
    scaled by its count.  m is checked and the table built at the call."""
    return chain.from_iterable(_inverse_blocks(qbg, x, m, None, _summed))


def ic_second_summed(qbg: QBG, x: AffinePair, m: int) -> Iterator[Entry]:
    """The summands of ``ic_second_terms`` with the sequence sums of every
    target letter from one ``chained_sums`` table: one block per entry,
    scaled by its count.  m is checked and the table built at the call."""
    return chain.from_iterable(_inverse_blocks(qbg, x, m, qbg.n, _summed))


def ic_rhs_first(qbg: QBG, x: AffinePair, m: int) -> DemazureCombo:
    """fold_terms(ic_first_summed)."""
    return fold_terms(qbg.n, ic_first_summed(qbg, x, m))


def ic_rhs_second(qbg: QBG, x: AffinePair, m: int) -> DemazureCombo:
    """fold_terms(ic_second_summed)."""
    return fold_terms(qbg.n, ic_second_summed(qbg, x, m))


def ic_rhs_cancel_free_first(qbg: QBG, x: AffinePair, m: int) -> DemazureCombo:
    return fold_terms(qbg.n, ic_cf_first_terms(qbg, x, m))


def ic_rhs_conjecture_second(qbg: QBG, x: AffinePair, m: int,
                             l: int) -> DemazureCombo:
    return fold_terms(qbg.n, ic_conj_second_terms(qbg, x, m, l))
