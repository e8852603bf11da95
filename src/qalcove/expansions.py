r"""Chevalley-type expansions of Demazure characters and their inverses.

The ``ic_*`` builders produce right-hand sides for the inverse problem,
expanding e^{+-w(eps_m)} gch V_{w t_xi}(lam) back into characters at the
shifted weights lam +- eps_j.  ``_inverse_blocks`` builds every form from
its target letters and one count source, which gives each letter after the
first its ((end, down), count) pairs, one block each:

* ``_streamed``  -- every decreasing letter sequence and chained filtered
  product, unsummed: ``ic_first_terms`` / ``ic_second_terms``;
* ``_summed``    -- one ``chained_sums`` table per instance: ``ic_rhs_first``
  / ``ic_rhs_second`` and the ``*_summed`` streams ``verify`` reads;
* ``_collapsed`` -- the one directed path ``p_path``: the collapsed first
  form and the second form cut at ``l``, whose blocks ``conj_second_blocks``
  returns one list each, so a scan over l can add one block per step.

A summand is the entry ((symbol (y, mu), no atoms), key, c) that
``ring.fold_into`` reads: c times the packed monomial ``key`` times
gch V_y(lam + mu), the key holding the translation of the paper's
gch V_{y t_xi}(lam + mu).  Every summand of a right-hand side comes from
``_block``, one per admissible subset of the gamma or theta chain of a
target letter.  ``ic_lhs`` and the ``ic_rhs_*`` builders fold summands
into a ``DemazureCombo``, for display only.

``expand_to_base`` adds summands to integer buckets at the base weight,
which is how ``verify`` decides an identity.  It rewrites V_y(lam + eps_t)
by the Chevalley formula split over the eps_t-chain P * Q: the summands
are summed per y and key, one forward pass over P (``_middle``) turns the
nonzero sums of a shifted group into the middle tally per (ed(A_1), key)
of their heads (the A_1 over P), dropping each count that cancels as soon
as it does, and only a middle entry reads its tail (the A_2 over Q, the
cached walk of the block for -t).  Nothing of a head is stored.
``chevalley_expand`` is that rewrite of one symbol, as the reduced
``DemazureCombo`` that ``expand --k`` shows.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations
from typing import Callable, Iterable, Iterator

from .alcove import admissible_subsets, chain_moves, filtered_A, make_chain
from .qbg import QBG
from .ring import (
    Buckets,
    DemazureCombo,
    Entry,
    _check_atoms,
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
    doubled,
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


def chevalley_expand(qbg: QBG, w: Window, sign: str, k: int) -> DemazureCombo:
    """gch V_w(lam + eps_k) (sign '+') or gch V_w(lam - eps_k) (sign '-')
    as the reduced combination of the gch V_y(lam): ``expand_to_base`` of
    that one symbol.

    Over the reduced chain for mu = +-eps_k,

        gch V_w(lam + mu)
            = f * sum_A (-1)^{n(A)} q^{-height(A)} e^{wt(A)}
                        gch V_{ed(A) t_{down(A)}}(lam)

    where f = 1/(1 - q^{-1} x_k^{-1}) in the plus direction,
    f = 1/(1 - q^{-1} x_{k-1}^{-1}) in the minus direction for k >= 2,
    and f = 1 for the minus direction at k = 1.
    """
    n = qbg.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    t, zero = k if sign == "+" else -k, zero_vec(n)
    return DemazureCombo.from_buckets(n, expand_to_base(
        qbg, {}, [(((w, eps_vec(t, n)), ()), pack(n, (0, zero, zero)), 1)]))


def _atoms(t: int) -> tuple[int, ...]:
    """The atom of gch V_y(lam + eps_t): k for t = k, k - 1 for t = -k, k >= 2."""
    return (t,) if t > 0 else (-t - 1,) if t < -1 else ()


@lru_cache(maxsize=None)
def _eps_key(n: int, a: int) -> int:
    """The packed monomial e^{eps_a} of a letter a, eps_{-a} meaning -eps_a."""
    return pack(n, (0, zero_vec(n), eps_vec(a, n)))


# One position of a head chain: the product doubled(u) -> u s_alpha, the
# length change of a quantum edge, and the key delta of a quantum step.
HeadStep = tuple[Callable[[tuple[int, ...]], Window], int, int]


@lru_cache(maxsize=None)
def _head_plan(n: int, t: int) -> tuple[tuple[HeadStep, ...], tuple[int, ...]]:
    """What ``_middle`` reads of the head chain of eps_t, Gamma*_t(t) or
    Theta*_k for t = -k: per position, its ``chain_moves`` entry with the
    key delta translation_key(eps_t, alpha^vee) - bias of a quantum step;
    per letter a, at index a (from the end for a < 0), the key
    e^{eps_a} - bias that an end u with u(t) = a adds."""
    chain = make_chain("gamma_star" if t > 0 else "theta_star", abs(t), n)
    mu, bias = eps_vec(t, n), packed_words(n)[0]
    steps = tuple((prod, q_diff, translation_key(mu, av) - bias)  # see packed_words
                  for prod, av, q_diff in chain_moves(chain))
    letters = [*range(1, n + 1), *range(-n, 0)]
    return steps, (0, *(_eps_key(n, a) - bias for a in letters))


def _middle(qbg: QBG, t: int, sources: dict[Window, dict[int, int]]
            ) -> dict[Window, dict[int, int]]:
    """The middle tally sum_y c_y head(y, t) of the sources
    {y: {key: c_y}}, as {ed(A_1): {key: count}} with no zero count.

    The eps_t-chain P * Q splits each subset as A_1 u A_2, A_1 over P, so
    wt(A) = ed(A_1) eps_t, height(A) = <eps_t, down(A_1)>, n(A) = |A_2|;
    head(y, t) sums q^{<eps_{-t}, down(A_1)>} x^{-down(A_1)} e^{ed(A_1) eps_t}
    V_{ed(A_1)} over the A_1 in A(y, P), P the chain of ``_head_plan``.
    One forward pass over P computes it for every source at once: a state
    is an element u with its counts per key, a source y starting with its
    nonzero counts (a zero count is dropped), and at each position every
    state with an edge there pushes a snapshot of its counts to the end of
    that edge, a quantum step adding the position's key delta.  A count
    that reaches 0 is deleted at once, so a cancelled part is not carried
    further; at the end each state adds its e-key.  Every key formed,
    kept or not, is checked: ValueError if one left the packed range.
    """
    steps, e_keys = _head_plan(qbg.n, t)
    lengths = qbg.length
    states: dict[Window, list] = {  # u -> [doubled(u), len(u), {key: count}]
        y: [doubled(y), lengths[y], {key: c for key, c in counts.items() if c}]
        for y, counts in sources.items()}
    seen = 0
    for prod, q_diff, delta in steps:
        pushes = []
        for d, lu, counts in states.values():
            if counts:
                y = prod(d)
                diff = lengths[y] - lu
                if diff == 1:
                    pushes.append((y, list(counts.items()), 0))
                elif diff == q_diff:
                    pushes.append((y, list(counts.items()), delta))
        for y, items, delta in pushes:
            st = states.get(y)
            if st is None:
                st = states[y] = [doubled(y), lengths[y], {}]
            out = st[2]
            for key, c in items:
                key += delta
                seen |= key
                c += out.get(key, 0)
                if c:
                    out[key] = c
                else:
                    del out[key]
    middle = {}
    for u, (_, _, counts) in states.items():
        if counts:
            e = e_keys[image(u, t)]
            middle[u] = ends = {key + e: c for key, c in counts.items()}
            for key in ends:
                seen |= key
    check_packed(qbg.n, seen)
    return middle


def _mu_index(mu: Vec) -> tuple[int, str]:
    nz = [(i, c) for i, c in enumerate(mu, start=1) if c]
    if len(nz) != 1 or nz[0][1] not in (1, -1):
        raise ValueError(f"weight shift must be +-eps_k, got {mu}")
    i, c = nz[0]
    return i, "+" if c == 1 else "-"


def expand_to_base(qbg: QBG, acc: Buckets, entries, sign: int = 1) -> Buckets:
    """Add sign times the entries (((y, mu), sorted atoms), key, count) to
    the integer buckets ``acc`` (see ``ring.fold_into``), read at the base
    weight; returns acc.

    An entry at shift 0 is added as it is.  The entries at one shift eps_t
    and atom tuple are summed once into {y: {key: count}}, the sources of
    one ``_middle`` pass, and each entry of its middle tally
    adds its tail, the B of ``_block`` for -t from ed(A_1) read at lam, to
    the bucket of ed(B).  ValueError if a key left the packed range or an
    atom repeats.
    """
    n = qbg.n
    bias, zero = packed_words(n)[0], zero_vec(n)
    seen = 0
    shifted: dict[tuple, dict] = {}  # (mu, atoms) -> {y: {key: count}}
    for (sym, atoms), key, c in entries:
        seen |= key
        if any(sym[1]):
            group = shifted.get((sym[1], atoms))
            if group is None:
                group = shifted[(sym[1], atoms)] = {}
            out = group.get(sym[0])
            if out is None:
                out = group[sym[0]] = {}
        else:
            out = acc.get((sym, atoms))
            if out is None:
                out = acc[(sym, atoms)] = {}
            c *= sign
        out[key] = out.get(key, 0) + c
    for (mu, atoms), sources in shifted.items():
        k, s = _mu_index(mu)
        t = k if s == "+" else -k
        both, tail = tuple(sorted(_atoms(t) + atoms)), _block_chain(-t, n)
        _check_atoms(both)
        for u, counts in _middle(qbg, t, sources).items():
            for B in admissible_subsets(qbg, u, tail):
                k2 = translation_key(zero, B.down) - bias  # see packed_words
                out = acc.get(((B.end, zero), both))
                if out is None:
                    out = acc[((B.end, zero), both)] = {}
                s = -sign if len(B.positions) % 2 else sign
                for k1, c in counts.items():
                    key = k1 + k2
                    seen |= key
                    out[key] = out.get(key, 0) + s * c
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
    (ed(A), d + down(A)).  A subset A of the walk of ``filtered_A``'s chain
    from v is in filtered_A(v, b, a) for the one a with ed(A)(a) = v(b) if
    a is below b, so each walk is scanned once.  Nothing is stored.
    """
    n = qbg.n
    check_letters(n, src, src)
    letters = [letter_from_pos(p, n) for p in range(letter_pos(src, n), 0, -1)]
    sums: dict[int, ChainedSum] = {a: {} for a in letters}
    sums[src] = {(w, zero_vec(n)): 1}
    for b in letters:
        tally = sums[b] = {k: c for k, c in sums[b].items() if c}
        below, chain = letter_pos(b, n), _block_chain(-b, n)
        for (v, d), c in tally.items():
            target = image(v, b)
            for A in admissible_subsets(qbg, v, chain):
                end = A.end
                a = end.index(target) + 1 if target in end else -end.index(-target) - 1
                if letter_pos(a, n) < below:  # the empty subset gives a = b
                    out, k = sums[a], (end, vec_add(d, A.down))
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
