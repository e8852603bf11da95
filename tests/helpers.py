"""Shared exhaustive property checks, reused by the acceptance suite, and
the oracles the tests compare the library against."""

import ast
from collections import deque
from functools import lru_cache
from itertools import combinations
from pathlib import Path
from typing import NamedTuple

from qalcove import expansions, verify
from qalcove.alcove import (
    admissible_subsets,
    alcove_walk,
    filtered_A,
    make_chain,
    walk_subsets,
)
from qalcove.qbg import DirectedPath, move
from qalcove.ring import (
    Coeff,
    DemazureCombo,
    RationalCoeff,
    check_packed,
    pack,
    packed_words,
    translation_key,
    unpack,
)
from qalcove.typec import (
    act,
    check_letters,
    coroot,
    eps_vec,
    image,
    inv,
    is_positive_root,
    letter_from_pos,
    letter_pos,
    mul,
    pair,
    positive_roots,
    refl_window,
    root_abs,
    root_from_letters,
    root_letters,
    simple_root,
    vec_add,
    vec_sub,
    zero_vec,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "qalcove"


def _calls(node, name, where):
    """Yield the innermost function around each call of ``name``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        where = node.name
    if isinstance(node, ast.Call) and name in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None)):
        yield where
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, name, where)


def callers_in_src(name):
    """'module: function' for each call of ``name`` in src/, in file and
    source order."""
    return [f"{path.name}: {where}"
            for path in sorted(SRC.glob("*.py"))
            for where in _calls(ast.parse(path.read_text(), filename=str(path)),
                                name, "<module>")]


def _edge(qbg, w, i, j):
    return qbg.edge_kind(w, root_from_letters(i, j, qbg.n))


def _tgt(qbg, w, i, j):
    return mul(w, refl_window(root_from_letters(i, j, qbg.n)))


def assert_exchange(qbg, group=None):
    """Three equivalent ways to extend pairs of (k,m),(l,m) edges, k<l<m."""
    n = qbg.n
    for w in group or qbg.group:
        for m in range(3, n + 1):
            for k in range(1, m - 1):
                for l in range(k + 1, m):
                    e_km = _edge(qbg, w, k, m) is not None
                    e_lm = _edge(qbg, w, l, m) is not None
                    c2 = e_km and e_lm
                    c1 = e_km and e_lm and _edge(qbg, _tgt(qbg, w, l, m), k, l) is not None
                    c3 = e_km and _edge(qbg, _tgt(qbg, w, k, m), l, m) is not None
                    assert c1 == c2 == c3, (w, k, l, m)


def assert_exchange2(qbg, group=None):
    """Edges with disjoint index pairs commute."""
    n = qbg.n
    pairs = [(k, l) for k in range(1, n) for l in range(k + 1, n + 1)]
    for w in group or qbg.group:
        for p1 in pairs:
            for p2 in pairs:
                if set(p1) & set(p2):
                    continue
                c1 = (_edge(qbg, w, *p1) is not None
                      and _edge(qbg, _tgt(qbg, w, *p1), *p2) is not None)
                c2 = (_edge(qbg, w, *p2) is not None
                      and _edge(qbg, _tgt(qbg, w, *p2), *p1) is not None)
                assert c1 == c2, (w, p1, p2)


def edge_starts(qbg, w, m):
    """The set {k in [1,m-1] : w -> (k,m) is an edge}; always contains m-1."""
    out = [k for k in range(1, m) if _edge(qbg, w, k, m)]
    assert out and out[-1] == m - 1
    return out


def _walk(qbg, w, ks, m):
    for k in ks:
        assert _edge(qbg, w, k, m) is not None
        w = _tgt(qbg, w, k, m)
    return w


def assert_existence(qbg, group=None):
    """For any increasing run of (a_i,m) edges ending at y, any c below min(a_i)
    with y -> (c, a_1) an edge but w -> (c,m) NOT an edge bounds every
    edge-start below a_1 strictly from above.

    Returns the number of (w,m,subset,c) instances in which w -> (c,m) IS an
    edge; any such instance shows the unmodified bullet list is contradictory
    (take p = c), so a positive count certifies the "not"-reading.
    """
    contradictory = 0
    for w in group or qbg.group:
        for m in range(2, qbg.n + 1):
            starts = edge_starts(qbg, w, m)
            for r in range(1, len(starts) + 1):
                for sub in combinations(starts, r):
                    a1 = sub[0]
                    if a1 == 1:
                        continue
                    ys = _walk(qbg, w, sub, m)
                    for c in range(1, a1):
                        if _edge(qbg, ys, c, a1) is None:
                            continue
                        if _edge(qbg, w, c, m) is not None:
                            contradictory += 1
                            continue
                        for p in range(1, a1):
                            if _edge(qbg, w, p, m) is not None:
                                assert p < c, (w, m, sub, c, p)
    return contradictory


def assert_minimum(qbg, group=None):
    """The minimal c with z_u -> (c, a_{b_1}) an edge is a_1, for every chain
    of (a_{b_i}, m) edges starting at the second-smallest edge start."""
    for w in group or qbg.group:
        for m in range(2, qbg.n + 1):
            starts = edge_starts(qbg, w, m)
            if len(starts) < 2:
                continue
            a1, ab1 = starts[0], starts[1]
            for r in range(0, len(starts) - 1):
                for tail in combinations(starts[2:], r):
                    zu = _walk(qbg, w, (ab1,) + tail, m)
                    cs = [c for c in range(1, ab1) if _edge(qbg, zu, c, ab1)]
                    assert cs and cs[0] == a1, (w, m, (ab1,) + tail, cs)


def assert_filtered_structure(qbg, group=None):
    """A_w^{m,j} is {j} joined with subsets of larger edge starts, or empty."""
    for w in group or qbg.group:
        for m in range(2, qbg.n + 1):
            starts = edge_starts(qbg, w, m)
            for j in range(1, m):
                got = sorted(A.positions for A in filtered_A(qbg, w, m, j))
                if j not in starts:
                    assert got == [], (w, m, j, got)
                    continue
                larger = [a for a in starts if a > j]
                want = sorted(
                    tuple(sorted((j,) + sub))
                    for r in range(len(larger) + 1)
                    for sub in combinations(larger, r)
                )
                assert got == want, (w, m, j, got, want)


def assert_theta_paths_shortest(qbg, group=None):
    """Paths induced by admissible subsets of Theta_m are geodesics."""
    n = qbg.n
    for w in group or qbg.group:
        for m in range(2, n + 1):
            chain = make_chain("theta", m, n)
            for A in admissible_subsets(qbg, w, chain):
                assert graph_distance(qbg, w, A.end) == len(A.positions), (w, m, A)


def assert_shortest_weights_unique(qbg):
    """All geodesics between any ordered pair have the same weight."""
    for u in qbg.group:
        for v in qbg.group:
            paths = shortest_paths(qbg, u, v)
            assert paths, (u, v)
            weights = {p.weight for p in paths}
            assert len(weights) == 1, (u, v, weights)
            assert all(len(p.steps) == graph_distance(qbg, u, v) for p in paths)


def assert_criterion_matches(qbg, group=None):
    for w in group or qbg.group:
        for a in qbg.pos_roots:
            assert (qbg.edge_kind(w, a) is not None) == criterion_edge(qbg, w, a), (w, a)


# --- oracles for the graph layer, in the paper's notation ------------------

def gamma_label(l, k, n):
    """Positive root gamma_{lbar,k} joining the barred letter -l to a letter k.

    For k = 1..l it is (k, lbar) = eps_k + eps_l (= 2eps_l at k = l); for
    unbarred k = l+1..n it is (l, kbar) = eps_l + eps_k; for barred k = -p
    with p = l+1..n it is (l, p) = eps_l - eps_p.
    """
    if k > 0:
        if k <= l:
            return root_from_letters(k, -l, n)
        return root_from_letters(l, -k, n)
    p = -k
    if not l < p <= n:
        raise ValueError(f"no label from -{l} to {k}")
    return root_from_letters(l, p, n)


def path_weight(steps, n):
    """Sum of alpha^vee over the quantum steps of [(alpha, kind), ...]."""
    acc = zero_vec(n)
    for alpha, kind in steps:
        if kind == "Q":
            acc = vec_add(acc, coroot(alpha))
    return acc


def oracle_p_path(qbg, w, src, dst):
    """The greedy label-decreasing path as ``QBG.p_path`` built it with one
    branch per sign of the current letter, the barred one through
    ``gamma_label``, every candidate label listed up front."""
    n = qbg.n
    steps = []
    cur, letter = w, src
    while letter != dst:
        if letter > 0:
            candidates = [(root_from_letters(k, letter, n), k) for k in range(dst, letter)]
        else:
            l = -letter
            candidates = [
                (gamma_label(l, letter_from_pos(p, n), n), letter_from_pos(p, n))
                for p in range(letter_pos(dst, n), 2 * n - l + 1)
            ]
        for alpha, k in candidates:
            kind = qbg.edge_kind(cur, alpha)
            if kind:
                steps.append((alpha, kind))
                cur = mul(cur, refl_window(alpha))
                letter = k
                break
        else:
            raise AssertionError(f"no admissible step from {cur} at letter {letter}")
    return DirectedPath(w, tuple(steps), cur, path_weight(steps, n))


def p_path_letters(n):
    """Every (src, dst) that ``QBG.p_path`` accepts at rank n."""
    letters = [letter_from_pos(p, n) for p in range(1, 2 * n + 1)]
    return [(src, dst) for src in letters for dst in letters
            if (1 <= dst <= src if src > 0
                else letter_pos(dst, n) < letter_pos(src, n))]


# --- oracles kept from the code the inner loops replaced ---------------------

def root_count_length(w):
    """Weyl length as the number of positive roots that w sends negative."""
    n = len(w)
    return sum(1 for a in positive_roots(n) if not is_positive_root(act(w, a)))


def _oracle_step(qbg, chain, levels, i, state):
    """One walk step recomputing every root datum, with the QBG's edge test."""
    u, t, down, n_neg, height = state
    gamma = chain.entries[i]
    alpha = root_abs(gamma)
    kind = qbg.edge_kind(u, alpha)
    if kind is None:
        return None
    mu = chain.mu
    positive = is_positive_root(gamma)
    if mu is not None:
        c = -levels[i]
        t = tuple(a + c * b for a, b in zip(t, act(u, gamma), strict=True))
    if kind == "Q":
        down = tuple(a + b for a, b in zip(down, coroot(alpha), strict=True))
        if mu is not None:
            sg = 1 if positive else -1
            height += sg * (pair(mu, coroot(gamma)) - levels[i])
    return mul(u, refl_window(alpha)), t, down, n_neg + (0 if positive else 1), height


def oracle_subsets(qbg, w, chain):
    """(positions, end, down, n_neg, wt, height) of every w-admissible subset,
    by the depth-first walk over ``_oracle_step``, sorted by positions."""
    n = chain.n
    levels = alcove_walk(chain).levels if chain.mu is not None else None
    out = []

    def rec(i, taken, state):
        if i == len(chain.entries):
            u, t, down, n_neg, height = state
            if chain.mu is None:
                out.append((tuple(taken), u, down, n_neg, None, None))
            else:
                wt = tuple(a - b for a, b in zip(act(u, chain.mu), t))
                out.append((tuple(taken), u, down, n_neg, wt, height))
            return
        rec(i + 1, taken, state)
        nxt = _oracle_step(qbg, chain, levels, i, state)
        if nxt is not None:
            rec(i + 1, taken + [i + 1], nxt)

    rec(0, [], (w, (0,) * n, (0,) * n, 0, 0))
    return sorted(out)


def oracle_filtered(qbg, w, src, dst):
    """(positions, end, down) of the nonempty subsets that ``filtered_A``
    keeps, by its old condition: ed(A)^{-1} w maps the letter src to dst."""
    chain = make_chain("theta", src, qbg.n) if src > 0 else make_chain("gamma", -src, qbg.n)
    out = []
    for positions, end, down, *_ in oracle_subsets(qbg, w, chain):
        u = mul(inv(end), w)
        if positions and (u[src - 1] if src > 0 else -u[-src - 1]) == dst:
            out.append((positions, end, down))
    return out


def oracle_chained_sum(qbg, w, src, dst):
    """The chained filtered sums over every sequence src -> dst, tallied by
    the recursion the library used before ``chained_sums``, uncached.

    Maps (end, total down) to the signed count of the products that
    ``chained_filtered`` streams along the sequences of ``enumerate_S``;
    zero counts are dropped.  It recurses over the next letter a with
    dst <= a < src: each A in filtered_A(w, src, a) contributes
    (-1)^{|A|-1} times oracle_chained_sum(ed(A), a, dst) shifted by
    down(A), where src == dst is the empty sequence {(w, 0): 1}.
    """
    n = qbg.n
    check_letters(n, src, dst)
    ps, pd = letter_pos(src, n), letter_pos(dst, n)
    if pd > ps:
        raise ValueError(f"dst {dst} must not follow src {src}")
    if pd == ps:
        return {(w, zero_vec(n)): 1}
    acc = {}
    for p in range(pd, ps):
        a = letter_from_pos(p, n)
        for A in filtered_A(qbg, w, src, a):
            s = expansions._sign(len(A.positions) - 1)
            for (v, d), c in oracle_chained_sum(qbg, A.end, a, dst).items():
                k = (v, vec_add(A.down, d))
                acc[k] = acc.get(k, 0) + s * c
    return {k: c for k, c in acc.items() if c}


# --- the block-yielding callbacks _inverse_blocks replaced ------------------
#
# Each callback yielded the blocks of one target letter itself; the builders
# passed one of them, with the letters of their form, to ``_inverse_terms``.
# ``_block`` is reached through the module, as ``term_stream`` swaps it.


def oracle_streamed(qbg, w, xi, src, dst):
    """Blocks for dst after every sequence and chained product, one by one."""
    for seq in expansions.enumerate_S(src, dst, qbg.n):
        for v, d, s in expansions.chained_filtered(qbg, w, src, seq):
            yield from expansions._block(qbg, v, dst, vec_add(d, xi), s)


def oracle_summed(sums):
    """The same blocks read from one ``chained_sums`` table: for dst, one
    block per entry of sums[dst], scaled by its count."""
    def blocks(qbg, w, xi, src, dst):
        for (v, d), c in sums[dst].items():
            yield from expansions._block(qbg, v, dst, vec_add(d, xi), c)
    return blocks


def oracle_collapsed(qbg, w, xi, src, dst):
    """The block for dst after the single directed path ``p_path``."""
    p = qbg.p_path(w, src, dst)
    yield from expansions._block(qbg, p.end, dst, vec_add(p.weight, xi))


def oracle_inverse_blocks(qbg, x, src, dsts, chained):
    """The block for src from w, then the chained blocks for each dst."""
    w, xi = x
    yield expansions._block(qbg, w, src, xi)
    for dst in dsts:
        yield chained(qbg, w, xi, src, dst)


def oracle_inverse_terms(qbg, x, src, dsts, chained):
    """The summands of ``oracle_inverse_blocks``, block after block."""
    for block in oracle_inverse_blocks(qbg, x, src, dsts, chained):
        yield from block


def oracle_second_dsts(n, m, l):
    """Chained targets of the second form: -(m+1)..-n, then 1..l."""
    return [-j for j in range(m + 1, n + 1)] + list(range(1, l + 1))


# --- the vector forms the letter rules of typec replaced --------------------

def reflect(alpha, lam):
    """s_alpha(lam) = lam - <lam, alpha^vee> alpha."""
    c = pair(lam, coroot(alpha))
    return tuple(a - c * b for a, b in zip(lam, alpha, strict=True))


def oracle_positive_roots(n):
    """All n^2 positive roots: eps_i-eps_j, eps_i+eps_j (i<j), 2eps_k."""
    out = []
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            out.append(vec_sub(eps_vec(i, n), eps_vec(j, n)))
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            out.append(vec_add(eps_vec(i, n), eps_vec(j, n)))
    for k in range(1, n + 1):
        out.append(tuple(2 if j == k else 0 for j in range(1, n + 1)))
    return out


def oracle_simple_root(i, n):
    if i < n:
        return vec_sub(eps_vec(i, n), eps_vec(i + 1, n))
    return tuple(2 if j == n else 0 for j in range(1, n + 1))


def oracle_simple_refl(i, n):
    w = list(range(1, n + 1))
    if i < n:
        w[i - 1], w[i] = w[i], w[i - 1]
    else:
        w[n - 1] = -n
    return tuple(w)


def oracle_refl_window(alpha):
    """s_alpha as a signed permutation, read off the images of eps_1..eps_n."""
    n = len(alpha)
    out = []
    for k in range(1, n + 1):
        v = reflect(alpha, eps_vec(k, n))
        nz = [(m + 1, c) for m, c in enumerate(v) if c]
        (m, c), = nz
        out.append(m if c > 0 else -m)
    return tuple(out)


# --- oracles with no caller in the library ----------------------------------

def simple_coroot(i, n):
    return coroot(simple_root(i, n))


def coroot_from_alpha_coords(c):
    """Inverse of ``typec.alpha_coords``."""
    prev, out = 0, []
    for cj in c:
        out.append(cj - prev)
        prev = cj
    return tuple(out)


def criterion_edge(qbg, w, alpha):
    """Window-pattern edge test, independent of any length computation.

    Case (k,l), l unbarred: no k<j<l with w(k) < w(j) < w(l) in the
    cyclic order starting at w(k).  Case (k,-k): same with l = -k, j
    running over k+1..n,-n..-(k+1).  Case (k,-l), k<l<=n: w(k) < w(-l)
    and sgn(w(k)) = sgn(w(-l)) and no k<j<-l with w(k) < w(j) < w(-l),
    all in the total order.
    """
    n = qbg.n
    i, j = root_letters(alpha)
    wk = image(w, i)
    if j > 0:  # (k,l) with k<l<=n
        wl = image(w, j)
        return not any(
            _cyc_between(n, wk, image(w, p), wl)
            for p in range(i + 1, j)
        )
    if j == -i:  # (k, kbar)
        wl = -wk
        return not any(
            _cyc_between(n, wk, image(w, letter_from_pos(p, n)), wl)
            for p in range(i + 1, 2 * n - i + 1)
        )
    # (k, lbar) with k < l <= n
    l = -j
    wl = -image(w, l)
    if not letter_pos(wk, n) < letter_pos(wl, n):
        return False
    if (wk > 0) != (wl > 0):
        return False
    lo, hi = letter_pos(wk, n), letter_pos(wl, n)
    for p in range(i + 1, 2 * n - l + 1):
        wp = letter_pos(image(w, letter_from_pos(p, n)), n)
        if lo < wp < hi:
            return False
    return True


def _cyc_between(n, base, x, y):
    """x strictly between base and y in the cyclic rotation starting at base."""
    b = letter_pos(base, n)
    rx = (letter_pos(x, n) - b) % (2 * n)
    ry = (letter_pos(y, n) - b) % (2 * n)
    return 0 < rx < ry


@lru_cache(maxsize=None)
def _reverse_edges(qbg):
    rev = {w: [] for w in qbg.group}
    for w in qbg.group:
        for a, kind, y in qbg.edges_from(w):
            rev[y].append((w, a, kind))
    return rev


@lru_cache(maxsize=None)
def dist_to(qbg, v):
    """Directed graph distance from every vertex to v."""
    rev = _reverse_edges(qbg)
    dist = {v: 0}
    queue = deque([v])
    while queue:
        y = queue.popleft()
        for x, _, _ in rev[y]:
            if x not in dist:
                dist[x] = dist[y] + 1
                queue.append(x)
    return dist


def graph_distance(qbg, u, v):
    return dist_to(qbg, v)[u]


def shortest_paths(qbg, u, v):
    """All geodesics u -> v.  (The QBG is strongly connected.)"""
    dist = dist_to(qbg, v)
    out = []

    def extend(x, acc):
        if x == v:
            out.append(DirectedPath(u, tuple(acc), v, path_weight(acc, qbg.n)))
            return
        for a, kind, y in qbg.edges_from(x):
            if dist.get(y, -2) == dist[x] - 1:
                acc.append((a, kind))
                extend(y, acc)
                acc.pop()

    extend(u, [])
    return out


def specialize(c, lam):
    """Evaluate x_i = q^{<lam, alpha_i^vee>} at a concrete weight lam."""
    pairs = [pair(lam, simple_coroot(i, c.n)) for i in range(1, c.n + 1)]
    out = {}
    for (q, x, nu), v in terms_of(c).items():
        k = (q + sum(b * p for b, p in zip(x, pairs)), zero_vec(c.n), nu)
        out[k] = out.get(k, 0) + v
    return coeff(c.n, out)


def shift_lambda(c, delta):
    """Substitute lam -> lam + delta, i.e. x_i -> q^{<delta,alpha_i^vee>} x_i."""
    pairs = [pair(delta, simple_coroot(i, c.n)) for i in range(1, c.n + 1)]
    out = {}
    for (q, x, nu), v in terms_of(c).items():
        k = (q + sum(b * p for b, p in zip(x, pairs)), x, nu)
        out[k] = out.get(k, 0) + v
    return coeff(c.n, out)


def specialized_equal(a, b, lam):
    """Equality after substituting x_i = q^{<lam, alpha_i^vee>}.

    lam must be dominant: there no atom 1 - q^{-1-<lam, alpha_k^vee>}
    vanishes, so a coefficient of a - b vanishes iff its numerator does.
    """
    return all(specialize(rc.numer, lam).is_zero() for rc in (a - b).terms.values())


def coeff(n, terms):
    """The Coeff of a {(q, x, nu): count} dict."""
    return Coeff(n, {pack(n, k): c for k, c in terms.items()})


def terms_of(c):
    """A Coeff as a {(q, x, nu): count} dict."""
    return {unpack(c.n, k): v for k, v in c.packed.items()}


def monomial(n, c=1, q=0, x=None, nu=None):
    """The one-term Coeff c q^q x^x e^nu."""
    return coeff(n, {(q, x or zero_vec(n), nu or zero_vec(n)): c})


def neg(c):
    """-c for a Coeff or a RationalCoeff; the library negates neither."""
    if isinstance(c, RationalCoeff):
        return RationalCoeff(neg(c.numer), c.atoms)
    return Coeff(c.n, {k: -v for k, v in c.packed.items()})


# --- the one-at-a-time fold: the oracle of ring.over_common ---------------


def atom_coeff(n, k):
    """The denominator atom 1 - q^{-1} x_k^{-1}."""
    xk = tuple(-1 if i == k else 0 for i in range(1, n + 1))
    return monomial(n) + monomial(n, -1, q=-1, x=xk)


def over_oracle(rc, atoms):
    """The numerator of rc written over ``atoms``, a superset of rc.atoms:
    times ``atom_coeff`` by ``Coeff.__mul__`` for each atom rc lacks."""
    c = rc.numer
    for k in atoms:
        if k not in rc.atoms:
            c = c * atom_coeff(rc.n, k)
    return c


def add_term(combo, key, rc):
    """Add the RationalCoeff rc to combo's coefficient of key: both over the
    union of their atoms by ``over_oracle``, added, and reduced again; a
    zero sum drops the key."""
    cur = combo.terms.get(key)
    if cur is not None:
        atoms = tuple(sorted(set(cur.atoms) | set(rc.atoms)))
        rc = RationalCoeff(over_oracle(cur, atoms) + over_oracle(rc, atoms), atoms)
    if rc.is_zero():
        combo.terms.pop(key, None)
    else:
        combo.terms[key] = rc


def combo_sum(*combos):
    """The sum of combinations, one coefficient at a time by ``add_term``."""
    out = DemazureCombo(combos[0].n)
    for combo in combos:
        for key, rc in combo.terms.items():
            add_term(out, key, rc)
    return out


def normalize(x, mu):
    """Absorb the translation of an affine symbol x = (w, xi) into a Coeff:
    V_{w t_xi}(lam+mu) = q^{-<lam+mu, xi>} V_w(lam+mu), whose lam-pairing
    is the monomial prod x_i^{-c_i} with xi = sum c_i alpha_i^vee."""
    w, xi = x
    return (w, mu), Coeff(len(xi), {translation_key(mu, xi): 1})


def coeff_terms(terms):
    """A 4-tuple summand stream (see ``term_block``) with each (packed key,
    count) turned into a one-term Coeff, the (symbol, mu, Coeff) form the
    one-at-a-time oracles read."""
    for sym, mu, key, c in terms:
        yield sym, mu, Coeff(len(mu), {key: c})


def summed_oracle(n, terms):
    """The 4-tuple summands folded the Coeff way, one at a time:
    ``add_symbol`` multiplies each coefficient by its ``normalize``
    translation with ``Coeff.__mul__`` and adds the product through
    ``add_term``."""
    combo = DemazureCombo(n)
    for sym, mu, c in coeff_terms(terms):
        add_symbol(combo, sym, mu, c)
    return combo


def product_certificate(terms):
    """The cancellation certificate the Coeff way: each 4-tuple summand times
    its translation monomial by ``Coeff.__mul__``, its monomials compared by
    sign."""
    seen = {}
    for sym, mu, c in coeff_terms(terms):
        key, mult = normalize(sym, mu)
        for mono, coef in (c * mult).packed.items():
            if seen.setdefault((key, mono), coef > 0) != (coef > 0):
                return False
    return True


def add_symbol(combo, x, mu, c):
    """Add c * V_{x}(lam+mu) to combo with x affine, one term at a time;
    the translation is absorbed."""
    key, mult = normalize(x, mu)
    add_term(combo, key, RationalCoeff(c * mult))


def display_block(qbg, base, kind, j, extra, qexp, mu):
    """Display block: sum_B (-1)^{|B|} q^qexp V_{ed(B) t_{down(B)+extra}}(lam+mu)."""
    combo = DemazureCombo(qbg.n)
    for B in admissible_subsets(qbg, base, make_chain(kind, j, qbg.n)):
        sign = -1 if len(B.positions) % 2 else 1
        add_symbol(combo, (B.end, vec_add(B.down, extra)), mu,
                   monomial(qbg.n, sign, q=qexp))
    return combo


def expand_combo(qbg, combo):
    """The combination-level ``expand_to_base``: every V_y(lam +- eps_k) of a
    ``DemazureCombo`` rewritten through its ``chevalley_record`` into a
    reduced ``DemazureCombo`` at the base weight, one ``folded`` entry per
    product of a numerator monomial and a record entry.  Shift-0 symbols pass
    through.  The record is the library's ``expand_to_base`` of the one
    symbol, reached through the module, so a monkeypatched pass is seen here
    as it is by the library."""
    bias = packed_words(combo.n)[0]
    zero = zero_vec(combo.n)

    def entries():
        for (y, mu), rc in combo.terms.items():
            numer = rc.numer.packed.items()
            if not any(mu):
                for k1, c1 in numer:
                    yield ((y, mu), rc.atoms), k1, c1
                continue
            k, sign = expansions._mu_index(mu)
            chev = chevalley_record(qbg, y, sign, k)
            atoms = tuple(sorted(chev.atoms + rc.atoms))
            for end, k2, c2 in zip(chev.ends, chev.keys, chev.counts):
                sym = ((end, zero), atoms)
                for k1, c1 in numer:
                    yield sym, k1 + k2 - bias, c1 * c2

    return DemazureCombo.folded(combo.n, entries())


def buckets_of(combo):
    """The integer buckets of a combination: its numerators' packed counts,
    keyed by (symbol, atoms)."""
    return {(key, rc.atoms): dict(rc.numer.packed) for key, rc in combo.terms.items()}


def expand_buckets(qbg, combo):
    """The library's integer ``expand_to_base`` of a combination, shown as a
    reduced combination (what a failing report displays)."""
    entries = ((sym, key, c) for sym, bucket in buckets_of(combo).items()
               for key, c in bucket.items())
    return DemazureCombo.from_buckets(combo.n, expansions.expand_to_base(qbg, {}, entries))


def flip_block_sign(monkeypatch):
    """Flip the sign of the second summand of every ``_block`` for the
    letter 2, in ``expansions`` and in ``verify``: a fault that fails the
    first, second and key identities at rank 3 but not ``cf``."""
    block = expansions._block

    def faulty(qbg, v, t, dxi, s=1, nu=None, at=None):
        for i, (sym, key, c) in enumerate(block(qbg, v, t, dxi, s, nu, at)):
            yield sym, key, -c if (t == 2 and i == 1) else c

    monkeypatch.setattr(expansions, "_block", faulty)
    monkeypatch.setattr(verify, "_block", faulty)


# --- the 4-tuple summand format: the oracle of _block's fold entries --------


def term_block(qbg, v, t, dxi, s=1, nu=None):
    """Signed summands of the block from v for the target letter t.

    An unbarred t sums over Gamma_t(t) and lands at lam + eps_t; a barred
    t = -j sums over Theta_j and lands at lam - eps_j.  Each subset B gives
    s (-1)^{|B|} q^{<eps_t, dxi>} e^{nu} V_{ed(B) t_{down(B) + dxi}}(lam + eps_t),
    as the summand (affine symbol, mu, packed q^k e^nu, count).
    """
    n = qbg.n
    mu, zero = eps_vec(t, n), zero_vec(n)
    key = pack(n, (pair(mu, dxi), zero, nu or zero))
    for B in admissible_subsets(qbg, v, expansions._block_chain(t, n)):
        yield (B.end, vec_add(B.down, dxi)), mu, key, s * expansions._sign(len(B.positions))


def normalized(terms):
    """The ``folded`` entry ((symbol (y, mu), no atoms), packed monomial,
    count) of each summand.

    V_{y t_xi}(lam+mu) = q^{-<mu,xi>} prod x_i^{-c_i} V_y(lam+mu) with
    xi = sum c_i alpha_i^vee, so the translation's ``translation_key`` is
    added to the summand's key.  A sum with a field outside the packed
    range raises ValueError before it is yielded.
    """
    for (y, xi), mu, key, c in terms:
        key += translation_key(mu, xi) - packed_words(len(mu))[0]  # see packed_words
        check_packed(len(mu), key)
        yield ((y, mu), ()), key, c


def read_at(terms, at):
    """The 4-tuple summands with their symbols read at lam + at, keys
    unchanged: the oracle of ``_block``'s ``at``."""
    for sym, _, key, c in terms:
        yield sym, at, key, c


def term_stream(build, *args):
    """The summands of ``build(*args)`` in the 4-tuple format, as a list:
    the same builder run with ``term_block`` in place of ``_block``."""
    block = expansions._block
    expansions._block = term_block
    try:
        return list(build(*args))
    finally:
        expansions._block = block


# --- the Chevalley records that heads and tails replaced ---------------------


class ChevalleyRecord(NamedTuple):
    """gch V_w(lam +- eps_k) as flat entries over one shared denominator.

    Entry i stands for counts[i] q^k x^a e^nu / prod(atoms) gch V_{ends[i]}(lam),
    where keys[i] is the packed monomial q^k x^a e^nu.  Each (end, key)
    occurs once and no count is zero.
    """

    n: int
    atoms: tuple[int, ...]
    ends: tuple
    keys: tuple[int, ...]
    counts: tuple[int, ...]

    def combo(self):
        """The reduced combination of the entries."""
        zero = zero_vec(self.n)
        return DemazureCombo.folded(self.n, (
            (((end, zero), self.atoms), key, c)
            for end, key, c in zip(self.ends, self.keys, self.counts)))


def _record(n, atoms, kept):
    ends, keys, counts = zip(*kept) if kept else ((), (), ())
    return ChevalleyRecord(n, atoms, ends, keys, counts)


def chevalley_record(qbg, w, sign, k):
    """The unreduced record that ``chevalley_expand`` reduces: the nonzero
    buckets of the library's ``expand_to_base`` of the one symbol
    gch V_w(lam +- eps_k), whose buckets share one atom tuple."""
    n = qbg.n
    t, zero = k if sign == "+" else -k, zero_vec(n)
    acc = expansions.expand_to_base(
        qbg, {}, [(((w, eps_vec(t, n)), ()), pack(n, (0, zero, zero)), 1)])
    (atoms,) = {atoms for _, atoms in acc}
    kept = [(y, key, c) for ((y, _), _), bucket in acc.items()
            for key, c in bucket.items() if c]
    return _record(n, atoms, kept)


def oracle_chevalley_sum(qbg, w, t):
    """The record of gch V_w(lam + eps_t), counted per (end, key).

    The summand of (A_1, B) is (-1)^{|B|} times the monomial of A_1,
    q^{<eps_{-t}, down(A_1)>} x^{-down(A_1)} e^{ed(A_1) mu}, times the
    monomial x^{-down(B)} of B, added as one sum of packed keys; ed(A_1) mu
    is eps of the letter ed(A_1)(t).  ValueError if a key left the packed
    range.

    The head walk from w is read only here, once per record, so it is
    walked uncached; the tail walks from each ed(A_1) are the blocks'
    cached ones.
    """
    n = qbg.n
    mu, zero = eps_vec(t, n), zero_vec(n)
    bias = packed_words(n)[0]
    head = make_chain("gamma_star" if t > 0 else "theta_star", abs(t), n)
    tail = expansions._block_chain(-t, n)
    atom = t if t > 0 else -t - 1
    acc = {}
    x_keys = {}  # down(B) -> packed x^{-down(B)}
    seen = 0
    for A1 in walk_subsets(qbg, w, head):
        off = (translation_key(mu, A1.down)
               + expansions._eps_key(n, image(A1.end, t)) - 2 * bias)
        for B in admissible_subsets(qbg, A1.end, tail):
            x = x_keys.get(B.down)
            if x is None:
                x = x_keys[B.down] = translation_key(zero, B.down)
            p = off + x  # see packed_words
            seen |= p
            entry = (B.end, p)
            acc[entry] = acc.get(entry, 0) + (-1 if len(B.positions) % 2 else 1)
    check_packed(n, seen)
    kept = [(end, p, c) for (end, p), c in acc.items() if c]
    return _record(n, (atom,) if atom else (), kept)


def oracle_head(qbg, y, t):
    """The head of gch V_y(lam + eps_t), as ``expansions._head`` built it
    before the forward pass: the ends and keys of the A_1 in
    A(y, Gamma*_t(t)), or A(y, Theta*_k) for t = -k, one walk per (y, t).

    A key is the packed q^{<eps_{-t}, down(A_1)>} x^{-down(A_1)} e^{eps_a},
    a = ed(A_1)(t).  ValueError if a key left the packed range.
    """
    n = qbg.n
    mu, bias = eps_vec(t, n), packed_words(n)[0]
    ends, keys, seen = [], [], 0
    for A1 in walk_subsets(qbg, y, make_chain("gamma_star" if t > 0 else "theta_star",
                                              abs(t), n)):
        key = translation_key(mu, A1.down) + expansions._eps_key(n, image(A1.end, t)) - bias
        seen |= key
        ends.append(A1.end)
        keys.append(key)
    check_packed(n, seen)
    return tuple(ends), tuple(keys)


def oracle_middle(qbg, t, sources, heads=None):
    """The nonzero middle tally of ``expand_to_base`` as it was built before
    the forward pass: each nonzero count c of the sources {y: {key: c}} adds
    c times every entry of ``oracle_head(y, t)``, memoized in ``heads``, into
    a tally keyed (ed(A_1), key + head key).  Returns {(end, key): count}
    without zero counts; ValueError if a middle key, kept or not, left the
    packed range.
    """
    heads = {} if heads is None else heads
    n = qbg.n
    bias = packed_words(n)[0]
    middle = {}
    for y, counts in sources.items():
        for k1, c in counts.items():
            if c:
                head = heads.get((y, t))
                if head is None:
                    head = heads[(y, t)] = oracle_head(qbg, y, t)
                k1 -= bias  # see packed_words
                for u, k2 in zip(*head):
                    key = u, k1 + k2
                    middle[key] = middle.get(key, 0) + c
    seen = 0
    for _, k2 in middle:
        seen |= k2
    check_packed(n, seen)
    return {key: c for key, c in middle.items() if c}


def flat_middle(middle):
    """{(end, key): count} of a ``expansions._middle`` tally."""
    return {(u, key): c for u, counts in middle.items() for key, c in counts.items()}


def patch_head_plan(monkeypatch, positions, e_key):
    """Replace the plan of every head chain by ``positions``, each a
    (positive root, key delta of a quantum step) pair, with the key
    ``e_key`` for every letter, so ``expansions._middle`` runs its real
    steps and range check on the injected keys.  The patched name is the
    one ``_middle`` reads, so no plan cached before hides it."""
    steps = tuple((move(alpha)[0], move(alpha)[2], delta) for alpha, delta in positions)
    monkeypatch.setattr(expansions, "_head_plan",
                        lambda n, t: (steps, (e_key,) * (2 * n + 1)))


def oracle_record(qbg, w, sign, k, records):
    """The record of gch V_w(lam +- eps_k) that ``chevalley_expand`` cached
    before heads and tails, memoized in ``records``."""
    key = (w, sign, k)
    if key not in records:
        records[key] = oracle_chevalley_sum(qbg, w, k if sign == "+" else -k)
    return records[key]


def oracle_expand_to_base(qbg, acc, entries, sign=1, records=None):
    """``expand_to_base`` as it was before heads and tails: every shifted
    entry is multiplied by each entry of its whole Chevalley record
    (``oracle_record``, memoized in ``records``) in one loop."""
    records = {} if records is None else records
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
        k, s = expansions._mu_index(mu)
        chev = oracle_record(qbg, y, s, k, records)
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


def nonzero_buckets(acc):
    """The buckets of ``acc`` without zero counts, and without a bucket
    left empty."""
    out = {}
    for sym, bucket in acc.items():
        kept = {key: c for key, c in bucket.items() if c}
        if kept:
            out[sym] = kept
    return out
