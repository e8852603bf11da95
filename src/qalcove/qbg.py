r"""The quantum Bruhat graph on the type-C Weyl group.

Vertices are signed permutations; for each positive root alpha there is an
edge w -> w s_alpha when either

* (Bruhat)   len(w s_alpha) = len(w) + 1, or
* (quantum)  len(w s_alpha) = len(w) - 2 <rho, alpha^vee> + 1.

Edges are labelled by the positive root and the kind 'B' or 'Q'; the weight
of a directed path is the sum of alpha^vee over its quantum edges.

Letters of the window alphabet {1..n, -n..-1} ("barred" = negative) are
ordered 1 < ... < n < -n < ... < -1; ``distance`` measures separation in
that order, and ``p_path`` builds the specific label-decreasing directed
paths used by the cancellation-free expansions.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .typec import (
    Vec,
    Window,
    coroot,
    length,
    letter_from_pos,
    letter_pos,
    mul,
    pair,
    positive_roots,
    refl_window,
    root_from_letters,
    root_letters,
    rho,
    vec_add,
    w_apply,
    weyl_group,
    zero_vec,
)


def distance(k: int, l: int, n: int) -> int:
    """Separation of two letters in the total order 1 < .. < n < -n < .. < -1."""
    return abs(letter_pos(k, n) - letter_pos(l, n))


def gamma_label(l: int, k: int, n: int) -> Vec:
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


def path_weight(steps, n: int) -> Vec:
    """Sum of alpha^vee over the quantum steps of [(alpha, kind), ...]."""
    acc = zero_vec(n)
    for alpha, kind in steps:
        if kind == "Q":
            acc = vec_add(acc, coroot(alpha))
    return acc


@dataclass(frozen=True)
class DirectedPath:
    start: Window
    steps: tuple[tuple[Vec, str], ...]  # (positive root, 'B' or 'Q')
    end: Window

    @property
    def weight(self) -> Vec:
        return path_weight(self.steps, len(self.start))

    def __len__(self) -> int:
        return len(self.steps)


class QBG:
    """Quantum Bruhat graph at a fixed rank, with memoized edge tests."""

    def __init__(self, n: int):
        self.n = n
        self.group = weyl_group(n)
        self.pos_roots = positive_roots(n)
        self.length = {w: length(w) for w in self.group}
        r = rho(n)
        self.rho_pair = {a: pair(r, coroot(a)) for a in self.pos_roots}
        self._edges_from: dict[Window, list[tuple[Vec, str, Window]]] = {}
        self._rev: dict[Window, list[tuple[Window, Vec, str]]] | None = None
        self._dist_to: dict[Window, dict[Window, int]] = {}
        # memo tables of the alcove and expansions layers, keyed by element
        self._adm_cache: dict = {}       # (w, chain) -> admissible subsets
        self._chev_cache: dict = {}      # (w, sign, k) -> chevalley_expand
        self._chained_sums: dict = {}    # (w, src, dst) -> chained_sum

    # -- edges ---------------------------------------------------------

    def target(self, w: Window, alpha: Vec) -> Window:
        return mul(w, refl_window(alpha))

    def edge_kind(self, w: Window, alpha: Vec) -> str | None:
        """'B', 'Q', or None for the would-be edge w -> w s_alpha."""
        y = self.target(w, alpha)
        diff = self.length[y] - self.length[w]
        if diff == 1:
            return "B"
        if diff == 1 - 2 * self.rho_pair[alpha]:
            return "Q"
        return None

    def edges_from(self, w: Window) -> list[tuple[Vec, str, Window]]:
        out = self._edges_from.get(w)
        if out is None:
            out = []
            for a in self.pos_roots:
                kind = self.edge_kind(w, a)
                if kind:
                    out.append((a, kind, self.target(w, a)))
            self._edges_from[w] = out
        return out

    def criterion_edge(self, w: Window, alpha: Vec) -> bool:
        """Window-pattern edge test, independent of any length computation.

        Case (k,l), l unbarred: no k<j<l with w(k) < w(j) < w(l) in the
        cyclic order starting at w(k).  Case (k,-k): same with l = -k, j
        running over k+1..n,-n..-(k+1).  Case (k,-l), k<l<=n: w(k) < w(-l)
        and sgn(w(k)) = sgn(w(-l)) and no k<j<-l with w(k) < w(j) < w(-l),
        all in the total order.
        """
        n = self.n
        i, j = root_letters(alpha)
        wk = w_apply(w, i)
        if j > 0:  # (k,l) with k<l<=n
            wl = w_apply(w, j)
            return not any(
                self._cyc_between(wk, w_apply(w, p), wl)
                for p in range(i + 1, j)
            )
        if j == -i:  # (k, kbar)
            wl = -wk
            return not any(
                self._cyc_between(wk, w_apply(w, letter_from_pos(p, n)), wl)
                for p in range(i + 1, 2 * n - i + 1)
            )
        # (k, lbar) with k < l <= n
        l = -j
        wl = -w_apply(w, l)
        if not letter_pos(wk, n) < letter_pos(wl, n):
            return False
        if (wk > 0) != (wl > 0):
            return False
        lo, hi = letter_pos(wk, n), letter_pos(wl, n)
        for p in range(i + 1, 2 * n - l + 1):
            wp = letter_pos(w_apply(w, letter_from_pos(p, n)), n)
            if lo < wp < hi:
                return False
        return True

    def _cyc_between(self, base: int, x: int, y: int) -> bool:
        """x strictly between base and y in the cyclic rotation starting at base."""
        n = self.n
        b = letter_pos(base, n)
        rx = (letter_pos(x, n) - b) % (2 * n)
        ry = (letter_pos(y, n) - b) % (2 * n)
        return 0 < rx < ry

    # -- shortest paths --------------------------------------------------

    def _reverse_edges(self) -> dict[Window, list[tuple[Window, Vec, str]]]:
        if self._rev is None:
            rev: dict[Window, list[tuple[Window, Vec, str]]] = {w: [] for w in self.group}
            for w in self.group:
                for a, kind, y in self.edges_from(w):
                    rev[y].append((w, a, kind))
            self._rev = rev
        return self._rev

    def dist_to(self, v: Window) -> dict[Window, int]:
        """Directed graph distance from every vertex to v."""
        cached = self._dist_to.get(v)
        if cached is None:
            rev = self._reverse_edges()
            cached = {v: 0}
            queue = deque([v])
            while queue:
                y = queue.popleft()
                for x, _, _ in rev[y]:
                    if x not in cached:
                        cached[x] = cached[y] + 1
                        queue.append(x)
            self._dist_to[v] = cached
        return cached

    def graph_distance(self, u: Window, v: Window) -> int:
        return self.dist_to(v)[u]

    def shortest_paths(self, u: Window, v: Window) -> list[DirectedPath]:
        """All geodesics u -> v.  (The QBG is strongly connected.)"""
        dist = self.dist_to(v)
        out: list[DirectedPath] = []

        def extend(x: Window, acc: list[tuple[Vec, str]]):
            if x == v:
                out.append(DirectedPath(u, tuple(acc), v))
                return
            for a, kind, y in self.edges_from(x):
                if dist.get(y, -2) == dist[x] - 1:
                    acc.append((a, kind))
                    extend(y, acc)
                    acc.pop()

        extend(u, [])
        return out

    # -- label-decreasing paths -----------------------------------------

    def p_path(self, w: Window, src: int, dst: int) -> DirectedPath:
        """Directed path from w selected by greedy minimal next letter.

        src/dst are letters (negative = barred).  For unbarred src = l the
        labels are (k, l) with dst <= k < l and the path exists whenever
        1 <= dst <= l.  For barred src = -l the first label is gamma_{lbar,k}
        with dst <= k <= -(l+1) (reading -(n+1) as n), and the walk continues
        from the letter k.  Each step takes the minimal admissible k, which
        always exists because the last candidate label is a simple root.
        """
        n = self.n
        if src > 0:
            if not 1 <= dst <= src:
                raise ValueError(f"need 1 <= dst <= src, got {src=} {dst=}")
        else:
            bound = 2 * n - (-src)
            if not letter_pos(dst, n) <= bound:
                raise ValueError(f"dst {dst} out of range for barred src {src}")
        steps: list[tuple[Vec, str]] = []
        cur, letter = w, src
        while letter != dst:
            if letter > 0:
                candidates = [
                    (root_from_letters(k, letter, n), k) for k in range(dst, letter)
                ]
            else:
                l = -letter
                candidates = [
                    (gamma_label(l, letter_from_pos(p, n), n), letter_from_pos(p, n))
                    for p in range(letter_pos(dst, n), 2 * n - l + 1)
                ]
            for alpha, k in candidates:
                kind = self.edge_kind(cur, alpha)
                if kind:
                    steps.append((alpha, kind))
                    cur = self.target(cur, alpha)
                    letter = k
                    break
            else:
                raise AssertionError(f"no admissible step from {cur} at letter {letter}")
        return DirectedPath(w, tuple(steps), cur)
