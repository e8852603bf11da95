r"""The quantum Bruhat graph on the type-C Weyl group.

Vertices are signed permutations; for each positive root alpha there is an
edge w -> w s_alpha when either

* (Bruhat)   len(w s_alpha) = len(w) + 1, or
* (quantum)  len(w s_alpha) = len(w) - 2 <rho, alpha^vee> + 1.

Edges are labelled by the positive root and the kind 'B' or 'Q'; the weight
of a directed path is the sum of alpha^vee over its quantum edges.

Letters of the window alphabet {1..n, -n..-1} ("barred" = negative) are
ordered 1 < ... < n < -n < ... < -1; ``p_path`` builds the paths whose
labels decrease in that order, which the cancellation-free expansions use.
"""

from __future__ import annotations

from dataclasses import dataclass

from .typec import (
    Vec,
    Window,
    coroot,
    doubled,
    length,
    letter_from_pos,
    letter_pos,
    pair,
    positive_roots,
    root_from_letters,
    rho,
    times_reflection,
    vec_add,
    weyl_group,
    zero_vec,
)


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
        # memo tables of the alcove and expansions layers, keyed by element
        self._adm_cache: dict = {}       # (w, chain) -> admissible subsets
        self._chev_cache: dict = {}      # (w, sign, k) -> ChevalleyExpansion,
                                         # flat tuples of ints, no Coeff
        self._chained_sums: dict = {}    # (w, src, dst) -> chained_sum

    # -- edges ---------------------------------------------------------

    def target(self, w: Window, alpha: Vec) -> Window:
        """w s_alpha, by the product the admissible-subset walk uses."""
        return times_reflection(alpha)(doubled(w))

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
