r"""The quantum Bruhat graph on the type-C Weyl group.

Vertices are signed permutations; for each positive root alpha there is an
edge w -> w s_alpha when either

* (Bruhat)   len(w s_alpha) = len(w) + 1, or
* (quantum)  len(w s_alpha) = len(w) - 2 <rho, alpha^vee> + 1.

``move(alpha)`` computes once per root what these tests need: the product
w -> w s_alpha, alpha^vee and the quantum length change.  ``QBG.edge``
(the kind and w s_alpha from one product) and the admissible-subset walk
of ``alcove`` read it.

Edges are labelled by the positive root and the kind 'B' or 'Q'; the weight
of a directed path is the sum of alpha^vee over its quantum edges, carried
on the ``DirectedPath`` as it is built.

Letters of the window alphabet {1..n, -n..-1} ("barred" = negative) are
ordered 1 < ... < n < -n < ... < -1; ``p_path`` builds the paths whose
labels decrease in that order, which the cancellation-free expansions use.
The label of a step from the letter a to an earlier letter k is always the
root (k, a) of ``typec.root_from_letters``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

from .typec import (
    Vec,
    Window,
    check_letters,
    coroot,
    doubled,
    length,
    letter_from_pos,
    letter_pos,
    pair,
    positive_roots,
    rho,
    root_from_letters,
    times_reflection,
    vec_add,
    weyl_group,
    zero_vec,
)


Move = tuple[Callable[[tuple[int, ...]], Window], Vec, int]


@lru_cache(maxsize=None)
def move(alpha: Vec) -> Move:
    """Everything an edge along the positive root alpha needs, computed once:
    the product ``doubled(u) -> u s_alpha``, alpha^vee, and the length change
    1 - 2<rho, alpha^vee> of a quantum edge."""
    av = coroot(alpha)
    return times_reflection(alpha), av, 1 - 2 * pair(rho(len(alpha)), av)


@dataclass(frozen=True)
class DirectedPath:
    start: Window
    steps: tuple[tuple[Vec, str], ...]  # (positive root, 'B' or 'Q')
    end: Window
    weight: Vec  # sum of alpha^vee over the quantum steps


class QBG:
    """Quantum Bruhat graph at a fixed rank, with the memo tables of the
    alcove and expansions layers: subset walks and Chevalley heads."""

    def __init__(self, n: int):
        self.n = n
        self.group = weyl_group(n)
        self.pos_roots = positive_roots(n)
        self.length = {w: length(w) for w in self.group}
        # chained sums are recomputed per instance, not stored
        self._adm_cache: dict = {}       # (w, chain) -> admissible subsets
        self._heads: dict = {}           # (y, t) -> Chevalley head (ends, keys)
        self._keys: dict = {}            # end window or packed key -> the one
                                         # object of that value the heads hold

    # -- edges ---------------------------------------------------------

    def edge(self, w: Window, alpha: Vec) -> tuple[str | None, Window]:
        """('B', 'Q' or None, w s_alpha) for the would-be edge w -> w s_alpha,
        from one product."""
        prod, _, q_diff = move(alpha)
        v = prod(doubled(w))
        diff = self.length[v] - self.length[w]
        return ("B" if diff == 1 else "Q" if diff == q_diff else None), v

    def edge_kind(self, w: Window, alpha: Vec) -> str | None:
        """'B', 'Q', or None for the would-be edge w -> w s_alpha."""
        return self.edge(w, alpha)[0]

    def edges_from(self, w: Window) -> list[tuple[Vec, str, Window]]:
        """(alpha, kind, w s_alpha) for every edge out of w."""
        out = []
        for a in self.pos_roots:
            kind, v = self.edge(w, a)
            if kind:
                out.append((a, kind, v))
        return out

    # -- label-decreasing paths -----------------------------------------

    def p_path(self, w: Window, src: int, dst: int) -> DirectedPath:
        """Directed path from w selected by greedy minimal next letter.

        src/dst are letters (negative = barred).  From the letter a the
        candidate labels are the roots (k, a) = ``root_from_letters(k, a)``
        for the letters dst <= k < a, tried in increasing letter order; the
        first that gives an edge is taken and the walk continues from k.
        For a barred a = -l the label (k, -l) is gamma_{lbar,k}.  The path
        exists for unbarred src whenever 1 <= dst <= src, and for barred src
        whenever dst < src; the last candidate label is a simple root, so
        some step always exists.
        """
        n = self.n
        check_letters(n, src, dst)
        lo = letter_pos(dst, n)
        if not (lo <= src if src > 0 else lo < letter_pos(src, n)):
            raise ValueError(f"need dst <= src, dst < src for a barred src; "
                             f"got {src=} {dst=}")
        steps: list[tuple[Vec, str]] = []
        cur, letter, weight = w, src, zero_vec(n)
        while letter != dst:
            for p in range(lo, letter_pos(letter, n)):
                k = letter_from_pos(p, n)
                alpha = root_from_letters(k, letter, n)
                kind, nxt = self.edge(cur, alpha)
                if kind:
                    break
            else:
                raise AssertionError(f"no admissible step from {cur} at letter {letter}")
            steps.append((alpha, kind))
            if kind == "Q":
                weight = vec_add(weight, move(alpha)[1])
            cur, letter = nxt, k
        return DirectedPath(w, tuple(steps), cur, weight)
