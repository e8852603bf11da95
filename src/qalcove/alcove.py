r"""Quantum alcove model: root chains, geometric alcove walks, admissible subsets.

The six chain kinds at rank n, for 1 <= k <= n (letter j with a minus sign
denotes a barred letter, so (k,-j) is the root eps_k + eps_j):

* gamma      Gamma_k(k)  = (-(1,-k),..,-(k-1,-k), -(k,-(k+1)),..,-(k,-n),
                            -(k,-k), -(k,n),..,-(k,k+1))
* gamma_star Gamma*_k(k) = reverse of gamma with all entries negated
* theta      Theta_k     = (-(1,k), ..., -(k-1,k))
* theta_star Theta*_k    = reverse of theta negated
* eps        Gamma*_k(k) * Theta_k     -- a reduced eps_k-chain
* eps_neg    Theta*_k * Gamma_k(k)     -- a reduced (-eps_k)-chain

A mu-chain (gamma_1,...,gamma_r) encodes an alcove path A_0 = fundamental
alcove, A_{t-1} -> A_t crossing in the direction -gamma_t, ending at
A_0 - mu.  The wall of step t lies in H_{gamma_t, -l_t}; the level l_t is
computed geometrically by tracking a rational interior point, not read off
any formula, so the level pattern of the eps-chains is a checked fact.

A subset A = {i_1 < ... < i_s} of chain positions (1-based) is w-admissible
when the unsigned labels |gamma_{i_j}| trace a directed path in the quantum
Bruhat graph starting at w.  A subset carries ed(A), its endpoint, and
down(A), the sum of |gamma|^vee over its quantum steps; both compose along
a concatenated chain.  The mu-chain statistics wt(A), height(A) and n(A)
are not tracked: ``expansions._middle`` splits A over the (+-eps_k)-chain
P * Q as A_1 over P and A_2 over Q, and reads wt(A) = ed(A_1) mu,
height(A) = <mu, down(A_1)> and n(A) = |A_2|.  It sums the A_1 of many
elements in one forward pass over P, stepping by ``chain_moves`` as the
walk does, so the walk enumerates and that pass sums, and nothing else
steps along a chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import add
from typing import NamedTuple

from .qbg import QBG, Move, move
from .typec import (
    Vec,
    Window,
    check_letters,
    coroot,
    doubled,
    eps_vec,
    image,
    is_positive_root,
    letter_pos,
    positive_roots,
    root_abs,
    root_from_letters,
    vec_neg,
    zero_vec,
)

CHAIN_KINDS = ("gamma", "gamma_star", "theta", "theta_star", "eps", "eps_neg")


@dataclass(frozen=True)
class RootChain:
    # (kind, k, n) determines the chain, so the hash, taken on every walk
    # cache lookup, skips the entries; equality still compares every field
    entries: tuple[Vec, ...] = field(hash=False)
    kind: str
    k: int
    n: int
    mu: Vec | None = field(hash=False)  # set only when the chain is a mu-chain


@lru_cache(maxsize=None)
def make_chain(kind: str, k: int, n: int) -> RootChain:
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    if kind not in CHAIN_KINDS:
        raise ValueError(f"unknown chain kind {kind!r}")

    gamma = (
        [vec_neg(root_from_letters(i, -k, n)) for i in range(1, k)]
        + [vec_neg(root_from_letters(k, -j, n)) for j in range(k + 1, n + 1)]
        + [vec_neg(root_from_letters(k, -k, n))]
        + [vec_neg(root_from_letters(k, j, n)) for j in range(n, k, -1)]
    )
    theta = [vec_neg(root_from_letters(i, k, n)) for i in range(1, k)]
    gamma_star = [vec_neg(a) for a in reversed(gamma)]
    theta_star = [vec_neg(a) for a in reversed(theta)]

    entries: list[Vec]
    mu: Vec | None = None
    if kind == "gamma":
        entries = gamma
    elif kind == "gamma_star":
        entries = gamma_star
    elif kind == "theta":
        entries = theta
    elif kind == "theta_star":
        entries = theta_star
    elif kind == "eps":
        entries = gamma_star + theta
        mu = eps_vec(k, n)
    else:
        entries = theta_star + gamma
        mu = vec_neg(eps_vec(k, n))
    return RootChain(tuple(entries), kind, k, n, mu)


# --- geometric walk ---------------------------------------------------------

def _interior_point(n: int) -> tuple[Fraction, ...]:
    # all simple-coroot pairings equal 1/(2n+2); lies in the open fundamental alcove
    return tuple(Fraction(n + 1 - i, 2 * n + 2) for i in range(1, n + 1))


def _fpair(p, cv: Vec) -> Fraction:
    return sum((a * b for a, b in zip(p, cv, strict=True)), start=Fraction(0))


def _ints_between(a: Fraction, b: Fraction) -> int:
    lo, hi = min(a, b), max(a, b)
    return max(0, math.floor(hi) - math.floor(lo) - (1 if hi == math.floor(hi) else 0))


@dataclass(frozen=True)
class AlcoveWalk:
    chain: RootChain
    levels: tuple[int, ...]


@lru_cache(maxsize=None)
def alcove_walk(chain: RootChain) -> AlcoveWalk:
    """Walk the chain from the fundamental alcove, reading off wall levels.

    Raises ValueError if some step fails to cross exactly one wall, or if a
    mu-chain does not end at the alcove A_0 - mu.
    """
    n = chain.n
    pos = positive_roots(n)
    p = _interior_point(n)
    levels = []
    for t, gamma in enumerate(chain.entries, start=1):
        alpha = root_abs(gamma)
        av = coroot(alpha)
        a = _fpair(p, av)
        if a.denominator == 1:
            raise ValueError(f"step {t}: point lies on a wall of H_{alpha}")
        positive = is_positive_root(gamma)
        # crossing direction is -gamma: pairing with alpha^vee decreases for
        # positive entries, increases for negative ones
        c = math.floor(a) if positive else math.floor(a) + 1
        p_new = tuple(pi - (a - c) * ai for pi, ai in zip(p, alpha, strict=True))
        crossed = sum(_ints_between(_fpair(p, coroot(b)), _fpair(p_new, coroot(b))) for b in pos)
        if crossed != 1:
            raise ValueError(f"step {t} crosses {crossed} walls; not an alcove path")
        # the wall H_{alpha,c} rewritten as H_{gamma,-l}
        levels.append(-c if positive else c)
        p = p_new
    if chain.mu is not None:
        q = tuple(pi + mi for pi, mi in zip(p, chain.mu, strict=True))
        for b in pos:
            v = _fpair(q, coroot(b))
            if not 0 < v < 1:
                raise ValueError("mu-chain does not end at A_0 - mu")
    return AlcoveWalk(chain, tuple(levels))


def reducedness_check(chain: RootChain) -> bool:
    """True iff the mu-chain has minimal length.

    The minimal length is the number of affine hyperplanes separating the
    fundamental alcove from its -mu translate, counted by brute force.
    """
    if chain.mu is None:
        raise ValueError("reducedness is defined for mu-chains only")
    alcove_walk(chain)  # validates the path
    n = chain.n
    p = _interior_point(n)
    q = tuple(pi - mi for pi, mi in zip(p, chain.mu, strict=True))
    separating = sum(
        _ints_between(_fpair(p, coroot(b)), _fpair(q, coroot(b)))
        for b in positive_roots(n)
    )
    return len(chain.entries) == separating


# --- admissible subsets ------------------------------------------------------

class AdmissibleSubset(NamedTuple):
    positions: tuple[int, ...]  # 1-based chain positions
    end: Window
    down: Vec


@lru_cache(maxsize=None)
def chain_moves(chain: RootChain) -> tuple[Move, ...]:
    """The ``qbg.move`` of each chain position's root |gamma|."""
    return tuple(move(root_abs(gamma)) for gamma in chain.entries)


def walk_subsets(qbg: QBG, w: Window, chain: RootChain) -> list[AdmissibleSubset]:
    """All w-admissible subsets of the chain, with endpoint and down,
    walked anew and not stored.

    A preorder walk emits each subset, then extends it by every later
    position with an edge: one visit per subset, in position order with no
    sort.  A step reads its position's ``qbg.move``, the same data
    ``QBG.edge`` reads, and tests the edge inline.
    """
    moves = chain_moves(chain)
    lengths = qbg.length
    size = len(moves)
    out: list[AdmissibleSubset] = []

    def rec(start, positions, u, down):
        out.append(AdmissibleSubset(positions, u, down))
        d, lu = doubled(u), lengths[u]
        for i in range(start, size):
            prod, av, q_diff = moves[i]
            y = prod(d)
            diff = lengths[y] - lu
            if diff == 1:
                rec(i + 1, positions + (i + 1,), y, down)
            elif diff == q_diff:
                rec(i + 1, positions + (i + 1,), y, tuple(map(add, down, av)))

    rec(0, (), w, zero_vec(chain.n))
    return out


def admissible_subsets(qbg: QBG, w: Window, chain: RootChain) -> list[AdmissibleSubset]:
    """``walk_subsets``, memoized on (w, chain) inside the QBG instance,
    the one cache a QBG holds.

    Every walk the library reads goes through it: those of the blocks,
    ``filtered_A``, ``chained_sums``, the Chevalley tails and
    ``subset_stats``.  The Gamma*_k(k) and Theta*_k heads are not walked;
    ``expansions._middle`` sums them in one forward pass.
    """
    cache = qbg._adm_cache
    key = (w, chain)
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = walk_subsets(qbg, w, chain)
    return hit


def subset_stats(qbg: QBG, w: Window, chain: RootChain, positions) -> AdmissibleSubset:
    """Endpoint and down of one subset, given by strictly increasing
    positions, read from the walk of ``admissible_subsets``; ValueError if
    the subset is not admissible."""
    positions = tuple(positions)
    if any(a >= b for a, b in zip(positions, positions[1:])):
        raise ValueError(f"positions {positions} do not strictly increase")
    size = len(chain.entries)
    for p in positions:
        if not 1 <= p <= size:
            raise ValueError(f"position {p} out of range 1..{size}")
    for A in admissible_subsets(qbg, w, chain):
        if A.positions == positions:
            return A
    raise ValueError(f"positions {positions} not admissible from {w}")


def filtered_A(qbg: QBG, w: Window, src: int, dst: int) -> list[AdmissibleSubset]:
    """Nonempty admissible subsets with the prescribed endpoint twist.

    src = k > 0: subsets of Theta_k with ed(A)^{-1} w eps_k = eps_dst
    (requires 1 <= dst < k).  src = -k < 0 ("k bar"): subsets of
    Gamma_k(k) with ed(A)^{-1} w (-eps_k) = eps_dst, dst any letter below
    -k in the total order; eps of a barred letter -m means -eps_m.
    Applying ed(A) to both sides, a subset is kept when w eps_src =
    ed(A) eps_dst, so no window is inverted or multiplied.
    """
    n = qbg.n
    check_letters(n, src, dst)
    if src > 0:
        if not 1 <= dst < src:
            raise ValueError(f"need 1 <= dst < src, got {src=} {dst=}")
        chain = make_chain("theta", src, n)
    else:
        if not letter_pos(dst, n) < letter_pos(src, n):
            raise ValueError(f"need dst < src in the letter order, got {src=} {dst=}")
        chain = make_chain("gamma", -src, n)
    target = image(w, src)
    return [A for A in admissible_subsets(qbg, w, chain)
            if A.positions and image(A.end, dst) == target]
