r"""Exact arithmetic for the type C_n root system and its Weyl group.

Conventions, fixed once and used everywhere:

* Weights are integer tuples of length n in the epsilon basis: lam[i-1] is
  the coefficient of eps_i.
* Coroots (and translation parts of affine elements) are integer tuples in
  the dual basis eps_1^vee..eps_n^vee, so ``pair`` is the dot product.
* Roots are weight vectors +-eps_i+-eps_j (i<j) or +-2eps_i.  A root is
  positive iff its first nonzero coordinate is positive.  Simple roots are
  alpha_i = eps_i - eps_{i+1} for i<n and alpha_n = 2eps_n.
* Weyl group elements are signed permutations in window notation: ``w`` is
  the tuple (w(1),...,w(n)) with entries in {+-1..+-n}, acting by
  w(eps_i) = eps_{w(i)} where eps_{-j} means -eps_j.
* Barred letters are encoded as negative integers: "k bar" is -k.  The
  total order on {1..n, n bar..1 bar} is by ``letter_pos`` (1..2n).

>>> length(w_from_word([1, 2, 1], 3))
3
>>> act((3, 2, 1), (0, 0, 1))
(1, 0, 0)
>>> reflect((1, 1, 0), (1, 0, 0))   # s_{eps1+eps2} maps eps_1 to -eps_2
(0, -1, 0)
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache
from itertools import permutations, product
from operator import add, itemgetter, neg, sub

Vec = tuple[int, ...]
Window = tuple[int, ...]


# --- vectors ---------------------------------------------------------------

def vec_add(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise ValueError(f"vectors of lengths {len(u)} and {len(v)}")
    return tuple(map(add, u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise ValueError(f"vectors of lengths {len(u)} and {len(v)}")
    return tuple(map(sub, u, v))


def vec_neg(u: Vec) -> Vec:
    return tuple(-a for a in u)


def zero_vec(n: int) -> Vec:
    return (0,) * n


def eps_vec(i: int, n: int) -> Vec:
    """eps_i as a weight, or eps_{-i} = -eps_i for negative i."""
    if i > 0:
        return tuple(1 if j == i else 0 for j in range(1, n + 1))
    return tuple(-1 if j == -i else 0 for j in range(1, n + 1))


def pair(lam: Vec, cv: Vec) -> int:
    """Canonical pairing of a weight with a coroot (dot product)."""
    return sum(a * b for a, b in zip(lam, cv, strict=True))


# --- roots -----------------------------------------------------------------

def coroot(alpha: Vec) -> Vec:
    """alpha^vee in dual-epsilon coordinates: alpha itself if short, alpha/2 if long."""
    if sum(a * a for a in alpha) == 4:  # +-2eps_i
        return tuple(a // 2 for a in alpha)
    return alpha


def is_positive_root(alpha: Vec) -> bool:
    for a in alpha:
        if a:
            return a > 0
    raise ValueError("zero vector is not a root")


def root_abs(alpha: Vec) -> Vec:
    return alpha if is_positive_root(alpha) else vec_neg(alpha)


def positive_roots(n: int) -> list[Vec]:
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


def root_from_letters(i: int, j: int, n: int) -> Vec:
    """The root (i,j) in letter notation: eps_i - eps_j, with eps_{-j} = -eps_j.

    (i,j) with 0<i<j<=n is eps_i-eps_j; (i,-j) is eps_i+eps_j; (i,-i) is 2eps_i.
    """
    return vec_sub(eps_vec(i, n), eps_vec(j, n))


def root_letters(alpha: Vec) -> tuple[int, int]:
    """Inverse of root_from_letters for positive roots."""
    n = len(alpha)
    nz = [(k + 1, a) for k, a in enumerate(alpha) if a]
    if len(nz) == 1:
        (i, a), = nz
        if a != 2:
            raise ValueError(f"not a positive root: {alpha}")
        return (i, -i)
    (i, a), (j, b) = nz
    if a != 1 or b not in (1, -1):
        raise ValueError(f"not a positive root: {alpha}")
    return (i, -j) if b == 1 else (i, j)


def root_str(alpha: Vec) -> str:
    sign = "" if is_positive_root(alpha) else "-"
    i, j = root_letters(root_abs(alpha))
    return f"{sign}({i},{j})"


def simple_root(i: int, n: int) -> Vec:
    if i < n:
        return vec_sub(eps_vec(i, n), eps_vec(i + 1, n))
    return tuple(2 if j == n else 0 for j in range(1, n + 1))


def rho(n: int) -> Vec:
    return tuple(range(n, 0, -1))


def reflect(alpha: Vec, lam: Vec) -> Vec:
    """s_alpha(lam) = lam - <lam, alpha^vee> alpha."""
    c = pair(lam, coroot(alpha))
    return tuple(a - c * b for a, b in zip(lam, alpha, strict=True))


def alpha_coords(cv: Vec) -> Vec:
    """Coordinates of a coroot-lattice element in the simple coroots.

    For xi = sum c_i alpha_i^vee the dual-eps coordinates d satisfy
    c_j = d_1 + ... + d_j; any integer dual vector is in the lattice.
    """
    c, run = [], 0
    for d in cv:
        run += d
        c.append(run)
    return tuple(c)


# --- letters (signed indices) ----------------------------------------------

def letter_pos(a: int, n: int) -> int:
    """Position of a letter in the total order 1 < .. < n < -n < .. < -1 (1-based)."""
    return a if a > 0 else 2 * n + 1 - (-a)


def check_letters(n: int, src: int, dst: int):
    """ValueError unless src and dst are both letters of +-1..+-n."""
    if not (0 < abs(src) <= n and 0 < abs(dst) <= n):
        raise ValueError(f"need letters in +-1..+-{n}, got {src=} {dst=}")


def letter_from_pos(p: int, n: int) -> int:
    return p if p <= n else -(2 * n + 1 - p)


# --- signed permutations ---------------------------------------------------

def identity_w(n: int) -> Window:
    return tuple(range(1, n + 1))


def act(w: Window, v: Vec) -> Vec:
    """Linear action on a weight or dual vector: w(eps_i) = eps_{w(i)}."""
    out = [0] * len(v)
    for i, c in enumerate(v):
        im = w[i]
        if im > 0:
            out[im - 1] += c
        else:
            out[-im - 1] -= c
    return tuple(out)


def image(w: Window, a: int) -> int:
    """The signed letter w(a): w(eps_a) = eps_{w(a)}, eps_{-a} meaning -eps_a."""
    return w[a - 1] if a > 0 else -w[-a - 1]


def mul(u: Window, v: Window) -> Window:
    """(uv)(i) = u(v(i))."""
    return tuple(u[vi - 1] if vi > 0 else -u[-vi - 1] for vi in v)


def inv(w: Window) -> Window:
    out = [0] * len(w)
    for i, im in enumerate(w, start=1):
        if im > 0:
            out[im - 1] = i
        else:
            out[-im - 1] = -i
    return tuple(out)


def simple_refl(i: int, n: int) -> Window:
    w = list(range(1, n + 1))
    if i < n:
        w[i - 1], w[i] = w[i], w[i - 1]
    else:
        w[n - 1] = -n
    return tuple(w)


@lru_cache(maxsize=None)
def refl_window(alpha: Vec) -> Window:
    """s_alpha as a signed permutation."""
    n = len(alpha)
    out = []
    for k in range(1, n + 1):
        v = reflect(alpha, eps_vec(k, n))
        nz = [(m + 1, c) for m, c in enumerate(v) if c]
        (m, c), = nz
        out.append(m if c > 0 else -m)
    return tuple(out)


def doubled(u: Window) -> tuple[int, ...]:
    """The images u(1), .., u(n), u(-n), .., u(-1) of every letter.

    The image of a letter a > 0 sits at index a - 1 and that of a < 0 at
    index 2n + a, the indices ``times_reflection`` reads.
    """
    return u + tuple(map(neg, u[::-1]))


@lru_cache(maxsize=None)
def times_reflection(alpha: Vec) -> Callable[[tuple[int, ...]], Window]:
    """The map from ``doubled(u)`` to the window u s_alpha.

    (u s_alpha)(i) = u(s_alpha(i)), so it picks one index per entry and
    builds the product with no loop in Python.
    """
    n = len(alpha)
    idx = [a - 1 if a > 0 else 2 * n + a for a in refl_window(alpha)]
    if n == 1:  # an itemgetter of one index returns the entry, not a tuple
        i, = idx
        return lambda d: (d[i],)
    return itemgetter(*idx)


def length(w: Window) -> int:
    """Number of positive roots sent to negative roots, in closed form.

    2eps_i turns negative iff w(i) < 0.  For i < j, eps_i - eps_j and
    eps_i + eps_j both turn negative iff w(i) < 0 and |w(i)| < |w(j)|, and
    exactly one of them does iff |w(i)| > |w(j)|.
    """
    out = 0
    for i, a in enumerate(w):
        if a < 0:
            out += 1
        for b in w[i + 1:]:
            if abs(a) > abs(b):
                out += 1
            elif a < 0:
                out += 2
    return out


def reduced_word(w: Window) -> list[int]:
    """Left-greedy reduced word: repeatedly strip the smallest left descent."""
    n = len(w)
    word = []
    winv = inv(w)
    while w != identity_w(n):
        for i in range(1, n + 1):
            # i is a left descent of w iff w^{-1}(alpha_i) < 0
            if not is_positive_root(act(winv, simple_root(i, n))):
                word.append(i)
                s = simple_refl(i, n)
                w = mul(s, w)
                winv = mul(winv, s)
                break
        else:
            raise AssertionError("no descent found for non-identity element")
    return word


def w_from_word(word: list[int], n: int) -> Window:
    w = identity_w(n)
    for i in word:
        w = mul(w, simple_refl(i, n))
    return w


def weyl_group(n: int) -> list[Window]:
    """All 2^n n! signed permutations, in a fixed deterministic order."""
    out = []
    for p in permutations(range(1, n + 1)):
        for signs in product((1, -1), repeat=n):
            out.append(tuple(s * a for s, a in zip(signs, p)))
    return out


def window_str(w: Window) -> str:
    return "[" + ",".join(str(a) for a in w) + "]"


def word_str(word: list[int]) -> str:
    return "e" if not word else " ".join(f"s{i}" for i in word)


def parse_window(text: str) -> Window:
    body = text.strip().strip("[]")
    try:
        w = tuple(int(t) for t in body.replace(",", " ").split())
    except ValueError:
        w = (0,)  # a non-integer entry fails the check below
    if sorted(abs(a) for a in w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a signed permutation window: {text}")
    return w


def parse_word(text: str, n: int) -> Window:
    """Parse 'e' or a space/*-separated product of s<i> generators."""
    text = text.strip()
    if text in ("e", ""):
        return identity_w(n)
    toks = text.replace("*", " ").split()
    word = []
    for t in toks:
        if not (t.startswith("s") and t[1:].removeprefix("-").isdecimal()):
            raise ValueError(f"bad generator {t!r}; expected e.g. 's1'")
        word.append(int(t[1:]))
    if any(i < 1 or i > n for i in word):
        raise ValueError(f"generator index out of range 1..{n}: {text}")
    return w_from_word(word, n)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
