r"""Exact coefficient ring and formal Demazure-symbol combinations.

A ``Coeff`` is an integer Laurent polynomial in q, x_1..x_n together with a
formal exponential e^nu (nu a weight): a sparse dict from monomials
(q-exponent, x-exponent tuple, nu) to integers.  The variable x_i stands
for q^{<lam, alpha_i^vee>} where lam is a symbolic dominant weight, so any
factor q^{-<lam, xi>} with xi = sum c_i alpha_i^vee in the coroot lattice
is the monomial prod x_i^{-c_i}.

Each monomial is stored packed into one int (``pack``), so a product of
monomials is one integer addition and a sum of coefficients one dict
update.  The 2n x- and nu-exponents sit in FIELD_BITS-bit fields, each
biased by FIELD_BIAS and topped by a guard bit that every stored key
keeps clear; the q-exponent is the unbounded signed part above them, so
integer order of keys is the order of the (q, x, nu) tuples.  A field
that would leave EXP_MIN..EXP_MAX raises ValueError and never wraps.
Only rendering and sorting decode keys.

A ``RationalCoeff`` divides a Coeff by a product of distinct atoms
1 - q^{-1} x_k^{-1} (the factor 1 - q^{-<lam+w_k, alpha_k^vee>} of the
eps_k Chevalley expansion).  Each Chevalley expansion carries at most one
atom, so a repeated atom is an error rather than a case to handle.
Fractions stay reduced: an atom that divides the numerator exactly is
cancelled.  A reduced fraction is the unique form of its value, so
equality compares numerators and atoms directly.

A ``DemazureCombo`` is a finite sum  sum_{(y,mu)} c_{y,mu} V_y(lam+mu)
of level-zero Demazure characters with RationalCoeff coefficients.  A
translation V_{y t_xi}(lam+mu) = q^{-<mu,xi>} prod x_i^{-c_i} V_y(lam+mu)
is one packed monomial, ``translation_key``, which ``expansions`` puts
into the key of each summand it builds.

Sums are kept as integer buckets {(symbol, sorted atoms): {packed monomial:
count}}: ``fold_into`` adds summands into them, and ``expand_to_base``
adds the Chevalley tails of a middle tally of summands times heads.
``over_common`` puts the buckets of a symbol over their common denominator
by ``times_atom``, one packed subtraction per monomial, and is the one
place a bucket is multiplied by an atom.  An identity is decided on such
sums by ``cancels``, with no rational arithmetic.  A ``DemazureCombo`` is
built from buckets only to show a sum: ``DemazureCombo.from_buckets``
reduces each symbol's sum once.
"""

from __future__ import annotations

from functools import lru_cache

from .typec import (
    Vec,
    Window,
    alpha_coords,
    pair,
    window_str,
    zero_vec,
)

TermKey = tuple[int, tuple[int, ...], tuple[int, ...]]  # (q-exp, x-exps, nu)

# Packed monomials, with W = FIELD_BITS and B = FIELD_BIAS:
#
#     key = q << 2nW | (x_1 + B) << (2n-1)W | ... | (nu_n + B)
#
# A field holds e + B for e in EXP_MIN..EXP_MAX, so its top (guard) bit is 0.
FIELD_BITS = 32
FIELD_BIAS = 1 << (FIELD_BITS - 2)
EXP_MIN, EXP_MAX = -FIELD_BIAS, FIELD_BIAS - 1
_FIELD_MASK = (1 << FIELD_BITS) - 1


@lru_cache(maxsize=None)
def packed_words(n: int) -> tuple[int, int]:
    """(the bias in every field, the guard bit of every field) at rank n.

    k1 + k2 - bias adds the biased fields of two keys without carries and
    leaves e1 + e2 + bias in each, which sets its field's guard bit iff
    e1 + e2 is out of range (a negative field borrows and sets it too).
    """
    bias = guard = 0
    for _ in range(2 * n):
        bias = (bias << FIELD_BITS) | FIELD_BIAS
        guard = (guard << FIELD_BITS) | (1 << (FIELD_BITS - 1))
    return bias, guard


def check_packed(n: int, seen: int):
    """ValueError if some product key OR-ed into ``seen`` left its range."""
    if seen & packed_words(n)[1]:
        raise ValueError(f"exponent outside the packed range "
                         f"{EXP_MIN}..{EXP_MAX} in a product")


@lru_cache(maxsize=1 << 14)  # the monomials of one sweep repeat often
def pack(n: int, key: TermKey) -> int:
    """The packed int of a (q, x, nu) monomial; ValueError if an x- or
    nu-exponent lies outside EXP_MIN..EXP_MAX."""
    q, x, nu = key
    if len(x) != n or len(nu) != n:
        raise ValueError(f"monomial {key} does not have rank {n}")
    out = q
    for e in (*x, *nu):
        if not EXP_MIN <= e <= EXP_MAX:
            raise ValueError(f"exponent {e} outside the packed range "
                             f"{EXP_MIN}..{EXP_MAX}")
        out = (out << FIELD_BITS) | (e + FIELD_BIAS)
    return out


def unpack(n: int, key: int) -> TermKey:
    """The (q, x, nu) monomial of a packed int."""
    fields = []
    for _ in range(2 * n):
        fields.append((key & _FIELD_MASK) - FIELD_BIAS)
        key >>= FIELD_BITS
    fields.reverse()
    return key, tuple(fields[:n]), tuple(fields[n:])


class Coeff:
    """Sparse integer Laurent polynomial in q, x_1..x_n, e^nu.

    ``packed`` maps each monomial's packed int (see ``pack``) to its nonzero
    coefficient; zero counts are dropped when a Coeff is built, and it is
    never changed after that.
    """

    __slots__ = ("n", "packed")

    def __init__(self, n: int, packed: dict[int, int] | None = None):
        self.n = n
        self.packed = {k: c for k, c in (packed or {}).items() if c}

    # -- ring operations --

    def __add__(self, other: "Coeff") -> "Coeff":
        out = dict(self.packed)
        for k, c in other.packed.items():
            out[k] = out.get(k, 0) + c
        return Coeff(self.n, out)

    def __mul__(self, other: "Coeff") -> "Coeff":
        bias = packed_words(self.n)[0]
        out: dict[int, int] = {}
        get = out.get
        seen = 0
        for k1, c1 in self.packed.items():
            for k2, c2 in other.packed.items():
                k = k1 + k2 - bias  # see packed_words
                seen |= k
                out[k] = get(k, 0) + c1 * c2
        check_packed(self.n, seen)
        return Coeff(self.n, out)

    def __eq__(self, other) -> bool:
        return isinstance(other, Coeff) and self.n == other.n and self.packed == other.packed

    def is_zero(self) -> bool:
        return not self.packed

    # -- rendering --

    def sorted_terms(self):
        n = self.n
        return [(unpack(n, k), c) for k, c in sorted(self.packed.items())]

    def __str__(self) -> str:
        if not self.packed:
            return "0"
        parts = []
        for (q, x, nu), c in self.sorted_terms():
            factors = []
            if abs(c) != 1 or (q == 0 and not any(x) and not any(nu)):
                factors.append(str(abs(c)))
            if q:
                factors.append(f"q^{q}" if q != 1 else "q")
            for i, b in enumerate(x, start=1):
                if b:
                    factors.append(f"x{i}^{b}" if b != 1 else f"x{i}")
            if any(nu):
                factors.append("e[" + ",".join(str(v) for v in nu) + "]")
            mono = "*".join(factors) or "1"
            parts.append(("-" if c < 0 else "+") + mono)
        s = " ".join(parts)
        return s[1:] if s.startswith("+") else s

    __repr__ = __str__


def _atom_step(n: int, k: int) -> tuple[int, int]:
    """(the shift of the x_k field, the packed key of q x_k without bias).

    Adding the step to a packed key multiplies its monomial by q x_k."""
    shift = FIELD_BITS * (2 * n - k)
    return shift, (1 << (2 * n * FIELD_BITS)) + (1 << shift)


def times_atom(n: int, packed: dict[int, int], k: int) -> dict[int, int]:
    """The packed numerator ``packed`` times the atom 1 - q^{-1}x_k^{-1}.

    One packed subtraction per nonzero monomial, no Coeff.  ValueError if
    an x_k-exponent would fall below EXP_MIN (the borrow sets the field's
    guard bit, see ``packed_words``).
    """
    step = _atom_step(n, k)[1]
    out = dict(packed)
    seen = 0
    for key, c in packed.items():
        if c:
            low = key - step
            seen |= low
            out[low] = out.get(low, 0) - c
    check_packed(n, seen)
    return out


def divide_by_atom(c: Coeff, k: int) -> Coeff | None:
    """Exact quotient c / (1 - q^{-1}x_k^{-1}), or None if not divisible.

    Substituting y = q^{-1}x_k^{-1} groups terms into univariate Laurent
    polynomials in y; each group must have coefficient sum zero.  On packed
    keys, multiplying by y^-1 = q x_k adds ``step``.
    """
    n = c.n
    shift, step = _atom_step(n, k)
    groups: dict[int, dict[int, int]] = {}
    for key, v in c.packed.items():
        bk = ((key >> shift) & _FIELD_MASK) - FIELD_BIAS
        g = groups.setdefault(key - bk * step, {})  # x_k^0, q^(q - bk)
        g[-bk] = g.get(-bk, 0) + v
    out: dict[int, int] = {}
    for base, poly in groups.items():
        if sum(poly.values()) != 0:
            return None
        lo, hi = min(poly), max(poly)
        run = 0
        for j in range(lo, hi):  # quotient degrees lo..hi-1
            run += poly.get(j, 0)
            if run:
                key = base - j * step
                out[key] = out.get(key, 0) + run
    return Coeff(n, out)


def _check_atoms(atoms: tuple[int, ...]):
    if len(set(atoms)) != len(atoms):
        raise ValueError(f"repeated denominator atom in {atoms}")


class RationalCoeff:
    """Coeff over a product of distinct atoms 1 - q^{-1}x_k^{-1}, kept reduced."""

    __slots__ = ("numer", "atoms")

    def __init__(self, numer: Coeff, atoms=()):
        atoms = tuple(sorted(atoms))
        _check_atoms(atoms)
        if numer.is_zero():
            atoms = ()
        if len(numer.packed) == 1:  # a monomial is a unit: no atom divides it
            self.numer, self.atoms = numer, atoms
            return
        # distinct atoms are coprime, so one pass cancels every factor
        kept = []
        for k in atoms:
            q = divide_by_atom(numer, k)
            if q is None:
                kept.append(k)
            else:
                numer = q
        self.numer = numer
        self.atoms = tuple(kept)

    @property
    def n(self) -> int:
        return self.numer.n

    def over(self, atoms) -> Coeff:
        """The numerator written over ``atoms``, a superset of self.atoms:
        adding zero over ``atoms`` puts it over their union."""
        _, numer = over_common(self.n, ((self.atoms, self.numer.packed), (atoms, {})))
        return Coeff(self.n, numer)

    def __add__(self, other: "RationalCoeff") -> "RationalCoeff":
        atoms = tuple(sorted(set(self.atoms) | set(other.atoms)))
        return RationalCoeff(self.over(atoms) + other.over(atoms), atoms)

    def __mul__(self, other) -> "RationalCoeff":
        if isinstance(other, Coeff):
            return RationalCoeff(self.numer * other, self.atoms)
        return RationalCoeff(self.numer * other.numer, self.atoms + other.atoms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalCoeff):
            return NotImplemented
        # distinct atoms are coprime primes and a reduced numerator is
        # divisible by none of its atoms, so the reduced form is unique
        return self.atoms == other.atoms and self.numer == other.numer

    def is_zero(self) -> bool:
        return self.numer.is_zero()

    def __str__(self) -> str:
        if not self.atoms:
            return str(self.numer)
        den = " * ".join(f"(1 - q^-1*x{k}^-1)" for k in self.atoms)
        return f"({self.numer}) / ({den})"

    __repr__ = __str__


# --- integer buckets ----------------------------------------------------------

Buckets = dict[tuple, dict[int, int]]  # (symbol, sorted atoms) -> {key: count}
Entry = tuple[tuple, int, int]  # ((symbol, sorted atoms), packed monomial, count)


def fold_into(n: int, acc: Buckets, entries, sign: int = 1) -> Buckets:
    """Add sign * count of each ((symbol, sorted atoms), packed monomial,
    count) entry into its integer bucket of ``acc``; returns acc.

    ValueError if a key left the packed range (see ``packed_words``).
    """
    seen = 0
    for sym, key, c in entries:
        seen |= key
        bucket = acc.get(sym)
        if bucket is None:
            bucket = acc[sym] = {}
        bucket[key] = bucket.get(key, 0) + sign * c
    check_packed(n, seen)
    return acc


def over_common(n: int, parts) -> tuple[set[int], dict[int, int]]:
    """(the union of the atoms, the sum over it) of (atoms, bucket) parts,
    each standing for bucket / prod(atoms).

    ``times_atom`` multiplies each bucket by the atoms it lacks, with no
    division and no reduction.  ValueError if a product left the packed
    range.
    """
    common = set().union(*(atoms for atoms, _ in parts))
    total: dict[int, int] = {}
    for atoms, bucket in parts:
        for k in common.difference(atoms):
            bucket = times_atom(n, bucket, k)
        for key, c in bucket.items():
            total[key] = total.get(key, 0) + c
    return common, total


def _by_symbol(acc: Buckets) -> dict[tuple, list]:
    """The nonzero buckets of ``acc`` as (atoms, bucket) parts per symbol.
    ValueError if an atom repeats in any bucket, a cancelling one too."""
    parts: dict[tuple, list] = {}
    for (sym, atoms), bucket in acc.items():
        if len(atoms) > 1:
            _check_atoms(atoms)
        if any(bucket.values()):
            parts.setdefault(sym, []).append((atoms, bucket))
    return parts


def cancels(n: int, acc: Buckets) -> bool:
    """True iff the buckets sum to zero, each as count * monomial / prod(atoms).

    The buckets of one symbol sum to zero iff their numerators do over the
    union of their atoms (``over_common``).  A lone nonzero bucket never
    cancels.  ValueError if an atom repeats in a bucket or a product left
    the packed range.
    """
    for parts in _by_symbol(acc).values():
        if len(parts) == 1 or any(over_common(n, parts)[1].values()):
            return False
    return True


# --- formal Demazure combinations -------------------------------------------

@lru_cache(maxsize=1 << 12)
def translation_key(mu: Vec, xi: Vec) -> int:
    """The packed monomial q^{-<mu, xi>} prod x_i^{-c_i}, where
    xi = sum c_i alpha_i^vee."""
    coords = alpha_coords(xi)
    return pack(len(xi), (-pair(mu, xi), tuple(-c for c in coords), zero_vec(len(xi))))


class DemazureCombo:
    """Finite formal sum of V_y(lam+mu) with RationalCoeff coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int):
        self.n = n
        self.terms: dict[tuple[Window, Vec], RationalCoeff] = {}

    @classmethod
    def folded(cls, n: int, entries) -> "DemazureCombo":
        """The sum of count * monomial / prod(atoms) * V_symbol over
        ((symbol, sorted atoms), packed monomial, count) entries, added in
        integer buckets by ``fold_into``.  ValueError if a key left the
        packed range (see ``packed_words``) or an atom repeats.
        """
        return cls.from_buckets(n, fold_into(n, {}, entries))

    @classmethod
    def from_buckets(cls, n: int, acc: Buckets) -> "DemazureCombo":
        """The reduced combination of integer buckets (see ``fold_into``).

        The buckets of each symbol are added over the union of their atoms
        (``over_common``, as ``cancels`` decides) and a nonzero sum is
        reduced once through ``RationalCoeff``; a reduced form is unique,
        so this equals adding one entry at a time.  A repeated atom raises
        ValueError, also in a bucket that cancels.
        """
        out = cls(n)
        for sym, parts in _by_symbol(acc).items():
            atoms, numer = over_common(n, parts)
            if any(numer.values()):
                out.terms[sym] = RationalCoeff(Coeff(n, numer), atoms)
        return out

    def __sub__(self, other: "DemazureCombo") -> "DemazureCombo":
        """self - other, one ``folded`` entry per monomial."""
        return DemazureCombo.folded(self.n, (
            ((key, rc.atoms), t, sign * c)
            for combo, sign in ((self, 1), (other, -1))
            for key, rc in combo.terms.items() for t, c in rc.numer.packed.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DemazureCombo):
            return NotImplemented
        return self.terms == other.terms  # from_buckets never stores a zero

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_items(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0][1], kv[0][0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        lines = []
        for (y, mu), rc in self.sorted_items():
            lines.append(f"({rc}) * V{window_str(y)}(lam{_mu_str(mu)})")
        return "\n".join(lines)

    __repr__ = __str__

    def to_json(self):
        return [
            {
                "w": list(y),
                "mu": list(mu),
                "numer": [
                    {"c": c, "q": q, "x": list(x), "nu": list(nu)}
                    for (q, x, nu), c in rc.numer.sorted_terms()
                ],
                "atoms": list(rc.atoms),
            }
            for (y, mu), rc in self.sorted_items()
        ]


def _mu_str(mu: Vec) -> str:
    if not any(mu):
        return ""
    parts = []
    for i, c in enumerate(mu, start=1):
        if c:
            sign = "+" if c > 0 else "-"
            mag = "" if abs(c) == 1 else str(abs(c))
            parts.append(f"{sign}{mag}e{i}")
    return "".join(parts)


def clear_denominators(a: DemazureCombo, b: DemazureCombo):
    """Common-denominator form of two combos: polynomial coefficients only.

    Returns (a', b', atoms) where every coefficient of a' and b' is
    atom-free, a' = a * prod(atoms), b' = b * prod(atoms).
    """
    lcm = tuple(sorted({k for combo in (a, b) for rc in combo.terms.values()
                        for k in rc.atoms}))
    a2, b2 = (DemazureCombo.folded(c.n, (((key, ()), t, v)
                                         for key, rc in c.terms.items()
                                         for t, v in rc.over(lcm).packed.items()))
              for c in (a, b))
    return a2, b2, lcm
