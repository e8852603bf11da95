"""The QBG stores no Chevalley expansion: its one cache is the walk cache.

``expand_to_base`` computes the heads of each shifted group in one forward
pass (``expansions._middle``) and stores nothing, and its tails read the
cached walks of the blocks' gamma and theta chains.  So after a sweep the
QBG holds no dict but its length table and ``_adm_cache``, whose values
reach only lists, tuples and ints.  A ``Coeff``, ``RationalCoeff`` or dict
in a cached value would cost hundreds of bytes per symbol again.
``cache_bytes`` counts what the walk cache costs; ``tests/cache_locality.py``
reports it after a sweep, with ``--peak`` for peak memory too.

The expansions are also checked against the combination-level path they
replaced, ``combo_expand_to_base``.
"""

import random
import sys

from helpers import expand_buckets
from qalcove import cli
from qalcove.alcove import AdmissibleSubset
from qalcove.expansions import (
    _mu_index,
    chevalley_expand,
    ic_rhs_cancel_free_first,
    ic_rhs_first,
    ic_rhs_second,
)
from qalcove.qbg import QBG
from qalcove.ring import DemazureCombo, packed_words
from qalcove.verify import _key_sides


def reached(roots, skip=()):
    """Every distinct object reachable from ``roots`` through tuples, lists,
    dicts and slots, each once; objects whose id is in ``skip`` are neither
    yielded nor entered."""
    seen = set(skip)
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, (tuple, list)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        else:
            for cls in type(obj).__mro__:
                slots = getattr(cls, "__slots__", ())
                for name in (slots,) if isinstance(slots, str) else slots:
                    if hasattr(obj, name):
                        stack.append(getattr(obj, name))
            if hasattr(obj, "__dict__"):
                stack.append(obj.__dict__)


def cache_bytes(qbg) -> tuple[int, int]:
    """(bytes, subsets) of the values in ``qbg._adm_cache``.

    The bytes are the ``sys.getsizeof`` sum over every distinct object the
    cached walks reach, each shared end and down once, the group's windows
    left out (the QBG holds those anyway).
    """
    values = list(qbg._adm_cache.values())
    group = {id(w) for w in qbg.group}
    size = sum(sys.getsizeof(obj) for obj in reached(values, group))
    return size, sum(map(len, values))


def test_cache_holds_only_tuples_and_ints():
    qbg = QBG(3)
    for w in qbg.group:
        for m in range(1, 4):
            for variant in ("first", "second", "key"):
                assert cli.VERIFIERS[variant](qbg, w, m, (0, 0, 0)).ok
    assert [name for name, value in vars(qbg).items()
            if isinstance(value, dict)] == ["length", "_adm_cache"]
    assert {chain.kind for _, chain in qbg._adm_cache} == {"gamma", "theta"}
    values = list(qbg._adm_cache.values())
    assert {type(obj) for obj in reached(values)} == {list, AdmissibleSubset, tuple, int}
    size, subsets = cache_bytes(qbg)
    # 288 walks of 944 subsets in 198 148 B here, 210 B per subset: a
    # named tuple with its positions, end and down, a few of them shared
    assert size < 256 * subsets


def combo_expand_to_base(qbg, combo):
    """``expand_to_base`` as it was before the records: every Chevalley
    expansion is read as its reduced ``DemazureCombo``."""
    bias = packed_words(combo.n)[0]

    def entries():
        for (y, mu), rc in combo.terms.items():
            numer = rc.numer.packed.items()
            if not any(mu):
                for k1, c1 in numer:
                    yield ((y, mu), rc.atoms), k1, c1
                continue
            k, sign = _mu_index(mu)
            for key2, rc2 in chevalley_expand(qbg, y, sign, k).terms.items():
                sym = (key2, tuple(sorted(rc2.atoms + rc.atoms)))
                for k2, c2 in rc2.numer.packed.items():
                    for k1, c1 in numer:
                        yield sym, k1 + k2 - bias, c1 * c2

    return DemazureCombo.folded(combo.n, entries())


def _check_expanded(qbg, w, xi):
    n = qbg.n
    sides = [build(qbg, (w, xi), m) for m in range(1, n + 1)
             for build in (ic_rhs_first, ic_rhs_second, ic_rhs_cancel_free_first)]
    sides += [_key_sides(qbg, w, t)[0] for k in range(1, n + 1) for t in (k, -k)]
    for side in sides:
        got, want = expand_buckets(qbg, side), combo_expand_to_base(qbg, side)
        assert got == want
        assert got.to_json() == want.to_json()


def test_expand_to_base_matches_combo_path(qbg2, qbg3, qbg4):
    for qbg in (qbg2, qbg3):
        for xi in ((0,) * qbg.n, (1, -1, 0)[:qbg.n]):
            for w in qbg.group:
                _check_expanded(qbg, w, xi)
    for w in random.Random(44).sample(qbg4.group, 12):
        _check_expanded(qbg4, w, (0, 0, 0, 0))

