"""The Chevalley head cache holds flat tuples of ints and shared windows.

``expand_to_base`` caches one head per (y, t) in ``QBG._heads``: parallel
tuples of the ends ed(A_1) and the packed keys of the A_1 over the
Gamma*_t(t) or Theta*_t head of the eps_t-chain, each end and key the one
object ``QBG._keys`` holds for its value.  A ``Coeff``, ``RationalCoeff``
or dict in a cached value would cost hundreds of bytes per symbol again,
so after a sweep every value must reach only tuples and ints, and the
heads must cost less than the whole records the cache held before
(``helpers.oracle_record``).  ``cache_bytes`` counts what the cache costs;
run as a script, this module prints that count after a serial, seeded
``qalcove verify`` sample:

    PYTHONPATH=src python3 tests/test_compact_chevalley.py --rank 5 --sample 1500 --seed 5
"""

import argparse
import json
import os
import random
import sys

from helpers import expand_buckets, oracle_record
from qalcove import cli
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
    """(bytes, entries) of the values in ``qbg._heads``.

    The bytes are the ``sys.getsizeof`` sum over every distinct object the
    cached heads reach, each shared end and key once.
    """
    values = list(qbg._heads.values())
    size = sum(sys.getsizeof(obj) for obj in reached(values))
    return size, sum(len(ends) for ends, _ in values)


def record_bytes(n, heads) -> tuple[int, int]:
    """(bytes, entries) of the whole records of the (y, t) of ``heads``,
    built by the record path on a fresh QBG(n), each end the walk cache
    owns left out."""
    qbg = QBG(n)
    records = {}
    for y, t in heads:
        oracle_record(qbg, y, "+" if t > 0 else "-", abs(t), records)
    shared = {id(s.end) for subsets in qbg._adm_cache.values() for s in subsets}
    values = list(records.values())
    size = sum(sys.getsizeof(obj) for obj in reached(values, shared))
    return size, sum(len(v.keys) for v in values)


def test_cache_holds_only_tuples_and_ints():
    qbg = QBG(3)
    for w in qbg.group:
        for m in range(1, 4):
            for variant in ("first", "second", "key"):
                assert cli.VERIFIERS[variant](qbg, w, m, (0, 0, 0)).ok
    values = list(qbg._heads.values())
    assert len(values) == 48 * 3 * 2  # every (y, t) was expanded
    assert {type(obj) for obj in reached(values)} == {tuple, int}
    assert all(len(ends) == len(keys) > 0 for ends, keys in values)
    assert all(obj is qbg._keys[obj] for ends, keys in values for obj in ends + keys)
    size, entries = cache_bytes(qbg)
    # 59 020 B for 944 entries here, 62 B per entry: each distinct end and
    # key is one object shared by every head
    assert size < 70 * entries
    # the whole records of the same (y, t) took 127 656 B for 2 320 entries
    assert size < record_bytes(3, qbg._heads)[0]


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
            for key2, rc2 in chevalley_expand(qbg, y, sign, k).combo().terms.items():
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


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rank", type=int, default=5)
    ap.add_argument("--sample", type=int, default=1500)
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args(argv)
    code = cli.main(["verify", "--rank", str(args.rank), "--sample", str(args.sample),
                     "--seed", str(args.seed), "--format", "json", "--out", os.devnull])
    size, entries = cache_bytes(cli._WORKER_QBG)
    print(json.dumps({"exit_code": code, "heads": len(cli._WORKER_QBG._heads),
                      "entries": entries, "bytes": size,
                      "bytes_per_entry": round(size / entries, 1)}))


if __name__ == "__main__":
    main()
