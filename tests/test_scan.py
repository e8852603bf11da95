"""The incremental conjecture scan against the per-l scan it replaces.

``conjecture_scan`` builds the blocks of the collapsed second form once per
(w, m) and adds one expanded block per cut point l.  The oracle here is the
direct loop: for every l, build ``ic_rhs_conjecture_second``, expand it,
compare it with ``ic_lhs`` and, on a match, certify the streamed summands.
The closed rule for the working cut point is checked against these scans
and against the rank-4 table of ``bench/reference.json``.
"""

import json
import random
from pathlib import Path

import pytest

from helpers import expand_combo, oracle_collapsed
from qalcove.expansions import (
    _block,
    fold_terms,
    ic_conj_second_terms,
    ic_lhs,
    ic_rhs_conjecture_second,
)
from qalcove.typec import weyl_group, zero_vec
from qalcove.verify import (
    ConjectureScanResult,
    cancellation_certificate,
    conjecture_scan,
)

REFERENCE = Path(__file__).parents[1] / "bench" / "reference.json"


def _scan_oracle(qbg, ms=None, elements=None):
    """Rebuild and re-expand the whole right-hand side at every l."""
    n = qbg.n
    working, certs, counter = {}, {}, []
    for w in (elements if elements is not None else qbg.group):
        for m in (ms if ms is not None else range(1, n + 1)):
            x = (w, zero_vec(n))
            lhs = ic_lhs(qbg, x, m, "-")
            ls = []
            for l in range(m, n + 1):
                rhs = expand_combo(qbg, ic_rhs_conjecture_second(qbg, x, m, l))
                if lhs == rhs:
                    ls.append(l)
                    certs[(w, m, l)] = cancellation_certificate(
                        ic_conj_second_terms(qbg, x, m, l))
            working[(w, m)] = tuple(ls)
            if not ls:
                counter.append((w, m))
    expectation = all(set(ls) & {m, n} for (w, m), ls in working.items())
    return ConjectureScanResult(n, working, expectation, counter, certs)


def _conj_stream(qbg, x, m, l):
    """The collapsed second form's summands, written out block by block."""
    w, xi = x
    yield from _block(qbg, w, -m, xi)
    for dst in [-j for j in range(m + 1, qbg.n + 1)] + list(range(1, l + 1)):
        yield from oracle_collapsed(qbg, w, xi, -m, dst)


def _assert_same_scan(got, want):
    assert got.working == want.working
    assert got.certificates == want.certificates
    assert got.to_json() == want.to_json()


def closed_l(w, m):
    """max({m} | {j > m : sgn w(m) * (|w(j)| - |w(m)|) > 0})."""
    a = w[m - 1]
    sgn = 1 if a > 0 else -1
    return max([m] + [j for j in range(m + 1, len(w) + 1)
                      if sgn * (abs(w[j - 1]) - abs(a)) > 0])


@pytest.fixture(scope="module")
def scans(qbg2, qbg3):
    return {2: conjecture_scan(qbg2), 3: conjecture_scan(qbg3)}


@pytest.mark.parametrize("n", [2, 3])
def test_scan_matches_per_l_oracle_exhaustive(n, scans, request):
    qbg = request.getfixturevalue(f"qbg{n}")
    _assert_same_scan(scans[n], _scan_oracle(qbg))


def test_scan_matches_per_l_oracle_rank4_sample(qbg4):
    elements = random.Random(7).sample(qbg4.group, 12)
    _assert_same_scan(conjecture_scan(qbg4, elements=elements),
                      _scan_oracle(qbg4, elements=elements))


def test_conj_builders_match_old_streams_rank3(qbg3):
    n = qbg3.n
    for w in qbg3.group:
        x = (w, zero_vec(n))
        for m in range(1, n + 1):
            for l in range(m, n + 1):
                old = list(_conj_stream(qbg3, x, m, l))
                assert list(ic_conj_second_terms(qbg3, x, m, l)) == old, (w, m, l)
                assert ic_rhs_conjecture_second(qbg3, x, m, l) == \
                    fold_terms(n, old), (w, m, l)


@pytest.mark.parametrize("n", [2, 3])
def test_closed_l_rule_matches_scan(n, scans):
    res = scans[n]
    assert len(res.working) == len(weyl_group(n)) * n
    for (w, m), ls in res.working.items():
        assert ls == (closed_l(w, m),), (w, m, ls)
        assert res.certificates[(w, m, ls[0])], (w, m)


def test_closed_l_rule_matches_rank4_reference():
    entries = json.loads(REFERENCE.read_text())["scan_r4"]["entries"]
    keys = [(w, m) for w in weyl_group(4) for m in range(1, 5)]
    assert len(entries) == len(keys) == 1536
    for (w, m), entry in zip(keys, entries):
        assert entry == f"{closed_l(w, m)}:T", (w, m, entry)


def test_scan_accepts_iterators(qbg2):
    elements, ms = list(qbg2.group), [1, 2]
    want = conjecture_scan(qbg2, ms=ms, elements=elements)
    assert len(want.working) == len(elements) * len(ms) == 16
    got = conjecture_scan(qbg2, ms=iter(ms), elements=iter(elements))
    _assert_same_scan(got, want)
