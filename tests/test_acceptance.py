"""Acceptance suite: one test, and one printed pass/fail line, per criterion.

Run with  python3 -m pytest tests/test_acceptance.py -v -s
"""

import json
import multiprocessing as mp
import os
import random
import time
from pathlib import Path

from qalcove.alcove import (
    alcove_walk,
    make_chain,
    reducedness_check,
)
from qalcove.cli import _init_worker, _run_instance, main
from qalcove.expansions import (
    ic_cf_first_terms,
    ic_lhs,
    ic_rhs_cancel_free_first,
    ic_rhs_conjecture_second,
    ic_rhs_first,
    ic_rhs_second,
)
from qalcove.qbg import QBG
from qalcove.typec import eps_vec, pair, parse_word, vec_add, vec_neg, zero_vec
from qalcove.verify import (
    cancellation_certificate,
    collapse_check,
    conjecture_scan,
    pair_domain,
    pair_involution,
    verify_first_half,
    verify_key_props,
    verify_second_half,
)

from helpers import (
    assert_criterion_matches,
    assert_exchange,
    assert_exchange2,
    assert_existence,
    assert_minimum,
    assert_shortest_weights_unique,
    combo_sum,
    display_block,
    expand_combo,
)

GOLDEN = Path(__file__).parent / "golden"

# simple coroots of rank 3 in dual-eps coordinates
A1CV, A2CV, A3CV = (1, -1, 0), (0, 1, -1), (0, 0, 1)


def _pass(num, msg, t0):
    print(f"[PASS] criterion {num}: {msg} ({time.time() - t0:.2f}s)")


def test_criterion_1_table_reproduction(tmp_path):
    t0 = time.time()
    dest = tmp_path / "tables.txt"
    assert main(["tables", "--rank", "3", "--out", str(dest)]) == 0
    golden = "\n\n".join((GOLDEN / f"table{t}.txt").read_text().rstrip("\n")
                         for t in (1, 2, 3)) + "\n"
    assert dest.read_text() == golden  # bit-exact
    # spot rows: table 1 A2 and table 3 A6
    assert ("A2  A^{3,1}(s1 s2 s1)  positions={1,2}  ed=s2 [1,3,2]  "
            "down=[1, 1, 0]") in golden
    assert ("A6  A^{-2,-3}(s1 s2 s3 s2)  positions={4}  ed=s1 s2 s3 [2,3,-1]  "
            "down=[0, 1, 0]") in golden
    assert time.time() - t0 < 1.0
    _pass(1, "tables --rank 3 matches the golden files bit-exact", t0)


def test_criterion_2_example_identities(qbg3):
    t0 = time.time()
    e = (1, 2, 3)
    a12 = vec_add(A1CV, A2CV)
    a123 = vec_add(a12, A3CV)
    # the six displayed q-exponents all evaluate to 1
    assert pair(eps_vec(2, 3), A2CV) == 1    # <eps_2, a2^v>
    assert pair(eps_vec(1, 3), a12) == 1     # <eps_1, a1^v + a2^v>
    assert -pair(eps_vec(3, 3), A2CV) == 1   # -<eps_3, a2^v>
    assert -pair(eps_vec(2, 3), A1CV) == 1   # -<eps_2, a1^v>
    assert -pair(eps_vec(3, 3), a12) == 1    # -<eps_3, a1^v + a2^v>
    assert pair(eps_vec(1, 3), a123) == 1    # <eps_1, a1^v + a2^v + a3^v>

    # first half, w = s1 s2 s1, m = 3
    w1 = parse_word("s1 s2 s1", 3)
    x1 = (w1, zero_vec(3))
    d1 = combo_sum(
        display_block(qbg3, w1, "gamma", 3, zero_vec(3), 0, eps_vec(3, 3)),
        display_block(qbg3, parse_word("s2 s1", 3), "gamma", 2, A2CV, 1,
                      eps_vec(2, 3)),
        display_block(qbg3, e, "gamma", 1, a12, 1, eps_vec(1, 3)))
    cf1 = ic_rhs_cancel_free_first(qbg3, x1, 3)
    assert cf1 == d1
    assert sorted(cf1.terms) == sorted(d1.terms)  # same symbols, term-for-term
    assert ic_rhs_first(qbg3, x1, 3) == d1
    assert expand_combo(qbg3, cf1) == ic_lhs(qbg3, x1, 3, "+")

    # second half, w = s3 s2, m = 2
    w2 = parse_word("s3 s2", 3)
    x2 = (w2, zero_vec(3))
    d2 = combo_sum(
        display_block(qbg3, w2, "theta", 2, zero_vec(3), 0, vec_neg(eps_vec(2, 3))),
        display_block(qbg3, parse_word("s3", 3), "theta", 3, A2CV, 1,
                      vec_neg(eps_vec(3, 3))),
        display_block(qbg3, parse_word("s2 s3 s2", 3), "gamma", 3, zero_vec(3), 0,
                      eps_vec(3, 3)),
        display_block(qbg3, parse_word("s2 s3", 3), "gamma", 2, A2CV, 1,
                      eps_vec(2, 3)),
        display_block(qbg3, parse_word("s2 s3 s1 s2", 3), "gamma", 1, zero_vec(3),
                      0, eps_vec(1, 3)))
    conj2 = ic_rhs_conjecture_second(qbg3, x2, 2, 3)
    assert conj2 == d2
    assert sorted(conj2.terms) == sorted(d2.terms)
    assert ic_rhs_second(qbg3, x2, 2) == d2
    assert expand_combo(qbg3, conj2) == ic_lhs(qbg3, x2, 2, "-")

    # second half, w = s1 s2 s3 s2 s1, m = 1
    w3 = parse_word("s1 s2 s3 s2 s1", 3)
    x3 = (w3, zero_vec(3))
    d3 = combo_sum(
        display_block(qbg3, w3, "theta", 1, zero_vec(3), 0, vec_neg(eps_vec(1, 3))),
        display_block(qbg3, parse_word("s1 s2 s3 s2", 3), "theta", 2, A1CV, 1,
                      vec_neg(eps_vec(2, 3))),
        display_block(qbg3, parse_word("s1 s2 s3", 3), "theta", 3, a12, 1,
                      vec_neg(eps_vec(3, 3))),
        display_block(qbg3, e, "gamma", 1, a123, 1, eps_vec(1, 3)))
    conj3 = ic_rhs_conjecture_second(qbg3, x3, 1, 1)
    assert conj3 == d3
    assert sorted(conj3.terms) == sorted(d3.terms)
    assert ic_rhs_second(qbg3, x3, 1) == d3
    assert expand_combo(qbg3, conj3) == ic_lhs(qbg3, x3, 1, "-")

    assert time.time() - t0 < 5.0
    _pass(2, "three worked displays reproduced term-for-term; "
             "all six displayed q-exponents equal 1", t0)


def test_criterion_3_exhaustive_verification(qbg2, qbg3):
    t0 = time.time()
    for qbg in (qbg2, qbg3):
        for w in qbg.group:
            for m in range(1, qbg.n + 1):
                assert verify_first_half(qbg, w, m).ok, (qbg.n, w, m)
                assert verify_second_half(qbg, w, m).ok, (qbg.n, w, m)
                assert verify_key_props(qbg, w, m).ok, (qbg.n, w, m)
    assert time.time() - t0 < 120.0

    t1 = time.time()
    qbg4 = QBG(4)
    rng = random.Random(2026)
    pairs = [(w, m) for w in qbg4.group for m in range(1, 5)]
    tasks = [(variant, w, m, zero_vec(4))
             for w, m in rng.sample(pairs, 200)
             for variant in ("first", "second", "key")]
    # more workers than usable CPUs only slow it; an affinity mask can allow
    # fewer CPUs than the host has, so size the pool as `qalcove verify` does
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(8, cpus)
    with mp.Pool(workers, initializer=_init_worker, initargs=(4,)) as pool:
        reports = pool.map(_run_instance, tasks, chunksize=8)
    bad = [r.instance for r in reports if not r.ok]
    assert not bad, bad
    assert time.time() - t1 < 600.0
    _pass(3, "all rank-2 and rank-3 instances verified symbolically; "
             f"200-instance rank-4 sample verified with {workers} workers", t0)


def test_criterion_4_cancellation_free_equivalence(qbg3):
    t0 = time.time()
    for w in qbg3.group:
        for m in (1, 2, 3):
            x = (w, zero_vec(3))
            assert (ic_rhs_cancel_free_first(qbg3, x, m)
                    == ic_rhs_first(qbg3, x, m)), (w, m)
            assert cancellation_certificate(
                ic_cf_first_terms(qbg3, x, m)), (w, m)
    assert time.time() - t0 < 60.0
    _pass(4, "collapsed form equals alternating form on all 144 rank-3 "
             "instances; every collapsed stream is cancellation-free", t0)


def test_criterion_5_conjecture_experiment(qbg3, tmp_path):
    t0 = time.time()
    res = conjecture_scan(qbg3)
    if res.counterexamples:
        dump = tmp_path / "conjecture_counterexamples.json"
        dump.write_text(json.dumps(res.to_json(), indent=2))
        raise AssertionError(f"instances with empty l-set; scan dumped to {dump}")
    # the two worked instances
    assert 3 in res.working[(parse_word("s3 s2", 3), 2)]
    assert 1 in res.working[(parse_word("s1 s2 s3 s2 s1", 3), 1)]
    # recorded outcome of the l-in-{m,n} experiment: it FAILS at rank 3.
    # Every instance has exactly one working l; the eight instances with
    # m = 1 and |w(1)| = 2 have l = 2, outside {m, n} = {1, 3}.
    assert all(len(ls) == 1 for ls in res.working.values())
    assert res.expectation_holds is False
    outliers = sorted((w, m) for (w, m), ls in res.working.items()
                      if not set(ls) & {m, qbg3.n})
    assert len(outliers) == 8
    assert all(m == 1 and abs(w[0]) == 2 for w, m in outliers)
    assert all(res.working[key] == (2,) for key in outliers)
    _pass(5, "rank-3 scan: every instance has exactly one working l and the "
             "reference instances give l=3 and l=1; the expectation l in "
             "{m,n} FAILS on the 8 instances with m=1, |w(1)|=2 (recorded "
             "outcome)", t0)


def test_criterion_6_property_suites(qbg2, qbg3):
    t0 = time.time()
    # graph lemmas, exhaustive at rank 3
    assert_exchange(qbg3)
    assert_exchange2(qbg3)
    assert assert_existence(qbg3) > 0
    assert_minimum(qbg3)
    assert_criterion_matches(qbg3)
    # geodesic weights agree, exhaustive at rank 2
    assert_shortest_weights_unique(qbg2)
    # the two mu-chains walk one wall per step and have minimal length; the
    # four segment kinds are exactly their pieces, with no repeated root
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            eps = make_chain("eps", k, n)
            eps_neg = make_chain("eps_neg", k, n)
            for chain in (eps, eps_neg):
                alcove_walk(chain)
                assert reducedness_check(chain), (chain.mu, k, n)
                assert len(set(chain.entries)) == len(chain.entries)
            gstar = make_chain("gamma_star", k, n).entries
            theta = make_chain("theta", k, n).entries
            assert eps.entries == gstar + theta
            tstar = make_chain("theta_star", k, n).entries
            gamma = make_chain("gamma", k, n).entries
            assert eps_neg.entries == tstar + gamma
    # six-case pairing is an involution hitting every pair exactly once
    swap = {1: 2, 2: 1, 3: 4, 4: 3, 5: 5, 6: 6}
    total = 0
    for w in qbg3.group:
        for k in (1, 2, 3):
            fixed = 0
            for B, A1 in pair_domain(qbg3, w, k):
                B2, A12, case = pair_involution(qbg3, w, k, B, A1)
                assert case in swap
                B3, A13, case2 = pair_involution(qbg3, w, k, B2, A12)
                assert (B3, A13) == (B, A1) and case2 == swap[case]
                fixed += (B2, A12) == (B, A1)
                total += 1
            assert fixed == 2, (w, k)
    assert total == 3176
    # chained sums collapse onto single paths, exhaustive at rank 3
    for w in qbg3.group:
        for m in (2, 3):
            for j in range(1, m):
                assert collapse_check(qbg3, w, m, j), (w, m, j)
    assert time.time() - t0 < 300.0
    _pass(6, "graph lemmas, chain validity and minimality, pairing "
             "partition, and path collapse all hold exhaustively", t0)


def test_criterion_7_scope():
    t0 = time.time()
    # The certified statements are formal combinations of character symbols;
    # the module-theoretic results behind them are not independently
    # checkable at desk scale, so acceptance rests on criteria 1-6.
    for t in (1, 2, 3):
        assert (GOLDEN / f"table{t}.txt").exists()
    _pass(7, "acceptance rests on criteria 1-6, which certify every "
             "displayed formula at small rank", t0)
