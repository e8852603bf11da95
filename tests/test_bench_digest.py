"""The benchmark's rank-3 digest, checked by the test suite too.

``bench/run.py`` marks a run incorrect when the child's ``rank3_digest``
(a SHA-256 over the JSON of every rank-3 right-hand side and Chevalley
expansion) differs from ``bench/reference.json``.  ``bench/selftest.py``
does not compute it, so without this test a change that breaks the digest
would pass every check short of a benchmark run.
"""

import importlib.util
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_rank3_digest_matches_reference():
    spec = importlib.util.spec_from_file_location("bench_child", BENCH / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    reference = json.loads((BENCH / "reference.json").read_text())
    assert child.rank3_digest() == reference["rank3_digest"]
