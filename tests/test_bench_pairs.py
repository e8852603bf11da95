"""``bench_pairs.py`` reports every run it made, also when one fails.

Two fake checkouts stand in for the parent and the change: each has a
``bench/run.py`` that prints one result line, until the parent's fails on
its second run.  That run is the second of pair 2, after the change's run
of that pair.
"""

import json

from bench_pairs import METRICS, main

FAKE_RUN = '''\
import json
import sys
from pathlib import Path

count = Path(__file__).with_name("count")
runs = int(count.read_text()) if count.exists() else 0
count.write_text(str(runs + 1))
if runs >= {ok_runs}:
    sys.stderr.write("boom\\n")
    sys.exit(3)
metrics = {{m: {{"value": 1.0}} for m in {metrics!r}}}
print(json.dumps({{"correct": True, "attempted": 5, "failed": 0, "metrics": metrics}}))
'''


def test_a_failed_run_keeps_the_runs_made(tmp_path):
    for side, ok_runs in (("parent", 1), ("change", 9)):
        bench = tmp_path / side / "bench"
        bench.mkdir(parents=True)
        (bench / "run.py").write_text(FAKE_RUN.format(ok_runs=ok_runs, metrics=METRICS))
    out = tmp_path / "pairs.json"
    code = main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w",
                 "--pairs", "3", "--seconds", "1", "--out", str(out)])
    assert code == 1
    result = json.loads(out.read_text())
    run = {"correct": True, "attempted": 5, "failed": 0, **{m: 1.0 for m in METRICS}}
    assert [(p["first"], p["parent"], p["change"]) for p in result["pairs"]] == [
        ("parent", run, run)]
    assert result["summary"]["wall_s"]["parent_median"] == 1.0
    assert result["failure"] == {"pair": 2, "side": "parent", "exit_code": 3,
                                 "stderr_tail": "boom\n",
                                 "runs_of_this_pair": {"first": "change", "change": run}}
