"""Regenerate bench/reference.json from the library in ../src.

    python3 bench/make_reference.py

The reference is what the benchmark's correctness check compares against:
the status of every rank-4 verify task, the l-set and certificates of every
rank-4 conjecture-scan instance, and a digest of the rank-3 right-hand
sides.  Generate it only from a commit whose outputs are trusted; a change
that regenerates it must say why.  Takes a few minutes on one core.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import child  # noqa: E402
import workloads as W  # noqa: E402


def main():
    child._import_library(os.path.join(ROOT, "src"))
    from qalcove import __version__
    from qalcove.qbg import QBG
    qbg = QBG(4)
    group = W.weyl_order(4)
    if list(qbg.group) != group:
        raise SystemExit("Weyl-group order differs from bench/workloads.py")
    tasks = [(v, w, m) for v in W.VARIANTS for w in group for m in range(1, 5)]
    _, statuses = child._run_verify(qbg, tasks)
    assert all(W.r4_verify_index(*t) == i for i, t in enumerate(tasks))
    scan_tasks = [(w, m) for w in group for m in range(1, 5)]
    _, scans = child._run_scan(qbg, scan_tasks)
    assert all(W.r4_scan_index(*t) == i for i, t in enumerate(scan_tasks))
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                            capture_output=True, text=True).stdout.strip()
    ref = {
        "source": f"qalcove {__version__}, commit {commit or 'unknown'}",
        "verify_r4": {
            "order": "variant (first, second, key) x w (Weyl order) x m (1..4); "
                     "v = verified, f = failed",
            "status": "".join("v" if s == "verified" else "f"
                              for s in statuses),
        },
        "scan_r4": {
            "order": "w (Weyl order) x m (1..4); 'l-set:certificates', "
                     "T = cancellation-free",
            "entries": scans,
        },
        "verify_r5_status": "verified",
        "rank3_digest": child.rank3_digest(),
    }
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
