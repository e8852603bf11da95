"""What a verify sweep stores in the QBG's walk cache, and what it reads again.

Runs the task list of ``qalcove verify`` (the same flags: --rank, --sample,
--seed, --variant) serially in this process, through ``cli.main``, with the
one cache of its ``QBG``, ``_adm_cache``, replaced by a dict that counts its
lookups.  It prints one JSON object: for the cache, and for it per chain
kind, the keys ``stored``, the ``rereads`` (lookups beyond the one that
stored the key) and the ``mb`` of the values.  ``mb`` is the
``sys.getsizeof`` sum over every distinct object the values reach, each
counted once, with the group's windows left out.  The Chevalley heads are
not cached: ``heads`` counts the forward passes of ``expansions._middle``,
the nonzero (y, key) sums they start from (``sources``) and the middle
entries they return (``middle``).

    PYTHONPATH=src python3 tests/cache_locality.py --rank 5 --sample 3000 --seed 7

With --peak it runs the same command with --jobs J in a child process
through ``bench/cli_rusage.py`` and prints its wall time, its exit code and
the peak resident memory of the parent and of the largest pool worker, in
MiB (``ru_maxrss``):

    PYTHONPATH=src python3 tests/cache_locality.py --peak --rank 5 --sample 0 --jobs 2
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from test_compact_chevalley import reached
from qalcove import cli, expansions
from qalcove.qbg import QBG

ROOT = Path(__file__).resolve().parent.parent


class CountedDict(dict):
    """A dict that counts its lookups, grouped by ``group(key)``."""

    def __init__(self, group):
        super().__init__()
        self.group = group
        self.reads = Counter()

    def get(self, key, default=None):
        self.reads[self.group(key)] += 1
        return super().get(key, default)

    def __getitem__(self, key):
        self.reads[self.group(key)] += 1
        return super().__getitem__(key)

    def setdefault(self, key, default=None):
        self.reads[self.group(key)] += 1
        return super().setdefault(key, default)


class CountedQBG(QBG):
    """A QBG whose one cache, the walk cache, counts its lookups per chain kind."""

    def __init__(self, n):
        super().__init__(n)
        self._adm_cache = CountedDict(lambda key: key[1].kind)


def locality(argv) -> dict:
    """Run ``qalcove verify`` serially on argv; the cache figures."""
    heads = Counter()
    middle = expansions._middle

    def counted_middle(qbg, t, sources):
        out = middle(qbg, t, sources)
        heads["passes"] += 1
        heads["sources"] += sum(1 for counts in sources.values()
                                for c in counts.values() if c)
        heads["middle"] += sum(map(len, out.values()))
        return out

    cli.QBG, expansions._middle = CountedQBG, counted_middle
    try:
        t0 = time.process_time()
        code = cli.main(["verify", *argv, "--jobs", "1", "--format", "json",
                         "--out", os.devnull])
        cpu = time.process_time() - t0
    finally:
        cli.QBG, expansions._middle = QBG, middle
    qbg = cli._WORKER_QBG
    seen = {id(w) for w in qbg.group}  # the group's windows are not counted

    def mb(values):
        objs = list(reached(values, seen))
        seen.update(map(id, objs))
        return round(sum(map(sys.getsizeof, objs)) / 1e6, 2)

    cache = qbg._adm_cache
    groups = {}
    for key, value in cache.items():
        groups.setdefault(cache.group(key), []).append(value)
    walks = {kind: {"stored": len(values),
                    "rereads": cache.reads[kind] - len(values),
                    "subsets": sum(map(len, values)),
                    "mb": mb(values)}
             for kind, values in sorted(groups.items())}
    caches = {"_adm_cache": {"stored": len(cache),
                             "rereads": sum(cache.reads.values()) - len(cache),
                             "mb": round(sum(w["mb"] for w in walks.values()), 2)}}
    return {"exit_code": code, "cpu_s": round(cpu, 2), "caches": caches, "walks": walks,
            "heads": dict(heads)}


def peak(argv, jobs: int) -> dict:
    """Run ``qalcove verify`` on argv with --jobs through bench/cli_rusage.py."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        rusage = os.path.join(tmp, "rusage.json")
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "cli_rusage.py"), rusage, "verify",
             *argv, "--jobs", str(jobs), "--format", "json", "--out", os.devnull],
            env=env, stdin=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        with open(rusage) as fh:
            kb = json.load(fh)
    return {"exit_code": proc.returncode, "wall_s": round(wall, 1),
            "parent_mib": round(kb["self_kb"] / 1024),
            "largest_worker_mib": round(kb["children_kb"] / 1024)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rank", type=int, default=5)
    ap.add_argument("--sample", type=int, default=3000, help="0 = every task")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--variant", default="first,second,key")
    ap.add_argument("--peak", action="store_true",
                    help="measure peak memory of the CLI instead")
    ap.add_argument("--jobs", type=int, default=1, help="--jobs of the --peak run")
    args = ap.parse_args(argv)
    verify = ["--rank", str(args.rank), "--sample", str(args.sample),
              "--seed", str(args.seed), "--variant", args.variant]
    out = peak(verify, args.jobs) if args.peak else locality(verify)
    print(json.dumps({"argv": verify, **out}, indent=1))


if __name__ == "__main__":
    main()
