"""What a verify sweep stores in the QBG's caches, and what it reads again.

Runs the task list of ``qalcove verify`` (the same flags: --rank, --sample,
--seed, --variant) serially in this process, through ``cli.main``, with the
caches of its one ``QBG`` replaced by dicts that count their lookups.  It
prints one JSON object: for each cache, and for the walk cache per chain
kind, the keys ``stored``, the ``rereads`` (lookups beyond the one that
stored the key) and the ``mb`` of the values.  ``mb`` is the
``sys.getsizeof`` sum over every distinct object the values reach, each
counted once, in the first cache listed that reaches it, with the group's
windows left out.  ``_heads`` also reports its ``entries``, one per A_1
of a cached head, and ``uncached_walks`` and ``uncached_subsets`` count
the head walks ``expansions._head`` makes without storing them.

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


# each cache of the QBG, with how its keys are grouped, in report order
CACHES = {
    "_adm_cache": lambda key: key[1].kind,
    "_heads": lambda key: "_heads",
    "_keys": lambda key: "_keys",
}


class CountedQBG(QBG):
    def __init__(self, n):
        super().__init__(n)
        for name, group in CACHES.items():
            setattr(self, name, CountedDict(group))


def locality(argv) -> dict:
    """Run ``qalcove verify`` serially on argv; the cache figures."""
    uncached = Counter()
    walk = expansions.walk_subsets

    def counted_walk(qbg, w, chain):
        out = walk(qbg, w, chain)
        uncached[chain.kind, "walks"] += 1
        uncached[chain.kind, "subsets"] += len(out)
        return out

    cli.QBG, expansions.walk_subsets = CountedQBG, counted_walk
    try:
        t0 = time.process_time()
        code = cli.main(["verify", *argv, "--jobs", "1", "--format", "json",
                         "--out", os.devnull])
        cpu = time.process_time() - t0
    finally:
        cli.QBG, expansions.walk_subsets = QBG, walk
    qbg = cli._WORKER_QBG
    seen = {id(w) for w in qbg.group}  # the group's windows are not counted

    def mb(values):
        objs = list(reached(values, seen))
        seen.update(map(id, objs))
        return round(sum(map(sys.getsizeof, objs)) / 1e6, 2)

    caches, walks = {}, {}
    for name in CACHES:
        cache = getattr(qbg, name)
        groups = {}
        for key, value in cache.items():
            groups.setdefault(cache.group(key), []).append(value)
        if name == "_adm_cache":
            for kind in sorted(set(groups) | {k for k, _ in uncached}):
                values = groups.get(kind, [])
                walks[kind] = {
                    "stored": len(values),
                    "rereads": cache.reads[kind] - len(values),
                    "subsets": sum(map(len, values)),
                    "mb": mb(values),
                    "uncached_walks": uncached[kind, "walks"],
                    "uncached_subsets": uncached[kind, "subsets"],
                }
        caches[name] = {"stored": len(cache),
                        "rereads": sum(cache.reads.values()) - len(cache),
                        "mb": round(sum(w["mb"] for w in walks.values()), 2)
                        if name == "_adm_cache" else mb(list(cache.values()))}
    caches["_heads"]["entries"] = sum(len(ends) for ends, _ in qbg._heads.values())
    return {"exit_code": code, "cpu_s": round(cpu, 2), "caches": caches, "walks": walks}


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
