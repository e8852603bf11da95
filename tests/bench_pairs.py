"""Alternating benchmark pairs of two checkouts, as one JSON object.

Runs ``bench/run.py --workload W --seed K --seconds S --trace 0`` in the
PARENT checkout and in the CHANGE checkout, one after the other, N times;
the side that runs first alternates from pair to pair, so a drift of the
machine's speed falls on both sides alike.  Each run is a fresh process in
its own checkout, which imports the library from that checkout's ``src``.
It prints (or writes to --out) one JSON object: the command, the machine,
every pair's end-to-end metrics for both sides with the change's relative
difference, and per metric the medians and quartiles of each side, the
median relative difference and the number of pairs in which the change
was lower.  If a run fails, it writes the pairs made so far, with the
failing side's exit code and the tail of its stderr, and exits 1.

    python3 tests/bench_pairs.py PARENT CHANGE --workload verify-r5-jobs2 \\
        --pairs 10 --seconds 30 --seed 1 --out pairs.json

It is a script, not a test: a pair of 30 s runs takes a minute or more.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

METRICS = ("setup_s", "wall_s", "instance_p50_ms", "instance_tail_ms", "peak_rss_mb")


class RunFailed(Exception):
    """A ``bench/run.py`` run that exited non-zero or printed nothing:
    (exit code, stderr tail)."""


def run_bench(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py`` run in ``checkout``: its last stdout line, parsed.
    RunFailed if the run failed."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RunFailed(proc.returncode, proc.stderr[-2000:])
    out = json.loads(lines[-1])
    return {"correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"],
            **{m: out["metrics"][m]["value"] for m in METRICS}}


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def summary(pairs: list[dict]) -> dict:
    out = {}
    for m in METRICS:
        parent = [p["parent"][m] for p in pairs]
        change = [p["change"][m] for p in pairs]
        rel = [p["rel_change"][m] for p in pairs]
        q = quartiles(parent)
        out[m] = {"parent_median": statistics.median(parent),
                  "change_median": statistics.median(change),
                  "parent_quartiles": q,
                  "parent_iqr": q[2] - q[0],
                  "change_quartiles": quartiles(change),
                  "median_rel_change": statistics.median(rel),
                  "pairs_change_lower": sum(c < p for p, c in zip(parent, change)),
                  "change_max_below_parent_min": max(change) < min(parent)}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="checkout of the parent commit")
    ap.add_argument("change", help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", help="write the JSON here instead of stdout")
    args = ap.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    pairs, failure = [], None
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        try:
            for side in order:
                pair[side] = run_bench(sides[side], args.workload, args.seed, args.seconds)
        except RunFailed as e:
            code, stderr = e.args
            failure = {"pair": i + 1, "side": side, "exit_code": code,
                       "stderr_tail": stderr, "runs_of_this_pair": pair}
            print(f"pair {i + 1}/{args.pairs}: bench/run.py failed in {sides[side]} "
                  f"(exit {code}):\n{stderr}", file=sys.stderr)
            break
        pair["rel_change"] = {m: pair["change"][m] / pair["parent"][m] - 1 for m in METRICS}
        pairs.append(pair)
        print(f"pair {i + 1}/{args.pairs}: wall_s {pair['parent']['wall_s']:.3f} -> "
              f"{pair['change']['wall_s']:.3f}", file=sys.stderr)
    result = {
        "command": (f"python3 bench/run.py --workload {args.workload} --seed {args.seed} "
                    f"--seconds {args.seconds:g} --trace 0"),
        "workload": args.workload,
        "checkouts": sides,
        "machine": {"platform": platform.platform(), "python": platform.python_version(),
                    "cpus": os.cpu_count()},
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "pairs": pairs,
        "summary": summary(pairs) if pairs else None,
    }
    if failure:
        result["failure"] = failure
    text = json.dumps(result, indent=1)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 1 if failure else 0


if __name__ == "__main__":
    raise SystemExit(main())
