"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Checks, on small instance lists:
  * two traced runs of each workload give identical counts (calls, misses,
    sequences, terms, ...), so a count may back a claim;
  * uninstalling the tracer leaves every name in every ``qalcove.*``
    namespace and every traced class exactly the object it was before, so
    untraced runs measure unwrapped code;
  * every run's outputs match bench/reference.json.
Exits 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import child  # noqa: E402
import run as R  # noqa: E402
import workloads as W  # noqa: E402

SEED = 0
TIME_BASED = {"cli.parallel_efficiency", "trace.overhead_frac"}


def traced_counts(run: R.Run, workload: str, ref) -> tuple[dict, int]:
    if workload == "verify-r5-jobs2":
        argv = W.r5_cli_args(W.r5_cli_seeds(SEED)[0], 1, run.path("report"))
        argv[argv.index("--sample") + 1] = "12"
        _, out = run.child({"mode": "replay", "argv": argv, "trace": True})
        report = out["report"]
        failed = sum(r["status"] != "verified" for r in report["reports"])
        failed += len(report["reports"]) != 12
    else:
        tasks = R.tasks_for(workload, SEED)[:24]
        traced = R.in_process_rep(run, workload, tasks, ref, trace=True)
        out, failed = traced["trace"], traced["failed"]
    if not out["restored"]:
        failed += 1
    metrics = R.layer_metrics(out)
    return ({k: v for k, v in metrics.items()
             if not k.endswith("_s") and k not in TIME_BASED}, failed)


def restore_check() -> bool:
    """Install and uninstall the tracer in this process; compare identities."""
    child._import_library(R.SRC)
    import qalcove.cli  # noqa: F401
    import qalcove.verify  # noqa: F401
    from tracer import Tracer
    mods = [m for name, m in sys.modules.items()
            if name == "qalcove" or name.startswith("qalcove.")]
    owners = mods + [v for m in mods for v in vars(m).values()
                     if isinstance(v, type) and v.__module__.startswith("qalcove")]
    before = {(id(o), k): v for o in owners for k, v in vars(o).items()}
    exp, qbg = sys.modules["qalcove.expansions"], sys.modules["qalcove.qbg"]
    chain, edge = exp.make_chain, qbg.QBG.edge_kind
    tracer = Tracer()
    tracer.install()
    changed = (exp.make_chain.__wrapped__ is chain
               and qbg.QBG.edge_kind.__wrapped__ is edge)
    ok = tracer.uninstall()
    after = {(id(o), k): v for o in owners for k, v in vars(o).items()}
    same = before.keys() == after.keys() and all(
        after[k] is v for k, v in before.items())
    return changed and ok and same


def main() -> int:
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)
    os.makedirs(os.path.join(R.ROOT, ".bench_out"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-",
                           dir=os.path.join(R.ROOT, ".bench_out"))
    run = R.Run(tmp, time.monotonic() + 600)
    ok = True
    try:
        for workload in W.WORKLOADS:
            first, f1 = traced_counts(run, workload, ref)
            second, f2 = traced_counts(run, workload, ref)
            diff = {k: (first[k], second[k]) for k in first
                    if first[k] != second[k]}
            good = not diff and f1 == f2 == 0
            ok &= good
            print(f"{'PASS' if good else 'FAIL'} {workload}: "
                  f"{len(first)} counts repeat exactly, outputs correct"
                  + (f"; differs: {diff}" if diff else "")
                  + (f"; failed {f1}, {f2}" if f1 or f2 else ""))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    restored = restore_check()
    ok &= restored
    print(f"{'PASS' if restored else 'FAIL'} every patched name is the "
          "original object again after uninstall")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
