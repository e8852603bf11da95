"""One fresh interpreter of the benchmark.

Reads a JSON job from the file named by its argument, imports qalcove from
the checkout's ``src``, builds what the job needs, prints ``ready`` (the
parent times set-up up to that line), runs the job and prints one JSON
result line.  Every timed run
is a fresh process, so module-level caches start cold, as they do for a
user of the CLI.

Job modes:
  verify  time verify_first_half / verify_second_half / verify_key_props
          on a (variant, w, m) task list with one QBG
  scan    time conjecture_scan(qbg, ms=[m], elements=[w]) per instance
  replay  run qalcove.cli.main on an argument list, in this process
  setup   set up and exit
  digest  hash the rank-3 right-hand sides (correctness only, untimed)
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time


def _import_library(src: str):
    sys.path.insert(0, src)
    import qalcove
    if not os.path.abspath(qalcove.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"qalcove imported from {qalcove.__file__}, not {src}")


def _run_verify(qbg, tasks):
    from qalcove.verify import (verify_first_half, verify_key_props,
                                verify_second_half)
    funcs = {"first": verify_first_half, "second": verify_second_half,
             "key": verify_key_props}
    times, results = [], []
    clock = time.perf_counter
    for variant, w, m in tasks:
        f, w = funcs[variant], tuple(w)
        t0 = clock()
        report = f(qbg, w, m)
        times.append(clock() - t0)
        results.append(report.status)
    return times, results


def _run_scan(qbg, tasks):
    from qalcove.verify import conjecture_scan
    times, results = [], []
    clock = time.perf_counter
    for w, m in tasks:
        w = tuple(w)
        t0 = clock()
        res = conjecture_scan(qbg, ms=[m], elements=[w])
        times.append(clock() - t0)
        ls = res.working[(w, m)]
        certs = "".join("T" if res.certificates[(w, m, l)] else "F" for l in ls)
        results.append(",".join(map(str, ls)) + ":" + certs)
    return times, results


def _run_replay(argv):
    from qalcove.cli import main
    code = main(list(argv))
    with open(argv[argv.index("--out") + 1]) as fh:
        report = json.load(fh)
    report["exit_code"] = code
    return report


def rank3_digest() -> str:
    """SHA-256 over the JSON of every rank-3 right-hand side and Chevalley
    expansion, for xi = 0 and one nonzero xi."""
    from qalcove.expansions import (chevalley_expand, ic_rhs_cancel_free_first,
                                    ic_rhs_first, ic_rhs_second)
    from qalcove.qbg import QBG
    qbg = QBG(3)
    h = hashlib.sha256()

    def feed(combo):
        h.update(json.dumps(combo.to_json(), sort_keys=True).encode())

    for w in qbg.group:
        for sign in "+-":
            for k in range(1, 4):
                feed(chevalley_expand(qbg, w, sign, k))
        for xi in ((0, 0, 0), (1, 0, -1)):
            for m in range(1, 4):
                for build in (ic_rhs_first, ic_rhs_second,
                              ic_rhs_cancel_free_first):
                    feed(build(qbg, (w, xi), m))
    return h.hexdigest()


def main():
    with open(sys.argv[1]) as fh:
        job = json.load(fh)
    _import_library(job["src"])
    mode = job["mode"]
    if mode == "digest":
        print(json.dumps({"digest": rank3_digest()}), flush=True)
        return
    import qalcove.verify  # noqa: F401  (loads every layer the run uses)
    if mode == "replay":
        import qalcove.cli  # noqa: F401
    tracer = None
    if job.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        traced_from = time.perf_counter()
    qbg = None
    if mode in ("verify", "scan", "setup"):
        from qalcove.qbg import QBG
        qbg = QBG(job["rank"])
    print("ready", flush=True)
    if mode == "setup":
        return

    t0 = time.perf_counter()
    out = {}
    if mode == "verify":
        out["times"], out["results"] = _run_verify(qbg, job["tasks"])
    elif mode == "scan":
        out["times"], out["results"] = _run_scan(qbg, job["tasks"])
    elif mode == "replay":
        out["report"] = _run_replay(job["argv"])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out["wall_s"] = time.perf_counter() - t0
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["restored"] = tracer.uninstall()
        out["traced_s"] = time.perf_counter() - traced_from
        out["spans"] = len(tracer.span_start)
        out["summary"] = tracer.summary()
        out["counts"] = dict(tracer.counts)
        out["timers"] = dict(tracer.timers)
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
