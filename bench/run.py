#!/usr/bin/env python3
"""qalcove benchmark: three seeded workloads, end-to-end and per-layer.

    python3 bench/run.py --workload verify-r4 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ./src.

Workloads (bench/workloads.py builds the instances from --seed):
  verify-r4        one QBG(4) in one process; verify_first_half,
                   verify_second_half and verify_key_props on a stratified
                   sample of rank-4 (variant, w, m) tasks
  scan-r4          one QBG(4); conjecture_scan(qbg, ms=[m], elements=[w])
                   for a sample of elements and every m
  verify-r5-jobs2  the real CLI as subprocesses:
                   qalcove verify --rank 5 --variant first,second,key
                   --sample N --seed S --jobs 2 --format json --out FILE

--trace 0 repeats the workload's fixed instance list in fresh processes
while the next repetition, at the pace so far, ends within --seconds (at
least once), sets up at least five times, and prints the end-to-end
metrics of BENCHMARK.json.  --trace 1 runs the
list once untraced and once with bench/tracer.py wrapping the library, and
prints the per-layer metrics.  Either way the outputs are checked against
bench/reference.json, and the last stdout line is one JSON object with
"correct", "attempted", "failed" and "metrics".
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

MIN_SETUPS = 5
RUN_LIMIT_S = 170      # every process is killed by then; the run fails


class BenchError(Exception):
    pass


# -- processes -------------------------------------------------------------


class Run:
    """Process plumbing shared by one benchmark run: a scratch directory
    inside the checkout and a deadline after which children are killed."""

    def __init__(self, tmp: str, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self._n = 0

    def path(self, stem: str) -> str:
        self._n += 1
        return os.path.join(self.tmp, f"{stem}-{self._n}")

    def _spawn(self, cmd, stdout, stderr, env=None):
        proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=stdout, stderr=stderr, env=env,
                                text=True, start_new_session=True)
        left = max(0.1, self.deadline - time.monotonic())
        killer = threading.Timer(left, _kill_group, (proc,))
        killer.start()
        return proc, killer

    def child(self, job: dict) -> tuple[float, dict | None]:
        """Run bench/child.py on a job; return (set-up seconds, result)."""
        job_path = self.path("job")
        with open(job_path, "w") as fh:
            json.dump(dict(job, src=SRC), fh)
        with open(self.path("stderr"), "w+") as err:
            t0 = time.perf_counter()
            proc, killer = self._spawn(
                [sys.executable, os.path.join(HERE, "child.py"), job_path],
                subprocess.PIPE, err)
            try:
                first = proc.stdout.readline()
                setup = time.perf_counter() - t0
                rest = proc.stdout.read()
                proc.stdout.close()
                proc.wait()
            finally:
                killer.cancel()
                _kill_group(proc)
            if proc.returncode != 0:
                err.seek(0)
                raise BenchError(f"child {job['mode']} exited with "
                                 f"{proc.returncode}:\n{err.read()[-3000:]}")
        if job["mode"] == "digest":
            return setup, json.loads(first)
        if first != "ready\n":
            raise BenchError(f"child {job['mode']} did not report ready")
        return setup, json.loads(rest) if rest.strip() else None

    def cli(self, args: list[str]) -> dict:
        """One ``qalcove`` CLI invocation as a subprocess, timed from outside."""
        rusage = self.path("rusage")
        env = dict(os.environ, PYTHONPATH=SRC)
        with open(self.path("cli-output"), "w+") as log:
            t0 = time.perf_counter()
            proc, killer = self._spawn(
                [sys.executable, os.path.join(HERE, "cli_rusage.py"), rusage]
                + args, log, subprocess.STDOUT, env)
            try:
                proc.wait()
            finally:
                killer.cancel()
                _kill_group(proc)
            wall = time.perf_counter() - t0
            if proc.returncode not in (0, 1):
                log.seek(0)
                raise BenchError(f"qalcove exited with {proc.returncode}:\n"
                                 f"{log.read()[-3000:]}")
        with open(args[args.index("--out") + 1]) as fh:
            report = json.load(fh)
        with open(rusage) as fh:
            mem = json.load(fh)
        return {"wall": wall, "report": report, "exit_code": proc.returncode,
                "rss_kb": mem["self_kb"] + W.R5_JOBS * mem["children_kb"]}


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# -- correctness -------------------------------------------------------------


def check_in_process(workload: str, tasks, results, ref) -> int:
    """Number of instances whose result differs from the reference."""
    if len(results) != len(tasks):
        return len(tasks)
    bad = 0
    for task, got in zip(tasks, results):
        if workload == "verify-r4":
            want = ref["verify_r4"]["status"][W.r4_verify_index(*task)]
            bad += got != ("verified" if want == "v" else "failed")
        else:
            bad += got != ref["scan_r4"]["entries"][W.r4_scan_index(*task)]
    return bad


def check_cli(report: dict, exit_code: int, cli_seed: int, ref) -> int:
    """Instances of one CLI sweep that are missing, extra or not verified."""
    expected = W.cli_expected_instances(5, W.R5_SAMPLE, cli_seed)
    got = {r["instance"]: r["status"] for r in report["reports"]}
    bad = sum(got.get(i) != ref["verify_r5_status"] for i in expected)
    bad += len(set(got) - set(expected))
    if report["ok"] != (bad == 0) or exit_code != (0 if report["ok"] else 1):
        bad = max(bad, 1)
    return bad


# -- one repetition of a workload ---------------------------------------------


def tasks_for(workload: str, seed: int):
    if workload == "verify-r4":
        return W.verify_r4_tasks(seed)
    if workload == "scan-r4":
        return W.scan_r4_tasks(seed)
    return W.r5_cli_seeds(seed)


def in_process_rep(run: Run, workload: str, tasks, ref, trace=False) -> dict:
    mode = "verify" if workload == "verify-r4" else "scan"
    setup, out = run.child({"mode": mode, "rank": W.RANK[workload],
                            "tasks": tasks, "trace": trace})
    return {"setups": [setup], "wall": out["wall_s"],
            "times": dict(enumerate(out["times"])),
            "rss_kb": [out["maxrss_kb"]], "attempted": len(tasks),
            "failed": check_in_process(workload, tasks, out["results"], ref),
            "trace": out if trace else None}


def cli_rep(run: Run, cli_seeds, ref) -> dict:
    out = {"setups": [], "wall": 0.0, "times": {}, "rss_kb": [],
           "attempted": 0, "failed": 0, "busy": 0.0}
    for s in cli_seeds:
        res = run.cli(W.r5_cli_args(s, W.R5_JOBS, run.path("report")))
        report = res["report"]
        out["setups"].append(res["wall"] - report["seconds"])
        out["wall"] += report["seconds"]
        out["rss_kb"].append(res["rss_kb"])
        for r in report["reports"]:
            out["times"][r["instance"]] = r["seconds"]
            out["busy"] += r["seconds"]
        out["attempted"] += W.R5_SAMPLE
        out["failed"] += check_cli(report, res["exit_code"], s, ref)
    return out


def replay_rep(run: Run, cli_seed: int, ref, trace: bool) -> dict:
    """The first CLI sweep replayed in one process with --jobs 1."""
    argv = W.r5_cli_args(cli_seed, 1, run.path("report"))
    _, out = run.child({"mode": "replay", "argv": argv, "trace": trace})
    report = out["report"]
    return {"wall": out["wall_s"], "attempted": W.R5_SAMPLE,
            "failed": check_cli(report, report["exit_code"], cli_seed, ref),
            "trace": out if trace else None}


def setup_probe(run: Run, workload: str, tasks) -> float:
    """One more set-up, measured as the workload measures it."""
    if workload != "verify-r5-jobs2":
        return run.child({"mode": "setup", "rank": W.RANK[workload]})[0]
    args = W.r5_cli_args(tasks[0], W.R5_JOBS, run.path("report"))
    args[args.index("--sample") + 1] = "1"
    res = run.cli(args)
    return res["wall"] - res["report"]["seconds"]


def rep(run: Run, workload: str, tasks, ref) -> dict:
    if workload == "verify-r5-jobs2":
        return cli_rep(run, tasks, ref)
    return in_process_rep(run, workload, tasks, ref)


# -- metrics -------------------------------------------------------------------


# Percentiles the tail is read at.  Read at "exactly ten samples beyond",
# the tail of rank-5 samples swung by 30 % between seeds, since the ten
# slowest instances of a random sample vary widely; a standard percentile
# with at least ten samples beyond it is steadier.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile of
    TAIL_PERCENTILES that has at least ten samples beyond it (nearest rank;
    p90 when none has)."""
    s = sorted(values)
    n = len(s)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            break
    return s[rank - 1], p, n - rank


def end_to_end(reps: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics of a run's repetitions of one instance list.

    Each instance's time and the wall time are medians over repetitions;
    the percentiles are then taken across instances.  Medians over the
    whole run average out the slower and faster stretches of a shared
    machine better than the fastest repetition does.
    """
    per_instance: dict = {}
    for r in reps:
        for key, t in r["times"].items():
            per_instance.setdefault(key, []).append(t)
    per = [statistics.median(ts) for ts in per_instance.values()]
    tail_v, tail_p, tail_n = tail(per)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall"] for r in reps),
        "instance_p50_ms": 1000 * statistics.median(per),
        "instance_tail_ms": 1000 * tail_v,
        "peak_rss_mb": statistics.median(
            kb for r in reps for kb in r["rss_kb"]) / 1024,
    }
    notes = {"instances": len(per), "tail_percentile": round(tail_p, 3),
             "tail_samples_beyond": tail_n, "repetitions": len(reps),
             "repetition_walls_s": [round(r["wall"], 4) for r in reps],
             "setups": len(setups)}
    return metrics, notes


def layer_metrics(tr: dict) -> dict:
    """Per-layer metrics from one traced run's span summary and counts."""
    summ, counts, timers = tr["summary"], tr["counts"], tr["timers"]

    def calls(name):
        if name in T.GENERATORS:
            return counts.get(name + ".calls", 0)
        return summ[name]["calls"]

    def self_s(names):
        return sum(summ[n]["self_s"] for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    adm_calls = calls("admissible_subsets")
    adm_miss = counts.get("admissible_subsets.misses", 0)
    streamed = counts.get("terms_streamed", 0)
    folded = counts.get("terms_folded", 0)
    div_calls = calls("divide_by_atom")
    return {
        "typec.mul_calls": counts.get("mul", 0),
        "typec.act_calls": counts.get("act", 0),
        "typec.weyl_group_s": timers.get("weyl_group", 0.0),
        "qbg.init_s": summ["QBG.__init__"]["total_s"],
        "qbg.edge_kind_calls": calls("QBG.edge_kind"),
        "qbg.p_path_calls": calls("QBG.p_path"),
        "qbg.self_s": self_s(T.SPANS["qbg"]),
        "alcove.make_chain_calls": calls("make_chain"),
        "alcove.make_chain_self_s": summ["make_chain"]["self_s"],
        "alcove.filtered_A_calls": calls("filtered_A"),
        "alcove.admissible_subsets_calls": adm_calls,
        "alcove.admissible_subsets_misses": adm_miss,
        "alcove.admissible_subsets_hit_ratio":
            ratio(adm_calls - adm_miss, adm_calls),
        "alcove.subsets_enumerated":
            counts.get("admissible_subsets.enumerated", 0),
        "alcove.self_s": self_s(T.SPANS["alcove"]),
        "expansions.enumerate_S_sequences":
            counts.get("enumerate_S.sequences", 0),
        "expansions.chained_filtered_calls": calls("chained_filtered"),
        "expansions.rhs_build_self_s": self_s(T.RHS_BUILD),
        "expansions.terms_streamed": streamed,
        "expansions.terms_folded": folded,
        "expansions.fold_ratio": ratio(folded, streamed),
        "expansions.expand_to_base_calls": calls("expand_to_base"),
        "expansions.expand_to_base_self_s": summ["expand_to_base"]["self_s"],
        "expansions.chevalley_expand_calls": calls("chevalley_expand"),
        "expansions.chevalley_expand_misses":
            counts.get("chevalley_expand.misses", 0),
        "expansions.self_s": self_s(T.SPANS["expansions"]),
        "ring.rational_coeff_new": calls("RationalCoeff.__init__"),
        "ring.coeff_mul_calls": calls("Coeff.__mul__"),
        "ring.divide_by_atom_calls": div_calls,
        "ring.divide_by_atom_hit_ratio":
            ratio(counts.get("divide_by_atom.hits", 0), div_calls),
        "ring.self_s": self_s(T.SPANS["ring"]),
        "ring.clear_denominators_self_s":
            summ["clear_denominators"]["self_s"],
        "ring.lcm_atoms_max": counts.get("clear_denominators.lcm_max", 0),
        "verify.first_self_s": summ["verify_first_half"]["self_s"],
        "verify.second_self_s": summ["verify_second_half"]["self_s"],
        "verify.key_self_s": summ["verify_key_props"]["self_s"],
        "verify.lhs_terms": counts.get("verify.lhs_terms", 0),
        "verify.rhs_terms": counts.get("verify.rhs_terms", 0),
        "verify.self_s": self_s(T.SPANS["verify"]),
        "verify.cancellation_certificate_self_s":
            summ["cancellation_certificate"]["self_s"],
    }


def layer_shares(tr: dict) -> dict:
    """Each layer's self time as a share of the time the tracer was on."""
    shares = {layer: sum(tr["summary"][n]["self_s"] for n in names)
              / tr["traced_s"]
              for layer, names in T.SPANS.items()}
    shares["outside spans"] = 1 - sum(shares.values())
    return {k: round(v, 4) for k, v in shares.items()}


# -- notes and output ----------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_notes(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "seed": args.seed,
        "workload": args.workload,
        "instances_per_workload": {
            "verify-r4": 3 * W.VERIFY_R4_ELEMENTS,
            "scan-r4": 4 * W.SCAN_R4_ELEMENTS,
            "verify-r5-jobs2": W.R5_SWEEPS * W.R5_SAMPLE,
        },
    }


def timed_run(run: Run, args, tasks, ref, notes) -> tuple[dict, int, int]:
    # one untimed set-up first: byte-compiles the library, as any earlier
    # use of an installed copy would have
    setup_probe(run, args.workload, tasks)
    reps, start = [], time.monotonic()
    # repeat while the next repetition, at the mean pace so far, still ends
    # within --seconds
    while not reps or ((time.monotonic() - start) * (len(reps) + 1) / len(reps)
                       <= args.seconds):
        reps.append(rep(run, args.workload, tasks, ref))
    setups = [s for r in reps for s in r["setups"]]
    while len(setups) < MIN_SETUPS:
        setups.append(setup_probe(run, args.workload, tasks))
    metrics, more = end_to_end(reps, setups)
    notes.update(more)
    return (metrics, sum(r["attempted"] for r in reps),
            sum(r["failed"] for r in reps))


def traced_run(run: Run, args, tasks, ref, notes) -> tuple[dict, int, int]:
    setup_probe(run, args.workload, tasks)
    plain = rep(run, args.workload, tasks, ref)
    attempted, failed = plain["attempted"], plain["failed"]
    if args.workload == "verify-r5-jobs2":
        busy = plain["busy"]
        efficiency = busy / (W.R5_JOBS * plain["wall"])
        base = replay_rep(run, tasks[0], ref, trace=False)
        traced = replay_rep(run, tasks[0], ref, trace=True)
        attempted += base["attempted"]
        failed += base["failed"]
    else:
        busy = efficiency = 0.0   # the cli layer does not run here
        base = plain
        traced = in_process_rep(run, args.workload, tasks, ref, trace=True)
    attempted += traced["attempted"]
    failed += traced["failed"]
    tr = traced["trace"]
    metrics = layer_metrics(tr)
    metrics["cli.worker_busy_s"] = busy
    metrics["cli.parallel_efficiency"] = efficiency
    metrics["trace.overhead_frac"] = traced["wall"] / base["wall"] - 1
    notes.update({"spans": tr["spans"], "layer_shares": layer_shares(tr),
                  "patches_restored": tr["restored"]})
    if not tr["restored"]:
        failed = max(failed, 1)
    return metrics, attempted, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qalcove", "__init__.py")):
        print(f"error: no qalcove sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)

    notes = machine_notes(args)
    tasks = tasks_for(args.workload, args.seed)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".bench_out"))
    run = Run(tmp, time.monotonic() + RUN_LIMIT_S)
    try:
        measure = traced_run if args.trace else timed_run
        metrics, attempted, failed = measure(run, args, tasks, ref, notes)
        digest = run.child({"mode": "digest"})[1]["digest"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        print(f"error: metrics {sorted(metrics)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    digest_ok = digest == ref["rank3_digest"]
    notes.update({"loadavg_end": list(os.getloadavg()),
                  "attempted": attempted, "failed": failed,
                  "failed_frac": failed / attempted,
                  "rank3_digest_ok": digest_ok})
    print(json.dumps({"notes": notes}))
    for m in wanted:
        print(f"{args.workload} {m['name']} = {metrics[m['name']]:.6g} "
              f"{m['unit']}")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} "
          f"({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0 and digest_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
