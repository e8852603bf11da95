r"""Command-line front end.

Subcommands
-----------
verify           identity sweeps (first/second inverse forms, key identities,
                 collapsed-vs-alternating equality), optionally sampled and
                 parallelized; exit code 0 iff everything verifies
scan-conjecture  working cut-points l for the collapsed second form
tables           the three reference tables of filtered admissible subsets
qbg              graph export (vertices, labelled edges)
expand           print one expansion as text / JSON / LaTeX

A config file of ``key=value`` lines (via --config) supplies defaults for
any long flag, e.g. ``rank=3`` or ``format=json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing as mp
import os
import random
import sys
import time

from .alcove import filtered_A
from .expansions import (
    chevalley_expand,
    ic_rhs_cancel_free_first,
    ic_rhs_conjecture_second,
    ic_rhs_first,
    ic_rhs_second,
)
from .qbg import QBG
from .ring import DemazureCombo
from .typec import (
    alpha_coords,
    parse_window,
    parse_word,
    reduced_word,
    root_str,
    weyl_group,
    window_str,
    word_str,
    zero_vec,
)
from .verify import (
    VerificationReport,
    combo_latex,
    conjecture_scan,
    verify_cancel_free,
    verify_first_half,
    verify_key_props,
    verify_second_half,
)

# The largest --rank accepted: QBG(6) (46 080 elements) builds in under a second,
# while rank 7 has 645 120 elements and rank 9 185 million.
MAX_RANK = 6
# The largest |xi| coordinate accepted: x-exponents are packed into bounded
# fields (ring.pack), which a sum of n such coordinates stays well inside.
MAX_XI = 10 ** 6

# variant -> verifier(qbg, w, m, xi).  Each entry calls its verifier through
# this module's global name, so a wrapper patched onto that name is used.
VERIFIERS = {
    "first": lambda qbg, w, m, xi: verify_first_half(qbg, w, m, xi),
    "second": lambda qbg, w, m, xi: verify_second_half(qbg, w, m, xi),
    "key": lambda qbg, w, m, xi: verify_key_props(qbg, w, m),
    "cf": lambda qbg, w, m, xi: verify_cancel_free(qbg, w, m, xi),
}
VARIANTS = tuple(VERIFIERS)


# -- shared helpers --------------------------------------------------------


def _parse_elt(text: str, n: int):
    text = text.strip()
    if text.startswith("["):
        w = parse_window(text)
        if len(w) != n:
            raise ValueError(f"window rank {len(w)} != --rank {n}")
        return w
    return parse_word(text, n)


def _parse_xi(text: str | None, n: int):
    if not text:
        return zero_vec(n)
    xi = []
    for t in text.replace(",", " ").split():
        try:
            xi.append(int(t))
        except ValueError:
            raise ValueError(f"--xi coordinates must be integers, got {t!r}") from None
    xi = tuple(xi)
    if len(xi) != n:
        raise ValueError(f"xi needs {n} coordinates, got {len(xi)}")
    if any(abs(c) > MAX_XI for c in xi):
        raise ValueError(f"xi coordinates must lie in -{MAX_XI}..{MAX_XI}")
    return xi


def _word_and_window(w) -> str:
    return f"{word_str(reduced_word(w))} {window_str(w)}"


def _letters(args) -> list[int]:
    """The letters m to run: --m, checked against 1..n, or all of them."""
    n = args.rank
    if args.m is None:
        return list(range(1, n + 1))
    if not 1 <= args.m <= n:
        raise ValueError(f"--m must be in 1..{n}, got {args.m}")
    return [args.m]


# -- verify ----------------------------------------------------------------

_WORKER_QBG: QBG | None = None


def _init_worker(n: int):
    global _WORKER_QBG
    _WORKER_QBG = QBG(n)


def _run_instance(task) -> VerificationReport:
    variant, w, m, xi = task
    return VERIFIERS[variant](_WORKER_QBG, w, m, xi)


def _cmd_verify(args) -> tuple[str, int]:
    n = args.rank
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.sample < 0:
        raise ValueError(f"--sample must be at least 0, got {args.sample}")
    # each variant once, in the order given
    variants = list(dict.fromkeys(v.strip() for v in args.variant.split(",")))
    for v in variants:
        if v not in VERIFIERS:
            raise ValueError(f"unknown variant {v!r}; choose from {VARIANTS}")
    w = _parse_elt(args.w, n) if args.w is not None else None
    xi = _parse_xi(args.xi, n)
    if any(xi) and variants == ["key"]:
        raise ValueError("--xi applies to the first, second and cf variants only")
    ms = _letters(args)
    elements = [w] if w else weyl_group(n)
    # task j is (variant, element, m) in that nesting order; a sample draws
    # indices, which random.sample picks exactly as it would the tasks
    size = len(variants) * len(elements) * len(ms)
    picks = (random.Random(args.seed).sample(range(size), min(args.sample, size))
             if args.sample else range(size))
    tasks = []
    for j in picks:
        j, i = divmod(j, len(ms))
        v, e = divmod(j, len(elements))
        tasks.append((variants[v], elements[e], ms[i], xi))
    t0 = time.perf_counter()
    # an affinity mask can allow fewer CPUs than the host has
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(args.jobs, cpus, len(tasks))
    if workers > 1:
        with mp.Pool(workers, initializer=_init_worker, initargs=(n,)) as pool:
            reports = pool.map(_run_instance, tasks, chunksize=4)
    else:
        _init_worker(n)
        reports = [_run_instance(t) for t in tasks]
    reports.sort(key=lambda r: r.instance)
    ok = all(r.ok for r in reports)
    took = time.perf_counter() - t0
    if args.format == "json":
        text = json.dumps({"ok": ok, "seconds": round(took, 3),
                           "reports": [r.to_json() for r in reports]}, indent=2)
    elif args.format == "latex":
        lines = ["\\begin{itemize}"]
        for r in reports:
            lines.append(f"\\item [{r.status}] \\verb|{r.instance}|")
            if r.residual is not None:
                lines.append(f"  residual: ${combo_latex(r.residual)}$")
        lines.append("\\end{itemize}")
        text = "\n".join(lines)
    else:
        lines = [str(r) for r in reports]
        lines.append(f"{sum(r.ok for r in reports)}/{len(reports)} verified "
                     f"in {took:.2f}s")
        text = "\n".join(lines)
    return text, 0 if ok else 1


# -- scan-conjecture ---------------------------------------------------------


def _cmd_scan(args) -> tuple[str, int]:
    n = args.rank
    elements = [_parse_elt(args.w, n)] if args.w is not None else None
    ms = _letters(args)
    res = conjecture_scan(QBG(n), ms=ms, elements=elements)
    if args.format == "json":
        text = json.dumps(res.to_json(), indent=2)
    else:
        lines = []
        for (w, m), ls in sorted(res.working.items()):
            certs = {l: res.certificates[(w, m, l)] for l in ls}
            lines.append(f"w={window_str(w)} m={m}: l-set={list(ls)} "
                         f"cancellation-free={certs}")
        lines.append(f"counterexamples: {len(res.counterexamples)}")
        lines.append(f"every l-set meets {{m, n}}: {res.expectation_holds}")
        text = "\n".join(lines)
    return text, 0 if not res.counterexamples else 1


# -- tables ------------------------------------------------------------------

# reference instances at rank 3: (base word, src letter, dst letters),
# grouped and ordered as in the worked expansions
TABLE_GROUPS = {
    1: [("s1 s2 s1", 3, (1, 2)),
        ("s2 s1", 2, (1,))],
    2: [("s3 s2", -2, (1, 2, 3, -3)),
        ("s3", -3, (1, 2, 3)),
        ("e", 3, (1, 2)),
        ("s2 s3 s2", 3, (1, 2)),
        ("s2 s3", 2, (1,)),
        ("s2", 2, (1,))],
    3: [("s1 s2 s3 s2 s1", -1, (1, 2, 3, -3, -2)),
        ("s1 s2 s3 s2", -2, (1, 2, 3, -3)),
        ("s1 s2 s3", -3, (1, 2, 3)),
        ("s1 s2", 3, (1, 2)),
        ("s1", 2, (1,))],
}


def table_lines(qbg: QBG, which: int) -> list[str]:
    """Rows of one reference table: filtered subsets with ed and down."""
    lines = [f"table {which} (rank {qbg.n})"]
    idx = 0
    for word, src, dsts in TABLE_GROUPS[which]:
        base = parse_word(word, qbg.n)
        for dst in dsts:
            fam = sorted(filtered_A(qbg, base, src, dst),
                         key=lambda A: (len(A.positions), A.positions))
            for A in fam:
                idx += 1
                pos = "{" + ",".join(str(p) for p in A.positions) + "}"
                lines.append(
                    f"A{idx}  A^{{{src},{dst}}}({word})  positions={pos}  "
                    f"ed={_word_and_window(A.end)}  "
                    f"down={list(alpha_coords(A.down))}")
    return lines


def _cmd_tables(args) -> tuple[str, int]:
    if args.rank != 3:
        raise ValueError("the reference tables are rank-3 data; use --rank 3")
    qbg = QBG(3)
    sections = ["\n".join(table_lines(qbg, t)) for t in (1, 2, 3)]
    return "\n\n".join(sections), 0


# -- qbg export ---------------------------------------------------------------


def _cmd_qbg(args) -> tuple[str, int]:
    qbg = QBG(args.rank)
    edges = []
    for w in qbg.group:
        for alpha, kind, y in qbg.edges_from(w):
            edges.append((w, root_str(alpha), kind, y))
    edges.sort()
    if args.format == "json":
        text = json.dumps({
            "rank": args.rank,
            "vertices": [list(w) for w in qbg.group],
            "edges": [{"from": list(w), "root": r, "kind": k, "to": list(y)}
                      for w, r, k, y in edges],
        }, indent=2)
    else:
        lines = [f"qbg rank {args.rank}: {len(qbg.group)} vertices, "
                 f"{len(edges)} edges"]
        for w, r, k, y in edges:
            lines.append(f"{window_str(w)} -{k}-> {window_str(y)}  {r}")
        text = "\n".join(lines)
    return text, 0


# -- expand --------------------------------------------------------------------


def _combo_text(combo: DemazureCombo, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(combo.to_json(), indent=2)
    if fmt == "latex":
        return combo_latex(combo)
    return str(combo)


def _cmd_expand(args) -> tuple[str, int]:
    n = args.rank
    w = _parse_elt(args.w, n) if args.w else tuple(range(1, n + 1))
    xi = _parse_xi(args.xi, n)
    if args.k is None and args.m is None:
        raise ValueError("need --k (direct form) or --m (inverse forms)")
    if args.k is not None and any(xi):
        raise ValueError("--xi applies to the inverse forms only")
    if args.k is not None and args.m is not None:
        raise ValueError("--k (direct form) and --m (inverse forms) exclude each other")
    if args.sign is not None and args.k is None:
        raise ValueError("--sign applies to the direct form --k only")
    if args.variant is not None and args.k is not None:
        raise ValueError("--variant applies to the inverse forms --m only")
    if args.l is not None and (args.k is not None or args.variant != "conj"):
        raise ValueError("--l applies to --variant conj only")
    qbg = QBG(n)
    x = (w, xi)
    if args.k is not None:
        sign = "-" if args.sign == "minus" else "+"
        combo = chevalley_expand(qbg, w, sign, args.k)
    elif args.variant in (None, "first"):
        combo = ic_rhs_first(qbg, x, args.m)
    elif args.variant == "second":
        combo = ic_rhs_second(qbg, x, args.m)
    elif args.variant == "cf":
        combo = ic_rhs_cancel_free_first(qbg, x, args.m)
    else:
        l = args.l if args.l is not None else n
        combo = ic_rhs_conjecture_second(qbg, x, args.m, l)
    return _combo_text(combo, args.format), 0


# -- argument plumbing -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a rejected argument as one ``error:`` line, not a usage block.

    Subparsers are built with the class of their parent, so they raise too.
    """

    def error(self, message):
        raise ValueError(message)


def _add_common(p: argparse.ArgumentParser, formats: tuple[str, ...]):
    p.add_argument("--rank", type=int, default=3, help="rank n (default 3)")
    p.add_argument("--format", default="text", choices=formats)
    p.add_argument("--out", help="write output to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="qalcove",
        description="quantum Bruhat graph / quantum alcove model toolkit")
    ap.add_argument("--config", help="key=value file of flag defaults")
    sub = ap.add_subparsers(dest="cmd", required=True)

    pv = sub.add_parser("verify", help="run identity verifications")
    _add_common(pv, ("text", "json", "latex"))
    pv.add_argument("--w", help="element: window [2,-1,3] or word 's1 s2'")
    pv.add_argument("--m", type=int, help="single m (default: all 1..n)")
    pv.add_argument("--xi", help="translation coordinates, e.g. '1,0,-1'")
    pv.add_argument("--variant", default="first,second,key",
                    help=f"comma list from {VARIANTS}")
    pv.add_argument("--jobs", type=int, default=1)
    pv.add_argument("--sample", type=int, default=0,
                    help="random sample size (0 = all instances)")
    pv.add_argument("--seed", type=int, default=0)
    pv.set_defaults(func=_cmd_verify)

    ps = sub.add_parser("scan-conjecture",
                        help="scan collapsed second-form cut points")
    _add_common(ps, ("text", "json"))
    ps.add_argument("--w")
    ps.add_argument("--m", type=int)
    ps.set_defaults(func=_cmd_scan)

    pt = sub.add_parser("tables", help="emit the three reference tables")
    _add_common(pt, ("text",))
    pt.set_defaults(func=_cmd_tables)

    pq = sub.add_parser("qbg", help="export the graph")
    _add_common(pq, ("text", "json"))
    pq.set_defaults(func=_cmd_qbg)

    pe = sub.add_parser("expand", help="print one expansion")
    _add_common(pe, ("text", "json", "latex"))
    pe.add_argument("--w", help="element (default: identity)")
    pe.add_argument("--k", type=int, help="direct form: shift index")
    pe.add_argument("--sign", choices=("plus", "minus"),
                    help="direct form: plus (default) or minus")
    pe.add_argument("--m", type=int, help="inverse forms: letter m")
    pe.add_argument("--l", type=int, help="cut point for --variant conj")
    pe.add_argument("--xi", help="translation coordinates")
    pe.add_argument("--variant", choices=("first", "second", "cf", "conj"),
                    help="inverse form (default first)")
    pe.set_defaults(func=_cmd_expand)
    return ap


def _apply_config(argv: list[str]) -> list[str]:
    for i, tok in enumerate(argv):
        if tok == "--config":
            path = argv[i + 1] if i + 1 < len(argv) else ""
            rest = argv[:i] + argv[i + 2:]
            break
        if tok.startswith("--config="):
            path = tok.partition("=")[2]
            rest = argv[:i] + argv[i + 1:]
            break
    else:
        return argv
    if not path:
        raise ValueError("--config needs a path")
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read --config {path}: {exc.strerror}") from exc
    pairs = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        pairs[key.strip().replace("-", "_")] = val.strip()
    extra = []
    for key, val in pairs.items():
        flag = "--" + key.replace("_", "-")
        if flag not in rest:
            extra.append(f"{flag}={val}")  # a value may start with "-"
    # config-derived flags go right after the subcommand
    for j, tok in enumerate(rest):
        if not tok.startswith("-"):
            return rest[:j + 1] + extra + rest[j + 1:]
    return rest + extra


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        args = ap.parse_args(_apply_config(argv))
        if not 1 <= args.rank <= MAX_RANK:
            raise ValueError(f"--rank must be in 1..{MAX_RANK}, got {args.rank}")
        if not args.out:
            text, code = args.func(args)
            try:
                print(text, flush=True)
            except OSError as exc:  # a closed pipe or a full device
                # send the flush at exit to devnull so that Python reports
                # no second error while shutting down
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                raise ValueError(f"cannot write stdout: {exc.strerror}") from None
            return code
        # probed before the command runs, so a bad path costs no work; "a"
        # keeps the old bytes until the command has succeeded, and a file
        # the probe created is removed again if the command fails
        created = not os.path.lexists(args.out)
        _write_out(args.out, "a", "")
        try:
            text, code = args.func(args)
            _write_out(args.out, "w", text if text.endswith("\n") else text + "\n")
        except BaseException:
            if created:
                with contextlib.suppress(OSError):
                    os.remove(args.out)
            raise
        return code
    except ValueError as exc:
        try:
            print(f"error: {exc}", file=sys.stderr, flush=True)
        except OSError:  # stderr may share the closed pipe; the code still says it
            pass
        return 2


def _write_out(path: str, mode: str, text: str):
    try:
        with open(path, mode) as fh:  # closing flushes: a full device fails
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write --out {path}: {exc.strerror}") from exc


if __name__ == "__main__":
    raise SystemExit(main())
