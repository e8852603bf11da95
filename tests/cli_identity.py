"""One digest of the CLI's outputs over a fixed set of commands.

Runs each command below in this process through ``cli.main`` and hashes its
arguments, exit code, stdout and stderr, with every timing replaced by a
placeholder: the ``"seconds"`` of JSON and the ``0.123s`` of text.  It
prints the number of runs and the sha256 of them all, so two checkouts give
the same digest iff every command's output is byte-identical:

    PYTHONPATH=src python3 tests/cli_identity.py
    PYTHONPATH=<other checkout>/src python3 tests/cli_identity.py

With --each it also prints one line per run, its own digest and its
arguments, for a diff of two checkouts.  ``test_cli_identity.py`` checks
the digest in the test suite.

The commands, at ranks 2 and 3: ``verify`` for each variant alone and all
four together, in text, JSON and LaTeX, with and without a nonzero --xi;
``scan-conjecture`` in text and JSON; and ``expand`` for every element,
every m and every --variant, with each --l of conj and the bad --l 0, once
in text at xi = 0 and once at a nonzero xi (LaTeX at rank 2, JSON at 3).
Then a rank-4 ``verify --sample 300`` of all four variants in JSON.  Then
the direct form ``expand --k`` at ranks 2 and 3 for every element, every k
and both signs, in text and again in LaTeX at rank 2 or JSON at rank 3;
``qbg`` at ranks 1-4 in text and JSON; and last ``tables --rank 3``.
"""

import contextlib
import hashlib
import io
import re
import sys

from qalcove import cli
from qalcove.typec import weyl_group, window_str

XI = {2: "1,-1", 3: "1,0,-1"}
TIMING = [(re.compile(r'"seconds": [-+.0-9e]+'), '"seconds": T'),
          (re.compile(r"\d+\.\d+s\b"), "Ts")]


def commands():
    for n in (2, 3):
        rank = ["--rank", str(n)]
        for variant in ("first", "second", "key", "cf", "first,second,key,cf"):
            for fmt in ("text", "json", "latex"):
                argv = ["verify", *rank, "--variant", variant, "--format", fmt]
                yield argv
                yield argv + ["--xi", XI[n]]
        for fmt in ("text", "json"):
            yield ["scan-conjecture", *rank, "--format", fmt]
        for w in weyl_group(n):
            for m in range(1, n + 1):
                cases = [("first", None), ("second", None), ("cf", None),
                         ("conj", None), ("conj", 0)]
                cases += [("conj", l) for l in range(m, n + 1)]
                for variant, l in cases:
                    argv = ["expand", *rank, "--w", window_str(w), "--m", str(m),
                            "--variant", variant]
                    argv += [] if l is None else ["--l", str(l)]
                    yield argv
                    yield argv + ["--xi", XI[n], "--format", "latex" if n == 2 else "json"]
    yield ["verify", "--rank", "4", "--variant", "first,second,key,cf",
           "--sample", "300", "--seed", "1", "--format", "json"]
    for n in (2, 3):
        for w in weyl_group(n):
            for k in range(1, n + 1):
                for sign in ("plus", "minus"):
                    argv = ["expand", "--rank", str(n), "--w", window_str(w),
                            "--k", str(k), "--sign", sign]
                    yield argv
                    yield argv + ["--format", "latex" if n == 2 else "json"]
    for n in (1, 2, 3, 4):
        for fmt in ("text", "json"):
            yield ["qbg", "--rank", str(n), "--format", fmt]
    yield ["tables", "--rank", "3"]


def run(argv: list[str]) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = f"{argv}\n{code}\n{out.getvalue()}\n{err.getvalue()}\n"
    for pattern, placeholder in TIMING:
        text = pattern.sub(placeholder, text)
    return text.encode()


def main() -> int:
    each = "--each" in sys.argv[1:]
    total, count = hashlib.sha256(), 0
    for argv in commands():
        blob = run(argv)
        total.update(blob)
        count += 1
        if each:
            print(hashlib.sha256(blob).hexdigest()[:16], " ".join(argv))
    print(f"{count} runs sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
