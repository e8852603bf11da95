"""The digest of one exhaustive ``qalcove verify`` sweep in JSON.

Runs ``verify --rank N --variant V --jobs J --format json --out FILE`` in
this process through ``cli.main``, replaces every ``"seconds"`` value by a
placeholder, as ``cli_identity.py`` does, and prints the exit code, the
number of reports and the sha256 of the file, so two checkouts print the
same digest iff the sweep's JSON is byte-identical up to its timings:

    PYTHONPATH=src python3 tests/sweep_digest.py --rank 5 --variant first,second,key,cf --jobs 2
    PYTHONPATH=<other checkout>/src python3 tests/sweep_digest.py ...

At rank 5 with those variants it prints 76 800 reports and sha256
21d334decc9111c2bffb6d2b4191352c3295ba2b89cb364d2c8906cab200fd9f.  The file
is read one line at a time, so a rank-6 sweep is not held in memory twice.
"""

import argparse
import hashlib
import os
import tempfile

from cli_identity import TIMING
from qalcove import cli

SECONDS, PLACEHOLDER = TIMING[0]  # the "seconds" of JSON


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rank", type=int, default=5)
    ap.add_argument("--variant", default="first,second,key,cf")
    ap.add_argument("--jobs", type=int, default=2)
    args = ap.parse_args(argv)
    fd, path = tempfile.mkstemp(suffix=".json")
    os.close(fd)
    try:
        code = cli.main(["verify", "--rank", str(args.rank), "--variant", args.variant,
                         "--jobs", str(args.jobs), "--format", "json", "--out", path])
        digest, reports = hashlib.sha256(), 0
        with open(path) as fh:
            for line in fh:
                reports += line.lstrip().startswith('"instance": ')
                digest.update(SECONDS.sub(PLACEHOLDER, line).encode())
    finally:
        os.remove(path)
    print(f"exit {code} reports {reports} sha256 {digest.hexdigest()}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
