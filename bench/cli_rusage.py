"""Run the qalcove CLI as its console script does, then record peak memory.

    python3 bench/cli_rusage.py RUSAGE_OUT qalcove-arguments...

Calls ``qalcove.cli.main`` (the ``qalcove`` entry point) with the given
arguments and exits with its code.  Before exiting it writes to RUSAGE_OUT
the peak resident set of this process and the largest peak among its
reaped children (the ``--jobs`` pool workers), in KiB.
"""

import json
import resource
import sys

from qalcove.cli import main

if __name__ == "__main__":
    code = main(sys.argv[2:])
    with open(sys.argv[1], "w") as fh:
        json.dump({
            "self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        }, fh)
    sys.exit(code)
