"""The CLI's outputs, byte for byte, as one digest in the test suite.

Runs every command of ``cli_identity.commands()`` in this process through
``cli_identity.run``, which replaces each timing by a placeholder, and
compares the number of runs and the sha256 of them all with the recorded
ones.  ``PYTHONPATH=src python3 tests/cli_identity.py --each`` prints one
digest per run, to find which output changed.  The exhaustive rank-4
sweep of ``sweep_digest.py`` checks the ``--jobs`` pool path the same way.
"""

import hashlib

import sweep_digest
from cli_identity import commands, run

RUNS = 2938
DIGEST = "343c8d2ca13c37822e01ce3585048d2f1aa70e0767551e03a7c13fa6719d7369"


def test_cli_outputs_are_byte_identical():
    total, count = hashlib.sha256(), 0
    for argv in commands():
        total.update(run(argv))
        count += 1
    assert (count, total.hexdigest()) == (RUNS, DIGEST), (
        "the CLI's output changed: if the change is intended, update RUNS and "
        "DIGEST here and give the reason in CHANGES.md")


def test_rank4_pool_sweep_is_byte_identical(capsys):
    # every report of the pool path, which cli_identity runs only serially;
    # --jobs 1 prints the same line
    code = sweep_digest.main(["--rank", "4", "--jobs", "2"])
    assert capsys.readouterr().out == (
        "exit 0 reports 6144 sha256 "
        "288e01b855f0423b0443dea1ffcb668e2af76c21b0436f7e93ca7ec0bd18004f\n"), (
        "the rank-4 sweep's output changed: if the change is intended, update "
        "the digest here and give the reason in CHANGES.md")
    assert code == 0
