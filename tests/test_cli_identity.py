"""The CLI's outputs, byte for byte, as one digest in the test suite.

Runs every command of ``cli_identity.commands()`` in this process through
``cli_identity.run``, which replaces each timing by a placeholder, and
compares the number of runs and the sha256 of them all with the recorded
ones.  ``PYTHONPATH=src python3 tests/cli_identity.py --each`` prints one
digest per run, to find which output changed.
"""

import hashlib

from cli_identity import commands, run

RUNS = 2289
DIGEST = "502475f8edadc7cb9c1ded016ca64d798ae09e48b854ede566dbde7379f2e776"


def test_cli_outputs_are_byte_identical():
    total, count = hashlib.sha256(), 0
    for argv in commands():
        total.update(run(argv))
        count += 1
    assert (count, total.hexdigest()) == (RUNS, DIGEST), (
        "the CLI's output changed: if the change is intended, update RUNS and "
        "DIGEST here and give the reason in CHANGES.md")
