"""Seeded instance lists of the three benchmark workloads.

Everything here is worked out without importing qalcove, so the expected
instance sets and the reference order do not depend on the code under
test.  The Weyl-group order mirrors ``qalcove.typec.weyl_group`` and the
task order of the CLI sweep mirrors ``qalcove verify``; both are part of
the program's observable contract (``--sample``/``--seed`` pick instances
by position in that order).
"""

from __future__ import annotations

import random
from itertools import permutations, product

WORKLOADS = ("verify-r4", "scan-r4", "verify-r5-jobs2")
RANK = {"verify-r4": 4, "scan-r4": 4, "verify-r5-jobs2": 5}
VARIANTS = ("first", "second", "key")

# Sizes: enough instances that the seed-to-seed spread of the summed time
# stays well inside the bounds in BENCHMARK.json (per-instance times have a
# coefficient of variation of about 1.2 at ranks 4 and 5).
VERIFY_R4_ELEMENTS = 192     # x 3 variants = 576 tasks
SCAN_R4_ELEMENTS = 96        # x 4 values of m = 384 instances
R5_SWEEPS = 5                # CLI invocations per repetition
R5_SAMPLE = 120              # --sample of each invocation
R5_JOBS = 2


def weyl_order(n: int) -> list[tuple[int, ...]]:
    """All signed permutations of rank n, in the library's fixed order."""
    return [tuple(s * a for s, a in zip(signs, p))
            for p in permutations(range(1, n + 1))
            for signs in product((1, -1), repeat=n)]


def window_str(w) -> str:
    return "[" + ",".join(str(a) for a in w) + "]"


def verify_r4_tasks(seed: int) -> list[tuple[str, tuple[int, ...], int]]:
    """(variant, w, m) tasks over a random set of elements: every element
    once per variant, each (variant, m) stratum equally often, shuffled."""
    rng = random.Random(f"verify-r4:{seed}")
    elements = rng.sample(weyl_order(4), VERIFY_R4_ELEMENTS)
    tasks = []
    for v in VARIANTS:
        rng.shuffle(elements)
        tasks += [(v, w, i % 4 + 1) for i, w in enumerate(elements)]
    rng.shuffle(tasks)
    return tasks


def scan_r4_tasks(seed: int) -> list[tuple[tuple[int, ...], int]]:
    """(w, m) instances: a random subset of elements, every m."""
    rng = random.Random(f"scan-r4:{seed}")
    return [(w, m) for w in rng.sample(weyl_order(4), SCAN_R4_ELEMENTS)
            for m in range(1, 5)]


def r5_cli_seeds(seed: int) -> list[int]:
    """The ``--seed`` of each CLI invocation of one repetition."""
    rng = random.Random(f"verify-r5-jobs2:{seed}")
    return [rng.randrange(2 ** 31) for _ in range(R5_SWEEPS)]


def r5_cli_args(cli_seed: int, jobs: int, out: str) -> list[str]:
    return ["verify", "--rank", "5", "--variant", ",".join(VARIANTS),
            "--sample", str(R5_SAMPLE), "--seed", str(cli_seed),
            "--jobs", str(jobs), "--format", "json", "--out", out]


def instance_name(variant: str, w, m: int) -> str:
    """The instance string ``qalcove verify`` reports for a task (xi = 0)."""
    if variant == "key":
        return f"key-props w={window_str(w)} k={m}"
    xi = window_str((0,) * len(w))
    return f"{variant}-half w={window_str(w)} m={m} xi={xi}"


def cli_expected_instances(n: int, sample: int, cli_seed: int) -> list[str]:
    """Instances ``qalcove verify --rank n --sample N --seed S`` must cover."""
    tasks = [(v, w, m) for v in VARIANTS for w in weyl_order(n)
             for m in range(1, n + 1)]
    picked = random.Random(cli_seed).sample(tasks, min(sample, len(tasks)))
    return sorted(instance_name(*t) for t in picked)


def r4_verify_index(variant: str, w, m: int) -> int:
    """Position of a rank-4 task in the reference status string."""
    return (VARIANTS.index(variant) * 384 + _R4_POS[tuple(w)]) * 4 + m - 1


def r4_scan_index(w, m: int) -> int:
    """Position of a rank-4 (w, m) in the reference scan table."""
    return _R4_POS[tuple(w)] * 4 + m - 1


_R4_POS = {w: i for i, w in enumerate(weyl_order(4))}
