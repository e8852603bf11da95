"""Command-line interface: subcommands, formats, exit codes."""

import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from qalcove import cli
from qalcove.cli import main, table_lines
from qalcove.qbg import QBG
from qalcove.typec import parse_word, weyl_group
from qalcove.verify import VerificationReport

GOLDEN = Path(__file__).parent / "golden"
# a device on which every write fails with ENOSPC
NEEDS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full")


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# -- tables ------------------------------------------------------------------


def test_tables_match_golden(capsys):
    code, out, _ = run(["tables", "--rank", "3"], capsys)
    assert code == 0
    expected = "\n\n".join(
        (GOLDEN / f"table{t}.txt").read_text().rstrip("\n") for t in (1, 2, 3))
    assert out.rstrip("\n") == expected


def test_table_lines_per_table_golden():
    qbg = QBG(3)
    for t in (1, 2, 3):
        expected = (GOLDEN / f"table{t}.txt").read_text().rstrip("\n")
        assert "\n".join(table_lines(qbg, t)) == expected


def test_tables_rejects_other_ranks(capsys):
    code, out, err = run(["tables", "--rank", "2"], capsys)
    _assert_bad_input(code, out, err)
    assert "rank-3" in err


def _no_qbg(n):
    raise AssertionError("QBG built for a format the command cannot render")


def test_tables_rejects_json(monkeypatch, capsys):
    monkeypatch.setattr(cli, "QBG", _no_qbg)
    code, out, err = run(["tables", "--rank", "3", "--format", "json"], capsys)
    _assert_bad_input(code, out, err)
    assert "'json'" in err


# -- verify ------------------------------------------------------------------


def test_verify_rank2_sweep_passes(capsys):
    code, out, _ = run(["verify", "--rank", "2"], capsys)
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("48/48 verified")


@pytest.mark.parametrize("variant, count", [
    (None, 6), ("first", 2), ("second", 2), ("key", 2), ("cf", 2),
    ("first,second,key,cf", 8)])
def test_verify_rank1_passes(variant, count, capsys):
    # at rank 1 a reflection product has one entry, still a 1-tuple
    argv = ["verify", "--rank", "1"] + (["--variant", variant] if variant else [])
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.strip().splitlines()[-1].startswith(f"{count}/{count} verified")


def test_verify_json_single_instance(capsys):
    code, out, _ = run(
        ["verify", "--rank", "2", "--w", "s1", "--m", "1",
         "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert len(data["reports"]) == 3  # first, second, key
    assert all(r["status"] == "verified" for r in data["reports"])


def test_verify_cf_variant(capsys):
    code, out, _ = run(
        ["verify", "--rank", "2", "--variant", "cf"], capsys)
    assert code == 0
    assert "cancel-free" in out


def test_verify_repeated_variant_runs_once(capsys):
    code, out, _ = run(["verify", "--rank", "2", "--w", "s1", "--m", "1",
                        "--variant", "first,first", "--format", "json"], capsys)
    assert code == 0
    [report] = json.loads(out)["reports"]
    assert report["instance"].startswith("first-half w=[2,1] m=1")
    code, out, _ = run(["verify", "--rank", "2", "--w", "s1", "--m", "1",
                        "--variant", "key,first,key"], capsys)
    lines = out.strip().splitlines()
    assert code == 0 and lines[-1].startswith("2/2 verified")


def test_verify_parallel_matches_serial(capsys):
    _, out1, _ = run(["verify", "--rank", "2", "--format", "json"], capsys)
    _, out2, _ = run(["verify", "--rank", "2", "--format", "json",
                      "--jobs", "2"], capsys)
    inst1 = [r["instance"] for r in json.loads(out1)["reports"]]
    inst2 = [r["instance"] for r in json.loads(out2)["reports"]]
    assert inst1 == inst2 and len(inst1) == 48


def test_verify_sampling_is_seeded(capsys):
    code, out1, _ = run(["verify", "--rank", "2", "--sample", "5",
                         "--seed", "7", "--format", "json"], capsys)
    assert code == 0
    _, out2, _ = run(["verify", "--rank", "2", "--sample", "5",
                      "--seed", "7", "--format", "json"], capsys)
    inst1 = [r["instance"] for r in json.loads(out1)["reports"]]
    inst2 = [r["instance"] for r in json.loads(out2)["reports"]]
    assert inst1 == inst2 and len(inst1) == 5


def test_verify_nonzero_xi(capsys):
    code, out, _ = run(
        ["verify", "--rank", "3", "--w", "s3 s2", "--m", "2",
         "--xi", "1,0,-1", "--variant", "first,second,cf"], capsys)
    assert code == 0
    assert "xi=[1,0,-1]" in out


def test_verify_bad_window_is_exit_2(capsys):
    code, _, err = run(["verify", "--rank", "2", "--w", "[1,2,3]"], capsys)
    assert code == 2
    assert "window rank" in err


def test_verify_empty_w_is_the_identity(capsys):
    # an empty --w reads as the identity, as ``--w e`` does, not as no --w
    code, out, _ = run(["verify", "--rank", "2", "--w", ""], capsys)
    assert code == 0
    assert out.splitlines()[-1].startswith("6/6 verified")
    assert all("w=[1,2] " in ln for ln in out.splitlines()[:-1])


def test_verify_word_with_a_bad_generator_is_exit_2(capsys):
    for word in ("s", "sx"):
        code, out, err = run(["verify", "--rank", "2", "--w", word], capsys)
        _assert_bad_input(code, out, err)
        assert f"bad generator '{word}'" in err


def _assert_bad_input(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_rank_0_is_exit_2(capsys):
    code, out, err = run(["verify", "--rank", "0"], capsys)
    _assert_bad_input(code, out, err)
    assert "--rank" in err


def test_verify_unknown_variant(capsys):
    code, out, err = run(["verify", "--rank", "2", "--variant", "bogus"],
                         capsys)
    _assert_bad_input(code, out, err)
    assert "bogus" in err


def test_rank_above_bound_is_exit_2(monkeypatch, capsys):
    def no_qbg(n):
        raise AssertionError("QBG built for an out-of-range rank")

    monkeypatch.setattr(cli, "QBG", no_qbg)
    for argv in (["verify", "--rank", str(cli.MAX_RANK + 1)],
                 ["qbg", "--rank", "9"]):
        code, out, err = run(argv, capsys)
        _assert_bad_input(code, out, err)
        assert "--rank" in err


def test_unwritable_out_fails_before_any_instance(tmp_path, monkeypatch, capsys):
    def no_run(task):
        raise AssertionError("an instance ran before --out was checked")

    monkeypatch.setattr(cli, "_run_instance", no_run)
    dest = tmp_path / "no-such-dir" / "out.txt"
    code, out, err = run(["verify", "--rank", "2", "--out", str(dest)], capsys)
    _assert_bad_input(code, out, err)
    assert str(dest) in err


@pytest.mark.parametrize("argv", [
    ["verify", "--rank", "2", "--m", "0"],
    ["verify", "--rank", "2", "--m", "5", "--variant", "key"],
    ["scan-conjecture", "--rank", "2", "--m", "0"],
])
def test_m_out_of_range_is_exit_2(argv, monkeypatch, capsys):
    monkeypatch.setattr(cli, "QBG", _no_qbg)
    code, out, err = run(argv, capsys)
    _assert_bad_input(code, out, err)
    assert "--m must be in 1..2" in err


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_1_is_exit_2(jobs, monkeypatch, capsys):
    monkeypatch.setattr(cli, "QBG", _no_qbg)
    code, out, err = run(["verify", "--rank", "2", "--w", "s1", "--m", "1",
                          "--variant", "key", "--jobs", jobs], capsys)
    _assert_bad_input(code, out, err)
    assert "--jobs" in err


@pytest.mark.parametrize("sample", ["-1", "-3"])
def test_negative_sample_is_exit_2(sample, monkeypatch, capsys):
    monkeypatch.setattr(cli, "QBG", _no_qbg)
    code, out, err = run(["verify", "--rank", "2", "--sample", sample], capsys)
    _assert_bad_input(code, out, err)
    assert "--sample must be at least 0" in err


def test_pool_size_is_capped_by_cores_and_tasks(monkeypatch, capsys):
    sizes = []

    class InProcessPool:
        """Records the requested size and maps in this process."""

        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(cli.mp, "Pool", InProcessPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    base = ["verify", "--rank", "2", "--w", "s1", "--jobs", "1000000000"]
    code, _, _ = run(base, capsys)  # 6 tasks on 4 usable cores
    assert code == 0 and sizes == [4]
    code, _, _ = run(base + ["--variant", "key"], capsys)  # 2 tasks
    assert code == 0 and sizes == [4, 2]
    code, _, _ = run(base + ["--variant", "key", "--m", "1"], capsys)  # serial
    assert code == 0 and sizes == [4, 2]
    # a mask of 2 of the host's 8 CPUs
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {5, 7})
    code, _, _ = run(base, capsys)
    assert code == 0 and sizes == [4, 2, 2]
    # without affinity masks, every CPU of the host counts
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    code, _, _ = run(base, capsys)
    assert code == 0 and sizes == [4, 2, 2, 3]


def _stub_verifiers(monkeypatch, calls):
    """Replace every verifier by one that records its task, in call order,
    and reports it as its instance; no graph is built."""
    def stub(variant):
        def check(qbg, w, m, xi):
            calls.append((variant, w, m, xi))
            return VerificationReport(f"{variant} {w} {m} {xi}", "verified", 1, 1, 0.0)
        return check

    for variant in cli.VARIANTS:
        monkeypatch.setitem(cli.VERIFIERS, variant, stub(variant))
    monkeypatch.setattr(cli, "QBG", lambda n: None)


@pytest.mark.parametrize("rank, extra, variants, w, ms, xi, sizes", [
    (2, [], "first,second,key", None, (1, 2), (0, 0), (1, 5, 24, 50)),
    (3, ["--variant", "key,first"], "key,first", None, (1, 2, 3), (0, 0, 0),
     (1, 7, 287, 288, 1000)),
    (3, ["--m", "2", "--variant", "cf,second"], "cf,second", None, (2,), (0, 0, 0),
     (3, 40, 96)),
    (4, ["--w", "s1 s2"], "first,second,key", "s1 s2", (1, 2, 3, 4), (0,) * 4,
     (1, 5, 12, 13)),
    (4, ["--xi", "1,0,0,-1", "--variant", "second,cf,first"], "second,cf,first",
     None, (1, 2, 3, 4), (1, 0, 0, -1), (1, 100, 4000)),
])
def test_sample_reports_the_draw_from_the_full_task_list(
        rank, extra, variants, w, ms, xi, sizes, monkeypatch, capsys):
    """``--sample N --seed S`` runs and reports exactly the tasks of
    ``random.Random(S).sample(full_task_list, N)``, in that order."""
    elements = [parse_word(w, rank)] if w else weyl_group(rank)
    full = [(v, e, m, xi) for v in variants.split(",") for e in elements for m in ms]
    for size in sizes:
        for seed in (0, 5, 9):
            calls = []
            _stub_verifiers(monkeypatch, calls)
            code, out, _ = run(["verify", "--rank", str(rank), *extra, "--sample", str(size),
                                "--seed", str(seed), "--format", "json"], capsys)
            want = random.Random(seed).sample(full, min(size, len(full)))
            assert code == 0 and calls == want
            assert [r["instance"] for r in json.loads(out)["reports"]] == sorted(
                f"{v} {e} {m} {x}" for v, e, m, x in want)


def test_sample_draws_indices_not_the_task_list(monkeypatch, capsys):
    """A rank-6 sample of 10 allocates far less than the list of all
    829 440 tasks, which alone takes about 66 MB."""
    calls = []
    _stub_verifiers(monkeypatch, calls)
    tracemalloc.start()
    try:
        code, _, _ = run(["verify", "--rank", "6", "--sample", "10", "--jobs", "1",
                          "--format", "json"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and len(calls) == 10
    # 5.2 MB traced, nearly all of it the 46 080 windows; 71 MB with the list
    assert peak < 20 * 2 ** 20


def test_verify_builds_one_graph(monkeypatch, capsys):
    built = []

    class CountingQBG(QBG):
        def __init__(self, n):
            built.append(n)
            super().__init__(n)

    monkeypatch.setattr(cli, "QBG", CountingQBG)
    code, _, _ = run(["verify", "--rank", "2", "--m", "1", "--variant", "key"],
                     capsys)
    assert code == 0
    assert built == [2]


# -- scan-conjecture -----------------------------------------------------------


def test_scan_conjecture_rank2(capsys):
    code, out, _ = run(["scan-conjecture", "--rank", "2",
                        "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["expectation_holds"] is True
    assert data["counterexamples"] == []
    assert len(data["working"]) == 16  # 8 elements x 2 letters
    assert all(entry["l_set"] for entry in data["working"])


def test_scan_conjecture_single_instance(capsys):
    code, out, _ = run(["scan-conjecture", "--rank", "3", "--w", "s3 s2",
                        "--m", "2"], capsys)
    assert code == 0
    assert "l-set=[3]" in out  # l = 2 fails, l = n works here


def test_scan_conjecture_empty_w_is_the_identity(capsys):
    code, out, _ = run(["scan-conjecture", "--rank", "2", "--w", "",
                        "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert [(e["w"], e["m"]) for e in data["working"]] == [([1, 2], 1), ([1, 2], 2)]


def test_scan_conjecture_rejects_latex_from_config(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "QBG", _no_qbg)
    cfg = tmp_path / "cfg"
    cfg.write_text("format=latex\n")
    code, out, err = run(["--config", str(cfg), "scan-conjecture", "--rank", "2"],
                         capsys)
    _assert_bad_input(code, out, err)
    assert "'latex'" in err


# -- qbg ------------------------------------------------------------------------


def test_qbg_json_export(capsys):
    code, out, _ = run(["qbg", "--rank", "2", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["vertices"]) == 8
    assert len(data["edges"]) == 22
    kinds = {e["kind"] for e in data["edges"]}
    assert kinds == {"B", "Q"}


def test_qbg_text_header(capsys):
    code, out, _ = run(["qbg", "--rank", "2"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "qbg rank 2: 8 vertices, 22 edges"


def test_qbg_rejects_latex(monkeypatch, capsys):
    monkeypatch.setattr(cli, "QBG", _no_qbg)
    code, out, err = run(["qbg", "--rank", "2", "--format", "latex"], capsys)
    _assert_bad_input(code, out, err)
    assert "'latex'" in err


# -- expand -----------------------------------------------------------------------


def test_expand_direct_form(capsys):
    code, out, _ = run(["expand", "--rank", "2", "--w", "s1", "--k", "1",
                        "--sign", "plus"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert all("(lam)" in ln for ln in lines)
    assert any("V[2,1](lam)" in ln for ln in lines)


def test_expand_rank1_direct_form(capsys):
    code, out, _ = run(["expand", "--rank", "1", "--w", "e", "--k", "1"], capsys)
    assert code == 0
    assert out == ("((e[-1]) / ((1 - q^-1*x1^-1))) * V[-1](lam)\n"
                   "((e[1]) / ((1 - q^-1*x1^-1))) * V[1](lam)\n")


def test_expand_conj_latex_term_count(capsys):
    code, out, _ = run(["expand", "--rank", "3", "--w", "s3 s2", "--m", "2",
                        "--variant", "conj", "--l", "3",
                        "--format", "latex"], capsys)
    assert code == 0
    assert out.count("\\operatorname{gch}") == 14


def test_expand_json_round_trips(capsys):
    code, out, _ = run(["expand", "--rank", "2", "--m", "1",
                        "--variant", "cf", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert all({"w", "mu", "numer", "atoms"} <= set(term) for term in data)


def test_expand_needs_k_or_m(capsys):
    code, out, err = run(["expand", "--rank", "2"], capsys)
    _assert_bad_input(code, out, err)
    assert "--k" in err and "--m" in err


def test_expand_rejects_xi_on_direct_form(capsys):
    code, out, err = run(["expand", "--rank", "2", "--k", "1", "--xi", "1,0"],
                         capsys)
    _assert_bad_input(code, out, err)
    assert "--xi" in err


@pytest.mark.parametrize("argv, token", [
    (["verify", "--rank", "2", "--xi", "a,b"], "'a'"),
    (["expand", "--rank", "2", "--m", "1", "--xi", "1.5,0"], "'1.5'"),
])
def test_non_integer_xi_is_exit_2(argv, token, monkeypatch, capsys):
    monkeypatch.setattr(cli, "QBG", _no_qbg)
    code, out, err = run(argv, capsys)
    _assert_bad_input(code, out, err)
    assert f"--xi coordinates must be integers, got {token}" in err


@pytest.mark.parametrize("cmd", [
    ["verify"], ["expand", "--m", "1"], ["scan-conjecture"],
])
def test_non_integer_window_entry_is_exit_2(cmd, monkeypatch, capsys):
    monkeypatch.setattr(cli, "QBG", _no_qbg)
    code, out, err = run(cmd + ["--rank", "2", "--w", "[a,1]"], capsys)
    _assert_bad_input(code, out, err)
    assert "not a signed permutation window: [a,1]" in err


@pytest.mark.parametrize("argv, flag", [
    (["--k", "1", "--m", "2"], "--m"),
    (["--m", "1", "--variant", "first", "--l", "2"], "--l"),
    (["--k", "1", "--l", "2"], "--l"),
    (["--m", "1", "--sign", "minus"], "--sign"),
    (["--m", "1", "--sign", "plus"], "--sign"),
    (["--k", "1", "--variant", "second"], "--variant"),
    (["--k", "1", "--variant", "first"], "--variant"),
])
def test_expand_rejects_flags_it_would_ignore(argv, flag, monkeypatch, capsys):
    monkeypatch.setattr(cli, "QBG", _no_qbg)
    code, out, err = run(["expand", "--rank", "2"] + argv, capsys)
    _assert_bad_input(code, out, err)
    assert flag in err


# -- plumbing ----------------------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["verify", "--rank", "x"],
    ["bogus"],
    ["expand", "--k", "1", "--sign", "up"],
])
def test_argparse_rejection_is_one_line(argv, capsys):
    code, out, err = run(argv, capsys)
    _assert_bad_input(code, out, err)
    assert argv[-1] in err


def test_unknown_config_key_is_one_line(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("colour=blue\n")
    code, out, err = run(["--config", str(cfg), "qbg", "--rank", "2"], capsys)
    _assert_bad_input(code, out, err)
    assert "--colour" in err


def test_help_is_exit_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--variant" in capsys.readouterr().out


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("rank=2\nformat=json\n")
    code, out, _ = run(["--config", str(cfg), "qbg"], capsys)
    assert code == 0
    assert json.loads(out)["rank"] == 2


def test_config_does_not_override_explicit_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("rank=3\n")
    code, out, _ = run(["--config", str(cfg), "qbg", "--rank", "2"], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("qbg rank 2")


def test_config_equals_form_is_read(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("rank=2\n")
    code, out, _ = run([f"--config={cfg}", "qbg"], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("qbg rank 2")


def test_config_value_may_start_with_minus(tmp_path, capsys):
    # a config value is passed as --flag=value, so argparse does not read
    # "-1,0" as a flag; it must verify just as --xi=-1,0 does
    cfg = tmp_path / "cfg"
    cfg.write_text("xi=-1,0\n")
    argv = ["verify", "--rank", "2", "--variant", "first", "--format", "json"]
    code, out, err = run(["--config", str(cfg)] + argv, capsys)
    assert (code, err) == (0, "")
    reports = json.loads(out)["reports"]
    assert len(reports) == 16 and all(r["status"] == "verified" for r in reports)
    assert all("xi=[-1,0]" in r["instance"] for r in reports)
    code, out, _ = run(argv + ["--xi=-1,0"], capsys)
    assert code == 0
    assert [r["instance"] for r in json.loads(out)["reports"]] == \
        [r["instance"] for r in reports]


def test_config_equals_without_path_is_exit_2(capsys):
    code, out, err = run(["--config=", "qbg"], capsys)
    _assert_bad_input(code, out, err)
    assert "--config" in err


def test_config_without_path_is_exit_2(capsys):
    code, out, err = run(["verify", "--config"], capsys)
    _assert_bad_input(code, out, err)
    assert "--config" in err


def test_missing_config_file_is_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    code, out, err = run(["--config", str(missing), "verify", "--rank", "2"],
                         capsys)
    _assert_bad_input(code, out, err)
    assert str(missing) in err


def test_unwritable_out_is_exit_2(tmp_path, capsys):
    dest = tmp_path / "no-such-dir" / "out.txt"
    code, out, err = run(["verify", "--rank", "2", "--w", "s1", "--m", "1",
                          "--out", str(dest)], capsys)
    _assert_bad_input(code, out, err)
    assert str(dest) in err and not dest.exists()


@NEEDS_DEV_FULL
def test_out_to_full_device_is_exit_2(capsys):
    code, out, err = run(["tables", "--rank", "3", "--out", "/dev/full"], capsys)
    _assert_bad_input(code, out, err)
    assert "/dev/full" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--rank", "2", "--m", "0"],
    ["expand", "--rank", "2"],
])
def test_out_keeps_its_bytes_on_bad_input(argv, tmp_path, capsys):
    dest = tmp_path / "keep.txt"
    dest.write_text("old bytes\n")
    code, out, err = run(argv + ["--out", str(dest)], capsys)
    _assert_bad_input(code, out, err)
    assert dest.read_text() == "old bytes\n"
    # a successful run replaces the file, twice over, rather than appending
    for _ in range(2):
        code, _, _ = run(["tables", "--rank", "3", "--out", str(dest)], capsys)
        assert code == 0
    text = dest.read_text()
    assert text.startswith("table 1 (rank 3)") and text.count("table 1") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--rank", "2", "--m", "0"],
    ["expand", "--rank", "2"],
])
def test_out_is_not_created_on_bad_input(argv, tmp_path, capsys):
    dest = tmp_path / "new.txt"
    code, out, err = run(argv + ["--out", str(dest)], capsys)
    _assert_bad_input(code, out, err)
    assert not dest.exists()


def test_out_to_dev_stdout():
    res = subprocess.run(
        [sys.executable, "-m", "qalcove.cli", "tables", "--rank", "3",
         "--out", "/dev/stdout"],
        capture_output=True, text=True)
    assert res.returncode == 0
    assert res.stdout.startswith("table 1 (rank 3)")


def test_out_flag_writes_file(tmp_path, capsys):
    dest = tmp_path / "t.txt"
    code, out, _ = run(["tables", "--rank", "3", "--out", str(dest)], capsys)
    assert code == 0
    assert out == ""
    assert dest.read_text().startswith("table 1 (rank 3)")


def test_module_entry_point():
    res = subprocess.run(
        [sys.executable, "-m", "qalcove.cli", "tables", "--rank", "3"],
        capture_output=True, text=True)
    assert res.returncode == 0
    assert res.stdout.startswith("table 1 (rank 3)")


def test_closed_stdout_is_exit_2():
    # the read end is closed before the child starts, so its first write
    # of any size fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "qalcove.cli", "qbg", "--rank", "3"],
            stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1


def test_closed_stdout_and_stderr_is_exit_2():
    # stderr shares the closed pipe, so the error line cannot be written
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "qalcove.cli", "qbg", "--rank", "3"],
            stdout=write_end, stderr=write_end)
    finally:
        os.close(write_end)
    assert res.returncode == 2


@NEEDS_DEV_FULL
def test_full_stdout_is_exit_2():
    with open("/dev/full", "w") as full:
        res = subprocess.run(
            [sys.executable, "-m", "qalcove.cli", "qbg", "--rank", "2"],
            stdout=full, stderr=subprocess.PIPE, text=True)
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1


def test_python_dash_m_qalcove():
    ok = subprocess.run(
        [sys.executable, "-m", "qalcove", "tables", "--rank", "3"],
        capture_output=True, text=True)
    assert ok.returncode == 0
    assert ok.stdout.startswith("table 1 (rank 3)")
    bad = subprocess.run(
        [sys.executable, "-m", "qalcove", "verify", "--rank", "0"],
        capture_output=True, text=True)
    assert bad.returncode == 2
    assert bad.stdout == "" and bad.stderr.startswith("error: ")


@pytest.mark.parametrize("xi", ["1000001,0", "0,-1000001"])
def test_xi_beyond_bound_is_exit_2(xi, monkeypatch, capsys):
    monkeypatch.setattr(cli, "QBG", _no_qbg)
    code, out, err = run(["verify", "--rank", "2", "--xi", xi], capsys)
    _assert_bad_input(code, out, err)
    assert "xi coordinates" in err


@pytest.mark.parametrize("variant", ["key", "key,key"])
def test_verify_rejects_xi_on_key_only(variant, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "QBG", _no_qbg)
    code, out, err = run(["verify", "--rank", "2", "--variant", variant,
                          "--xi", "1,0"], capsys)
    _assert_bad_input(code, out, err)
    assert "--xi" in err
    cfg = tmp_path / "cfg"
    cfg.write_text(f"rank=2\nvariant={variant}\nxi=1,0\n")
    code, out, err = run(["--config", str(cfg), "verify"], capsys)
    _assert_bad_input(code, out, err)
    assert "--xi" in err


def test_verify_key_with_zero_xi_or_other_variant_verifies(capsys):
    code, out, _ = run(["verify", "--rank", "2", "--w", "s1", "--m", "1",
                        "--variant", "key", "--xi", "0,0"], capsys)
    assert code == 0 and out.count("[ok]") == 1
    code, out, _ = run(["verify", "--rank", "2", "--w", "s1", "--m", "1",
                        "--variant", "key,first", "--xi", "1,0"], capsys)
    assert code == 0 and out.count("[ok]") == 2
    assert "key-props w=[2,1] k=1" in out and "xi=[1,0]" in out


def test_xi_at_bound_verifies(capsys):
    code, out, _ = run(["verify", "--rank", "2", "--w", "[2,-1]", "--m", "1",
                        "--variant", "first,second", "--xi", "1000000,-1000000"],
                       capsys)
    assert code == 0
    assert out.count("[ok]") == 2
