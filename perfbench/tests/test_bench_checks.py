"""Correctness checks of the benchmark count failures."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH)]

import run  # noqa: E402

TRAIN = run.WORKLOADS["gbt"][1][0]


def _outputs(cwd: Path) -> None:
    model = cwd / "model"
    model.mkdir(parents=True, exist_ok=True)
    (model / "bundle.json").write_text('{"checksum": "c", "payload": {}}\n')
    (model / "gbt_history.csv").write_text("round,loss\n0,1.0\n")


def _judged(cwd, book, exit_code=0):
    r = run.CommandRun(TRAIN, wall_s=1.0, cpu_s=1.0, peak_rss_mb=1.0, exit_code=exit_code)
    run.judge(r, cwd, planted={}, floor=None, book=book, key="k")
    return r


def test_tampered_output_counts_as_a_failure(tmp_path):
    _outputs(tmp_path)
    book = run.DigestBook(tmp_path / "digests.json")
    first = _judged(tmp_path, book)
    assert first.problems == []
    book.save()
    # a later run of the same source tree and seed, with one byte changed
    (tmp_path / "model" / "gbt_history.csv").write_text("round,loss\n0,1.5\n")
    later = _judged(tmp_path, run.DigestBook(tmp_path / "digests.json"))
    assert later.problems == ["output digest differs from an earlier run"]
    result = run.result([first, later], {})
    assert (result["correct"], result["attempted"], result["failed"]) == \
        (False, 2, 1)


def test_nonzero_exit_is_a_failure(tmp_path):
    r = _judged(tmp_path, run.DigestBook(tmp_path / "d.json"), exit_code=3)
    assert r.problems == ["exit code 3"]


def test_stage_counts_and_accuracy_floor(tmp_path):
    planted = {"parsed_rows": 10, "duplicates_removed": 2,
               "bad_timestamps_removed": 1, "table_rows": 7}
    stages = dict(planted, duplicates_removed=3)
    (tmp_path / "dataset.json").write_text(
        json.dumps({"payload": {"stages": stages}}))
    assert run.stage_problems(tmp_path, planted) == [
        "duplicates_removed: ingest reports 3, planted 2"]
    assert run.report_problems({"accuracy": 0.9}, 0.85) == []
    assert run.report_problems({"accuracy": 0.8}, 0.85) != []


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "gbt", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_passes_rotate_each_role_over_the_cpus(monkeypatch):
    bench = run.Bench("gbt", 1, 0.0)
    bench.cpus = [3, 5]
    placed = []
    monkeypatch.setattr(run.os, "sched_setaffinity",
                        lambda pid, cpus: placed.append(*cpus))
    monkeypatch.setattr(bench, "execute",
                        lambda cmd, traced: (cmd.role, placed[-1]))
    passes = [bench.run_pass(n, traced=False) for n in range(3)]
    assert passes == [[("produce", 3), ("consume", 5)],
                      [("produce", 5), ("consume", 3)],
                      [("produce", 3), ("consume", 5)]]
