"""End-to-end command-line runs: artifacts, bundles, reports, exit codes."""

import argparse
import base64
import csv
import json
import math
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import cell_rows, synthetic_csv_text

from ransomflow import cli, gbt, lstm, nn, sae
from ransomflow.artifacts import load_artifact, save_bundle
from ransomflow.cli import main
from ransomflow.config import PipelineConfig
from ransomflow.dataset import FEATURE_NAMES, parse_csv
from ransomflow.metrics import ConfusionMatrix, report
from ransomflow.serialize import (
    SCHEMA_VERSION,
    array_doc,
    array_from_doc,
    checksum,
    dump_json,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402  (the benchmark's input generator)


def read_payload(artifact_dir):
    doc = json.loads((artifact_dir / "dataset.json").read_text())
    return doc["payload"]


def snapshot(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())
            if p.is_file()}


@pytest.fixture(scope="module")
def artifact_dir(synthetic_csv, tmp_path_factory):
    csv_path, _ = synthetic_csv
    out = tmp_path_factory.mktemp("cli") / "art"
    rc = main(["ingest", str(csv_path), "--output", str(out),
               "--test-ratio", "0.25", "--seed", "11"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def sae_bundle_dir(artifact_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "sae"
    rc = main(["train", str(artifact_dir), "--kind", "sae-lstm",
               "--output", str(out), "--sae-epochs", "4",
               "--lstm-epochs", "10", "--lstm-hidden", "16", "--seed", "11"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def gbt_bundle_dir(artifact_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "gbt"
    rc = main(["train", str(artifact_dir), "--kind", "gbt",
               "--output", str(out), "--gbt-rounds", "10", "--seed", "11"])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def sae_report_dir(sae_bundle_dir, artifact_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "sae-report"
    rc = main(["evaluate", str(sae_bundle_dir / "bundle.json"),
               str(artifact_dir), "--output", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def gbt_report_dir(gbt_bundle_dir, artifact_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "gbt-report"
    rc = main(["evaluate", str(gbt_bundle_dir / "bundle.json"),
               str(artifact_dir), "--output", str(out)])
    assert rc == 0
    return out


# command run -> (the fixture that ran it, or its argv with fixture directories
# in braces and --output appended; the exact files it writes)
OUTPUT_SETS = {
    "ingest": ("artifact_dir", ("dataset.json", "table.npz")),
    "train-sae-lstm": ("sae_bundle_dir",
                       ("bundle.json", "lstm_history.csv", "sae_history.csv")),
    "train-sae-lstm-fine-tune": (
        ("train", "{artifact_dir}", "--sae-epochs", "2", "--lstm-epochs", "2",
         "--lstm-hidden", "8", "--fine-tune", "--seed", "11"),
        ("bundle.json", "fine_tune_history.csv", "lstm_history.csv",
         "sae_history.csv")),
    "train-gbt": ("gbt_bundle_dir", ("bundle.json", "gbt_history.csv")),
    "evaluate": ("sae_report_dir", ("confusion.csv", "report.csv",
                                    "report.json", "report.txt")),
    "compare": (("compare", "{sae_report_dir}/report.json",
                 "{gbt_report_dir}/report.json"),
                ("comparison.csv", "comparison.json", "comparison.txt")),
    "analyze": (("analyze", "{artifact_dir}"),
                ("analysis.json", "anomalies.csv", "correlation.csv",
                 "distribution.csv", "financial.csv", "summary.csv")),
}


@pytest.mark.parametrize("run", OUTPUT_SETS)
def test_each_command_writes_exactly_its_files(run, request, tmp_path,
                                               capsys):
    source, files = OUTPUT_SETS[run]
    if isinstance(source, str):
        out = request.getfixturevalue(source)
    else:
        dirs = {name: request.getfixturevalue(name)
                for name in re.findall(r"{(\w+)}", " ".join(source))}
        out = tmp_path / "out"
        argv = [arg.format(**dirs) for arg in source]
        assert main([*argv, "--output", str(out)]) == 0
        capsys.readouterr()
    assert sorted(p.name for p in out.iterdir()) == sorted(files)


def test_ingest_stage_counts_match_fixture(synthetic_csv, artifact_dir):
    _, meta = synthetic_csv
    payload = read_payload(artifact_dir)
    stages = payload["stages"]
    assert stages["parsed_rows"] == meta["total_rows"]
    assert stages["duplicates_removed"] == meta["duplicates"]
    assert stages["bad_timestamps_removed"] == meta["bad_times"]
    assert stages["table_rows"] == meta["clean_rows"]
    artifact = load_artifact(artifact_dir)
    assert artifact.train_index.size + artifact.test_index.size \
        == meta["clean_rows"]
    classes = payload["preprocess"]["encoding"]["Prediction"]
    assert classes == list(meta["classes"])
    # 0.25 of each class held out, rounded half up
    per_class = next(iter(meta["per_class"].values()))
    assert artifact.test_index.size == 3 * round(per_class * 0.25)


def test_ingest_dataset_json_echoes_config(artifact_dir):
    assert read_payload(artifact_dir)["config"]["seed"] == 11


def test_ingest_missing_csv_exits_2(tmp_path):
    rc = main(["ingest", str(tmp_path / "absent.csv"),
               "--output", str(tmp_path / "o")])
    assert rc == 2


def test_ingest_ragged_csv_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    header = ("Time,Protocol,Flag,Family,Clusters,SeedAddress,ExpAddress,"
              "BTC,USD,NetflowBytes,IPAddress,Threats,Port,Prediction")
    bad.write_text(header + "\n1,TCP,A,WannaCry,2\n", encoding="utf-8")
    assert main(["ingest", str(bad), "--output", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == \
        "error: line 2: expected 14 fields, found 5\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("column,value", [("Time", "nan"), ("BTC", "inf"),
                                          ("Port", "-inf"), ("USD", "12abc")])
def test_ingest_non_finite_cell_exits_3(synthetic_csv, tmp_path, capsys,
                                        column, value):
    csv_path, _ = synthetic_csv
    lines = csv_path.read_text().splitlines(keepends=True)
    row = lines[5].split(",")
    row[lines[0].split(",").index(column)] = value
    lines[5] = ",".join(row)
    bad = tmp_path / "bad.csv"
    bad.write_text("".join(lines), encoding="utf-8")
    assert main(["ingest", str(bad), "--output", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        f"error: line 6: column {column!r} holds non-numeric or non-finite "
        f"value {value!r}\n")
    assert not (tmp_path / "o").exists()


def test_ingest_header_only_exits_3(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    header = ("Time,Protocol,Flag,Family,Clusters,SeedAddress,ExpAddress,"
              "BTC,USD,NetflowBytes,IPAddress,Threats,Port,Prediction")
    empty.write_text(header + "\n", encoding="utf-8")
    assert main(["ingest", str(empty), "--output", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "error: cannot split zero rows\n"
    assert not (tmp_path / "o").exists()


def _small_csv() -> tuple:
    """(header, rows) of a generated CSV (seed 5, 300 raw rows)."""
    text, _ = gen.generate(5, raw_rows=300, duplicates=30, bad_times=5)
    header, *rows = text.rstrip("\n").split("\n")
    return header, rows


def _labeled(rows, label) -> list:
    return [row for row in rows if row.rsplit(",", 1)[1] == label]


def _without_port(line) -> str:
    cells = line.split(",")
    return ",".join(cells[:12] + cells[13:])


# CSV lines built from _small_csv's (header, rows), and the one error line
_REFUSED_CSVS = {
    "missing-column": (lambda header, rows: map(_without_port, [header, *rows]),
                       "required column 'Port' not found in header"),
    "one-row-class": (lambda header, rows: [header, *_labeled(rows, "A"),
                                            _labeled(rows, "S")[0]],
                      "cannot build stratified split: class 1 has only 1 "
                      "row(s)"),
}


@pytest.mark.parametrize("case", _REFUSED_CSVS)
def test_ingest_refuses_the_csv_and_writes_nothing(case, tmp_path, capsys):
    lines, message = _REFUSED_CSVS[case]
    csv_path = tmp_path / "raw.csv"
    csv_path.write_text("\n".join(lines(*_small_csv())) + "\n",
                        encoding="utf-8")
    out = tmp_path / "art"
    assert main(["ingest", str(csv_path), "--output", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_train_on_one_class_exits_3_before_any_epoch(tmp_path, capsys,
                                                      monkeypatch):
    header, rows = _small_csv()
    csv_path, art = tmp_path / "raw.csv", tmp_path / "art"
    csv_path.write_text("\n".join([header, *_labeled(rows, "A")]) + "\n",
                        encoding="utf-8")
    assert main(["ingest", str(csv_path), "--output", str(art)]) == 0
    capsys.readouterr()
    stages, train_epochs = [], sae.train_epochs

    def counted(stage, *args, **kwargs):
        stages.append(stage)
        return train_epochs(stage, *args, **kwargs)

    monkeypatch.setattr(sae, "train_epochs", counted)
    for kind in ("sae-lstm", "gbt"):
        out = tmp_path / kind
        assert main(["train", str(art), "--kind", kind, "--sae-epochs", "1",
                     "--lstm-epochs", "1", "--output", str(out)]) == 3
        assert capsys.readouterr().err == \
            "error: training labels hold fewer than 2 classes\n"
        assert not out.exists()
    assert stages == []  # the SAE ran no epoch


def test_train_on_a_one_class_training_side_exits_3(tmp_path, capsys,
                                                    monkeypatch):
    """The class list holds A and S, but the training side only A: both
    kinds refuse it before any epoch."""
    header, rows = _small_csv()
    csv_path, art = tmp_path / "raw.csv", tmp_path / "art"
    csv_path.write_text("\n".join([header, *_labeled(rows, "A"),
                                   *_labeled(rows, "S")[:2]]) + "\n",
                        encoding="utf-8")
    # 0.75 of two rows, rounded half up, holds out both S rows
    assert main(["ingest", str(csv_path), "--test-ratio", "0.75",
                 "--output", str(art)]) == 0
    capsys.readouterr()
    stages, train_epochs = [], sae.train_epochs

    def counted(stage, *args, **kwargs):
        stages.append(stage)
        return train_epochs(stage, *args, **kwargs)

    monkeypatch.setattr(sae, "train_epochs", counted)
    for kind in ("sae-lstm", "gbt"):
        out = tmp_path / kind
        assert main(["train", str(art), "--kind", kind, "--sae-epochs", "1",
                     "--lstm-epochs", "1", "--output", str(out)]) == 3
        assert capsys.readouterr().err == \
            "error: training labels hold fewer than 2 classes\n"
        assert not out.exists()
    assert stages == []  # the SAE ran no epoch


def test_compare_reports_of_different_class_sets_exits_3(tmp_path, capsys):
    paths = []
    for name, classes in (("a", ("A", "S")), ("b", ("A", "SS"))):
        rep = report(ConfusionMatrix(np.diag([5, 5]), classes))
        paths.append(str(tmp_path / f"{name}.json"))
        dump_json(paths[-1], {**rep.to_dict(), "kind": "gbt", "split": "test"})
    out = tmp_path / "o"
    assert main(["compare", *paths, "--output", str(out)]) == 3
    assert capsys.readouterr().err == \
        "error: class sets differ: ['A', 'S'] vs ['A', 'SS']\n"
    assert not out.exists()


def test_ingest_empty_training_side_exits_3(tmp_path, capsys):
    text, _ = synthetic_csv_text(n_per_class=2, duplicates=0, bad_times=0)
    csv_path = tmp_path / "tiny.csv"
    csv_path.write_text(text, encoding="utf-8")
    out = tmp_path / "art"
    # 0.9 of two rows, rounded half up, holds out both rows of each class
    assert main(["ingest", str(csv_path), "--test-ratio", "0.9",
                 "--output", str(out)]) == 3
    assert "training side holds no rows" in capsys.readouterr().err
    assert not (out / "dataset.json").exists()


def _edited_csv(synthetic_csv, tmp_path, edit):
    """The fixture CSV's bytes, passed through ``edit``, as a new file."""
    csv_path, _ = synthetic_csv
    bad = tmp_path / "edited.csv"
    bad.write_bytes(edit(csv_path.read_bytes()))
    return bad


def _replace_line(data: bytes, index: int, line: bytes) -> bytes:
    lines = data.split(b"\n")
    lines[index] = line
    return b"\n".join(lines)


def test_ingest_oversized_field_exits_3(synthetic_csv, tmp_path, capsys):
    def widen(data):
        cells = data.split(b"\n")[4].split(b",")
        cells[1] = b"x" * 131_073  # over csv's default field size limit
        return _replace_line(data, 4, b",".join(cells))

    bad = _edited_csv(synthetic_csv, tmp_path, widen)
    assert main(["ingest", str(bad), "--output", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line 5: field larger than")


def test_ingest_non_utf8_exits_3(synthetic_csv, tmp_path, capsys):
    def garble(data):
        line = data.split(b"\n")[6]
        return _replace_line(data, 6, line.replace(b",", b"\xff,", 1))

    bad = _edited_csv(synthetic_csv, tmp_path, garble)
    assert main(["ingest", str(bad), "--output", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line 7: not UTF-8 text")


def test_ingest_cr_only_line_ends_match_lf(synthetic_csv, artifact_dir,
                                            tmp_path):
    cr = _edited_csv(synthetic_csv, tmp_path,
                     lambda data: data.replace(b"\n", b"\r"))
    out = tmp_path / "cr"
    assert main(["ingest", str(cr), "--output", str(out),
                 "--test-ratio", "0.25", "--seed", "11"]) == 0
    assert (out / "table.npz").read_bytes() \
        == (artifact_dir / "table.npz").read_bytes()
    # bytes split CR-only lines as a path does
    assert cell_rows(parse_csv(cr.read_bytes())) == cell_rows(parse_csv(cr))


def test_ingest_byte_order_mark_is_not_part_of_the_header(synthetic_csv,
                                                          artifact_dir,
                                                          tmp_path):
    # a spreadsheet saves "CSV UTF-8" with a byte-order mark before the header
    bom = _edited_csv(synthetic_csv, tmp_path,
                      lambda data: "\ufeff".encode() + data)
    out = tmp_path / "bom"
    assert main(["ingest", str(bom), "--output", str(out),
                 "--test-ratio", "0.25", "--seed", "11"]) == 0
    for name in ("dataset.json", "table.npz"):
        assert (out / name).read_bytes() == (artifact_dir / name).read_bytes()


def test_usage_problems_exit_1(tmp_path, capsys):
    for argv in ([], ["frobnicate"], ["ingest", "x.csv", "--no-such-flag"],
                 ["train", "art", "--kind", "nonsense"],
                 ["ingest", "x.csv", "--test-ratio", "1.5"],
                 ["ingest", "x.csv", "--subsample", "1.5"],
                 ["train", "art", "--sae-epochs", "-1"],
                 ["train", "art", "--lstm-hidden", "0"],
                 ["train", "art", "--gbt-rounds", "-1"]):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error: "), argv


def test_one_parser_per_process_keeps_no_state_between_calls():
    parser = cli.build_parser()
    first = parser.parse_args(["train", "art", "--fine-tune", "--gbt-rounds",
                               "3", "--seed", "5"])
    second = parser.parse_args(["train", "art"])
    assert cli.build_parser() is parser
    assert (first.fine_tune, getattr(first, "gbt.rounds"), first.seed) \
        == (True, 3, 5)
    assert (second.fine_tune, getattr(second, "gbt.rounds"), second.seed) \
        == (None, None, None)


# destinations that are the command's own arguments rather than settings
COMMAND_ARGUMENTS = ("command", "func", "config", "csv", "artifact", "kind",
                     "bundle", "split", "report_a", "report_b", "name_a",
                     "name_b", "output_dir")


def stray_destinations(parser) -> list:
    """Each destination, action or default, of ``parser`` and its
    subcommands that is neither a setting path resolving to a value of
    :meth:`PipelineConfig.echo` nor in :data:`COMMAND_ARGUMENTS`."""
    settings = PipelineConfig().echo()

    def is_setting(dest):
        node = settings
        for part in dest.split("."):
            if not isinstance(node, dict) or part not in node:
                return False
            node = node[part]
        return not isinstance(node, dict)

    parsers = [parser, *(sub for action in parser._actions
                         if isinstance(action, argparse._SubParsersAction)
                         for sub in action.choices.values())]
    dests = [dest for p in parsers for dest in (
        *(a.dest for a in p._actions
          if not isinstance(a, argparse._HelpAction)), *p._defaults)]
    return sorted({dest for dest in dests if not is_setting(dest)
                   and dest not in COMMAND_ARGUMENTS})


def test_each_flag_destination_is_the_setting_it_writes():
    parser = cli.build_parser()
    assert stray_destinations(parser) == []
    toy = argparse.ArgumentParser()
    for dest in ("lstm.hiden_size", "lstm", "seeds", "sae.epochs.x",
                 "lstm.hidden_size", "seed", "kind"):
        toy.add_argument("--" + dest.replace(".", "-"), dest=dest)
    assert stray_destinations(toy) == ["lstm", "lstm.hiden_size",
                                       "sae.epochs.x", "seeds"]


def test_config_file_overrides_and_validation(synthetic_csv, tmp_path):
    csv_path, meta = synthetic_csv
    good = tmp_path / "cfg.json"
    good.write_text(json.dumps({
        "seed": 23,
        "dataset": {"test_ratio": 0.5},
        "gbt": {"rounds": 2, "lambda": 2.0},
    }), encoding="utf-8")
    out = tmp_path / "art"
    rc = main(["ingest", str(csv_path), "--config", str(good),
               "--output", str(out)])
    assert rc == 0
    payload = read_payload(out)
    assert payload["config"]["seed"] == 23
    assert payload["config"]["dataset"]["test_ratio"] == 0.5
    assert payload["config"]["gbt"]["rounds"] == 2
    assert load_artifact(out).test_index.size == meta["clean_rows"] // 2

    typo = tmp_path / "typo.json"
    typo.write_text('{"sead": 1}', encoding="utf-8")
    assert main(["ingest", str(csv_path), "--config", str(typo),
                 "--output", str(out)]) == 1
    broken = tmp_path / "broken.json"
    for text in ("{not json", '{"dataset": {"test_ratio": NaN}}',
                 '{"dataset": {"test_ratio": 1e400}}'):
        broken.write_text(text, encoding="utf-8")
        assert main(["ingest", str(csv_path), "--config", str(broken),
                     "--output", str(out)]) == 1
    assert main(["ingest", str(csv_path), "--config",
                 str(tmp_path / "missing.json"), "--output", str(out)]) == 2


def test_ingest_subsample_and_alternate_ordering(synthetic_csv, tmp_path):
    csv_path, meta = synthetic_csv
    out = tmp_path / "sub"
    rc = main(["ingest", str(csv_path), "--output", str(out),
               "--subsample", "0.5", "--seed", "7"])
    assert rc == 0
    payload = read_payload(out)
    stages = payload["stages"]
    assert stages["subsampled_rows"] < stages["parsed_rows"]
    assert payload["config"]["dataset"]["split_before_dedup"] is False

    out2 = tmp_path / "swapped"
    rc = main(["ingest", str(csv_path), "--output", str(out2),
               "--split-before-dedup", "--seed", "7"])
    assert rc == 0
    assert read_payload(out2)["config"]["dataset"]["split_before_dedup"] \
        is True
    artifact = load_artifact(out2)
    assert artifact.train_index.size + artifact.test_index.size \
        <= meta["total_rows"]


def test_train_sae_lstm_outputs(sae_bundle_dir):
    doc = json.loads((sae_bundle_dir / "bundle.json").read_text())
    assert doc["payload"]["kind"] == "sae-lstm"
    assert "checksum" in doc
    lstm_lines = (sae_bundle_dir / "lstm_history.csv").read_text().splitlines()
    assert lstm_lines[0] == "epoch,loss,accuracy"
    assert len(lstm_lines) == 1 + 10


def test_train_gbt_outputs(gbt_bundle_dir):
    history = (gbt_bundle_dir / "gbt_history.csv").read_text().splitlines()
    assert history[0] == "round,loss"
    assert len(history) == 1 + 11  # initial loss plus one line per round
    doc = json.loads((gbt_bundle_dir / "bundle.json").read_text())
    assert doc["payload"]["kind"] == "gbt"


@pytest.mark.parametrize("section", [
    {"sae": {"activation": "foo"}},
    {"sae": {"learning_rate": 0}},
    {"lstm": {"learning_rate": -1}},
    {"sae": {"epochs": 1.5}},
    {"gbt": {"rounds": 1.5}},
    {"lstm": {"hidden_size": 2.5}},
    {"gbt": {"max_depth": 2.5}},
    {"dataset": {"split_before_dedup": "false"}},
    {"fine_tune": "no"},
    {"seed": 1.5},
    {"seed": True},
    {"sae": {"convergence_threshold": "x"}},
    {"lstm": {"clip_threshold": 0}},
    {"sae": {"seed": 5}},
    {"gbt": {"k_classes": 4}},
    {"gbt": {"lambda_": 1}},
    {"lstm": {"hiden_size": 8}},
    {"output_dir": 5},
    {"dataset": {"csv": 5}},
    # json.dumps writes the NaN and Infinity tokens, and an int too large
    # for a float in full
    {"gbt": {"gamma": math.nan}},
    {"sae": {"learning_rate": math.inf}},
    {"lstm": {"clip_threshold": math.inf}},
    {"gbt": {"min_child_hessian": -math.inf}},
    {"gbt": {"lambda": 10 ** 400}},
    {"gbt": {"shrinkage": True}},
    {"gbt": {"gamma": False}},
], ids=["activation", "sae-rate", "lstm-rate", "sae-epochs", "gbt-rounds",
        "lstm-hidden", "gbt-depth", "split-flag-string", "fine-tune-string",
        "seed-float", "seed-bool", "convergence-string", "clip-zero",
        "sae-seed-key", "gbt-k-classes-key", "gbt-lambda-field-name",
        "lstm-key-typo", "output-dir-unknown-key", "csv-unknown-key",
        "gbt-gamma-nan",
        "sae-rate-infinity", "lstm-clip-infinity", "gbt-hessian-minus-infinity",
        "gbt-lambda-beyond-float", "gbt-shrinkage-bool", "gbt-gamma-bool"])
def test_train_invalid_config_value_exits_1(section, artifact_dir, tmp_path,
                                            capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(section), encoding="utf-8")
    kind = "gbt" if "gbt" in section else "sae-lstm"
    rc = main(["train", str(artifact_dir), "--kind", kind, "--config",
               str(cfg), "--output", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o").exists()  # refused before training


@pytest.mark.parametrize("section,message", [
    ({"dataset": {"test_ratio": "x"}},
     "DatasetConfig: test ratio must be a finite number, got 'x'"),
    ({"dataset": {"subsample": "x"}},
     "DatasetConfig: subsample fraction must be a finite number, got 'x'"),
    ({"dataset": {"test_ratio": 1.5}},
     "DatasetConfig: test ratio must lie in (0, 1), got 1.5"),
    ({"sae": {"encoder_dims": 5}},
     "SAEConfig: encoder dims must be a list of integers, got 5"),
    ({"sae": {"encoder_dims": "ab"}},
     "SAEConfig: encoder dims must be a list of integers, got 'ab'"),
], ids=["test-ratio-string", "subsample-string", "test-ratio-range",
        "encoder-dims-int", "encoder-dims-string"])
def test_config_value_refusal_names_its_setting(section, message,
                                                synthetic_csv, tmp_path,
                                                capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the default --output is relative
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(section), encoding="utf-8")
    rc = main(["ingest", str(synthetic_csv[0]), "--config", str(cfg)])
    assert rc == 1
    assert capsys.readouterr().err == \
        f"error: invalid configuration value: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("section,where", [
    ({"output_dir": "elsewhere"}, "configuration: output_dir"),
    ({"dataset": {"csv": "a.csv"}}, "dataset: csv")],
    ids=["output-dir", "csv"])
def test_ingest_config_naming_a_path_is_an_unknown_key(section, where,
                                                      synthetic_csv, tmp_path,
                                                      capsys, monkeypatch):
    """Paths are command arguments: a config file naming one is refused."""
    monkeypatch.chdir(tmp_path)  # the default --output is relative
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(section), encoding="utf-8")
    rc = main(["ingest", str(synthetic_csv[0]), "--config", str(cfg)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: unknown key(s) in {where}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_tampered_table_npz_exits_3(artifact_dir, gbt_bundle_dir, tmp_path,
                                    capsys):
    art = tmp_path / "art"
    shutil.copytree(artifact_dir, art)
    raw = bytearray((art / "table.npz").read_bytes())
    raw[len(raw) // 2] ^= 0x01  # flip one bit inside the archive
    (art / "table.npz").write_bytes(bytes(raw))
    assert main(["train", str(art), "--kind", "gbt", "--gbt-rounds", "1",
                 "--output", str(tmp_path / "o")]) == 3
    assert main(["evaluate", str(gbt_bundle_dir / "bundle.json"), str(art),
                 "--output", str(tmp_path / "e")]) == 3
    assert "checksum mismatch" in capsys.readouterr().err


# a value that deletes its field instead of setting it
_DELETE = object()
# normalization bounds for every feature column, one of them listed twice
_REPEATED_COLUMN = [[name, 0.0, 1.0] for name in (*FEATURE_NAMES, "Time")]


def _subsampled_above_parsed(payload):
    """A payload whose subsample stage keeps more rows than were parsed."""
    payload["config"]["dataset"]["subsample"] = 0.5
    payload["stages"]["subsampled_rows"] = payload["stages"]["parsed_rows"] + 1
    return payload


def _leaf_gains_key(node):
    """The tree ``node`` with an unknown key added to its leftmost leaf."""
    leaf = node
    while "weight" not in leaf:
        leaf = leaf["left"]
    leaf["foo"] = 1
    return node


# a stored file (bundle.json is the gbt bundle's, sae-bundle.json the
# sae-lstm one's), a dotted field of its {checksum, payload} document (a
# number indexes a list), and a malformed value for it, or a function of the
# stored value giving one; a payload edit keeps the checksum matching
_MALFORMED_FIELDS = {
    "dataset-checksum-null": ("dataset.json", "checksum", None),
    "dataset-checksum-number": ("dataset.json", "checksum", 5),
    "bundle-checksum-null": ("bundle.json", "checksum", None),
    "bundle-checksum-number": ("bundle.json", "checksum", 5),
    "dataset-version-2": ("dataset.json", "payload.schema_version", 2),
    "bundle-version-2": ("bundle.json", "payload.schema_version", 2),
    "dataset-version-3": ("dataset.json", "payload.schema_version", 3),
    "bundle-version-3": ("bundle.json", "payload.schema_version", 3),
    "dataset-version-4": ("dataset.json", "payload.schema_version", 4),
    "bundle-version-4": ("bundle.json", "payload.schema_version", 4),
    "dataset-version-5": ("dataset.json", "payload.schema_version", 5),
    "bundle-version-5": ("bundle.json", "payload.schema_version", 5),
    "sae-bundle-version-5": ("sae-bundle.json", "payload.schema_version", 5),
    "dataset-version-6": ("dataset.json", "payload.schema_version", 6),
    "bundle-version-6": ("bundle.json", "payload.schema_version", 6),
    "class-list-string": ("dataset.json",
                          "payload.preprocess.encoding.Prediction", "x"),
    "class-list-number": ("dataset.json",
                          "payload.preprocess.encoding.Prediction", 5),
    "class-list-chars": ("dataset.json",
                         "payload.preprocess.encoding.Prediction", "ASX"),
    "categories-repeated": ("dataset.json",
                            "payload.preprocess.encoding.Prediction",
                            ["A", "A", "SS"]),
    "categories-unsorted": ("dataset.json",
                            "payload.preprocess.encoding.Prediction",
                            ["S", "A", "SS"]),
    "encoding-extra-column": ("dataset.json", "payload.preprocess.encoding.Foo",
                              ["x"]),
    "encoding-missing-column": ("dataset.json",
                                "payload.preprocess.encoding.Threats",
                                _DELETE),
    "preprocess-unknown-key": ("dataset.json", "payload.preprocess.foo", 1),
    "bundle-categories-repeated": ("bundle.json", "payload.preprocess",
                                   {"encoding": {"Prediction": ["A", "A"]}}),
    "normalization-bound-string": ("dataset.json",
                                   "payload.preprocess.normalization",
                                   [["Time", "a", 1]]),
    "normalization-repeated-column": ("dataset.json",
                                      "payload.preprocess.normalization",
                                      _REPEATED_COLUMN),
    "bundle-normalization-repeated-column": (
        "bundle.json", "payload.preprocess",
        {"normalization": _REPEATED_COLUMN}),
    "encoding-list": ("dataset.json", "payload.preprocess.encoding", [1, 2]),
    "table-sha256-number": ("dataset.json", "payload.table_sha256", 5),
    "bundle-encoding-list": ("bundle.json", "payload.preprocess",
                             {"encoding": [1, 2]}),
    "dataset-unknown-key": ("dataset.json", "payload.analyze", True),
    "bundle-unknown-key": ("bundle.json", "payload.evaluate", True),
    "bundle-unknown-component": ("bundle.json", "payload.components.lstm",
                                 {"cells": [], "head": {}}),
    "table-rows-differ": ("dataset.json", "payload.stages.table_rows", 5),
    "table-rows-missing": ("dataset.json", "payload.stages.table_rows",
                           _DELETE),
    "encoder-biases-shape": ("sae-bundle.json",
                             "payload.components.sae.encoders.0.biases",
                             array_doc(np.zeros(3), "biases")),
    "dataset-envelope-unknown-key": ("dataset.json", "foo", 1),
    "bundle-envelope-unknown-key": ("bundle.json", "foo", 1),
    # the stage counts chain
    "parsed-rows-missing": ("dataset.json", "payload.stages.parsed_rows",
                            _DELETE),
    "duplicates-removed-missing": ("dataset.json",
                                   "payload.stages.duplicates_removed",
                                   _DELETE),
    "bad-timestamps-removed-missing": (
        "dataset.json", "payload.stages.bad_timestamps_removed", _DELETE),
    "stages-unknown-key": ("dataset.json", "payload.stages.foo", 1),
    # a stored echo must hold every setting; a configuration file need not
    "dataset-echo-lacks-setting": (
        "dataset.json", "payload.config.lstm.clip_threshold", _DELETE),
    "bundle-echo-lacks-setting": (
        "sae-bundle.json", "payload.config.lstm.clip_threshold", _DELETE),
    "subsampled-rows-without-subsample": (
        "dataset.json", "payload.stages.subsampled_rows", 1),
    "subsample-without-subsampled-rows": (
        "dataset.json", "payload.config.dataset.subsample", 0.5),
    "stage-count-negative": ("dataset.json",
                             "payload.stages.duplicates_removed", -5),
    "stage-count-float": ("dataset.json", "payload.stages.parsed_rows",
                          float),
    "stage-count-bool": ("dataset.json",
                         "payload.stages.bad_timestamps_removed", False),
    "subsampled-above-parsed": ("dataset.json", "payload",
                                _subsampled_above_parsed),
    "stages-do-not-chain": ("dataset.json", "payload.stages.parsed_rows",
                            lambda n: n + 1),
    # every object inside a bundle component holds exactly its keys
    "array-doc-unknown-key": (
        "sae-bundle.json", "payload.components.sae.encoders.0.weights.foo", 1),
    "dense-layer-unknown-key": ("sae-bundle.json",
                                "payload.components.sae.encoders.0.foo", 1),
    "sae-unknown-key": ("sae-bundle.json", "payload.components.sae.foo", 1),
    "lstm-unknown-key": ("sae-bundle.json", "payload.components.lstm.foo", 1),
    "lstm-cell-unknown-key": ("sae-bundle.json",
                              "payload.components.lstm.cells.0.foo", 1),
    "lstm-head-unknown-key": ("sae-bundle.json",
                              "payload.components.lstm.head.foo", 1),
    "gbt-unknown-key": ("bundle.json", "payload.components.gbt.foo", 1),
    "tree-node-unknown-key": ("bundle.json",
                              "payload.components.gbt.trees.0.0.foo", 1),
    "tree-leaf-unknown-key": ("bundle.json", "payload.components.gbt.trees.0.0",
                              _leaf_gains_key),
    "split-node-with-weight": ("bundle.json",
                               "payload.components.gbt.trees.0.0.weight", 0.5),
}


# the cases above that add a key the file's layout does not declare
_UNKNOWN_KEYS = ("bundle-categories-repeated",
                 "bundle-normalization-repeated-column", "bundle-encoding-list",
                 "dataset-unknown-key", "bundle-unknown-key",
                 "bundle-unknown-component", "dataset-envelope-unknown-key",
                 "bundle-envelope-unknown-key", "stages-unknown-key",
                 "subsampled-rows-without-subsample", "array-doc-unknown-key",
                 "dense-layer-unknown-key", "sae-unknown-key",
                 "lstm-unknown-key", "lstm-cell-unknown-key",
                 "lstm-head-unknown-key", "gbt-unknown-key",
                 "tree-node-unknown-key")
# words the error of a case above must hold
_WORDS = {
    "parsed-rows-missing": "missing key(s) ['parsed_rows']",
    "subsample-without-subsampled-rows": "missing key(s) ['subsampled_rows']",
    "stage-count-negative": "not all non-negative ints",
    "stage-count-float": "not all non-negative ints",
    "stage-count-bool": "not all non-negative ints",
    "subsampled-above-parsed": "exceeds the",
    "dataset-echo-lacks-setting": "config echo does not hold every setting",
    "bundle-echo-lacks-setting": "config echo does not hold every setting",
    "stages-do-not-chain": "stages leave",
    "tree-leaf-unknown-key": "tree leaf: unknown key(s) ['foo']",
    "split-node-with-weight": "tree leaf: unknown key(s) "
                              "['feature', 'left', 'right', 'threshold']",
}


@pytest.mark.parametrize("case", _MALFORMED_FIELDS)
def test_malformed_stored_field_exits_3(case, artifact_dir, gbt_bundle_dir,
                                        sae_bundle_dir, tmp_path, capsys):
    name, field, value = _MALFORMED_FIELDS[case]
    art = tmp_path / "art"
    shutil.copytree(artifact_dir, art)
    bundle = tmp_path / "bundle.json"
    source = sae_bundle_dir if name == "sae-bundle.json" else gbt_bundle_dir
    shutil.copy(source / "bundle.json", bundle)
    target = art / name if name == "dataset.json" else bundle
    doc = json.loads(target.read_text())
    *parents, last = field.split(".")
    node = doc
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node[key]
    if isinstance(node, list):
        last = int(last)
    if value is _DELETE:
        del node[last]
    elif callable(value):
        node[last] = value(node[last])
    else:
        node[last] = value
    if field.startswith("payload"):
        doc["checksum"] = checksum(doc["payload"])
    dump_json(target, doc)
    command = (["analyze", str(art)] if name == "dataset.json"
               else ["evaluate", str(bundle), str(art)])
    assert main(command + ["--output", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert str(art if name == "dataset.json" else bundle) in err
    if field == "payload.schema_version":
        assert (f"schema_version {value} is not supported "
                f"(expected {SCHEMA_VERSION})") in err
    if case in _UNKNOWN_KEYS:
        assert f"unknown key(s) ['{last}']" in err
    assert _WORDS.get(case, "") in err


def object_keys(node, path="", found=None) -> dict:
    """Path -> set of key sets of the JSON objects at that path in ``node``.

    List items sit at their list's path plus "[]", and a tree node's
    ``left``/``right`` children at the node's own path.
    """
    found = {} if found is None else found
    if isinstance(node, dict):
        found.setdefault(path, set()).add(frozenset(node))
        for key, value in node.items():
            child = path if key in ("left", "right") else f"{path}.{key}"
            object_keys(value, child.lstrip("."), found)
    elif isinstance(node, list):
        for value in node:
            object_keys(value, path + "[]", found)
    return found


def _layout(paths: dict) -> dict:
    """Expected ``object_keys``: one space-separated key set per path."""
    return {path: {frozenset(keys.split())} for path, keys in paths.items()}


_ARRAY = "b64 dtype shape"
_COMMON = {
    **_layout({
        "": "checksum payload",
    }),
    **object_keys(PipelineConfig().echo(), "payload.config"),
}


def _dense(path) -> dict:
    return _layout({path: "biases weights",
                    f"{path}.weights": _ARRAY, f"{path}.biases": _ARRAY})


_STORED_LAYOUT = {
    "dataset": _layout({
        "payload": "config kind preprocess schema_version stages "
                   "table_sha256",
        "payload.preprocess": "encoding",
        "payload.preprocess.encoding": "Protocol Flag Family SeedAddress "
                                       "ExpAddress IPAddress Threats "
                                       "Prediction",
        "payload.stages": "parsed_rows duplicates_removed "
                          "bad_timestamps_removed table_rows",
    }),
    "sae-lstm": {
        **_dense("payload.components.sae.encoders[]"),
        **_layout({
            "payload": "components config kind preprocess_sha256 "
                       "schema_version",
            "payload.components": "lstm sae",
            "payload.components.sae": "encoders",
            "payload.components.lstm": "cells head",
            "payload.components.lstm.cells[]": "b w",
            "payload.components.lstm.cells[].w": _ARRAY,
            "payload.components.lstm.cells[].b": _ARRAY,
            "payload.components.lstm.head": "biases weights",
            "payload.components.lstm.head.weights": _ARRAY,
            "payload.components.lstm.head.biases": _ARRAY,
        }),
    },
    "gbt": {
        **_layout({
            "payload": "components config kind preprocess_sha256 "
                       "schema_version",
            "payload.components": "gbt",
            "payload.components.gbt": "trees",
        }),
        "payload.components.gbt.trees[][]": {
            frozenset({"weight"}),
            frozenset({"feature", "threshold", "left", "right"})},
    },
}

# no stored object below the payload, outside its config echo, may restate
# what the payload, the config echo, the target encoding or an array states
_RESTATED = {"schema_version", "component", "in_dim", "out_dim",
             "hidden_size", "input_size", "k_classes", "class_names",
             "base_score", "config", "params"}


@pytest.mark.parametrize("stored", _STORED_LAYOUT)
def test_stored_layout_states_each_fact_once(stored, artifact_dir,
                                             sae_bundle_dir, gbt_bundle_dir):
    path = {"dataset": artifact_dir / "dataset.json",
            "sae-lstm": sae_bundle_dir / "bundle.json",
            "gbt": gbt_bundle_dir / "bundle.json"}[stored]
    found = object_keys(json.loads(path.read_text()))
    assert found == {**_COMMON, **_STORED_LAYOUT[stored]}
    below = {key for where, key_sets in found.items()
             if where.startswith("payload.")
             and not where.startswith("payload.config")
             for keys in key_sets for key in keys}
    assert below & _RESTATED == set()


def test_train_missing_artifact_exits_2(tmp_path):
    assert main(["train", str(tmp_path / "nowhere"),
                 "--output", str(tmp_path / "o")]) == 2


def test_train_unwritable_output_exits_2_before_training(artifact_dir,
                                                          tmp_path,
                                                          monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(gbt, "train_gbt", lambda *a: pytest.fail("trained"))
    assert main(["train", str(artifact_dir), "--kind", "gbt",
                 "--output", str(blocker / "o")]) == 2


def test_evaluate_report_covers_test_split(sae_report_dir, artifact_dir):
    report = json.loads((sae_report_dir / "report.json").read_text())
    test_rows = load_artifact(artifact_dir).test_index.size
    assert report["total_support"] == test_rows
    supports = [row["support"] for row in report["classes"].values()]
    assert sum(supports) == test_rows
    assert 0.0 <= report["accuracy"] <= 1.0
    assert report["kind"] == "sae-lstm"
    assert report["split"] == "test"


def test_evaluate_train_split(gbt_bundle_dir, artifact_dir, tmp_path):
    out = tmp_path / "train-side"
    rc = main(["evaluate", str(gbt_bundle_dir / "bundle.json"),
               str(artifact_dir), "--split", "train", "--output", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["total_support"] == load_artifact(artifact_dir).train_index.size
    # boosted trees fit the separable training data almost perfectly
    assert report["accuracy"] >= 0.95


def test_evaluate_empty_split_exits_3(tmp_path, capsys):
    text, _ = gen.generate(3, raw_rows=300, duplicates=30, bad_times=5)
    csv_path = tmp_path / "raw.csv"
    csv_path.write_text(text, encoding="utf-8")
    art, model = tmp_path / "art", tmp_path / "gbt"
    assert main(["ingest", str(csv_path), "--test-ratio", "0.001",
                 "--output", str(art)]) == 0
    assert "test rows: 0" in capsys.readouterr().out
    assert main(["train", str(art), "--kind", "gbt", "--gbt-rounds", "1",
                 "--output", str(model)]) == 0
    capsys.readouterr()
    out = tmp_path / "o"
    assert main(["evaluate", str(model / "bundle.json"), str(art),
                 "--output", str(out)]) == 3
    assert capsys.readouterr().err == \
        "error: artifact test split holds no rows\n"
    assert not out.exists()


def test_names_holding_csv_syntax_read_back_from_every_csv(tmp_path, capsys):
    # a family holding a comma, a threat holding a quote and a class named
    # S,S, quoted in the raw CSV as the csv module writes them
    text, _ = gen.generate(5, raw_rows=600, duplicates=60, bad_times=6)
    renames = {3: {"Locky": '"Locky, v2"'}, 11: {"Spam": '"Sp""am"'},
               13: {"S": '"S,S"'}}
    header, *rows = text.split("\n")
    lines = [header]
    for line in rows:
        cells = line.split(",")
        for column, rename in renames.items():
            if len(cells) > column:
                cells[column] = rename.get(cells[column], cells[column])
        lines.append(",".join(cells))
    csv_path = tmp_path / "raw.csv"
    csv_path.write_text("\n".join(lines), encoding="utf-8")
    art, model = tmp_path / "art", tmp_path / "gbt"
    analysis, report, comparison = (tmp_path / "analysis", tmp_path / "report",
                                    tmp_path / "comparison")
    assert main(["ingest", str(csv_path), "--output", str(art)]) == 0
    assert main(["analyze", str(art), "--output", str(analysis)]) == 0
    # stdout lists the top families as CSV cells, quoted as the files are
    top = capsys.readouterr().out.split("top families by total USD: ")[1]
    assert next(csv.reader([top.split("\n")[0]], skipinitialspace=True)) \
        == ["WannaCry", "Locky, v2", "SamSam"]
    assert main(["train", str(art), "--kind", "gbt", "--gbt-rounds", "1",
                 "--output", str(model)]) == 0
    assert main(["evaluate", str(model / "bundle.json"), str(art),
                 "--output", str(report)]) == 0
    assert main(["compare", str(report / "report.json"),
                 str(report / "report.json"), "--name-a", "a,b",
                 "--output", str(comparison)]) == 0
    capsys.readouterr()
    tables = {}
    for path in [*analysis.glob("*.csv"), *report.glob("*.csv"),
                 *comparison.glob("*.csv")]:
        with path.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert {len(row) for row in rows} == {len(rows[0])}, path.name
        tables[path.name] = rows

    def column(name):
        return [row[0] for row in tables[name]]

    assert "Locky, v2" in column("financial.csv")
    assert "Locky, v2" in column("anomalies.csv")
    assert 'Sp"am' in column("distribution.csv")
    assert "S,S" in column("report.csv")
    assert tables["confusion.csv"][0] == ["true\\predicted", "A", "S,S", "SS"]
    assert column("confusion.csv") == ["true\\predicted", "A", "S,S", "SS"]
    assert tables["comparison.csv"][0][1] == "a,b"
    assert "f1[S,S]" in column("comparison.csv")


@pytest.mark.parametrize("state", ["bounds", "encoding"])
def test_evaluate_against_another_artifact_exits_3(state, synthetic_csv,
                                                   artifact_dir,
                                                   gbt_bundle_dir, tmp_path,
                                                   capsys):
    """A bundle is refused by an artifact with other normalization bounds
    (the same CSV split before dedup, so other training rows) or another
    encoding (one more category no row holds)."""
    art = tmp_path / "art"
    if state == "bounds":
        assert main(["ingest", str(synthetic_csv[0]), "--output", str(art),
                     "--split-before-dedup"]) == 0
        assert read_payload(art)["preprocess"] \
            == read_payload(artifact_dir)["preprocess"]
        trained_on = load_artifact(artifact_dir).bounds
        assert not all(map(np.array_equal, load_artifact(art).bounds,
                           trained_on))
    else:
        shutil.copytree(artifact_dir, art)
        payload = read_payload(art)
        payload["preprocess"]["encoding"]["Threats"].append("~")
        dump_json(art / "dataset.json",
                  {"checksum": checksum(payload), "payload": payload})
    capsys.readouterr()
    bundle = gbt_bundle_dir / "bundle.json"
    assert main(["evaluate", str(bundle), str(art),
                 "--output", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bundle}: ")
    assert "disagree on preprocessing state" in err


def test_evaluate_tampered_bundle_exits_3(sae_bundle_dir, artifact_dir,
                                          tmp_path):
    original = (sae_bundle_dir / "bundle.json").read_text()
    tampered = tmp_path / "bundle.json"
    tampered.write_text(original.replace('"kind": "sae-lstm"',
                                         '"kind": "sae-lstm "', 1),
                        encoding="utf-8")
    assert tampered.read_text() != original
    rc = main(["evaluate", str(tampered), str(artifact_dir),
               "--output", str(tmp_path / "o")])
    assert rc == 3


def test_evaluate_per_gate_bundle_exits_3(sae_bundle_dir, artifact_dir,
                                          tmp_path, capsys):
    # a bundle in the older per-gate cell layout, with a valid checksum
    doc = json.loads((sae_bundle_dir / "bundle.json").read_text())
    payload = doc["payload"]
    for cell in payload["components"]["lstm"]["cells"]:
        w = array_from_doc(cell.pop("w"))
        b = array_from_doc(cell.pop("b"))
        hidden = w.shape[0] // 4
        for n, name in enumerate("ifoc"):
            cell[f"w_{name}"] = array_doc(w[n * hidden:(n + 1) * hidden], "w")
            cell[f"b_{name}"] = array_doc(b[n * hidden:(n + 1) * hidden], "b")
    old = tmp_path / "bundle.json"
    dump_json(old, {"checksum": checksum(payload), "payload": payload})
    rc = main(["evaluate", str(old), str(artifact_dir),
               "--output", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err == (
        f"error: {old}: invalid model bundle: lstm cell: missing key(s) "
        f"['b', 'w'], unknown key(s) ['b_c', 'b_f', 'b_i', 'b_o', 'w_c', "
        f"'w_f', 'w_i', 'w_o']\n")


def _rewrite_bundle(source, target, edit):
    """Copy a bundle with ``edit`` applied to its payload, checksum recomputed."""
    payload = json.loads(source.read_text())["payload"]
    edit(payload)
    dump_json(target, {"checksum": checksum(payload), "payload": payload})


# per component: a key to drop, and an integer field to give a string
_DROPPED = {"sae": "activation", "lstm": "clip_threshold", "gbt": "lambda"}
_INTEGER = {"sae": "batch_size", "lstm": "hidden_size", "gbt": "max_depth"}


@pytest.mark.parametrize("component", ["sae", "lstm", "gbt"])
@pytest.mark.parametrize("edit", ["unknown-key", "dropped-key", "bad-value"])
def test_evaluate_tampered_stored_config_exits_3(component, edit,
                                                 sae_bundle_dir,
                                                 gbt_bundle_dir, artifact_dir,
                                                 tmp_path, capsys):
    def change(payload):
        settings = payload["config"][component]
        if edit == "unknown-key":
            settings["hiden_size"] = 8
        elif edit == "dropped-key":
            del settings[_DROPPED[component]]
        else:
            settings[_INTEGER[component]] = "x"

    source = gbt_bundle_dir if component == "gbt" else sae_bundle_dir
    bundle = tmp_path / "bundle.json"
    _rewrite_bundle(source / "bundle.json", bundle, change)
    rc = main(["evaluate", str(bundle), str(artifact_dir),
               "--output", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bundle) in err


def _widen_head(payload):
    """One more LSTM head output, which never wins: zero weights, bias -1e3."""
    head = payload["components"]["lstm"]["head"]
    weights = array_from_doc(head["weights"])
    head["weights"] = array_doc(np.vstack([weights, np.zeros(weights.shape[1])]),
                                "weights")
    head["biases"] = array_doc(np.append(array_from_doc(head["biases"]), -1e3),
                               "biases")


def _narrow_first_encoder(payload):
    """Drop the first input column of the first SAE encoder's weights."""
    layer = payload["components"]["sae"]["encoders"][0]
    layer["weights"] = array_doc(array_from_doc(layer["weights"])[:, 1:],
                                 "weights")


# a bundle kind -> an edit after which the stored weights contradict the
# config echo's stage settings, the feature count or the class list (the
# fixture bundles:
# encoder dims 75/50/13, one 16-wide LSTM layer, 3 classes)
_CONTRADICTED = {
    "lstm-hidden-size": ("sae-lstm", lambda p: p["config"]["lstm"].update(
        hidden_size=8)),
    "lstm-num-layers": ("sae-lstm", lambda p: p["config"]["lstm"].update(
        num_layers=2)),
    "sae-encoder-dims": ("sae-lstm", lambda p: p["config"]["sae"].update(
        encoder_dims=[75, 50, 12])),
    "gbt-k-classes": ("gbt", lambda p: p["components"]["gbt"]["trees"].pop()),
    "gbt-tree-dropped": ("gbt", lambda p: p["components"]["gbt"]["trees"][0]
                         .pop()),
    "gbt-tree-repeated": ("gbt", lambda p: p["components"]["gbt"]["trees"][1]
                          .append(p["components"]["gbt"]["trees"][1][0])),
    "lstm-head-width": ("sae-lstm", _widen_head),
    "sae-encoder-inputs": ("sae-lstm", _narrow_first_encoder),
}


@pytest.mark.parametrize("case", _CONTRADICTED)
def test_evaluate_config_contradicting_weights_exits_3(case, sae_bundle_dir,
                                                       gbt_bundle_dir,
                                                       artifact_dir, tmp_path,
                                                       capsys):
    kind, change = _CONTRADICTED[case]
    source = gbt_bundle_dir if kind == "gbt" else sae_bundle_dir
    bundle = tmp_path / "bundle.json"
    _rewrite_bundle(source / "bundle.json", bundle, change)
    rc = main(["evaluate", str(bundle), str(artifact_dir),
               "--output", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bundle) in err


def test_two_class_gbt_bundle_has_two_tree_lists(synthetic_csv, tmp_path,
                                                 capsys):
    def drop_ss(data):
        return b"\n".join(line for line in data.split(b"\n")
                          if not line.endswith(b",SS"))

    csv_path = _edited_csv(synthetic_csv, tmp_path, drop_ss)
    art, out = tmp_path / "art", tmp_path / "gbt"
    assert main(["ingest", str(csv_path), "--output", str(art)]) == 0
    assert main(["train", str(art), "--kind", "gbt", "--gbt-rounds", "2",
                 "--output", str(out)]) == 0
    payload = json.loads((out / "bundle.json").read_text())["payload"]
    assert len(payload["components"]["gbt"]["trees"]) == 2
    assert main(["evaluate", str(out / "bundle.json"), str(art),
                 "--output", str(tmp_path / "e")]) == 0
    capsys.readouterr()


def test_evaluate_unknown_layer_activation_exits_3(sae_bundle_dir,
                                                   artifact_dir, tmp_path,
                                                   capsys):
    def change(payload):
        payload["config"]["sae"]["activation"] = "foo"

    bundle = tmp_path / "bundle.json"
    _rewrite_bundle(sae_bundle_dir / "bundle.json", bundle, change)
    rc = main(["evaluate", str(bundle), str(artifact_dir),
               "--output", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'foo'" in err


def test_evaluate_0d_encoder_weights_exits_3(sae_bundle_dir, artifact_dir,
                                             tmp_path, capsys):
    def change(payload):
        layer = payload["components"]["sae"]["encoders"][0]
        layer["weights"] = array_doc(np.float64(0.5), "weights")

    bundle = tmp_path / "bundle.json"
    _rewrite_bundle(sae_bundle_dir / "bundle.json", bundle, change)
    rc = main(["evaluate", str(bundle), str(artifact_dir),
               "--output", str(tmp_path / "o")])
    assert rc == 3
    assert capsys.readouterr().err == (f"error: {bundle}: invalid model "
                                       f"bundle: weights must be 2-d, got ()\n")


def test_evaluate_lstm_cell_without_bias_exits_3(sae_bundle_dir, artifact_dir,
                                                 tmp_path, capsys):
    def change(payload):
        del payload["components"]["lstm"]["cells"][0]["b"]

    bundle, out = tmp_path / "bundle.json", tmp_path / "o"
    _rewrite_bundle(sae_bundle_dir / "bundle.json", bundle, change)
    assert main(["evaluate", str(bundle), str(artifact_dir),
                 "--output", str(out)]) == 3
    assert capsys.readouterr().err == (f"error: {bundle}: invalid model "
                                       f"bundle: lstm cell: missing key(s) "
                                       f"['b']\n")
    assert not out.exists()


def _nan_first(doc):
    raw = bytearray(base64.b64decode(doc["b64"]))
    raw[:8] = np.array([np.nan], dtype="<f8").tobytes()
    return {**doc, "b64": base64.b64encode(raw).decode("ascii")}


# stored head weights of the lstm component -> what replaces them
_BAD_ARRAYS = {
    "float32-dtype": lambda doc: {**doc, "dtype": "<f4"},
    "shape-not-a-list": lambda doc: {**doc, "shape": "3x16"},
    "negative-shape": lambda doc: {**doc, "shape": [-doc["shape"][0],
                                                    doc["shape"][1]]},
    "bool-shape": lambda doc: {**doc, "shape": [True, 1]},
    "invalid-base64": lambda doc: {**doc, "b64": "*" + doc["b64"][1:]},
    "missing-b64": lambda doc: {k: v for k, v in doc.items() if k != "b64"},
    "byte-count": lambda doc: {**doc, "shape": [doc["shape"][0],
                                                doc["shape"][1] - 1]},
    "nan-value": _nan_first,
    "nested-lists": lambda doc: array_from_doc(doc).tolist(),
}


@pytest.mark.parametrize("case", _BAD_ARRAYS, ids=list(_BAD_ARRAYS))
def test_evaluate_crafted_bundle_array_exits_3(case, sae_bundle_dir,
                                               artifact_dir, tmp_path, capsys):
    def change(payload):
        head = payload["components"]["lstm"]["head"]
        head["weights"] = _BAD_ARRAYS[case](head["weights"])

    bundle = tmp_path / "bundle.json"
    _rewrite_bundle(sae_bundle_dir / "bundle.json", bundle, change)
    rc = main(["evaluate", str(bundle), str(artifact_dir),
               "--output", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bundle) in err
    assert "invalid model bundle" in err


def test_evaluate_version_1_bundle_exits_3(sae_bundle_dir, artifact_dir,
                                           tmp_path, capsys):
    def to_version_1(node):
        """Weights back as nested lists, every schema_version set to 1."""
        if isinstance(node, dict):
            if set(node) == {"dtype", "shape", "b64"}:
                return array_from_doc(node).tolist()
            return {key: 1 if key == "schema_version" else to_version_1(value)
                    for key, value in node.items()}
        if isinstance(node, list):
            return [to_version_1(value) for value in node]
        return node

    def change(payload):
        payload.update(to_version_1(payload))

    bundle = tmp_path / "bundle.json"
    _rewrite_bundle(sae_bundle_dir / "bundle.json", bundle, change)
    assert '"b64"' not in bundle.read_text()
    rc = main(["evaluate", str(bundle), str(artifact_dir),
               "--output", str(tmp_path / "o")])
    assert rc == 3
    assert "schema_version 1 is not supported" in capsys.readouterr().err


def test_evaluate_schema_8_bundle_exits_3(sae_bundle_dir, artifact_dir,
                                          tmp_path, capsys):
    """Schema 8 stored the CSV path and the output directory in the echo."""
    def to_version_8(payload):
        payload["schema_version"] = 8
        payload["config"]["output_dir"] = "out"
        payload["config"]["dataset"]["csv"] = "raw.csv"

    bundle = tmp_path / "bundle.json"
    _rewrite_bundle(sae_bundle_dir / "bundle.json", bundle, to_version_8)
    rc = main(["evaluate", str(bundle), str(artifact_dir),
               "--output", str(tmp_path / "o")])
    assert rc == 3
    assert "schema_version 8 is not supported (expected 9)" \
        in capsys.readouterr().err


def test_train_with_non_finite_weight_exits_3(artifact_dir, tmp_path, capsys,
                                              monkeypatch):
    train_classifier = lstm.train_classifier

    def diverge(*args, **kwargs):
        classifier, history = train_classifier(*args, **kwargs)
        classifier.head.weights[0, 0] = np.nan
        return classifier, history

    monkeypatch.setattr(lstm, "train_classifier", diverge)
    out = tmp_path / "o"
    rc = main(["train", str(artifact_dir), "--kind", "sae-lstm",
               "--output", str(out), "--sae-epochs", "1", "--lstm-epochs", "1",
               "--lstm-hidden", "4"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "dense layer weights" in err
    assert "non-finite" in err
    assert not (out / "bundle.json").exists()


def test_train_that_diverges_names_the_stage_and_epoch(artifact_dir, tmp_path,
                                                       capsys, recwarn):
    config = tmp_path / "diverge.json"
    config.write_text(json.dumps({"sae": {"learning_rate": 1e300},
                                  "lstm": {"learning_rate": 1e300}}))
    out = tmp_path / "o"
    rc = main(["train", str(artifact_dir), "--kind", "sae-lstm",
               "--config", str(config), "--output", str(out),
               "--sae-epochs", "1", "--lstm-epochs", "1",
               "--lstm-hidden", "4"])
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: SAE pretraining: epoch 0: the loss is not finite\n")
    assert [w for w in recwarn if w.category is RuntimeWarning] == []
    assert not (out / "bundle.json").exists()


def test_refused_train_removes_only_the_directories_it_made(artifact_dir,
                                                            tmp_path, capsys):
    config = tmp_path / "diverge.json"
    config.write_text(json.dumps({"sae": {"learning_rate": 1e300},
                                  "lstm": {"learning_rate": 1e300}}))
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("mine")
    for out in (tmp_path / "div" / "new" / "o", tmp_path / "up" / ".." / "o",
                kept / "sub" / "o", kept):
        rc = main(["train", str(artifact_dir), "--kind", "sae-lstm",
                   "--config", str(config), "--output", str(out),
                   "--sae-epochs", "1", "--lstm-epochs", "1",
                   "--lstm-hidden", "4"])
        assert rc == 3
        assert "the loss is not finite" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["diverge.json",
                                                          "kept"]
    assert sorted(p.name for p in kept.iterdir()) == ["notes.txt"]
    assert (kept / "notes.txt").read_text() == "mine"


def test_stored_lstm_head_is_a_dense_layer_document(artifact_dir, tmp_path,
                                                    monkeypatch):
    trained = []
    train_classifier = lstm.train_classifier

    def keep(*args, **kwargs):
        classifier, history = train_classifier(*args, **kwargs)
        trained.append(classifier)
        return classifier, history

    monkeypatch.setattr(lstm, "train_classifier", keep)
    out = tmp_path / "o"
    assert main(["train", str(artifact_dir), "--kind", "sae-lstm",
                 "--output", str(out), "--sae-epochs", "1",
                 "--lstm-epochs", "1", "--lstm-hidden", "4"]) == 0
    payload = json.loads((out / "bundle.json").read_text())["payload"]
    assert payload["components"]["lstm"]["head"] == nn.layer_to_dict(
        trained[0].head)


def _diverged_sae(apply):
    # the decoders' pass is the stack's reconstruction, whose loss
    # build_stack computes after the last layer pretrained
    def reconstruct(layers, x, *out):
        result = apply(layers, x, *out)
        if layers[0].activation == "linear":
            result[:] = np.nan
        return result
    return reconstruct


def _diverged_gbt(softmax):
    # the probabilities the last of 2 rounds' loss (step 2) is taken of
    calls = []

    def probs(raw):
        calls.append(1)
        return softmax(raw) * (np.nan if len(calls) == 3 else 1.0)
    return probs


@pytest.mark.parametrize("kind,module,name,diverge,error", [
    ("sae-lstm", sae, "apply", _diverged_sae,
     "SAE pretraining: stack reconstruction: the loss is not finite"),
    ("gbt", gbt, "softmax", _diverged_gbt,
     "boosting: round 2: the loss is not finite"),
], ids=["sae-lstm-stack", "gbt-round"])
def test_train_with_non_finite_scalar_exits_3(kind, module, name, diverge,
                                              error, artifact_dir, tmp_path,
                                              capsys, monkeypatch):
    monkeypatch.setattr(module, name, diverge(getattr(module, name)))
    out = tmp_path / "o"
    rc = main(["train", str(artifact_dir), "--kind", kind,
               "--output", str(out), "--sae-epochs", "1", "--lstm-epochs", "1",
               "--lstm-hidden", "4", "--gbt-rounds", "2"])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {error}")
    assert not (out / "bundle.json").exists()


def test_diverging_boosting_stops_at_the_round_its_loss_is_not_finite(
        tmp_path, capsys, monkeypatch, recwarn):
    # unregularized full-step Newton leaves: a leaf weight overflows and the
    # loss after round 19 is NaN
    text, _ = gen.generate(7, raw_rows=3000, duplicates=300, bad_times=20)
    (tmp_path / "raw.csv").write_text(text, encoding="utf-8")
    art = tmp_path / "art"
    assert main(["ingest", str(tmp_path / "raw.csv"), "--output",
                 str(art)]) == 0
    config = tmp_path / "diverge.json"
    config.write_text(json.dumps({"gbt": {
        "lambda": 0.0, "min_child_hessian": 0.0, "shrinkage": 1.0}}))
    grad_hess = gbt.grad_hess
    rounds = []
    monkeypatch.setattr(gbt, "grad_hess",
                        lambda *a: rounds.append(1) or grad_hess(*a))
    capsys.readouterr()
    out = tmp_path / "new" / "o"
    rc = main(["train", str(art), "--kind", "gbt", "--gbt-rounds", "30",
               "--config", str(config), "--output", str(out)])
    assert rc == 3
    assert capsys.readouterr().err == (
        "error: boosting: round 19: the loss is not finite\n")
    assert len(rounds) == 19  # no tree is grown after that round
    assert [w for w in recwarn if w.category is RuntimeWarning] == []
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("target,text", [
    ("dataset.json", '{"checksum": "'),
    ("bundle.json", '{"checksum": "'),
    ("dataset.json", "[]"),
    ("bundle.json", '{"checksum": "0", "payload": []}'),
    ("bundle.json", '{"checksum": "0", "payload": {"w": NaN}}'),
    ("dataset.json", '{"checksum": "0", "payload": {"w": 1e400}}'),
    ("bundle.json", '{"checksum": "0", "payload": {"w": -1e400}}'),
], ids=["truncated-dataset", "truncated-bundle", "list-root",
        "list-payload", "nan-payload", "overflow-dataset", "overflow-bundle"])
def test_corrupt_json_envelope_exits_3(target, text, artifact_dir,
                                       gbt_bundle_dir, tmp_path, capsys):
    art = tmp_path / "art"
    shutil.copytree(artifact_dir, art)
    bundle = tmp_path / "bundle.json"
    shutil.copy(gbt_bundle_dir / "bundle.json", bundle)
    corrupt = art / target if target == "dataset.json" else bundle
    corrupt.write_text(text, encoding="utf-8")
    if target == "dataset.json":
        argv = ["analyze", str(art), "--output", str(tmp_path / "o")]
    else:
        argv = ["evaluate", str(bundle), str(art), "--output", str(tmp_path / "o")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(corrupt) in err


def test_evaluate_missing_bundle_exits_2(artifact_dir, tmp_path):
    assert main(["evaluate", str(tmp_path / "no.json"), str(artifact_dir),
                 "--output", str(tmp_path / "o")]) == 2


def test_compare_two_reports(sae_report_dir, gbt_report_dir, tmp_path,
                             capsys):
    out = tmp_path / "cmp"
    rc = main(["compare", str(sae_report_dir / "report.json"),
               str(gbt_report_dir / "report.json"), "--output", str(out)])
    assert rc == 0
    doc = json.loads((out / "comparison.json").read_text())
    assert doc["model_a"] == "sae-lstm"
    assert doc["model_b"] == "gbt"
    rep_a = json.loads((sae_report_dir / "report.json").read_text())
    rep_b = json.loads((gbt_report_dir / "report.json").read_text())
    acc_row = next(r for r in doc["rows"] if r["metric"] == "accuracy")
    assert abs(acc_row["delta"] - (rep_a["accuracy"] - rep_b["accuracy"])) < 1e-12
    assert "accuracy" in capsys.readouterr().out


def test_compare_same_report_dedupes_names(sae_report_dir, tmp_path, capsys):
    out = tmp_path / "self"
    rc = main(["compare", str(sae_report_dir / "report.json"),
               str(sae_report_dir / "report.json"), "--output", str(out)])
    assert rc == 0
    doc = json.loads((out / "comparison.json").read_text())
    assert doc["model_a"] == "sae-lstm-a"
    assert doc["model_b"] == "sae-lstm-b"
    assert all(row["delta"] == 0.0 for row in doc["rows"])
    capsys.readouterr()


def test_compare_rejects_non_report_json(sae_report_dir, tmp_path):
    junk = tmp_path / "junk.json"
    junk.write_text("{}", encoding="utf-8")
    assert main(["compare", str(junk), str(sae_report_dir / "report.json"),
                 "--output", str(tmp_path / "o")]) == 3
    text = tmp_path / "plain.json"
    text.write_text("hello", encoding="utf-8")
    assert main(["compare", str(text), str(sae_report_dir / "report.json"),
                 "--output", str(tmp_path / "o")]) == 3


@pytest.mark.parametrize("command, code", [("compare", 3), ("train", 1)])
def test_json_nested_too_deeply_is_refused(command, code, artifact_dir,
                                           tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    out = tmp_path / "o"
    if command == "compare":
        argv = ["compare", str(deep), str(deep)]
    else:
        argv = ["train", str(artifact_dir), "--config", str(deep)]
    assert main([*argv, "--output", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"error: {deep}: not valid JSON (maximum recursion")
    assert not out.exists()


@pytest.mark.parametrize("edit", [
    lambda doc: [],
    lambda doc: {**doc, "classes": []},
    lambda doc: {**doc, "classes": {name: 0.5 for name in doc["classes"]}},
    lambda doc: {**doc, "accuracy": "high"},
    lambda doc: {**doc, "kind": 5},
    lambda doc: {**doc, "kind": ["x"]},
    lambda doc: {**doc, "macro": {**doc["macro"], "support": 1}},
    lambda doc: {**doc, "classes": {**doc["classes"],
                                    "ZZ": doc["classes"]["SS"]}},
    lambda doc: {**doc, "class_order": doc["class_order"] + ["SS"]},
    lambda doc: {key: v for key, v in doc.items() if key != "class_order"},
    lambda doc: {**doc, "zero_division": "SS"},
    lambda doc: {**doc, "zero_division": ["ZZ"]},
    lambda doc: {**doc, "mutant": 0},
    lambda doc: {key: v for key, v in doc.items() if key != "kind"},
    lambda doc: {**doc, "kind": "svm"},
    lambda doc: {key: v for key, v in doc.items() if key != "split"},
    lambda doc: {**doc, "split": "validation"},
], ids=["list-root", "classes-list", "class-scores-number", "accuracy-string",
        "kind-number", "kind-list", "macro-extra-key", "classes-extra-key",
        "class-order-repeated", "class-order-missing", "zero-division-string",
        "zero-division-unknown-class", "extra-top-level-key", "kind-missing",
        "kind-unknown", "split-missing", "split-unknown"])
def test_compare_malformed_report_exits_3(edit, sae_report_dir, tmp_path,
                                          capsys):
    good = sae_report_dir / "report.json"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(json.loads(good.read_text()))),
                   encoding="utf-8")
    rc = main(["compare", str(bad), str(good), "--output", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err


@pytest.mark.parametrize("flag", ["--name-a", "--name-b"])
@pytest.mark.parametrize("name", ["metric", "delta", "winner"])
def test_compare_refuses_a_name_equal_to_a_column(flag, name, sae_report_dir,
                                                  gbt_report_dir, tmp_path,
                                                  capsys):
    out = tmp_path / "o"
    rc = main(["compare", str(sae_report_dir / "report.json"),
               str(gbt_report_dir / "report.json"), flag, name,
               "--output", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} {name!r}")
    assert not out.exists()


def test_analyze_outputs(artifact_dir, synthetic_csv, tmp_path, capsys):
    _, meta = synthetic_csv
    out = tmp_path / "analysis"
    rc = main(["analyze", str(artifact_dir), "--output", str(out)])
    assert rc == 0
    doc = json.loads((out / "analysis.json").read_text())
    assert doc["rows"] == meta["clean_rows"]
    pct_total = sum(e["percent"] for e in doc["distribution"]["entries"])
    assert abs(pct_total - 100.0) < 1e-9
    assert len(doc["top_families_total_usd"]) == 3
    anomaly_total = sum(c for _, c in doc["anomalies_by_family"])
    assert anomaly_total == meta["per_class"]["A"]
    assert "top families by total USD" in capsys.readouterr().out


def run_twice_identical(argv, out_dir):
    assert main(argv) == 0
    first = snapshot(out_dir)
    assert main(argv) == 0
    assert snapshot(out_dir) == first
    return first


def test_ingest_is_byte_deterministic(synthetic_csv, tmp_path):
    csv_path, _ = synthetic_csv
    out = tmp_path / "art"
    run_twice_identical(["ingest", str(csv_path), "--output", str(out),
                         "--seed", "3"], out)


def test_train_is_byte_deterministic(artifact_dir, tmp_path):
    gbt_out = tmp_path / "g"
    run_twice_identical(["train", str(artifact_dir), "--kind", "gbt",
                         "--output", str(gbt_out), "--gbt-rounds", "3",
                         "--seed", "5"], gbt_out)
    sae_out = tmp_path / "s"
    run_twice_identical(["train", str(artifact_dir), "--kind", "sae-lstm",
                         "--output", str(sae_out), "--sae-epochs", "2",
                         "--lstm-epochs", "2", "--lstm-hidden", "8",
                         "--seed", "5"], sae_out)


def test_stored_files_record_no_path(synthetic_csv, tmp_path, capsys):
    """The same CSV bytes read from two paths and written into two
    directories give the same bytes in every stored file."""
    runs = []
    for side in ("a", "b"):
        csv = tmp_path / side / "raw.csv"
        csv.parent.mkdir()
        shutil.copyfile(synthetic_csv[0], csv)
        out = tmp_path / f"out-{side}"
        argvs = [
            ["ingest", str(csv), "--output", str(out / "art"), "--seed", "3"],
            ["train", str(out / "art"), "--kind", "sae-lstm", "--output",
             str(out / "sae"), "--sae-epochs", "1", "--lstm-epochs", "1",
             "--lstm-hidden", "4"],
            ["train", str(out / "art"), "--kind", "gbt", "--output",
             str(out / "gbt"), "--gbt-rounds", "1"],
            ["evaluate", str(out / "gbt" / "bundle.json"), str(out / "art"),
             "--output", str(out / "eval")],
            ["compare", str(out / "eval" / "report.json"),
             str(out / "eval" / "report.json"), "--output", str(out / "cmp")],
            ["analyze", str(out / "art"), "--output", str(out / "analysis")]]
        assert [main(argv) for argv in argvs] == [0] * len(argvs)
        runs.append({(d.name, name): content for d in sorted(out.iterdir())
                     for name, content in snapshot(d).items()})
    capsys.readouterr()
    assert runs[0] == runs[1]
    assert {"dataset.json", "table.npz", "bundle.json", "report.json",
            "comparison.json", "analysis.json"} <= {name for _, name in runs[0]}
    assert not any(str(tmp_path).encode() in content
                   for content in runs[0].values())


@pytest.mark.parametrize("argv,stored", [
    (["ingest", "{csv}", "--seed", "5", "--test-ratio", "0.3",
      "--split-before-dedup"], "dataset.json"),
    (["train", "{art}", "--kind", "sae-lstm", "--sae-epochs", "2",
      "--lstm-epochs", "2", "--lstm-hidden", "8", "--fine-tune", "--seed", "7"],
     "bundle.json"),
    (["train", "{art}", "--kind", "gbt", "--gbt-rounds", "3", "--seed", "5"],
     "bundle.json"),
], ids=["ingest", "sae-lstm-fine-tune", "gbt"])
def test_stored_config_replays_as_config_file(argv, stored, synthetic_csv,
                                              artifact_dir, tmp_path, capsys):
    """The config echo of a written file, given back as --config with only
    the positional arguments, --kind and --output, writes the same bytes."""
    out = tmp_path / "o"
    argv = [arg.format(csv=synthetic_csv[0], art=artifact_dir) for arg in argv]
    assert main(argv + ["--output", str(out)]) == 0
    first = snapshot(out)
    config = tmp_path / "config.json"
    dump_json(config, json.loads(first[stored])["payload"]["config"])
    shutil.rmtree(out)
    replay = argv[:2] + (argv[2:4] if argv[2] == "--kind" else [])
    assert main(replay + ["--config", str(config), "--output", str(out)]) == 0
    capsys.readouterr()
    assert snapshot(out) == first


def explicit_sae_lstm(argv, out):
    """The sae-lstm training pipeline step by step, encoding the training
    rows again after build_stack (and fine_tune) instead of reusing codes."""
    args = cli.build_parser().parse_args(argv)
    cfg = cli._load_pipeline_config(args)
    artifact = load_artifact(args.artifact)
    x, y = artifact.side("train")
    k = len(artifact.table.maps["Prediction"])
    model = sae.build_stack(x, cfg.sae, cfg.seed_for("sae"))
    if cfg.fine_tune:
        sae.fine_tune(model, x, y, k, cfg.seed_for("sae"))
    codes = sae.encode(model.encoders, x)
    classifier, records = lstm.train_classifier(codes, y, cfg.lstm,
                                                cfg.seed_for("lstm"), k)
    out.mkdir(parents=True)
    save_bundle(out / "bundle.json", "sae-lstm", cfg.echo(), artifact,
                {"sae": sae.model_to_dict(model),
                 "lstm": lstm.model_to_dict(classifier, codes.shape[1])})
    (out / "sae_history.csv").write_text(sae.history_csv(model),
                                         encoding="utf-8")
    (out / "lstm_history.csv").write_text(lstm.history_csv(records),
                                          encoding="utf-8")


@pytest.mark.parametrize("fine_tune", [False, True])
def test_train_reuses_codes_byte_identically(fine_tune, artifact_dir,
                                             tmp_path, monkeypatch, capsys):
    out = tmp_path / "o"
    argv = ["train", str(artifact_dir), "--kind", "sae-lstm",
            "--output", str(out), "--sae-epochs", "2", "--lstm-epochs", "2",
            "--lstm-hidden", "8", "--seed", "7"]
    argv += ["--fine-tune"] if fine_tune else []
    explicit_sae_lstm(argv, out)
    expected = snapshot(out)
    shutil.rmtree(out)
    encode = sae.encode
    calls = []
    monkeypatch.setattr(sae, "encode",
                        lambda *a: calls.append(1) or encode(*a))
    assert main(argv) == 0
    capsys.readouterr()
    got = snapshot(out)
    got.pop("fine_tune_history.csv", None)
    assert got == expected
    assert set(got) == {"bundle.json", "sae_history.csv", "lstm_history.csv"}
    # only fine-tuning changes the encoders after build_stack encoded
    assert len(calls) == int(fine_tune)


def test_evaluate_compare_analyze_byte_deterministic(
        gbt_bundle_dir, artifact_dir, sae_report_dir, gbt_report_dir,
        tmp_path, capsys):
    eval_out = tmp_path / "e"
    run_twice_identical(["evaluate", str(gbt_bundle_dir / "bundle.json"),
                         str(artifact_dir), "--output", str(eval_out)],
                        eval_out)
    cmp_out = tmp_path / "c"
    run_twice_identical(["compare", str(sae_report_dir / "report.json"),
                         str(gbt_report_dir / "report.json"),
                         "--output", str(cmp_out)], cmp_out)
    an_out = tmp_path / "a"
    run_twice_identical(["analyze", str(artifact_dir),
                         "--output", str(an_out)], an_out)
    capsys.readouterr()
