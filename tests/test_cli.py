"""End-to-end command-line runs: artifacts, bundles, reports, exit codes."""

import json
import shutil

import pytest

from ransomflow.cli import main
from ransomflow.serialize import checksum, dump_json

INGEST_FILES = ("dataset.json", "stats.json", "stats.txt", "table.csv")


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


def test_ingest_writes_expected_files(artifact_dir):
    assert tuple(snapshot(artifact_dir)) == INGEST_FILES


def test_ingest_stage_counts_match_fixture(synthetic_csv, artifact_dir):
    _, meta = synthetic_csv
    payload = read_payload(artifact_dir)
    stages = payload["stages"]
    assert stages["parsed_rows"] == meta["total_rows"]
    assert stages["duplicates_removed"] == meta["duplicates"]
    assert stages["bad_timestamps_removed"] == meta["bad_times"]
    assert stages["table_rows"] == meta["clean_rows"]
    split = payload["split"]
    assert split["train_rows"] + split["test_rows"] == meta["clean_rows"]
    assert payload["class_names"] == list(meta["classes"])
    assert payload["k_classes"] == 3
    # 0.25 of each class held out, rounded half up
    per_class = next(iter(meta["per_class"].values()))
    assert split["test_rows"] == 3 * round(per_class * 0.25)


def test_ingest_table_csv_has_config_header(artifact_dir):
    first = (artifact_dir / "table.csv").read_text().splitlines()[0]
    assert first.startswith("# config:")
    assert '"seed":11' in first.replace(" ", "")


def test_ingest_missing_csv_exits_2(tmp_path):
    rc = main(["ingest", str(tmp_path / "absent.csv"),
               "--output", str(tmp_path / "o")])
    assert rc == 2


def test_ingest_ragged_csv_exits_3(tmp_path):
    bad = tmp_path / "bad.csv"
    header = ("Time,Protocol,Flag,Family,Clusters,SeedAddress,ExpAddress,"
              "BTC,USD,NetflowBytes,IPAddress,Threats,Port,Prediction")
    bad.write_text(header + "\n1,TCP,A,WannaCry,2\n", encoding="utf-8")
    assert main(["ingest", str(bad), "--output", str(tmp_path / "o")]) == 3


def test_ingest_header_only_exits_3(tmp_path):
    empty = tmp_path / "empty.csv"
    header = ("Time,Protocol,Flag,Family,Clusters,SeedAddress,ExpAddress,"
              "BTC,USD,NetflowBytes,IPAddress,Threats,Port,Prediction")
    empty.write_text(header + "\n", encoding="utf-8")
    assert main(["ingest", str(empty), "--output", str(tmp_path / "o")]) == 3


def test_usage_problems_exit_1(tmp_path, capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["ingest", "x.csv", "--no-such-flag"]) == 1
    assert main(["train", "art", "--kind", "nonsense"]) == 1
    assert main(["ingest", "x.csv", "--test-ratio", "1.5"]) == 1
    capsys.readouterr()


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
    assert payload["split"]["test_rows"] == meta["clean_rows"] // 2

    typo = tmp_path / "typo.json"
    typo.write_text('{"sead": 1}', encoding="utf-8")
    assert main(["ingest", str(csv_path), "--config", str(typo),
                 "--output", str(out)]) == 1
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
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
    stages = read_payload(out)["stages"]
    assert stages["subsampled_rows"] < stages["parsed_rows"]
    assert stages["ordering"] == "dedup-clean-split"

    out2 = tmp_path / "swapped"
    rc = main(["ingest", str(csv_path), "--output", str(out2),
               "--split-before-dedup", "--seed", "7"])
    assert rc == 0
    payload = read_payload(out2)
    assert payload["stages"]["ordering"] == "split-before-dedup"
    assert payload["split"]["train_rows"] + payload["split"]["test_rows"] \
        <= meta["total_rows"]


def test_train_sae_lstm_outputs(sae_bundle_dir):
    for name in ("bundle.json", "sae_history.csv", "lstm_history.csv"):
        assert (sae_bundle_dir / name).is_file(), name
    doc = json.loads((sae_bundle_dir / "bundle.json").read_text())
    assert doc["payload"]["kind"] == "sae-lstm"
    assert "checksum" in doc
    lstm_lines = (sae_bundle_dir / "lstm_history.csv").read_text().splitlines()
    assert lstm_lines[0] == "epoch,loss,accuracy"
    assert len(lstm_lines) == 1 + 10


def test_train_gbt_outputs(gbt_bundle_dir):
    assert (gbt_bundle_dir / "bundle.json").is_file()
    history = (gbt_bundle_dir / "gbt_history.csv").read_text().splitlines()
    assert history[0] == "round,loss"
    assert len(history) == 1 + 11  # initial loss plus one line per round
    doc = json.loads((gbt_bundle_dir / "bundle.json").read_text())
    assert doc["payload"]["kind"] == "gbt"


def test_train_fine_tune_writes_history(artifact_dir, tmp_path):
    out = tmp_path / "ft"
    rc = main(["train", str(artifact_dir), "--kind", "sae-lstm",
               "--output", str(out), "--sae-epochs", "2", "--lstm-epochs", "2",
               "--lstm-hidden", "8", "--fine-tune", "--seed", "11"])
    assert rc == 0
    assert (out / "fine_tune_history.csv").is_file()


@pytest.mark.parametrize("section", [
    {"sae": {"activation": "foo"}},
    {"sae": {"learning_rate": 0}},
    {"lstm": {"learning_rate": -1}},
    {"sae": {"epochs": 1.5}},
    {"gbt": {"rounds": 1.5}},
    {"lstm": {"hidden_size": 2.5}},
    {"gbt": {"max_depth": 2.5}},
], ids=["activation", "sae-rate", "lstm-rate", "sae-epochs", "gbt-rounds",
        "lstm-hidden", "gbt-depth"])
def test_train_invalid_config_value_exits_1(section, artifact_dir, tmp_path,
                                            capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(section), encoding="utf-8")
    kind = "gbt" if "gbt" in section else "sae-lstm"
    rc = main(["train", str(artifact_dir), "--kind", kind, "--config",
               str(cfg), "--output", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_tampered_table_csv_exits_3(artifact_dir, gbt_bundle_dir, tmp_path,
                                    capsys):
    art = tmp_path / "art"
    shutil.copytree(artifact_dir, art)
    lines = (art / "table.csv").read_text().splitlines(keepends=True)
    row = lines[2].rstrip("\n").split(",")
    row[-1] = "1.0" if row[-1] == "0.0" else "0.0"  # flip one Prediction cell
    lines[2] = ",".join(row) + "\n"
    (art / "table.csv").write_text("".join(lines), encoding="utf-8")
    assert main(["train", str(art), "--kind", "gbt", "--gbt-rounds", "1",
                 "--output", str(tmp_path / "o")]) == 3
    assert main(["evaluate", str(gbt_bundle_dir / "bundle.json"), str(art),
                 "--output", str(tmp_path / "e")]) == 3
    assert "checksum mismatch" in capsys.readouterr().err


def test_train_missing_artifact_exits_2(tmp_path):
    assert main(["train", str(tmp_path / "nowhere"),
                 "--output", str(tmp_path / "o")]) == 2


def test_evaluate_report_covers_test_split(sae_report_dir, artifact_dir):
    for name in ("report.json", "report.txt", "report.csv", "confusion.csv"):
        assert (sae_report_dir / name).is_file(), name
    report = json.loads((sae_report_dir / "report.json").read_text())
    split = read_payload(artifact_dir)["split"]
    assert report["total_support"] == split["test_rows"]
    supports = [row["support"] for row in report["classes"].values()]
    assert sum(supports) == split["test_rows"]
    assert 0.0 <= report["accuracy"] <= 1.0
    assert report["kind"] == "sae-lstm"
    assert report["split"] == "test"


def test_evaluate_train_split(gbt_bundle_dir, artifact_dir, tmp_path):
    out = tmp_path / "train-side"
    rc = main(["evaluate", str(gbt_bundle_dir / "bundle.json"),
               str(artifact_dir), "--split", "train", "--output", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["total_support"] == read_payload(artifact_dir)["split"]["train_rows"]
    # boosted trees fit the separable training data almost perfectly
    assert report["accuracy"] >= 0.95


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
        w, b = cell.pop("w"), cell.pop("b")
        hidden = cell["hidden_size"]
        for n, name in enumerate("ifoc"):
            cell[f"w_{name}"] = w[n * hidden:(n + 1) * hidden]
            cell[f"b_{name}"] = b[n * hidden:(n + 1) * hidden]
    old = tmp_path / "bundle.json"
    dump_json(old, {"checksum": checksum(payload), "payload": payload})
    rc = main(["evaluate", str(old), str(artifact_dir),
               "--output", str(tmp_path / "o")])
    assert rc == 3
    assert "missing key 'w'" in capsys.readouterr().err


def test_evaluate_missing_bundle_exits_2(artifact_dir, tmp_path):
    assert main(["evaluate", str(tmp_path / "no.json"), str(artifact_dir),
                 "--output", str(tmp_path / "o")]) == 2


def test_compare_two_reports(sae_report_dir, gbt_report_dir, tmp_path,
                             capsys):
    out = tmp_path / "cmp"
    rc = main(["compare", str(sae_report_dir / "report.json"),
               str(gbt_report_dir / "report.json"), "--output", str(out)])
    assert rc == 0
    for name in ("comparison.json", "comparison.txt", "comparison.csv"):
        assert (out / name).is_file(), name
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


def test_analyze_outputs(artifact_dir, synthetic_csv, tmp_path, capsys):
    _, meta = synthetic_csv
    out = tmp_path / "analysis"
    rc = main(["analyze", str(artifact_dir), "--output", str(out)])
    assert rc == 0
    for name in ("financial.csv", "distribution.csv", "anomalies.csv",
                 "correlation.csv", "analysis.json"):
        assert (out / name).is_file(), name
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
