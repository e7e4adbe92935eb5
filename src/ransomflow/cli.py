"""Command-line pipeline driver.

Subcommands mirror the pipeline stages: ``ingest`` builds a dataset artifact
from a raw CSV, ``train`` fits either the autoencoder + LSTM pair or the
boosted-tree baseline on an artifact, ``evaluate`` scores a bundle against an
artifact split, ``compare`` diffs two report files, and ``analyze`` produces
the financial and distribution reports.

Exit codes: 0 success, 1 configuration or usage problems, 2 unreadable or
missing files, 3 malformed or degenerate data.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import analytics, gbt, lstm, sae
from .artifacts import (
    DatasetArtifact,
    load_artifact,
    load_bundle,
    save_artifact,
    save_bundle,
)
from .config import DEFAULT_SEED, PipelineConfig, load_config
from .dataset import (
    clean_timestamps,
    dataset_stats,
    deduplicate,
    default_schema,
    label_encode,
    normalize,
    parse_csv,
    preprocess_to_dict,
    stratified_indices,
)
from .errors import ConfigError, DataError, EmptyData, SchemaMismatch
from .metrics import MetricsReport, compare, confusion, report
from .serialize import SCHEMA_VERSION, curve_csv, dump_json, load_json


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def _common_options(p) -> None:
    p.add_argument("--config", metavar="FILE", help="JSON configuration file")
    p.add_argument("--seed", type=int, metavar="N",
                   help=f"master seed (default {DEFAULT_SEED})")
    p.add_argument("--output", metavar="DIR", help="directory to write into")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ransomflow",
        description="Ransomware netflow classification pipeline.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    ingest = sub.add_parser("ingest", help="build a dataset artifact from a CSV")
    ingest.add_argument("csv", help="raw CSV file")
    _common_options(ingest)
    ingest.add_argument("--test-ratio", type=float, metavar="R",
                        help="held-out fraction per class (default 0.2)")
    ingest.add_argument("--split-before-dedup", action="store_true",
                        default=None,
                        help="partition first, then scrub each side separately")
    ingest.add_argument("--subsample", type=float, metavar="F",
                        help="keep a stratified fraction of rows")
    ingest.set_defaults(func=cmd_ingest)

    train = sub.add_parser("train", help="fit a model on a dataset artifact")
    train.add_argument("artifact", help="dataset artifact directory")
    _common_options(train)
    train.add_argument("--kind", choices=("sae-lstm", "gbt"),
                       default="sae-lstm", help="model family to train")
    train.add_argument("--sae-epochs", type=int, metavar="N")
    train.add_argument("--lstm-epochs", type=int, metavar="N")
    train.add_argument("--lstm-hidden", type=int, metavar="N")
    train.add_argument("--gbt-rounds", type=int, metavar="N")
    train.add_argument("--fine-tune", action="store_true", default=None,
                       help="supervised fine-tuning pass on the autoencoder")
    train.set_defaults(func=cmd_train)

    evaluate = sub.add_parser("evaluate", help="score a bundle on an artifact")
    evaluate.add_argument("bundle", help="model bundle JSON file")
    evaluate.add_argument("artifact", help="dataset artifact directory")
    evaluate.add_argument("--split", choices=("test", "train"), default="test")
    evaluate.add_argument("--output", metavar="DIR")
    evaluate.set_defaults(func=cmd_evaluate)

    cmp_cmd = sub.add_parser("compare", help="diff two evaluation reports")
    cmp_cmd.add_argument("report_a", help="first report.json")
    cmp_cmd.add_argument("report_b", help="second report.json")
    cmp_cmd.add_argument("--name-a", metavar="NAME")
    cmp_cmd.add_argument("--name-b", metavar="NAME")
    cmp_cmd.add_argument("--output", metavar="DIR")
    cmp_cmd.set_defaults(func=cmd_compare)

    analyze = sub.add_parser("analyze", help="financial and distribution reports")
    analyze.add_argument("artifact", help="dataset artifact directory")
    analyze.add_argument("--output", metavar="DIR")
    analyze.set_defaults(func=cmd_analyze)

    return parser


def _load_pipeline_config(args) -> PipelineConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else PipelineConfig()
    try:
        if getattr(args, "seed", None) is not None:
            cfg = replace(cfg, seed=args.seed)
        if getattr(args, "output", None) is not None:
            cfg = replace(cfg, output_dir=args.output)
        if getattr(args, "test_ratio", None) is not None:
            cfg = replace(cfg, test_ratio=args.test_ratio)
        if getattr(args, "subsample", None) is not None:
            cfg = replace(cfg, subsample=args.subsample)
        if getattr(args, "split_before_dedup", None):
            cfg = replace(cfg, split_before_dedup=True)
        if getattr(args, "fine_tune", None):
            cfg = replace(cfg, fine_tune=True)
        if getattr(args, "sae_epochs", None) is not None:
            cfg = replace(cfg, sae=replace(cfg.sae, epochs=args.sae_epochs))
        if getattr(args, "lstm_epochs", None) is not None:
            cfg = replace(cfg, lstm=replace(cfg.lstm, epochs=args.lstm_epochs))
        if getattr(args, "lstm_hidden", None) is not None:
            cfg = replace(cfg, lstm=replace(cfg.lstm, hidden_size=args.lstm_hidden))
        if getattr(args, "gbt_rounds", None) is not None:
            cfg = replace(cfg, gbt=replace(cfg.gbt, rounds=args.gbt_rounds))
    except ValueError as exc:
        raise ConfigError(f"invalid override: {exc}") from None
    return cfg


def _scrub_side(values, where: dict):
    """Deduplicate and timestamp-clean one split side on its own.

    ``where`` maps each scrubbed table row's bytes to its index, so only rows
    with a bad timestamp miss it. Returns (table indices of the side's distinct
    rows in first-occurrence order, duplicates removed, bad timestamps removed).
    """
    distinct = dict.fromkeys(row.tobytes() for row in values)
    indices = [where[key] for key in distinct if key in where]
    return indices, len(values) - len(distinct), len(distinct) - len(indices)


def cmd_ingest(args) -> int:
    cfg = _load_pipeline_config(args)
    cfg = replace(cfg, csv_path=args.csv)
    schema = default_schema()
    raw = parse_csv(args.csv, schema)
    encoded, maps = label_encode(raw, schema)
    stages = {"parsed_rows": raw.row_count, "encoded_rows": encoded.row_count}

    if cfg.subsample is not None:
        _, keep = stratified_indices(encoded.target_codes(), cfg.subsample,
                                     cfg.subsample_seed())
        encoded = encoded.with_values(encoded.values[keep], "subsampled")
        stages["subsampled_rows"] = encoded.row_count

    deduped, removed_dup = deduplicate(encoded)
    table, removed_time = clean_timestamps(deduped)
    if cfg.split_before_dedup:
        # Leakage experiment: partition the raw encoded rows first so shared
        # duplicates can land on both sides, then scrub each side on its own.
        stages["ordering"] = "split-before-dedup"
        sides = stratified_indices(encoded.target_codes(), cfg.test_ratio,
                                   cfg.split_seed())
        where = {row.tobytes(): i for i, row in enumerate(table.values)}
        scrubbed = [_scrub_side(encoded.values[idx], where) for idx in sides]
        (train_idx, test_idx), dups, bads = zip(*scrubbed)
        stages["duplicates_removed"] = sum(dups)
        stages["bad_timestamps_removed"] = sum(bads)
    else:
        stages["ordering"] = "dedup-clean-split"
        stages["duplicates_removed"] = removed_dup
        stages["deduplicated_rows"] = deduped.row_count
        stages["bad_timestamps_removed"] = removed_time
        train_idx, test_idx = stratified_indices(
            table.target_codes(), cfg.test_ratio, cfg.split_seed())
    _, stats = normalize(table.with_values(table.values[train_idx], "train"))

    stages["table_rows"] = table.row_count
    summary = dataset_stats(table)
    out_dir = Path(cfg.output_dir)
    save_artifact(out_dir, schema, maps, stats, table, train_idx, test_idx,
                  stages, summary, cfg.echo())
    print(f"artifact written to {out_dir}")
    for key in ("parsed_rows", "duplicates_removed", "bad_timestamps_removed",
                "table_rows"):
        print(f"  {key.replace('_', ' ')}: {stages[key]}")
    print(f"  train rows: {len(train_idx)}, test rows: {len(test_idx)}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_pipeline_config(args)
    artifact = load_artifact(args.artifact)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if artifact.train.row_count == 0:
        raise EmptyData("artifact holds no training rows")
    preprocess_doc = preprocess_to_dict(artifact.schema, artifact.maps,
                                        artifact.stats)
    echo = cfg.echo()
    k = artifact.k_classes
    bundle_path = out_dir / "bundle.json"

    if args.kind == "sae-lstm":
        sae_cfg = cfg.sae_effective()
        model = sae.build_stack(artifact.train.x, sae_cfg)
        head = None
        if cfg.fine_tune:
            head, ft_losses = sae.fine_tune(model, artifact.train.x,
                                            artifact.train.y, k, sae_cfg)
            (out_dir / "fine_tune_history.csv").write_text(
                curve_csv("epoch,loss", enumerate(ft_losses)), encoding="utf-8")
        codes = sae.encode(model, artifact.train.x)
        lstm_cfg = cfg.lstm_effective()
        classifier, history = lstm.train_classifier(codes, artifact.train.y,
                                                    lstm_cfg, k)
        save_bundle(bundle_path, "sae-lstm", echo, preprocess_doc, {
            "sae": sae.model_to_dict(model, head),
            "lstm": lstm.model_to_dict(classifier),
        })
        (out_dir / "sae_history.csv").write_text(sae.history_csv(model),
                                                 encoding="utf-8")
        (out_dir / "lstm_history.csv").write_text(lstm.history_csv(history),
                                                  encoding="utf-8")
        print(f"sae-lstm bundle written to {bundle_path}")
        print(f"  stack reconstruction loss: {model.stack_loss:.6f}")
        if history:
            print(f"  final epoch loss {history[-1][0]:.6f}, "
                  f"training accuracy {history[-1][1]:.4f}")
    else:
        params = replace(cfg.gbt, k_classes=k)
        model = gbt.train_gbt(artifact.train, params)
        save_bundle(bundle_path, "gbt", echo, preprocess_doc,
                    {"gbt": gbt.model_to_dict(model)})
        (out_dir / "gbt_history.csv").write_text(gbt.history_csv(model),
                                                 encoding="utf-8")
        print(f"gbt bundle written to {bundle_path}")
        print(f"  training loss {model.training_loss[0]:.6f} -> "
              f"{model.training_loss[-1]:.6f} over {model.rounds_built} rounds")
    return 0


def cmd_evaluate(args) -> int:
    bundle = load_bundle(args.bundle)
    artifact = load_artifact(args.artifact)
    bundle_doc = preprocess_to_dict(bundle.schema, bundle.maps, bundle.stats)
    artifact_doc = preprocess_to_dict(artifact.schema, artifact.maps,
                                      artifact.stats)
    if bundle_doc != artifact_doc:
        raise SchemaMismatch(
            "bundle and artifact disagree on preprocessing state; evaluate "
            "against the artifact the model was trained from"
        )
    fm = artifact.test if args.split == "test" else artifact.train
    if fm.row_count == 0:
        raise EmptyData(f"artifact {args.split} split holds no rows")
    predicted = bundle.predict(fm.x)
    cm = confusion(fm.y, predicted, artifact.k_classes, artifact.class_names)
    rep = report(cm)
    out_dir = Path(args.output or "out")
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = rep.to_dict()
    doc["kind"] = bundle.kind
    doc["split"] = args.split
    doc["config"] = bundle.config
    dump_json(out_dir / "report.json", doc)
    (out_dir / "report.txt").write_text(rep.to_text(), encoding="utf-8")
    (out_dir / "report.csv").write_text(rep.to_csv(), encoding="utf-8")
    (out_dir / "confusion.csv").write_text(cm.to_csv(), encoding="utf-8")
    sys.stdout.write(rep.to_text())
    return 0


def _load_report(path) -> tuple:
    try:
        doc = load_json(path)
    except json.JSONDecodeError as exc:
        raise SchemaMismatch(f"{path}: not valid JSON ({exc})") from None
    try:
        return MetricsReport.from_dict(doc), doc
    except KeyError as exc:
        raise SchemaMismatch(f"{path}: report is missing key {exc}") from None


def cmd_compare(args) -> int:
    rep_a, doc_a = _load_report(args.report_a)
    rep_b, doc_b = _load_report(args.report_b)
    name_a = args.name_a or doc_a.get("kind") or "model-a"
    name_b = args.name_b or doc_b.get("kind") or "model-b"
    if name_a == name_b:
        name_a, name_b = f"{name_a}-a", f"{name_b}-b"
    table = compare(rep_a, rep_b, name_a, name_b)
    out_dir = Path(args.output or "out")
    out_dir.mkdir(parents=True, exist_ok=True)
    dump_json(out_dir / "comparison.json", table.to_dict())
    (out_dir / "comparison.txt").write_text(table.to_text(), encoding="utf-8")
    (out_dir / "comparison.csv").write_text(table.to_csv(), encoding="utf-8")
    sys.stdout.write(table.to_text())
    return 0


def cmd_analyze(args) -> int:
    artifact = load_artifact(args.artifact)
    table = artifact.table
    out_dir = Path(args.output or "out")
    out_dir.mkdir(parents=True, exist_ok=True)
    fin = analytics.financial_report(table)
    dist = analytics.malware_distribution(table)
    anomalies = analytics.anomaly_by_family(table)
    (out_dir / "financial.csv").write_text(fin.to_csv(), encoding="utf-8")
    (out_dir / "distribution.csv").write_text(dist.to_csv(), encoding="utf-8")
    (out_dir / "anomalies.csv").write_text(analytics.anomaly_csv(anomalies),
                                           encoding="utf-8")
    schema = artifact.schema
    feature_idx = [schema.index(n) for n in schema.feature_names]
    correlation_doc = None
    if table.row_count >= 2:
        corr = analytics.correlation_matrix(table.values[:, feature_idx],
                                            schema.feature_names)
        (out_dir / "correlation.csv").write_text(corr.to_csv(),
                                                 encoding="utf-8")
        correlation_doc = corr.to_dict()
    doc = {
        "schema_version": SCHEMA_VERSION,
        "rows": table.row_count,
        "financial": fin.to_dict(),
        "top_families_total_usd": [
            [name, value] for name, value in
            analytics.rank_families(fin, "total_usd", 3)
        ],
        "top_families_mean_usd": [
            [name, value] for name, value in
            analytics.rank_families(fin, "mean_usd", 3)
        ],
        "distribution": dist.to_dict(),
        "anomalies_by_family": [[name, count] for name, count in anomalies],
        "correlation": correlation_doc,
    }
    dump_json(out_dir / "analysis.json", doc)
    print(f"analysis written to {out_dir}")
    print(f"  rows analyzed: {table.row_count}")
    if fin.families:
        top = analytics.rank_families(fin, "total_usd", 3)
        names = ", ".join(name for name, _ in top)
        print(f"  top families by total USD: {names}")
        print(f"  mean ransom: {fin.global_mean_btc:.2f} BTC, "
              f"{fin.global_mean_usd:.2f} USD")
    if anomalies and anomalies[0][1] > 0:
        print(f"  most anomalous family: {anomalies[0][0]} "
              f"({anomalies[0][1]} rows)")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.error("a command is required (ingest, train, evaluate, "
                         "compare, analyze)")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
