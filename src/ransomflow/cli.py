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
import contextlib
import functools
import sys
from pathlib import Path

import numpy as np

from . import analytics, gbt, lstm, sae
from .artifacts import (
    KINDS,
    SPLITS,
    STAGES,
    load_artifact,
    load_bundle,
    save_artifact,
    save_bundle,
    stored_fields,
)
from .config import DEFAULT_SEED, PipelineConfig, from_dict, load_config
from .dataset import (
    FEATURE_IDX,
    FEATURE_NAMES,
    TARGET,
    clean_timestamps,
    dataset_stats,
    deduplicate,
    first_occurrences,
    label_encode,
    parse_csv,
    stratified_indices,
)
from .errors import ConfigError, DataError, EmptyData, SchemaMismatch
from .metrics import COMPARISON_KEYS, MetricsReport, compare, confusion, report
from .nn import records_csv
from .serialize import REPORT_VERSION, dump_json, load_json, require_keys

class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def _common_options(p) -> None:
    p.add_argument("--config", metavar="FILE", help="JSON configuration file")
    p.add_argument("--seed", type=int, metavar="N",
                   help=f"master seed (default {DEFAULT_SEED})")


@functools.cache  # parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ransomflow",
        description="Ransomware netflow classification pipeline.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    ingest = sub.add_parser("ingest", help="build a dataset artifact from a CSV")
    ingest.add_argument("csv", help="raw CSV file")
    _common_options(ingest)
    ingest.add_argument("--test-ratio", dest="dataset.test_ratio", type=float,
                        metavar="R",
                        help="held-out fraction per class (default 0.2)")
    ingest.add_argument("--split-before-dedup", action="store_true",
                        dest="dataset.split_before_dedup", default=None,
                        help="partition first, then scrub each side separately")
    ingest.add_argument("--subsample", dest="dataset.subsample", type=float,
                        metavar="F",
                        help="keep a stratified fraction of rows")
    ingest.set_defaults(func=cmd_ingest)

    train = sub.add_parser("train", help="fit a model on a dataset artifact")
    train.add_argument("artifact", help="dataset artifact directory")
    _common_options(train)
    train.add_argument("--kind", choices=KINDS,
                       default="sae-lstm", help="model family to train")
    train.add_argument("--sae-epochs", dest="sae.epochs", type=int, metavar="N")
    train.add_argument("--lstm-epochs", dest="lstm.epochs", type=int,
                       metavar="N")
    train.add_argument("--lstm-hidden", dest="lstm.hidden_size", type=int,
                       metavar="N")
    train.add_argument("--gbt-rounds", dest="gbt.rounds", type=int, metavar="N")
    train.add_argument("--fine-tune", action="store_true", default=None,
                       help="supervised fine-tuning pass on the autoencoder")
    train.set_defaults(func=cmd_train)

    evaluate = sub.add_parser("evaluate", help="score a bundle on an artifact")
    evaluate.add_argument("bundle", help="model bundle JSON file")
    evaluate.add_argument("artifact", help="dataset artifact directory")
    evaluate.add_argument("--split", choices=SPLITS, default="test")
    evaluate.set_defaults(func=cmd_evaluate)

    cmp_cmd = sub.add_parser("compare", help="diff two evaluation reports")
    cmp_cmd.add_argument("report_a", help="first report.json")
    cmp_cmd.add_argument("report_b", help="second report.json")
    cmp_cmd.add_argument("--name-a", metavar="NAME")
    cmp_cmd.add_argument("--name-b", metavar="NAME")
    cmp_cmd.set_defaults(func=cmd_compare)

    analyze = sub.add_parser("analyze", help="financial and distribution reports")
    analyze.add_argument("artifact", help="dataset artifact directory")
    analyze.set_defaults(func=cmd_analyze)

    for command in sub.choices.values():
        command.add_argument("--output", dest="output_dir", default="out",
                             metavar="DIR",
                             help="directory to write into (default out)")
    return parser


def _load_pipeline_config(args) -> PipelineConfig:
    """The --config file's settings (or the defaults) with each flag that is
    set written into their document, read back by the one strict reader.

    A flag's destination is the setting it writes: a dotted ``section.key``
    path or a top-level key of the document."""
    cfg = load_config(args.config) if getattr(args, "config", None) else PipelineConfig()
    doc = cfg.echo()
    for dest, value in vars(args).items():
        *section, key = dest.split(".")
        if value is not None and (section or key in doc):
            (doc[section[0]] if section else doc)[key] = value
    return from_dict(doc)


def _write_outputs(directory, files: dict) -> Path:
    """Write ``files`` (name -> text, or a JSON document) into ``directory``,
    creating it."""
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        if isinstance(content, str):
            (out_dir / name).write_text(content, encoding="utf-8")
        else:
            dump_json(out_dir / name, content)
    return out_dir


def _scrub_side(group, table_row):
    """Deduplicate and timestamp-clean one split side on its own.

    ``group`` holds the duplicate group of each of the side's rows, and
    ``table_row`` each group's row in the scrubbed table, or -1 where its
    timestamp is bad. Returns (table indices of the side's distinct rows in
    first-occurrence order, duplicates removed, bad timestamps removed).
    """
    _, first = np.unique(group, return_index=True)
    rows = table_row[group[np.sort(first)]]
    indices = rows[rows >= 0]
    return indices, len(group) - len(first), len(first) - len(indices)


def cmd_ingest(args) -> int:
    cfg = _load_pipeline_config(args)
    ds = cfg.dataset
    # the parsed text is freed once it is encoded
    encoded, _ = label_encode(parse_csv(args.csv))
    stages = {"parsed_rows": encoded.row_count}

    if ds.subsample is not None:
        _, keep = stratified_indices(encoded.target_codes(), ds.subsample,
                                     cfg.seed_for("subsample"))
        encoded = encoded.with_values(encoded.values[keep])
        stages["subsampled_rows"] = encoded.row_count

    if ds.split_before_dedup:
        # Leakage experiment: partition the raw encoded rows first so shared
        # duplicates can land on both sides, then scrub each side on its own.
        # One first-occurrence pass gives the distinct rows and each raw
        # row's group.
        first, group = first_occurrences(encoded.values)
        deduped = encoded.with_values(encoded.values[first])
        table, _ = clean_timestamps(deduped)
        sides = stratified_indices(encoded.target_codes(), ds.test_ratio,
                                   cfg.seed_for("split"))
        kept = deduped.column("Time") > 0.0  # the rows clean_timestamps keeps
        table_row = np.where(kept, np.cumsum(kept) - 1, -1)
        scrubbed = [_scrub_side(group[idx], table_row) for idx in sides]
        (train_idx, test_idx), dups, bads = zip(*scrubbed)
        stages["duplicates_removed"] = sum(dups)
        stages["bad_timestamps_removed"] = sum(bads)
    else:
        deduped, stages["duplicates_removed"] = deduplicate(encoded)
        table, stages["bad_timestamps_removed"] = clean_timestamps(deduped)
        train_idx, test_idx = stratified_indices(
            table.target_codes(), ds.test_ratio, cfg.seed_for("split"))
    if len(train_idx) == 0:
        raise EmptyData("the training side holds no rows")

    stages["table_rows"] = table.row_count
    out_dir = Path(args.output_dir)
    save_artifact(out_dir, table, train_idx, test_idx, stages, cfg.echo())
    print(f"artifact written to {out_dir}")
    for key in STAGES:
        print(f"  {key.replace('_', ' ')}: {stages[key]}")
    print(f"  train rows: {len(train_idx)}, test rows: {len(test_idx)}")
    return 0


def _fit(kind, cfg, artifact) -> tuple:
    """Train one model of ``kind`` on the artifact's training rows: (its
    stored components, history files and summary lines)."""
    x, y = artifact.side("train")
    k = artifact.table.maps.size(TARGET)
    if kind == "sae-lstm":
        sae_seed = cfg.seed_for("sae")
        model = sae.build_stack(x, cfg.sae, sae_seed)
        histories = {"sae_history.csv": sae.history_csv(model)}
        if cfg.fine_tune:
            histories["fine_tune_history.csv"] = records_csv(
                sae.fine_tune(model, x, y, k, sae_seed), epoch="step",
                loss="loss")
        # build_stack keeps the training codes; fine-tuning drops them
        codes = sae.encode(model.encoders, x) if cfg.fine_tune else model.codes
        classifier, records = lstm.train_classifier(
            codes, y, cfg.lstm, cfg.seed_for("lstm"), k)
        components = {"sae": sae.model_to_dict(model),
                      "lstm": lstm.model_to_dict(classifier, codes.shape[1])}
        histories["lstm_history.csv"] = lstm.history_csv(records)
        summary = [f"  stack reconstruction loss: {model.stack_loss:.6f}"]
        if records:
            summary.append(f"  final epoch loss {records[-1].loss:.6f}, "
                           f"training accuracy {records[-1].accuracy:.4f}")
    else:
        model, records = gbt.train_gbt(x, y, cfg.gbt, k)
        components = {"gbt": gbt.model_to_dict(model)}
        histories = {"gbt_history.csv": gbt.history_csv(records)}
        summary = [f"  training loss {records[0].loss:.6f} -> "
                   f"{records[-1].loss:.6f} over {records[-1].step} rounds"]
    return components, histories, summary


def cmd_train(args) -> int:
    cfg = _load_pipeline_config(args)
    artifact = load_artifact(args.artifact)
    out_dir = Path(args.output_dir)
    # made before any epoch, so an unwritable path fails first; the
    # directories made here, deepest first, are removed if training is refused
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    bundle_path = out_dir / "bundle.json"
    try:
        components, histories, summary = _fit(args.kind, cfg, artifact)
    except DataError:
        for directory in made:
            with contextlib.suppress(OSError):  # "x/.." of "x/../o" holds x
                directory.rmdir()
        raise
    save_bundle(bundle_path, args.kind, cfg.echo(), artifact, components)
    _write_outputs(out_dir, histories)
    print(f"{args.kind} bundle written to {bundle_path}")
    print(*summary, sep="\n")
    return 0


def cmd_evaluate(args) -> int:
    artifact = load_artifact(args.artifact)
    bundle = load_bundle(args.bundle, artifact)
    x, y = artifact.side(args.split)
    if y.size == 0:
        raise EmptyData(f"artifact {args.split} split holds no rows")
    classes = artifact.table.maps.categories[TARGET]
    cm = confusion(y, bundle.predict(x), len(classes), classes)
    rep = report(cm)
    text = rep.to_text()
    _write_outputs(args.output_dir, {
        "report.json": {**rep.to_dict(), "kind": bundle.kind,
                        "split": args.split},
        "report.txt": text, "report.csv": rep.to_csv(),
        "confusion.csv": cm.to_csv()})
    sys.stdout.write(text)
    return 0


def _load_report(path) -> tuple:
    """(report, its model kind) of a report.json holding exactly the score
    layout, ``kind`` and ``split``."""
    doc = load_json(path)
    if not isinstance(doc, dict):
        raise SchemaMismatch(f"{path}: report root is not an object")
    with stored_fields(path, "report"):
        rep = MetricsReport.from_dict(doc)
        require_keys(doc, (*rep.to_dict(), "kind", "split"), "report")
        for key, allowed in (("kind", KINDS), ("split", SPLITS)):
            if doc[key] not in allowed:
                raise SchemaMismatch(f"{key} {doc[key]!r} is not in {allowed}")
        return rep, doc["kind"]


def cmd_compare(args) -> int:
    for flag, name in (("--name-a", args.name_a), ("--name-b", args.name_b)):
        if name in COMPARISON_KEYS:
            raise ConfigError(f"{flag} {name!r} names a comparison column")
    rep_a, kind_a = _load_report(args.report_a)
    rep_b, kind_b = _load_report(args.report_b)
    name_a = args.name_a or kind_a
    name_b = args.name_b or kind_b
    if name_a == name_b:
        name_a, name_b = f"{name_a}-a", f"{name_b}-b"
    table = compare(rep_a, rep_b, name_a, name_b)
    text = table.to_text()
    _write_outputs(args.output_dir, {"comparison.json": table.to_dict(),
                                     "comparison.txt": text,
                                     "comparison.csv": table.to_csv()})
    sys.stdout.write(text)
    return 0


def cmd_analyze(args) -> int:
    table = load_artifact(args.artifact).table
    fin = analytics.financial_report(table)
    dist = analytics.malware_distribution(table)
    anomalies = analytics.anomaly_by_family(table)
    summary = dataset_stats(table)
    files = {"financial.csv": fin.to_csv(), "distribution.csv": dist.to_csv(),
             "anomalies.csv": analytics.anomaly_csv(anomalies),
             "summary.csv": summary.to_csv()}
    correlation_doc = None
    if table.row_count >= 2:
        corr = analytics.correlation_matrix(table.values[:, FEATURE_IDX],
                                            FEATURE_NAMES)
        files["correlation.csv"] = corr.to_csv()
        correlation_doc = corr.to_dict()
    top_total = analytics.rank_families(fin, "total_usd", 3)
    files["analysis.json"] = {  # (name, value) pairs are written as JSON lists
        "schema_version": REPORT_VERSION,
        "rows": table.row_count,
        "financial": fin.to_dict(),
        "top_families_total_usd": top_total,
        "top_families_mean_usd": analytics.rank_families(fin, "mean_usd", 3),
        "distribution": dist.to_dict(),
        "anomalies_by_family": anomalies,
        "correlation": correlation_doc,
        "summary": summary.to_dict(),
    }
    out_dir = _write_outputs(args.output_dir, files)
    print(f"analysis written to {out_dir}")
    print(f"  rows analyzed: {table.row_count}")
    if fin.families:
        names = ", ".join(name for name, _ in top_total)
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
    except (ConfigError, DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, ConfigError) \
            else 3 if isinstance(exc, DataError) else 2


if __name__ == "__main__":
    sys.exit(main())
