"""Outside-in tracing of the ransomflow layers.

The program is not edited: :func:`install` replaces the public functions of
each layer module with wrappers that record a span (name, start, end,
parent) and, for a few functions, a count read off the arguments or result.
A function is replaced wherever a ``ransomflow`` module holds a reference to
it, so names re-imported with ``from .x import y`` (``cli.parse_csv``,
``sae.dense_forward``, ``artifacts.checksum``, ...) are wrapped too. Spans
stay in memory until :meth:`Tracer.dump`.

:func:`summarize` turns the spans of one command into per-function totals:
inclusive time of the outermost calls (a recursive function is not counted
twice), self time (duration minus the part covered by child spans) and call
counts, plus the self time of each layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

# Layer (module) -> functions to wrap; "Class.method" wraps on the class.
LAYERS = {
    "dataset": ("parse_csv", "label_encode", "deduplicate", "clean_timestamps",
                "normalize", "stratified_indices", "dataset_stats",
                "encoded_table_to_rows", "encoded_table_from_rows",
                "preprocess_to_dict", "preprocess_from_dict"),
    "artifacts": ("save_artifact", "load_artifact", "save_bundle",
                  "load_bundle"),
    "serialize": ("checksum", "dump_json", "load_json"),
    "sae": ("build_stack", "pretrain_layer", "encode", "model_to_dict",
            "model_from_dict", "history_csv"),
    "nn": ("Adam.step", "dense_forward", "dense_backward",
           "dense_backward_preact", "mse_loss", "cross_entropy_loss"),
    "lstm": ("train_classifier", "sequence_forward", "sequence_backward",
             "predict", "model_to_dict", "model_from_dict", "history_csv"),
    "gbt": ("train_gbt", "build_tree", "best_split", "grad_hess",
            "tree_predict", "predict_labels", "model_to_dict",
            "model_from_dict", "history_csv"),
    "metrics": ("confusion", "report"),
    "analytics": ("financial_report", "malware_distribution",
                  "anomaly_by_family", "correlation_matrix"),
}

PACKAGE = "ransomflow"


def tree_bytes(path) -> int:
    """Size of a file, or of all files under a directory."""
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _count_table_cleaning(counts, args, kwargs, result):
    table, removed = result
    counts["dataset.bad_timestamps_removed"] += removed
    counts["dataset.table_rows"] += table.row_count


# Counts recorded at layer boundaries: name -> f(counts, args, kwargs, result)
OBSERVERS = {
    "dataset.parse_csv":
        lambda c, a, k, r: c.update({"dataset.rows_parsed": r.row_count}),
    "dataset.deduplicate":
        lambda c, a, k, r: c.update({"dataset.duplicates_removed": r[1]}),
    "dataset.clean_timestamps": _count_table_cleaning,
    "artifacts.save_artifact":
        lambda c, a, k, r: c.update({"artifacts.artifact_bytes": tree_bytes(r)}),
    "artifacts.save_bundle":
        lambda c, a, k, r: c.update({"artifacts.bundle_bytes": tree_bytes(r)}),
    "gbt.best_split":
        lambda c, a, k, r: c.update({"gbt.best_split_found": int(r is not None)}),
    # rows seen by training: rows x epochs run (one history entry per epoch)
    "lstm.train_classifier":
        lambda c, a, k, r: c.update({"lstm.rows_trained": len(a[0]) * len(r[1])}),
}


class Tracer:
    """Spans and counts of one process, kept in memory."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts = Counter()
        self._open = []

    def wrap(self, name: str, fn, observe=None):
        clock, spans, stack = self.clock, self.spans, self._open
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        Path(path).write_text(json.dumps({"spans": self.spans,
                                          "counts": dict(self.counts)}),
                              encoding="utf-8")


def install(tracer: Tracer):
    """Wrap every listed function in every ransomflow module that holds it.

    Returns (undo, missing): ``undo()`` restores the originals and
    ``missing`` lists the names the installed program does not define.
    """
    wrappers = {}  # id(original) -> (original, wrapper)
    restore = []
    missing = []
    for layer, names in LAYERS.items():
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for qualname in names:
            owner, attr = module, qualname
            if "." in qualname:
                cls_name, attr = qualname.split(".", 1)
                owner = getattr(module, cls_name, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                missing.append(f"{layer}.{qualname}")
                continue
            name = f"{layer}.{qualname}"
            wrapper = tracer.wrap(name, fn, OBSERVERS.get(name))
            if owner is module:
                wrappers[id(fn)] = (fn, wrapper)
            else:
                restore.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == PACKAGE
                                  or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                restore.append((module, attr, value))
                setattr(module, attr, hit[1])

    def undo():
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)

    return undo, missing


def _covered(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def summarize(spans) -> dict:
    """Per-function and per-layer totals, in seconds, for one span list.

    Returns {"inclusive": {name: s}, "self": {name: s}, "calls": {name: n},
    "layer_self": {layer: s}, "root": s}; ``root`` is the summed duration
    of the spans without a parent, i.e. the time spent inside any layer.
    """
    children = [[] for _ in spans]
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    inclusive, self_s, calls = Counter(), Counter(), Counter()
    layer_self = Counter()
    root = 0
    for i, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        own = duration - _covered((spans[c][1], spans[c][2]) for c in children[i])
        calls[name] += 1
        self_s[name] += own
        layer_self[name.split(".", 1)[0]] += own
        if parent < 0:
            root += duration
        # outermost call of a (possibly recursive) function
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[name] += duration
    ns = 1e-9
    return {
        "inclusive": {k: v * ns for k, v in inclusive.items()},
        "self": {k: v * ns for k, v in self_s.items()},
        "calls": dict(calls),
        "layer_self": {k: v * ns for k, v in layer_self.items()},
        "root": root * ns,
    }
