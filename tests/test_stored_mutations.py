"""Structural edits of a stored file are refused: exit 3, naming the file.

Every file of a dataset artifact is covered by an integrity check: one bit
flipped in the middle of any of them makes ``analyze`` exit 3, naming it.

The files are the ones the loaders read: a dataset artifact's dataset.json,
a sae-lstm bundle and a gbt bundle, built from the synthetic fixture. Each
edit deletes a key of a JSON object, adds one, or drops or repeats a list's
first element. The checksum is then recomputed, so only the loaders' field
checks stand between the edit and a run: ``analyze`` reads the edited
dataset.json, ``evaluate`` the edited bundle.

Edits are made at one representative of each path pattern: the first element
of a list, the first split node and the first leaf of a tree, and the first
array document. List edits inside the ``config`` echo are exempt: they give
another valid settings document (one encoder layer fewer, say, which a
dataset or gbt echo does not contradict).

A gbt tree's values are edited too: a split feature that is not a column
index, and a threshold or leaf weight that is not a number. So are the
numbers of a report.json, which ``compare`` reads: a score that is not a
number in [0, 1], or a count that is not an int >= 0. A sae-lstm bundle that
stores a one-step cell's forget rows (the version 7 layout) is refused.

Type edits replace each value held at each representative, in all four
stored files, with each of None, "x", 5, -1, 1.5, true, [], {} and ["x"].
Each exits 3 naming the file, or 0 when the new value keeps the old one's
type; none exits 1 or 2 or raises.
"""

import copy
import json
import shutil
from dataclasses import fields

import numpy as np
import pytest

from ransomflow.cli import main
from ransomflow.config import SECTIONS
from ransomflow.serialize import array_doc, array_from_doc, checksum, dump_json

_ARRAY_KEYS = {"b64", "dtype", "shape"}


@pytest.fixture(scope="module")
def stored(synthetic_csv, tmp_path_factory):
    """(artifact directory, sae-lstm bundle, gbt bundle)."""
    root = tmp_path_factory.mktemp("mutations")
    art = root / "art"
    assert main(["ingest", str(synthetic_csv[0]), "--output", str(art)]) == 0
    assert main(["train", str(art), "--kind", "sae-lstm", "--output",
                 str(root / "sae"), "--sae-epochs", "1", "--lstm-epochs", "1",
                 "--lstm-hidden", "4"]) == 0
    assert main(["train", str(art), "--kind", "gbt", "--output",
                 str(root / "gbt"), "--gbt-rounds", "2"]) == 0
    return art, root / "sae" / "bundle.json", root / "gbt" / "bundle.json"


def _pattern(path: tuple, node) -> str:
    """The path pattern of the object or list ``node`` at ``path``: list
    positions and tree children collapse, and every array document is one
    pattern."""
    if isinstance(node, dict) and set(node) == _ARRAY_KEYS:
        return "array"
    if isinstance(node, dict) and "trees" in path:
        return "tree leaf" if "weight" in node else "tree split node"
    return ".".join("[]" if isinstance(key, int) else key for key in path)


def representatives(doc) -> dict:
    """Path pattern -> path of its first object or list, depth first;
    only the first element of a list is visited."""
    found = {}

    def walk(node, path):
        if not isinstance(node, (dict, list)):
            return
        found.setdefault(_pattern(path, node), path)
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, (*path, key))
        elif node:
            walk(node[0], (*path, 0))

    walk(doc, ())
    return found


def _node(doc, path: tuple):
    for key in path:
        doc = doc[key]
    return doc


def _rechecked(edited: dict) -> dict:
    """``edited`` with its checksum, if it has one, recomputed over its
    payload."""
    if "checksum" in edited and isinstance(edited.get("payload"), dict):
        edited["checksum"] = checksum(edited["payload"])
    return edited


def structural_edits(doc):
    """(label, edited copy of ``doc``, False) for each structural edit at
    each representative, the checksum recomputed over the edited payload;
    False: no such edit may pass."""
    for pattern, path in representatives(doc).items():
        target = _node(doc, path)
        if isinstance(target, dict):
            edits = [(f"delete {key}", lambda t, key=key: t.pop(key))
                     for key in target]
            edits.append(("add a key", lambda t: t.__setitem__("mutant", 0)))
        elif target and path[:2] != ("payload", "config"):
            edits = [("drop the first element", lambda t: t.pop(0)),
                     ("repeat the first element", lambda t: t.append(t[0]))]
        else:
            continue
        for what, edit in edits:
            edited = copy.deepcopy(doc)
            edit(_node(edited, path))
            yield f"{pattern or '<root>'}: {what}", _rechecked(edited), False


# what each stored value is replaced with by a type edit
_TYPE_EDIT_VALUES = (None, "x", 5, -1, 1.5, True, [], {}, ["x"])
# each optional setting's annotation, e.g. "float | None"
_OPTIONAL_SETTINGS = {f.name: f.type for cls in SECTIONS.values()
                      for f in fields(cls) if f.type.endswith(" | None")}
_ANNOTATED_TYPES = {"float": (int, float), "str": (str,), "None": (type(None),)}


def keeps_type(path: tuple, old, new) -> bool:
    """Whether ``new`` has the type of the value ``old`` it replaces at
    ``path``: the same JSON type, or an int for a float, or for an optional
    setting of the ``config`` echo any type its annotation names."""
    if "config" in path and path[-1] in _OPTIONAL_SETTINGS:
        return type(new) in [t for name in
                             _OPTIONAL_SETTINGS[path[-1]].split(" | ")
                             for t in _ANNOTATED_TYPES[name]]
    return type(new) is type(old) or (type(old), type(new)) == (float, int)


def type_edits(doc):
    """(label, edited copy of ``doc``, whether the edit keeps the type) for
    each value held at each representative, replaced with each value of
    :data:`_TYPE_EDIT_VALUES` unequal to it, the checksum recomputed over the
    edited payload (unless the checksum is the edited value)."""
    for pattern, path in representatives(doc).items():
        target = _node(doc, path)
        keys = target if isinstance(target, dict) else [0] if target else []
        for key in keys:
            old = target[key]
            for new in _TYPE_EDIT_VALUES:
                if (type(new), new) == (type(old), old):
                    continue
                edited = copy.deepcopy(doc)
                _node(edited, path)[key] = copy.deepcopy(new)
                if (path, key) != ((), "checksum"):
                    _rechecked(edited)
                yield (f"{pattern or '<root>'}.{key}: {new!r}", edited,
                       keeps_type((*path, key), old, new))


def test_representatives_cover_each_pattern_once():
    doc = {"a": [{"w": {"dtype": "<f8", "shape": [1], "b64": ""}},
                 {"w": {"dtype": "<f8", "shape": [2], "b64": ""}}],
           "trees": [[{"feature": 0, "threshold": 0.5,
                       "left": {"feature": 1, "threshold": 1.5,
                                "left": {"weight": 1.0},
                                "right": {"weight": 2.0}},
                       "right": {"weight": 3.0}}]]}
    found = representatives(doc)
    assert found == {"": (), "a": ("a",), "a.[]": ("a", 0),
                     "array": ("a", 0, "w"), "a.[].w.shape": ("a", 0, "w", "shape"),
                     "trees": ("trees",), "trees.[]": ("trees", 0),
                     "tree split node": ("trees", 0, 0),
                     "tree leaf": ("trees", 0, 0, "left", "left")}
    labels = [label for label, _, _ in structural_edits(doc)]
    assert "tree leaf: delete weight" in labels
    assert "a.[].w.shape: repeat the first element" in labels
    assert len(labels) == len(set(labels))
    # 11 values in objects and the first elements of 4 lists
    edits = {label: kept for label, _, kept in type_edits(doc)}
    assert len(edits) == 15 * 9
    assert edits["tree leaf.weight: 5"] and edits["a.[].w.shape.0: 5"]
    assert not edits["a.[].w.shape.0: 1.5"] and not edits["array.b64: 5"]
    assert [label for label, kept in edits.items()
            if label.startswith("trees.[].0: ") and kept] == ["trees.[].0: {}"]


def test_type_rule_takes_optional_settings_from_their_annotations():
    assert _OPTIONAL_SETTINGS == {
        "subsample": "float | None", "convergence_threshold": "float | None",
        "clip_threshold": "float | None"}
    config = ("payload", "config", "lstm", "clip_threshold")
    assert keeps_type(config, None, 5) and keeps_type(config, 0.5, None)
    assert not keeps_type(config, None, "x")
    assert keeps_type(("accuracy",), 0.5, 1) and not keeps_type(("n",), 1, 0.5)
    assert not keeps_type(("flag",), False, 0) and not keeps_type(("n",), 1, True)


def _refusals(source, run, named, capsys, edits=structural_edits) -> list:
    """The ``edits`` of ``source`` that ``run`` does not refuse with exit 3
    and an error naming ``named``, unless they may pass and exit 0, as
    (label, exit code or the exception raised, error)."""
    doc = json.loads(source.read_text())
    missed = []
    for label, edited, may_pass in edits(doc):
        capsys.readouterr()
        try:
            code = run(edited)
        except Exception as exc:  # the user would see a traceback
            missed.append((label, repr(exc), ""))
            continue
        err = capsys.readouterr().err
        if code == 0 and may_pass:
            continue
        if code != 3 or not err.startswith("error: ") or str(named) not in err:
            missed.append((label, code, err))
    return missed


def _analyze(stored, tmp_path):
    """(run, artifact copy): ``run(edited)`` analyzes the copy holding the
    edited dataset.json."""
    art = tmp_path / "art"
    shutil.copytree(stored[0], art)

    def run(edited):
        dump_json(art / "dataset.json", edited)
        return main(["analyze", str(art), "--output", str(tmp_path / "o")])

    return run, art


def test_dataset_json_edits_exit_3(stored, tmp_path, capsys):
    run, art = _analyze(stored, tmp_path)
    assert _refusals(stored[0] / "dataset.json", run, art, capsys) == []


def test_dataset_json_type_edits(stored, tmp_path, capsys):
    run, art = _analyze(stored, tmp_path)
    assert _refusals(stored[0] / "dataset.json", run, art, capsys,
                     type_edits) == []


def test_every_artifact_file_is_integrity_checked(stored, tmp_path, capsys):
    missed = []
    for source in sorted(stored[0].iterdir()):
        art = tmp_path / source.name
        shutil.copytree(stored[0], art)
        data = bytearray(source.read_bytes())
        data[len(data) // 2] ^= 0x01
        (art / source.name).write_bytes(bytes(data))
        capsys.readouterr()
        code = main(["analyze", str(art), "--output", str(tmp_path / "o")])
        err = capsys.readouterr().err
        if code != 3 or str(art / source.name) not in err:
            missed.append((source.name, code, err))
    assert missed == []


def _evaluate(stored, tmp_path):
    """(run, bundle): ``run(edited)`` evaluates the edited bundle, written
    to ``bundle``, on the stored artifact."""
    bundle = tmp_path / "bundle.json"

    def run(edited):
        dump_json(bundle, edited)
        return main(["evaluate", str(bundle), str(stored[0]),
                     "--output", str(tmp_path / "o")])

    return run, bundle


@pytest.mark.parametrize("kind", ["sae-lstm", "gbt"])
def test_bundle_edits_exit_3(kind, stored, tmp_path, capsys):
    run, bundle = _evaluate(stored, tmp_path)
    source = stored[1] if kind == "sae-lstm" else stored[2]
    assert _refusals(source, run, bundle, capsys) == []


@pytest.mark.parametrize("kind", ["sae-lstm", "gbt"])
def test_bundle_type_edits(kind, stored, tmp_path, capsys):
    run, bundle = _evaluate(stored, tmp_path)
    source = stored[1] if kind == "sae-lstm" else stored[2]
    assert _refusals(source, run, bundle, capsys, type_edits) == []


_BAD_TREE_VALUES = {
    "feature": [13, 99, -1, 1.5, True, "3", None],
    "threshold": ["0.5", True, None, [0.5]],
    "weight": ["0.1", False, None, {}],
}


@pytest.mark.parametrize("key,value", [
    (key, value) for key, values in _BAD_TREE_VALUES.items()
    for value in values])
def test_gbt_tree_value_edits_exit_3(key, value, stored, tmp_path, capsys):
    art, _, gbt_bundle = stored
    doc = json.loads(gbt_bundle.read_text())
    node = doc["payload"]["components"]["gbt"]["trees"][0][0]
    while key not in node:  # the first node holding the key
        node = node["left"]
    node[key] = value
    doc["checksum"] = checksum(doc["payload"])
    bundle = tmp_path / "bundle.json"
    dump_json(bundle, doc)
    capsys.readouterr()
    code = main(["evaluate", str(bundle), str(art),
                 "--output", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3 and err.startswith("error: ") and str(bundle) in err


@pytest.mark.parametrize("key", ["w", "b"])
def test_lstm_forget_rows_are_refused(key, stored, tmp_path, capsys):
    # one step per row stores only the i | o | g rows; a cell that also
    # holds the forget rows, as version 7 stored them, has the wrong shape
    art, sae_bundle, _ = stored
    doc = json.loads(sae_bundle.read_text())
    cell = doc["payload"]["components"]["lstm"]["cells"][0]
    part = array_from_doc(cell[key])
    hidden = part.shape[0] // 3
    cell[key] = array_doc(np.concatenate(
        [part[:hidden], np.zeros_like(part[:hidden]), part[hidden:]]), key)
    doc["checksum"] = checksum(doc["payload"])
    bundle = tmp_path / "bundle.json"
    dump_json(bundle, doc)
    capsys.readouterr()
    code = main(["evaluate", str(bundle), str(art),
                 "--output", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3 and err.startswith("error: ") and str(bundle) in err
    assert "shape" in err


@pytest.fixture(scope="module")
def report(stored, tmp_path_factory):
    art, sae_bundle, _ = stored
    out = tmp_path_factory.mktemp("report")
    assert main(["evaluate", str(sae_bundle), str(art), "--output",
                 str(out)]) == 0
    return out / "report.json"


# (path, value); "CLASS" stands for the first class name
_BAD_REPORT_VALUES = [
    *((("classes", "CLASS", "precision"), v)
      for v in ("0.5", True, None, [0.5], float("nan"))),
    *((("classes", "CLASS", "support"), v) for v in (12.7, 12.0, "12", True)),
    (("classes", "CLASS", "f1"), {}),
    (("macro", "recall"), "0.5"),
    (("weighted", "f1"), False),
    (("accuracy",), "0.9"),
    (("accuracy",), True),
    (("total_support",), "5"),
    (("total_support",), 5.5),
    (("total_support",), False),
    # numbers out of range
    *((("classes", "CLASS", "precision"), v) for v in (5.0, -0.5)),
    (("classes", "CLASS", "f1"), 1.5),
    (("classes", "CLASS", "support"), -1),
    (("accuracy",), 7.0),
    (("total_support",), -3),
]


@pytest.mark.parametrize("path,value", _BAD_REPORT_VALUES)
def test_report_value_type_edits_exit_3(path, value, report, tmp_path,
                                        capsys):
    doc = json.loads(report.read_text())
    node = doc
    for key in path[:-1]:
        node = node[doc["class_order"][0] if key == "CLASS" else key]
    node[path[-1]] = value
    edited = tmp_path / "report.json"
    edited.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["compare", str(edited), str(report),
                 "--output", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3 and err.startswith("error: ") and str(edited) in err
    # the unedited report compares
    assert main(["compare", str(report), str(report),
                 "--output", str(tmp_path / "o")]) == 0


def test_report_type_edits(report, tmp_path, capsys):
    edited_report = tmp_path / "report.json"

    def run(edited):
        edited_report.write_text(json.dumps(edited))
        return main(["compare", str(edited_report), str(report),
                     "--output", str(tmp_path / "o")])

    assert _refusals(report, run, edited_report, capsys, type_edits) == []
