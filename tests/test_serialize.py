"""The shared CSV writer and the stored float arrays."""

import base64
import csv
import io
import json

import numpy as np
import pytest

from ransomflow.errors import DataError, SchemaMismatch
from ransomflow.serialize import (
    array_doc,
    array_from_doc,
    canonical_json,
    csv_text,
)


def test_csv_text_cell_rules():
    text = csv_text(("name", "x", "n"), [
        ("a", 0.1, 3),
        ("b", np.float64(1e-17), np.int64(7)),
        ("", np.float64(2.0), ""),
        ("c", float("nan"), True),
    ])
    assert text == ("name,x,n\n"
                    "a,0.1,3\n"
                    "b,1e-17,7\n"
                    ",2.0,\n"
                    "c,nan,True\n")
    assert "np." not in text


def test_csv_text_header_only_ends_with_newline():
    assert csv_text(("a", "b"), []) == "a,b\n"
    assert csv_text(("a",), iter([(np.float32(0.5),)])) == "a\n0.5\n"


def test_csv_text_floats_round_trip_exactly():
    values = np.random.default_rng(3).standard_normal(50)
    text = csv_text(("v",), ((v,) for v in values))
    parsed = np.array([float(line) for line in text.splitlines()[1:]])
    assert np.array_equal(parsed, values)


def test_csv_text_quotes_cells_csv_would_split():
    names = ["Locky, v2", 'say "hi"', "two\nlines", "cr\ronly", "plain"]
    text = csv_text(("name", "n"), [(name, 1) for name in names])
    assert text.split("\n")[1:3] == ['"Locky, v2",1', '"say ""hi""",1']
    assert list(csv.reader(io.StringIO(text, newline=""))) == [
        ["name", "n"], *([name, "1"] for name in names)]



@pytest.mark.parametrize("array", [
    np.array([[-0.0, 5e-324, 0.1 + 0.2], [1e308, -1.5, 2.0 ** -1074]]),
    np.arange(6.0).reshape(3, 2).T,  # not C-contiguous
    np.zeros((0, 3)),
    np.float64(7.25),
], ids=["edge-values", "transposed", "empty", "scalar"])
def test_array_doc_round_trips_bits(array):
    doc = json.loads(canonical_json(array_doc(array, "a")))
    assert doc["dtype"] == "<f8" and doc["shape"] == list(np.shape(array))
    back = array_from_doc(doc)
    assert back.dtype == np.float64 and back.shape == np.shape(array)
    assert back.tobytes() == np.asarray(array).tobytes()
    assert back.flags.writeable


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_array_doc_refuses_non_finite_values(value):
    with pytest.raises(DataError, match="cannot store head weights"):
        array_doc(np.array([1.0, value]), "head weights")



@pytest.mark.parametrize("shape", [[2, 2], [4, 2], []])
def test_array_from_doc_refuses_a_shape_its_bytes_do_not_fill(shape):
    doc = {**array_doc(np.zeros((3, 2)), "a"), "shape": shape}
    with pytest.raises(SchemaMismatch, match="48 bytes"):
        array_from_doc(doc)

def test_array_from_doc_refuses_non_finite_bytes():
    doc = array_doc(np.zeros(2), "a")
    doc["b64"] = base64.b64encode(
        np.array([0.0, np.nan]).astype("<f8").tobytes()).decode("ascii")
    with pytest.raises(SchemaMismatch, match="non-finite"):
        array_from_doc(doc)
