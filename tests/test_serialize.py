"""The shared CSV writer and the strict stored-settings reader."""

from dataclasses import dataclass

import numpy as np
import pytest

from ransomflow.errors import ConfigError, SchemaMismatch
from ransomflow.serialize import csv_text, read_fields


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


@dataclass
class _Pair:
    low: int = 0
    high_: int = 1

    def __post_init__(self):
        if not isinstance(self.low, int):
            raise ConfigError("low must be an integer")
        if self.high_ < self.low:
            raise ValueError("high below low")


def test_read_fields_maps_stored_names():
    assert read_fields(_Pair, {"low": 2, "high": 5}, {"high_": "high"}) \
        == _Pair(2, 5)


@pytest.mark.parametrize("doc,words", [
    ({"low": 1}, ["missing", "high"]),
    ({"low": 1, "high": 2, "extra": 0}, ["unknown", "extra"]),
    ({"low": 1, "high_": 2}, ["missing", "high", "unknown", "high_"]),
    ({"low": "1", "high": 2}, ["low must be an integer"]),
    ({"low": 3, "high": 2}, ["high below low"]),
])
def test_read_fields_rejects_what_the_class_does_not_hold(doc, words):
    with pytest.raises(SchemaMismatch) as info:
        read_fields(_Pair, doc, {"high_": "high"})
    for word in words:
        assert word in str(info.value)
