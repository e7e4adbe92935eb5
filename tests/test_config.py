"""The one writer and reader of a settings section, for every section."""

import json
from dataclasses import fields

import pytest

from ransomflow.config import SECTIONS, from_dict, section_doc
from ransomflow.errors import ConfigError

# per section, settings other than the defaults, and a key with a value
# the class rejects
_CASES = {
    "dataset": ({"test_ratio": 0.25, "split_before_dedup": True,
                 "subsample": 0.5},
                "test_ratio", 1.5),
    "sae": ({"encoder_dims": (9, 4), "activation": "tanh",
             "convergence_threshold": 0.25}, "epochs", "x"),
    "lstm": ({"sequence_layout": "feature-steps", "clip_threshold": 1.5},
             "hidden_size", 0),
    "gbt": ({"gamma": 0.5, "lambda_": 2.0, "rounds": 7}, "lambda", -1.0),
}


@pytest.mark.parametrize("name", SECTIONS)
def test_section_round_trips_and_is_strict(name):
    cls = SECTIONS[name]
    changed, key, bad = _CASES[name]
    settings = cls(**changed)
    doc = section_doc(settings)
    # the keys are the field names; "lambda" is a Python keyword
    assert list(doc) == [{"lambda_": "lambda"}.get(f.name, f.name)
                         for f in fields(cls)]
    assert getattr(from_dict({name: json.loads(json.dumps(doc))}),
                   name) == settings
    for wrong, named in (({**doc, "extra": 1}, f"unknown key(s) in {name}: "
                                                "extra"),
                         ({**doc, key: bad}, f"invalid configuration value: "
                                             f"{cls.__name__}: ")):
        with pytest.raises(ConfigError) as info:
            from_dict({name: wrong})
        assert str(info.value).startswith(named)


@pytest.mark.parametrize("name", SECTIONS)
def test_absent_keys_take_the_class_defaults(name):
    cls = SECTIONS[name]
    changed, key, _ = _CASES[name]
    doc = section_doc(cls(**changed))
    field = {"lambda": "lambda_"}.get(key, key)
    read = getattr(from_dict({name: {k: v for k, v in doc.items()
                                     if k != key}}), name)
    assert getattr(read, field) == getattr(cls(), field)
    assert read == cls(**{**changed, field: getattr(cls(), field)})
    assert getattr(from_dict({}), name) == cls()
