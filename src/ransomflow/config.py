"""Pipeline configuration: one settings document, read by one strict reader.

The object layout is the document layout. A JSON file may set the top-level
``seed`` and ``fine_tune`` and one object per section (``dataset``, ``sae``,
``lstm``, ``gbt``), whose keys are laid over that section's defaults.
:meth:`PipelineConfig.echo` writes the same layout with every default filled
in, so a stored ``config`` echo is itself a valid configuration file. Paths
are command arguments, not settings, so an echo records none. Unknown keys
anywhere are rejected rather than ignored; a typo should fail loudly, not
silently fall back to a default.

This module alone writes and reads a section: :func:`section_doc` turns
each settings class in :data:`SECTIONS` into its object, and
:func:`from_dict` builds the class from an object's keys, leaving absent
keys to the class defaults. The keys are the field names, but for the one
field named after a Python keyword.

One master seed feeds every stochastic stage through labeled substreams
(:meth:`PipelineConfig.seed_for`), so changing it reseeds the whole pipeline
coherently while two stages never share a stream. Stage seeds are derived,
so they are never settings.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

from . import rng
from .errors import ConfigError, SchemaMismatch, check_int, check_number
from .gbt import GbtParams
from .lstm import LstmConfig
from .sae import SAEConfig
from .serialize import load_json

DEFAULT_SEED = 1819


def _check_fraction(name: str, value) -> None:
    check_number(name, value)
    if not 0.0 < value < 1.0:
        raise ConfigError(f"{name} must lie in (0, 1), got {value}")


@dataclass
class DatasetConfig:
    test_ratio: float = 0.2
    split_before_dedup: bool = False
    subsample: float | None = None

    def __post_init__(self):
        if not isinstance(self.split_before_dedup, bool):
            raise ConfigError(f"split_before_dedup must be true or false, "
                              f"got {self.split_before_dedup!r}")
        _check_fraction("test ratio", self.test_ratio)
        if self.subsample is not None:
            _check_fraction("subsample fraction", self.subsample)


# section name -> its settings class
SECTIONS = {"dataset": DatasetConfig, "sae": SAEConfig, "lstm": LstmConfig,
            "gbt": GbtParams}
# field -> its key where the two differ: ``lambda`` is a Python keyword
_STORED_NAMES = {"lambda_": "lambda"}


def section_doc(settings) -> dict:
    """The object of a section's settings: one key per field."""
    return {_STORED_NAMES.get(name, name): value
            for name, value in asdict(settings).items()}


@dataclass
class PipelineConfig:
    seed: int = DEFAULT_SEED
    fine_tune: bool = False
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    sae: SAEConfig = field(default_factory=SAEConfig)
    lstm: LstmConfig = field(default_factory=LstmConfig)
    gbt: GbtParams = field(default_factory=GbtParams)

    def __post_init__(self):
        check_int("seed", self.seed)
        if not isinstance(self.fine_tune, bool):
            raise ConfigError(f"fine_tune must be true or false, got "
                              f"{self.fine_tune!r}")

    def seed_for(self, stage: str) -> int:
        """The seed of one stochastic stage ("split", "subsample", "sae" or
        "lstm"), derived from the master seed."""
        return rng.derive(self.seed, stage)

    def echo(self) -> dict:
        """The settings document, defaults included, that :func:`from_dict`
        reads back; artifacts store it as their ``config``."""
        return {f.name: section_doc(getattr(self, f.name))
                if f.name in SECTIONS else getattr(self, f.name)
                for f in fields(self)}


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _stage(doc: dict, name: str, cls):
    """A section's settings: its keys laid over the class defaults."""
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"section {name!r} must be an object")
    names = {_STORED_NAMES.get(f.name, f.name): f.name for f in fields(cls)}
    _check_keys(section, set(names), name)
    try:
        return cls(**{names[key]: value for key, value in section.items()})
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration value: {cls.__name__}: "
                          f"{exc}") from None


def from_dict(doc: dict) -> PipelineConfig:
    """Settings from a document laid out like :meth:`PipelineConfig.echo`."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be an object")
    _check_keys(doc, {f.name for f in fields(PipelineConfig)}, "configuration")
    top = {key: value for key, value in doc.items() if key not in SECTIONS}
    return PipelineConfig(**top, **{name: _stage(doc, name, cls)
                                    for name, cls in SECTIONS.items()})


def load_config(path) -> PipelineConfig:
    """Parse a JSON configuration file; a non-finite number is refused."""
    try:
        doc = load_json(path)
    except SchemaMismatch as exc:  # not UTF-8 JSON, or not a finite number
        raise ConfigError(str(exc)) from None
    return from_dict(doc)
