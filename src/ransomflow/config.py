"""Pipeline configuration: JSON file plus command-line overrides.

One master seed feeds every stochastic stage through labeled substreams, so
changing it reseeds the whole pipeline coherently while two stages never
share a stream. Unknown keys anywhere in the file are rejected rather than
ignored; a typo should fail loudly, not silently fall back to a default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import rng
from .errors import ConfigError, SchemaMismatch, check_int
from .gbt import GbtParams
from .lstm import LstmConfig
from .sae import SAEConfig

DEFAULT_SEED = 1819


@dataclass
class PipelineConfig:
    csv_path: str | None = None
    test_ratio: float = 0.2
    split_before_dedup: bool = False
    subsample: float | None = None
    seed: int = DEFAULT_SEED
    fine_tune: bool = False
    output_dir: str = "out"
    sae: SAEConfig = field(default_factory=SAEConfig)
    lstm: LstmConfig = field(default_factory=LstmConfig)
    gbt: GbtParams = field(default_factory=GbtParams)

    def __post_init__(self):
        if self.csv_path is not None and not isinstance(self.csv_path, str):
            raise ConfigError(f"dataset csv must be a path string, got "
                              f"{self.csv_path!r}")
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir must be a path string, got "
                              f"{self.output_dir!r}")
        if not 0.0 < self.test_ratio < 1.0:
            raise ConfigError(
                f"test ratio must lie in (0, 1), got {self.test_ratio}"
            )
        if self.subsample is not None and not 0.0 < self.subsample < 1.0:
            raise ConfigError(
                f"subsample fraction must lie in (0, 1), got {self.subsample}"
            )

    # Stage-specific seeds are derived lazily so a --seed override on the
    # command line re-derives every substream.
    def split_seed(self) -> int:
        return rng.derive(self.seed, "split")

    def subsample_seed(self) -> int:
        return rng.derive(self.seed, "subsample")

    def sae_effective(self) -> SAEConfig:
        return replace(self.sae, seed=rng.derive(self.seed, "sae"))

    def lstm_effective(self) -> LstmConfig:
        return replace(self.lstm, seed=rng.derive(self.seed, "lstm"))

    def echo(self) -> dict:
        """Fully expanded settings, defaults included, for artifact headers."""
        return {
            "dataset": {
                "csv": self.csv_path,
                "test_ratio": self.test_ratio,
                "split_before_dedup": self.split_before_dedup,
                "subsample": self.subsample,
            },
            "seed": self.seed,
            "fine_tune": self.fine_tune,
            "output_dir": self.output_dir,
            "sae": self.sae_effective().to_dict(),
            "lstm": self.lstm_effective().to_dict(),
            "gbt": self.gbt.to_dict(),
        }


# Stage settings the pipeline derives itself; a file may not set them.
_DERIVED_KEYS = {"seed", "k_classes"}


def _check_keys(section: dict, allowed: set, where: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")


def _section(doc: dict, name: str, allowed: set) -> dict:
    value = doc.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"section {name!r} must be an object")
    _check_keys(value, allowed, name)
    return value


def _flag(section: dict, key: str) -> bool:
    value = section.get(key, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _stage(doc: dict, name: str, cls):
    """A stage's settings: the section's keys laid over the class defaults."""
    defaults = cls().to_dict()
    section = _section(doc, name, set(defaults) - _DERIVED_KEYS)
    try:
        return cls.from_dict({**defaults, **section})
    except SchemaMismatch as exc:
        raise ConfigError(f"invalid configuration value: {exc}") from None


def from_dict(doc: dict) -> PipelineConfig:
    """Settings from a document laid out like :meth:`PipelineConfig.echo`."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be an object")
    layout = PipelineConfig().echo()
    _check_keys(doc, set(layout), "configuration")
    ds = _section(doc, "dataset", set(layout["dataset"]))
    seed = doc.get("seed", DEFAULT_SEED)
    check_int("seed", seed)
    try:
        return PipelineConfig(
            csv_path=ds.get("csv"),
            test_ratio=ds.get("test_ratio", 0.2),
            split_before_dedup=_flag(ds, "split_before_dedup"),
            subsample=ds.get("subsample"),
            seed=seed,
            fine_tune=_flag(doc, "fine_tune"),
            output_dir=doc.get("output_dir", "out"),
            sae=_stage(doc, "sae", SAEConfig),
            lstm=_stage(doc, "lstm", LstmConfig),
            gbt=_stage(doc, "gbt", GbtParams),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration value: {exc}") from None


def load_config(path) -> PipelineConfig:
    """Parse a JSON configuration file."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    return from_dict(doc)
