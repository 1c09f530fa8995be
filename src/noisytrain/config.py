"""Experiment configuration: strict JSON with validated ranges.

Each JSON section is one dataclass: its keys are the dataclass fields,
an omitted field takes the dataclass default, and the dataclass runs its
own cross-field checks.  Unknown keys are rejected outright so a
mistyped hyperparameter name fails fast instead of silently running with
defaults; values are type- and range-checked here before construction.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields

from .data import AugmentationSpec, validate_flip_map
from .selection import CutoffParams
from .training import AblationFlags, Hyperparams


class ConfigError(Exception):
    """Base class for configuration problems."""


class ConfigFileError(ConfigError):
    """The config file is missing or unreadable."""


class ConfigSyntaxError(ConfigError):
    """The config file is not valid JSON."""


class ConfigKeyError(ConfigError):
    """An unknown key appeared in the config."""


class ConfigValueError(ConfigError):
    """A config value has the wrong type or is out of range."""


@dataclass(frozen=True)
class DatasetConfig:
    num_classes: int = 4
    per_class: int = 250
    test_per_class: int = 100
    dims: int = 8
    separation: float = 8.0


@dataclass(frozen=True)
class NoiseConfig:
    kind: str = "symmetric"
    rate: float = 0.5
    flip_map: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind == "asymmetric" and self.flip_map is None:
            raise ValueError("flip_map is required for asymmetric noise")


@dataclass(frozen=True)
class ArchConfig:
    hidden: int = 64
    embed_dim: int = 16


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    augmentation: AugmentationSpec = field(default_factory=AugmentationSpec)
    arch: ArchConfig = field(default_factory=ArchConfig)
    hyperparams: Hyperparams = field(default_factory=Hyperparams)
    selection: CutoffParams = field(default_factory=CutoffParams)
    ablation: AblationFlags = field(default_factory=AblationFlags)
    output_dir: str = "runs/experiment"


_RANGES = {
    "dataset.num_classes": (int, 2, 1000),
    "dataset.per_class": (int, 1, 10_000_000),
    "dataset.test_per_class": (int, 1, 10_000_000),
    "dataset.dims": (int, 2, 100_000),
    "dataset.separation": (float, 1e-9, 1e9),
    "noise.rate": (float, 0.0, 1.0),
    "augmentation.weak_sigma": (float, 0.0, 1e9),
    "augmentation.strong_sigma": (float, 0.0, 1e9),
    "augmentation.strong_dropout_prob": (float, 0.0, 0.999999),
    "arch.hidden": (int, 1, 1_000_000),
    "arch.embed_dim": (int, 1, 1_000_000),
    "hyperparams.T": (float, 1e-9, 1e9),
    "hyperparams.lambda_u": (float, 0.0, 1e9),
    "hyperparams.lambda_c": (float, 0.0, 1e9),
    "hyperparams.lambda_r": (float, 0.0, 1e9),
    "hyperparams.kappa": (float, 1e-9, 1e9),
    "hyperparams.d_omega": (float, 0.0, 1.0),
    "hyperparams.alpha": (float, 1e-9, 1e9),
    "hyperparams.lr": (float, 1e-12, 1e9),
    "hyperparams.momentum": (float, 0.0, 0.999999),
    "hyperparams.weight_decay": (float, 0.0, 1e9),
    "hyperparams.batch_size": (int, 1, 10_000_000),
    "hyperparams.warmup_epochs": (int, 0, 10_000_000),
    "hyperparams.total_epochs": (int, 0, 10_000_000),
    "hyperparams.lr_decay_factor": (float, 1e-9, 1.0),
    "hyperparams.lr_decay_every": (int, 1, 10_000_000),
    "selection.tau": (float, 1e-9, 1e9),
    "selection.d_mu": (float, 1e-9, 0.999999),
    "seed": (int, 0, 2 ** 62),
}

_CHOICES = {
    "noise.kind": ("symmetric", "asymmetric"),
    "selection.quota_mode": ("class_fraction", "dataset_fraction"),
}

# JSON section name -> the dataclass that holds it
_SECTIONS = {f.name: f.default_factory for f in fields(ExperimentConfig)
             if f.default_factory is not MISSING}


def _check_range(dotted: str, value):
    kind, lo, hi = _RANGES[dotted]
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigValueError(f"{dotted}: expected an integer, got {value!r}")
        v = value
    else:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigValueError(f"{dotted}: expected a number, got {value!r}")
        v = float(value)
    if not lo <= v <= hi:
        raise ConfigValueError(f"{dotted}: {value!r} out of range [{lo}, {hi}]")
    return kind(v)


def _check_value(dotted: str, value):
    if dotted in _RANGES:
        return _check_range(dotted, value)
    if dotted in _CHOICES:
        if not (isinstance(value, str) and value in _CHOICES[dotted]):
            raise ConfigValueError(
                f"{dotted}: expected {'|'.join(_CHOICES[dotted])}, got {value!r}")
    elif dotted.startswith("ablation.") and not isinstance(value, bool):
        raise ConfigValueError(f"{dotted}: expected a boolean")
    return value


def _check_keys(raw, section: str, cls) -> dict:
    if not isinstance(raw, dict):
        raise ConfigValueError(f"{section}: expected an object")
    keys = {f.name for f in fields(cls)} - {"seed"}   # the seed is a top-level key
    for key in raw:
        if key not in keys:
            raise ConfigKeyError(f"unknown key: {section}.{key}")
    return raw


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigValueError("top level: expected a JSON object")
    for key in raw:
        if key not in _SECTIONS and key not in ("seed", "output_dir"):
            raise ConfigKeyError(f"unknown key: {key}")

    given = {section: _check_keys(raw.get(section, {}), section, cls)
             for section, cls in _SECTIONS.items()}
    values = {section: {key: _check_value(f"{section}.{key}", value)
                        for key, value in items.items()}
              for section, items in given.items()}
    if "seed" in raw:
        values["hyperparams"]["seed"] = _check_range("seed", raw["seed"])
    output_dir = raw.get("output_dir", ExperimentConfig.output_dir)
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigValueError("output_dir: expected a non-empty string")

    flip_map = values["noise"].get("flip_map")
    if flip_map is not None:
        if not isinstance(flip_map, list):
            raise ConfigValueError("noise.flip_map: expected a list of class indices")
        num_classes = values["dataset"].get("num_classes", DatasetConfig.num_classes)
        try:
            values["noise"]["flip_map"] = validate_flip_map(flip_map, num_classes)
        except (TypeError, ValueError) as exc:
            raise ConfigValueError(f"noise.flip_map: {exc}") from exc

    sections = {}
    for section, cls in _SECTIONS.items():
        try:
            sections[section] = cls(**values[section])
        except ValueError as exc:
            # the constructors' messages start with the field name
            raise ConfigValueError(f"{section}.{exc}") from exc
    return ExperimentConfig(**sections, output_dir=output_dir)


def parse_config(path: str) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except FileNotFoundError as exc:
        raise ConfigFileError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigFileError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigSyntaxError(f"config file {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigSyntaxError(f"malformed JSON in {path}: {exc}") from exc
    return config_from_dict(raw)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Canonical dict form; parsing it again yields an equal config."""
    out = asdict(cfg)
    flip_map = out["noise"].pop("flip_map")
    if flip_map is not None:
        out["noise"]["flip_map"] = list(flip_map)
    out["seed"] = out["hyperparams"].pop("seed")
    out["output_dir"] = out.pop("output_dir")   # after the seed, as in the schema
    return out
