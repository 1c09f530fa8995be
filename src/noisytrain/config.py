"""Experiment configuration: strict JSON with validated ranges.

Each JSON section is one dataclass: its keys are the dataclass fields,
an omitted field takes the dataclass default, and the constructor checks
each value against the type and range its field declares (``data.setting``)
and the cross-field rules.  Unknown keys are rejected outright so a
mistyped hyperparameter name fails fast instead of silently running with
defaults.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields, replace

from .data import AugmentationSpec, NoiseSpec, check_settings, setting, validate_flip_map
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
    num_classes: int = setting(4, int, 2, 1000)
    per_class: int = setting(250, int, 1, 10_000_000)
    test_per_class: int = setting(100, int, 1, 10_000_000)
    dims: int = setting(8, int, 2, 100_000)
    separation: float = setting(8.0, float, 1e-9, 1e9)

    def __post_init__(self):
        check_settings(self)


@dataclass(frozen=True)
class ArchConfig:
    hidden: int = setting(64, int, 1, 1_000_000)
    embed_dim: int = setting(16, int, 1, 1_000_000)

    def __post_init__(self):
        check_settings(self)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    augmentation: AugmentationSpec = field(default_factory=AugmentationSpec)
    arch: ArchConfig = field(default_factory=ArchConfig)
    hyperparams: Hyperparams = field(default_factory=Hyperparams)
    selection: CutoffParams = field(default_factory=CutoffParams)
    ablation: AblationFlags = field(default_factory=AblationFlags)
    output_dir: str = "runs/experiment"

    def __post_init__(self):   # the rules that span sections
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ValueError("output_dir: expected a non-empty string")
        if self.noise.flip_map is not None:
            try:
                flip_map = validate_flip_map(self.noise.flip_map, self.dataset.num_classes)
            except ValueError as exc:
                raise ValueError(f"noise.flip_map: {exc}") from exc
            object.__setattr__(self, "noise", replace(self.noise, flip_map=flip_map))   # a tuple


# JSON section name -> the dataclass that holds it
_SECTIONS = {f.name: f.default_factory for f in fields(ExperimentConfig)
             if f.default_factory is not MISSING}


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

    given = {section: dict(_check_keys(raw.get(section, {}), section, cls))
             for section, cls in _SECTIONS.items()}
    if "seed" in raw:   # checked alone: a top-level key's message has no section prefix
        try:
            given["hyperparams"]["seed"] = Hyperparams(seed=raw["seed"]).seed
        except ValueError as exc:
            raise ConfigValueError(str(exc)) from exc

    sections = {}
    for section, cls in _SECTIONS.items():
        try:
            sections[section] = cls(**given[section])
        except ValueError as exc:
            # the constructors' messages start with the field name
            raise ConfigValueError(f"{section}.{exc}") from exc
    try:   # its own messages name the key in full
        return ExperimentConfig(**sections,
                                output_dir=raw.get("output_dir", ExperimentConfig.output_dir))
    except ValueError as exc:
        raise ConfigValueError(str(exc)) from exc


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
