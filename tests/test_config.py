"""The config contract.

Every bad value is rejected with ``ConfigValueError`` or ``ConfigKeyError``
and the offending key named in the message; every valid config survives
a round trip through its canonical dict form.
"""

import json
import math
import os
import re
from dataclasses import fields, replace

import pytest

from noisytrain.cli import main
from noisytrain.config import (ConfigKeyError, ConfigValueError, DatasetConfig,
                               ExperimentConfig, config_from_dict, config_to_dict)
from noisytrain.data import AugmentationSpec, NoiseSpec
from noisytrain.model import Arch
from noisytrain.selection import CutoffParams
from noisytrain.training import Hyperparams

SECTIONS = ("dataset", "noise", "augmentation", "arch", "hyperparams",
            "selection", "ablation")

# JSON section name -> its dataclass
SECTION_CLASSES = {f.name: f.default_factory for f in fields(ExperimentConfig)
                   if f.name in SECTIONS}
# every settings class, with the arguments it needs besides the one under test
SETTINGS_CLASSES = {cls: {} for cls in SECTION_CLASSES.values()}
SETTINGS_CLASSES[Arch] = {"in_dim": 2, "hidden": 3, "num_classes": 2, "embed_dim": 1}

# every field set, and set to something other than its default
NON_DEFAULT = {
    "dataset": {"num_classes": 5, "per_class": 30, "test_per_class": 7,
                "dims": 3, "separation": 2.5},
    "noise": {"kind": "asymmetric", "rate": 0.3, "flip_map": [2, 3, 4, 0, 1]},
    "augmentation": {"weak_sigma": 0.2, "strong_sigma": 0.9, "strong_dropout_prob": 0.1},
    "arch": {"hidden": 12, "embed_dim": 6},
    "hyperparams": {"T": 0.4, "lambda_u": 10.0, "lambda_c": 0.5, "lambda_r": 2.0,
                    "kappa": 0.2, "d_omega": 0.3, "alpha": 0.75, "lr": 0.05,
                    "momentum": 0.8, "weight_decay": 1e-3, "batch_size": 8,
                    "warmup_epochs": 2, "total_epochs": 9, "lr_decay_factor": 0.5,
                    "lr_decay_every": 3},
    "selection": {"tau": 3.0, "d_mu": 0.6, "quota_mode": "dataset_fraction"},
    "ablation": {"balancing": False, "contrastive": False, "ensemble": False},
    "seed": 123,
    "output_dir": "runs/other",
}


def _nested(dotted, value):
    section, _, key = dotted.partition(".")
    return {section: {key: value}} if key else {section: value}


def _numeric_settings(cls):
    """(name, kind, lo, hi) of each int or float field ``cls`` declares."""
    for f in fields(cls):
        if f.metadata.get("kind") in (int, float):
            yield f.name, f.metadata["kind"], *f.metadata["range"]


def _range_cases():
    for section, cls in SECTION_CLASSES.items():
        for name, kind, lo, hi in _numeric_settings(cls):
            dotted = name if name == "seed" else f"{section}.{name}"   # a top-level key
            if kind is int:
                bad = {"below": lo - 1, "above": hi + 1, "fraction": 2.5}
            else:
                bad = {"below": 0.0 if lo > 0 else lo - 0.5,
                       "above": 2 * hi if hi > 1 else (1.0 if hi < 1 else 1.5)}
            bad.update(string="1", bool=True)
            for label, value in bad.items():
                yield pytest.param(_nested(dotted, value), re.escape(dotted),
                                   id=f"{dotted}-{label}")


def _key(section, key):
    return re.escape(f"{section}.{key}")


VALUE_CASES = [
    *[pytest.param({s: value}, re.escape(s), id=f"{s}-not-object-{type(value).__name__}")
      for s in SECTIONS for value in ([1], "x", 3)],
    *[pytest.param({"noise": {"kind": value}}, _key("noise", "kind"), id=f"kind-{value!r}")
      for value in ("gaussian", 1, None)],
    *[pytest.param({"selection": {"quota_mode": value}}, _key("selection", "quota_mode"),
                   id=f"quota-{value!r}")
      for value in ("per_class", 0, None)],
    *[pytest.param({"ablation": {flag: value}}, _key("ablation", flag), id=f"{flag}-{value!r}")
      for flag in ("balancing", "contrastive", "ensemble") for value in ("yes", 1, None)],
    *[pytest.param({"output_dir": value}, "output_dir", id=f"output_dir-{value!r}")
      for value in (5, None, ["runs"], "")],
    *[pytest.param({"dataset": {"num_classes": 3},
                    "noise": {"kind": "asymmetric", "flip_map": value}},
                   _key("noise", "flip_map"), id=f"flip_map-{value!r}")
      for value in ([1, 2], [1, 2, 0, 1], [0, 2, 1], [1, 2, 3], [1, "a", 0], "120", 7)],
    # entries must be integers: no truncation of floats, no bools, no numeric strings
    *[pytest.param({"dataset": {"num_classes": 3},
                    "noise": {"kind": "asymmetric", "flip_map": value}},
                   _key("noise", "flip_map") + r": .*class 0 must be an integer, got \w+ ",
                   id=f"flip_map-{value!r}")
      for value in ([1.0, 2, 0], [1.5, 2, 0], [True, 2, 0], ["1", 2, 0])],
    # with symmetric noise the fault is the map itself, whatever its entries
    *[pytest.param({"noise": {"flip_map": value}},
                   f"^{_key('noise', 'flip_map')} is only for asymmetric noise, not symmetric$",
                   id=f"flip_map-symmetric-{value!r}") for value in ([1, 0], "x")],
    pytest.param({"dataset": {"num_classes": 4},
                  "noise": {"kind": "asymmetric", "flip_map": [1.5, 2.9, True, 0]}},
                 _key("noise", "flip_map") + ": .*must be an integer, got float 1.5",
                 id="flip_map-floats-and-bool"),
    pytest.param({"augmentation": {"weak_sigma": 0.6}},
                 _key("augmentation", "strong_sigma"), id="strong-below-default-weak"),
    pytest.param({"augmentation": {"weak_sigma": 0.2, "strong_sigma": 0.1}},
                 _key("augmentation", "strong_sigma"), id="strong-below-weak"),
    pytest.param({"hyperparams": {"warmup_epochs": 20, "total_epochs": 10}},
                 _key("hyperparams", "total_epochs"), id="total-below-warmup"),
    pytest.param({"hyperparams": {"warmup_epochs": 400}},
                 _key("hyperparams", "total_epochs"), id="total-below-warmup-default"),
    # tau <= 1 puts the cutoff at or below d_min, where selection admits nothing
    *[pytest.param({"selection": {"tau": value}}, _key("selection", "tau") + ": ",
                   id=f"tau-{value!r}") for value in (0.5, 1, 1.0)],
    # below T = 0.01, sharpen can underflow a whole row to 0 and divide 0 by 0
    pytest.param({"hyperparams": {"T": 0.001}}, _key("hyperparams", "T") + ": ", id="T-0.001"),
]

KEY_CASES = [
    *[pytest.param({s: {"bogus": 1}}, re.escape(f"{s}.bogus"), id=f"{s}-unknown")
      for s in SECTIONS],
    pytest.param({"hyperparams": {"seed": 3}}, re.escape("hyperparams.seed"),
                 id="seed-inside-hyperparams"),
    pytest.param({"extras": {}}, "extras", id="top-level-unknown"),
]


@pytest.mark.parametrize("raw,key", list(_range_cases()))
def test_out_of_range_or_mistyped_value_names_key(raw, key):
    with pytest.raises(ConfigValueError, match=key):
        config_from_dict(raw)


def _construction(cls, tag="", **kwargs):
    """``cls`` built from ``kwargs`` and the class's base arguments; the
    error must name the first field in ``kwargs``."""
    name = next(iter(kwargs))
    return pytest.param(cls, {**SETTINGS_CLASSES[cls], **kwargs}, name,
                        id=f"{tag}{cls.__name__}-{name}-{kwargs[name]!r}")


def _direct_cases():
    for cls in SETTINGS_CLASSES:
        for name, *_ in _numeric_settings(cls):
            for value in (math.nan, math.inf, -math.inf, True, "1"):
                yield _construction(cls, **{name: value})


# each of these constructed without error before the fields declared their ranges
DIRECT_PROBES = [
    *[_construction(Hyperparams, "probe-", **{name: math.nan})
      for name in ("lr", "T", "lambda_u", "momentum")],
    _construction(Hyperparams, "probe-", weight_decay=-1.0),
    _construction(Hyperparams, "probe-", kappa=math.inf),
    _construction(Hyperparams, "probe-", batch_size=2.5),
    _construction(Hyperparams, "probe-", T=0.001),
    _construction(CutoffParams, "probe-", tau=math.nan),
    _construction(CutoffParams, "probe-", tau=1.0),
    _construction(CutoffParams, "probe-", tau=0.5),
    _construction(AugmentationSpec, "probe-", weak_sigma=math.nan, strong_sigma=math.nan),
    _construction(Arch, "probe-", in_dim=2.5),
]


@pytest.mark.parametrize("cls,kwargs,name", [*_direct_cases(), *DIRECT_PROBES])
def test_direct_construction_checks_the_declared_range(cls, kwargs, name):
    with pytest.raises(ValueError, match=f"^{re.escape(name)}: "):
        cls(**kwargs)


@pytest.mark.parametrize("cls", SETTINGS_CLASSES, ids=lambda cls: cls.__name__)
def test_every_field_is_a_declared_setting(cls):
    undeclared = [f.name for f in fields(cls) if "kind" not in f.metadata]
    assert undeclared == (["flip_map"] if cls is NoiseSpec else [])


@pytest.mark.parametrize("raw,key", VALUE_CASES)
def test_bad_value_names_key(raw, key):
    with pytest.raises(ConfigValueError, match=key):
        config_from_dict(raw)


@pytest.mark.parametrize("raw,key", KEY_CASES)
def test_unknown_key_names_key(raw, key):
    with pytest.raises(ConfigKeyError, match=key):
        config_from_dict(raw)


@pytest.mark.parametrize("raw", [[], "config", 3, None])
def test_top_level_must_be_object(raw):
    with pytest.raises(ConfigValueError, match="top level"):
        config_from_dict(raw)


@pytest.mark.parametrize("seed", [-1, 2 ** 62 + 1, 2 ** 63])
def test_seed_out_of_range_rejected(seed):
    with pytest.raises(ConfigValueError, match=r"^seed: "):
        config_from_dict({"seed": seed})


def test_seed_range_bounds_accepted():
    assert config_from_dict({"seed": 0}).hyperparams.seed == 0
    assert config_from_dict({"seed": 2 ** 62}).hyperparams.seed == 2 ** 62


def test_asymmetric_noise_needs_flip_map():
    with pytest.raises(ConfigValueError, match=_key("noise", "flip_map")):
        config_from_dict({"noise": {"kind": "asymmetric"}})
    with pytest.raises(ConfigValueError, match=_key("noise", "flip_map")):
        config_from_dict({"noise": {"kind": "asymmetric", "flip_map": None}})


def test_symmetric_noise_refuses_flip_map():
    with pytest.raises(ConfigValueError,
                       match=f"^{_key('noise', 'flip_map')} is only for asymmetric noise"):
        config_from_dict({"noise": {"kind": "symmetric", "rate": 0.3, "flip_map": [1, 2, 3, 0]}})
    with pytest.raises(ConfigValueError, match=_key("noise", "flip_map")):
        config_from_dict({"noise": {"flip_map": [1, 2, 3, 0]}})   # symmetric by default


@pytest.mark.parametrize("kwargs,message", [
    ({"dataset": DatasetConfig(num_classes=10),
      "noise": NoiseSpec("asymmetric", 0.4, (1, 2, 3, 0))},
     r"noise\.flip_map: flip_map must have 10 entries, got 4"),
    ({"noise": NoiseSpec("asymmetric", 0.4, (0, 1, 2, 3))},
     r"noise\.flip_map: flip_map maps class 0 to itself"),
    ({"output_dir": ""}, "output_dir: expected a non-empty string"),
], ids=["flip_map-of-another-width", "flip_map-to-itself", "output_dir-empty"])
def test_direct_construction_checks_the_rules_across_sections(kwargs, message):
    # these were accepted, and the flip maps failed only later, without the "noise." prefix
    with pytest.raises(ValueError, match=f"^{message}$"):
        ExperimentConfig(**kwargs)
    with pytest.raises(ValueError, match=f"^{message}$"):
        replace(ExperimentConfig(), **kwargs)


def test_direct_construction_stores_the_flip_map_as_a_tuple():
    cfg = ExperimentConfig(noise=NoiseSpec("asymmetric", 0.4, [1, 2, 3, 0]))
    assert cfg.noise.flip_map == (1, 2, 3, 0)
    assert cfg == config_from_dict(config_to_dict(cfg))


def test_bad_seed_fails_before_any_output(tmp_path, capsys):
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"seed": -1, "output_dir": str(out)}))
    assert main(["run", "--config", str(path)]) == 1
    assert "config error: seed" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_seed_override_out_of_range_rejected(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"output_dir": str(tmp_path / "out")}))
    assert main(["generate", "--config", str(path), "--seed", str(2 ** 63)]) == 1
    assert "config error: seed" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")


def test_round_trip_every_field_non_default():
    defaults = config_to_dict(config_from_dict({}))
    for section in SECTIONS:
        assert set(NON_DEFAULT[section]) <= set(defaults[section]) | {"flip_map"}
        for key, value in NON_DEFAULT[section].items():
            assert value != defaults[section].get(key), f"{section}.{key} is the default"
    assert set(defaults) == set(NON_DEFAULT)
    cfg = config_from_dict(NON_DEFAULT)
    assert config_to_dict(cfg) == NON_DEFAULT
    assert config_from_dict(config_to_dict(cfg)) == cfg
    assert cfg.hyperparams.seed == 123
    assert cfg.noise.flip_map == (2, 3, 4, 0, 1)


def test_defaults_dict_form():
    d = config_to_dict(config_from_dict({}))
    assert list(d) == [*SECTIONS, "seed", "output_dir"]
    assert d["seed"] == 0 and d["output_dir"] == "runs/experiment"
    assert "flip_map" not in d["noise"] and "seed" not in d["hyperparams"]
    assert d["noise"] == {"kind": "symmetric", "rate": 0.5}
    assert d["selection"] == {"tau": 5.0, "d_mu": 0.7, "quota_mode": "class_fraction"}


def test_numbers_are_canonicalized():
    cfg = config_from_dict({"noise": {"rate": 0}, "selection": {"tau": 2},
                            "dataset": {"separation": 3}})
    assert isinstance(cfg.noise.rate, float) and cfg.noise.rate == 0.0
    assert isinstance(cfg.selection.tau, float)
    assert isinstance(cfg.dataset.separation, float)
    assert isinstance(Hyperparams(lr=1).lr, float)   # constructed directly, too
