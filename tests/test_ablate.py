"""`cmd_ablate`: one shared warmup, then the arms in spawned worker processes.

Each arm's files must be byte for byte those `cmd_run` writes for that
arm's config, failures must surface as the named error, and no worker may
start before the first warmup epoch (conftest checks that none outlives a
test).
"""

import dataclasses
import importlib
import inspect
import json
import multiprocessing
import os
import pathlib
import pickle
import pkgutil
import subprocess
import sys

import pytest

import noisytrain
from noisytrain import config, experiment, training
from noisytrain.config import config_from_dict
from noisytrain.model import ALL_GROUPS
from noisytrain.runner import ABLATION_ARMS, build_datasets, cmd_ablate, cmd_run

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# pytest loads numpy before noisytrain, so an in-process cmd_run here keeps
# OpenBLAS's default thread count while the workers get one thread; this is
# small enough that OpenBLAS never threads, so that cannot change a byte.
# Two warmup epochs carry a momentum velocity.
TINY = {
    "dataset": {"num_classes": 3, "per_class": 20, "test_per_class": 10,
                "dims": 4, "separation": 8.0},
    "noise": {"kind": "symmetric", "rate": 0.4},
    "arch": {"hidden": 16, "embed_dim": 4},
    "hyperparams": {"batch_size": 16, "warmup_epochs": 2, "total_epochs": 5},
    "seed": 5,
}

DESK = {
    "dataset": {"num_classes": 4, "per_class": 250, "test_per_class": 100,
                "dims": 8, "separation": 8.0},
    "noise": {"kind": "symmetric", "rate": 0.5},
    "arch": {"hidden": 64, "embed_dim": 16},
    "hyperparams": {"warmup_epochs": 10, "total_epochs": 60},
    "seed": 17,
}


def tiny_config(out):
    return config_from_dict({**TINY, "output_dir": str(out)})


def files(directory):
    return {p.name: p.read_bytes() for p in sorted(pathlib.Path(directory).iterdir())}


def test_arms_equal_serial_runs(tmp_path):
    cfg = tiny_config(tmp_path / "ablate")
    summaries = cmd_ablate(cfg, export_selection=True)
    for name, flags in ABLATION_ARMS:
        serial = dataclasses.replace(cfg, ablation=flags, output_dir=str(tmp_path / name))
        assert cmd_run(serial, export_selection=True) == summaries[name]
        arm = files(os.path.join(cfg.output_dir, name))
        assert sum(n.startswith("selection_epoch") for n in arm) == 2 * 3
        assert arm == files(serial.output_dir), name


def test_arm_snapshots_checked_after_warmup(tmp_path):
    cfg = tiny_config(tmp_path)
    stale = tmp_path / "no_cl" / "dataset.csv"
    stale.parent.mkdir()
    stale.write_text("not this config's snapshot\n")
    with pytest.raises(ValueError, match="was not generated from this config"):
        cmd_ablate(cfg)
    assert not os.path.exists(tmp_path / "full" / "metrics.csv")   # no arm ran


class Sentinel(Exception):
    pass


def test_nothing_starts_before_the_first_warmup_epoch(tmp_path, monkeypatch):
    # a benchmark's set-up timer stops the process inside this call
    def stop(*args, **kwargs):
        raise Sentinel
    monkeypatch.setattr(experiment, "warmup_train", stop)
    with pytest.raises(Sentinel):
        cmd_ablate(tiny_config(tmp_path))
    assert multiprocessing.active_children() == []
    assert os.listdir(tmp_path) == ["full"]
    assert os.listdir(tmp_path / "full") == ["dataset.csv"]


DIVERGING = [
    # lr 50 diverges in warmup, before any worker starts
    ({"lr": 50.0}, "error: training diverged at epoch 0, net 1 (warmup): lx is not finite"),
    # one warmup epoch at lr 2 collapses the projection in the first SSL step,
    # inside the first arm's worker
    ({"lr": 2.0, "warmup_epochs": 1},
     "error: training diverged at epoch 1, net 1 (ssl): lc is not finite"),
]


def cli(*args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-W", "error", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("hyperparams,message", DIVERGING)
def test_diverging_ablation_exits_one_like_run(tmp_path, hyperparams, message):
    raw = {**DESK, "hyperparams": {**DESK["hyperparams"], **hyperparams}}
    (tmp_path / "config.json").write_text(json.dumps(raw))
    for command in ("run", "ablate"):
        proc = cli("-m", "noisytrain.cli", command, "--config", "config.json",
                   "--out", command, cwd=tmp_path)
        assert (proc.returncode, proc.stderr) == (1, message + "\n"), command


# The benchmark's wide data and arch with one SSL epoch: products large
# enough that OpenBLAS threads them, and rounds differently when it does.
WIDE = {
    "dataset": {"num_classes": 10, "per_class": 1000, "test_per_class": 100,
                "dims": 32, "separation": 3.0},
    "noise": {"kind": "asymmetric", "rate": 0.4, "flip_map": [1, 2, 3, 4, 5, 6, 7, 8, 9, 0]},
    "arch": {"hidden": 128, "embed_dim": 32},
    "hyperparams": {"warmup_epochs": 3, "total_epochs": 4, "batch_size": 128},
    "seed": 17,
}


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="OpenBLAS runs one thread on one core, so this would guard nothing")
def test_run_and_the_full_arm_write_the_same_bytes(tmp_path):
    # each command loads OpenBLAS with one thread, and its workers inherit it
    (tmp_path / "config.json").write_text(json.dumps(WIDE))
    for command in ("run", "ablate"):
        proc = cli("-m", "noisytrain.cli", command, "--config", "config.json",
                   "--out", command, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
    run, full = files(tmp_path / "run"), files(tmp_path / "ablate" / "full")
    for name in ("metrics.csv", "checkpoint.bin", "summary.json"):
        assert run[name] == full[name], name


def _exception_classes():
    found = set()
    for info in pkgutil.iter_modules(noisytrain.__path__):
        module = importlib.import_module(f"noisytrain.{info.name}")
        found.update(obj for _, obj in inspect.getmembers(module, inspect.isclass)
                     if issubclass(obj, Exception) and obj.__module__ == module.__name__)
    return found


EXAMPLES = [
    training.TrainingDivergedError(3, 1, "ssl", "lc"),
    config.ConfigError("unknown key: x"),
]


def test_examples_cover_every_exception_class():
    assert {type(e) for e in EXAMPLES} == _exception_classes()


@pytest.mark.parametrize("exc", EXAMPLES, ids=lambda e: type(e).__name__)
def test_exception_survives_pickling(exc):
    # a worker's error reaches the parent through pickle
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)


def test_warm_start_reaches_a_worker_with_both_velocity_rows(tmp_path):
    # cmd_ablate's shared warmup reaches each spawned worker through pickle
    from multiprocessing.reduction import ForkingPickler
    cfg = tiny_config(tmp_path)
    hp = cfg.hyperparams
    warm = experiment.run(*build_datasets(cfg),
                          dataclasses.replace(hp, total_epochs=hp.warmup_epochs),
                          cfg.arch.hidden, cfg.arch.embed_dim, cfg.augmentation)
    nets = (warm.twins.net1, warm.twins.net2)
    back = pickle.loads(ForkingPickler.dumps(warm))
    assert back.rows == warm.rows
    for net, got in zip(nets, (back.twins.net1, back.twins.net2)):
        assert net.velocity.any()
        assert got.velocity.tobytes() == net.velocity.tobytes()
        assert got.velocity.flags.writeable   # the worker's steps update it in place
        assert all(got.params[n].data.tobytes() == net.params[n].data.tobytes()
                   for n in ALL_GROUPS)


def test_demo_04_runs_under_spawn(tmp_path):
    # its workers import the script again; only the main process may run it
    proc = cli(os.path.join(ROOT, "demos", "04_experiment_cli.py"), cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "demo_runs" / "ablation" / "ablation_summary.csv").exists()
