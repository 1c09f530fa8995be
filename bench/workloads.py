"""Benchmark workloads: one `noisytrain` CLI invocation each.

A workload is a config (minus the seed, which the benchmark passes with
`--seed`), the subcommand to run, and its extra flags.  Why each one was
chosen is recorded in BENCHMARK.json.  `tiny` variants keep every code
path of the full size but finish in about a second; the benchmark's own
smoke tests use them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

GOLDEN_SEED = 17

_DESK_DATA = {"num_classes": 4, "per_class": 250, "test_per_class": 100,
              "dims": 8, "separation": 8.0}
_DESK_ARCH = {"hidden": 64, "embed_dim": 16}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str              # "run" or "ablate"
    config: dict
    flags: tuple[str, ...] = ()
    arms: tuple[str, ...] = field(default=())   # ablation arm subdirectories

    @property
    def total_epochs(self) -> int:
        return self.config["hyperparams"]["total_epochs"]

    @property
    def ssl_epochs(self) -> int:
        hp = self.config["hyperparams"]
        return hp["total_epochs"] - hp["warmup_epochs"]

    def run_dirs(self) -> list[str]:
        """Output subdirectories that each hold one run's files."""
        return list(self.arms) if self.arms else [""]

    def cli_args(self, config_path: str, out_dir: str, seed: int) -> list[str]:
        return [self.command, "--config", config_path, "--seed", str(seed),
                "--out", out_dir, *self.flags]


def _desk(noise_rate: float, warmup: int, total: int) -> dict:
    return {
        "dataset": dict(_DESK_DATA),
        "noise": {"kind": "symmetric", "rate": noise_rate},
        "arch": dict(_DESK_ARCH),
        "hyperparams": {"warmup_epochs": warmup, "total_epochs": total},
    }


ARMS = ("full", "no_balancing", "no_cl", "no_ensemble")

WORKLOADS = {
    "ablate80": Workload("ablate80", "ablate", _desk(0.8, 10, 60),
                         ("--export-selection",), arms=ARMS),
    "desk": Workload("desk", "run", _desk(0.5, 10, 60)),
    "ce": Workload("ce", "run", _desk(0.5, 60, 60)),
    "wide": Workload(
        "wide", "run", {
            "dataset": {"num_classes": 10, "per_class": 1000, "test_per_class": 100,
                        "dims": 32, "separation": 3.0},
            "noise": {"kind": "asymmetric", "rate": 0.4,
                      "flip_map": [1, 2, 3, 4, 5, 6, 7, 8, 9, 0]},
            "arch": {"hidden": 128, "embed_dim": 32},
            "hyperparams": {"warmup_epochs": 3, "total_epochs": 10, "batch_size": 128},
        }),
}


def tiny(w: Workload) -> Workload:
    """Same code paths on a few dozen rows and a handful of epochs."""
    cfg = {k: dict(v) for k, v in w.config.items()}
    cfg["dataset"].update(per_class=40, test_per_class=10)
    hp = cfg["hyperparams"]
    warmup = 2 if hp["warmup_epochs"] < hp["total_epochs"] else 4
    cfg["hyperparams"] = {**hp, "warmup_epochs": warmup, "total_epochs": 4,
                          "batch_size": 16}
    return Workload(w.name, w.command, cfg, w.flags, w.arms)
