"""Experiment commands: dataset generation, runs, ablations, reports.

Every output file is written through ``data.atomic_open`` (temp file +
rename), so an interrupted run never leaves a truncated file behind.
With a fixed seed, repeated runs produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os

import numpy as np

from .config import ExperimentConfig
from .data import (LabeledDataset, apply_noise, atomic_open, dataset_csv_blocks,
                   make_gaussian_blobs, save_dataset_csv)
from .kernel import wrap
from .experiment import RunResult, run
from .metrics import EpochMetrics
from .model import save_checkpoint
from .selection import export_selection_csv
from .training import AblationFlags

_METRIC_FIELDS = [f.name for f in dataclasses.fields(EpochMetrics) if f.name != "class_counts"]
METRICS_COLUMNS = ["R" if name == "filter_rate" else name for name in _METRIC_FIELDS]

ABLATION_ARMS = (
    ("full", AblationFlags(True, True, True)),
    ("no_balancing", AblationFlags(False, True, True)),
    ("no_cl", AblationFlags(True, False, True)),
    ("no_ensemble", AblationFlags(True, True, False)),
)


def build_datasets(cfg: ExperimentConfig) -> tuple[LabeledDataset, LabeledDataset]:
    """Deterministic train/test pair sharing the same class means.

    One blob draw covers both splits; the first per_class samples of each
    class form the train set, the remainder the test set.  Noise touches
    the train split only.
    """
    d = cfg.dataset
    pooled = make_gaussian_blobs(d.num_classes, d.per_class + d.test_per_class,
                                 d.dims, d.separation, cfg.hyperparams.seed)
    rows = np.arange(len(pooled)).reshape(d.num_classes, -1)   # one row of indices per class

    def subset(idx):   # the pooled features were scanned when they were drawn
        return LabeledDataset(wrap(pooled.features.data[idx]), pooled.true_labels[idx],
                              pooled.given_labels[idx], d.num_classes)

    train = subset(rows[:, :d.per_class].ravel())
    test = subset(rows[:, d.per_class:].ravel())
    return apply_noise(train, cfg.noise, cfg.hyperparams.seed), test


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def _write_table(path: str, header: list[str], rows) -> None:
    """Write a CSV table; if building a row raises, ``path`` keeps its old content."""
    with atomic_open(path) as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def write_metrics_csv(rows: list[EpochMetrics], path: str) -> None:
    _write_table(path, METRICS_COLUMNS,
                 ([r.epoch, r.phase, *(_fmt(getattr(r, name)) for name in _METRIC_FIELDS[2:])]
                  for r in rows))


def _write_json(payload: dict, path: str) -> None:
    with atomic_open(path) as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def summarize(rows: list[EpochMetrics]) -> dict:
    ssl_rows = [r for r in rows if r.phase == "ssl"]
    return {
        "best_acc": max(r.test_acc for r in rows) if rows else None,
        "last_acc": rows[-1].test_acc if rows else None,
        "final_R": ssl_rows[-1].filter_rate if ssl_rows else None,
        "final_auc": ssl_rows[-1].roc_auc if ssl_rows else None,
        "first_ssl_class_counts": ssl_rows[0].class_counts if ssl_rows else None,
        "final_class_counts": ssl_rows[-1].class_counts if ssl_rows else None,
    }


def _dataset_path(out_dir: str) -> str:
    return os.path.join(out_dir, "dataset.csv")


def _check_snapshot(path: str, train: LabeledDataset) -> None:
    """Refuse a snapshot that is not, byte for byte, the one this config writes."""
    blocks = dataset_csv_blocks(train)   # a dtype it cannot write is refused here, not as stale
    try:
        with open(path, newline="") as f:
            same = all(f.read(len(block)) == block for block in blocks) and f.read(1) == ""
    except UnicodeDecodeError:   # not text, so not a snapshot this config wrote
        same = False
    if not same:
        raise ValueError(f"{path} was not generated from this config; "
                         f"remove it or choose another output directory")


def _snapshot(out_dir: str, train: LabeledDataset) -> bool:
    """Make ``out_dir``; check the dataset snapshot in it, or write it.
    True when it wrote the snapshot."""
    os.makedirs(out_dir, exist_ok=True)
    path = _dataset_path(out_dir)
    if os.path.exists(path):
        _check_snapshot(path, train)
        return False
    save_dataset_csv(train, path)
    return True


def cmd_generate(cfg: ExperimentConfig) -> tuple[str, bool]:
    """Write the (noisy) train split snapshot, or check the one already there.
    Returns its path, and whether it was written."""
    train, _ = build_datasets(cfg)
    return _dataset_path(cfg.output_dir), _snapshot(cfg.output_dir, train)


def _train(cfg: ExperimentConfig, train: LabeledDataset, test: LabeledDataset,
           export_selection: bool, start: RunResult | None = None) -> dict:
    """Run cfg's training (continuing ``start``, if given); write its outputs."""
    on_epoch = None
    if export_selection:
        def on_epoch(row, halves, *_):   # a warmup epoch has no halves
            for half in halves:
                path = os.path.join(cfg.output_dir,
                                    f"selection_epoch{row.epoch:03d}_net{half.net_index}.csv")
                export_selection_csv(half.selection, half.report, train.given_labels, path)

    result = run(train, test, cfg.hyperparams, cfg.arch.hidden, cfg.arch.embed_dim,
                 cfg.augmentation, cfg.ablation, on_epoch=on_epoch, start=start)

    write_metrics_csv(result.rows, os.path.join(cfg.output_dir, "metrics.csv"))
    save_checkpoint(result.twins, os.path.join(cfg.output_dir, "checkpoint.bin"))
    summary = summarize(result.rows)
    _write_json(summary, os.path.join(cfg.output_dir, "summary.json"))
    return summary


def cmd_run(cfg: ExperimentConfig, export_selection: bool = False) -> dict:
    """Run the full pipeline; emit metrics CSV, checkpoint, summary JSON."""
    train, test = build_datasets(cfg)
    _snapshot(cfg.output_dir, train)
    return _train(cfg, train, test, export_selection)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # not every platform has it
        return os.cpu_count() or 1


def cmd_ablate(cfg: ExperimentConfig, export_selection: bool = False) -> dict:
    """Run the four arms with a shared seed and emit a comparison table.

    Warmup does not read the ablation flags, so it runs once, here; each
    arm's SSL epochs then continue it in a spawned worker process.  A
    worker imports ``noisytrain`` before numpy, so it loads one BLAS
    thread (several multi-threaded BLAS pools on the same cores spin
    against each other).  An arm writes the files ``cmd_run`` writes for
    its config.
    """
    arms = [(name, dataclasses.replace(cfg, ablation=flags,
                                       output_dir=os.path.join(cfg.output_dir, name)))
            for name, flags in ABLATION_ARMS]
    # Up to the first warmup epoch, only what cmd_run does: no other
    # snapshot, no process; a benchmark times set-up up to that epoch.
    train, test = build_datasets(cfg)
    _snapshot(arms[0][1].output_dir, train)
    hp = cfg.hyperparams
    warm = run(train, test, dataclasses.replace(hp, total_epochs=hp.warmup_epochs),
               cfg.arch.hidden, cfg.arch.embed_dim, cfg.augmentation)
    for _, arm_cfg in arms[1:]:
        _snapshot(arm_cfg.output_dir, train)

    import multiprocessing   # here, after warmup, for the same reason
    from concurrent.futures import ProcessPoolExecutor
    workers = min(len(arms), _usable_cpus())
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
        futures = [pool.submit(_train, arm_cfg, train, test, export_selection, warm)
                   for _, arm_cfg in arms]
        try:
            summaries = {name: f.result() for (name, _), f in zip(arms, futures)}
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise

    _write_table(os.path.join(cfg.output_dir, "ablation_summary.csv"),
                 ["arm", "best_acc", "last_acc", "final_R", "final_auc",
                  "first_ssl_hist_ratio", "final_hist_ratio"],
                 ([name, _fmt(s["best_acc"]), _fmt(s["last_acc"]), _fmt(s["final_R"]),
                   _fmt(s["final_auc"]), _fmt(hist_ratio(s["first_ssl_class_counts"])),
                   _fmt(hist_ratio(s["final_class_counts"]))] for name, s in summaries.items()))
    return summaries


def hist_ratio(counts) -> float:
    """Imbalance measure max/min of per-class selected counts."""
    if counts is None or len(counts) == 0:
        return float("nan")
    largest = max(counts)
    smallest = min(counts)
    if smallest == 0:
        return float("inf")
    return largest / smallest


def cmd_report(metrics_path: str, out_path: str) -> str:
    """Flatten a metrics CSV into plot-ready long format."""
    with open(metrics_path, newline="") as f:
        r = csv.reader(f)
        header = next(r, None)
        if header is None:
            raise ValueError(f"{metrics_path} has no header line")
        rows = list(r)
    for i, row in enumerate(rows, start=1):   # a bad row leaves no output file
        if len(row) != len(header):
            raise ValueError(f"{metrics_path}: row {i} has {len(row)} fields, "
                             f"the header {len(header)}")
    _write_table(out_path, ["epoch", "phase", "metric", "value"],
                 ([row[0], row[1], name, value] for row in rows
                  for name, value in zip(header[2:], row[2:]) if value != ""))
    return out_path
