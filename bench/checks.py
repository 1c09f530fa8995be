"""Output checks for one repetition, plus the behaviour-golden hashes.

`check_outputs` returns a list of problems (empty when the run is
correct).  Hashes of `metrics.csv` and `summary.json` are compared to the
recorded golden only as information: a refactor that keeps behaviour
keeps them, a deliberate arithmetic change moves them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

from workloads import Workload

SUMMARY_KEYS = {"best_acc", "last_acc", "final_R", "final_auc",
                "first_ssl_class_counts", "final_class_counts"}
HASHED = ("metrics.csv", "summary.json")
SKEW_FACTOR = 2.0


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def output_hashes(w: Workload, out_dir: str) -> dict[str, str]:
    return {os.path.join(sub, name) if sub else name:
            sha256(os.path.join(out_dir, sub, name))
            for sub in w.run_dirs() for name in HASHED}


def _check_metrics_csv(path: str, total_epochs: int) -> list[str]:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    problems = []
    if len(rows) != total_epochs:
        problems.append(f"{path}: {len(rows)} rows, expected {total_epochs}")
    for row in rows:
        for key, value in row.items():
            if key in ("epoch", "phase") or value == "":
                continue
            x = float(value)
            if not math.isfinite(x):
                problems.append(f"{path}: epoch {row['epoch']} {key}={value} is not finite")
            elif key == "R" and not 0.0 <= x <= 1.0:
                problems.append(f"{path}: epoch {row['epoch']} R={x} outside [0, 1]")
    return problems


def _check_checkpoint(path: str) -> list[str]:
    from noisytrain.model import load_checkpoint, save_checkpoint
    copy = path + ".roundtrip"
    try:
        save_checkpoint(load_checkpoint(path), copy)
        same = sha256(copy) == sha256(path)
    finally:
        if os.path.exists(copy):
            os.remove(copy)
    return [] if same else [f"{path}: load/save round trip changed the bytes"]


def _check_run_dir(d: str, total_epochs: int) -> list[str]:
    problems = _check_metrics_csv(os.path.join(d, "metrics.csv"), total_epochs)
    problems += _check_checkpoint(os.path.join(d, "checkpoint.bin"))
    with open(os.path.join(d, "summary.json")) as f:
        keys = set(json.load(f))
    if keys != SUMMARY_KEYS:
        problems.append(f"{d}/summary.json: keys {sorted(keys)}")
    return problems


def _check_ablation(w: Workload, out_dir: str) -> list[str]:
    with open(os.path.join(out_dir, "ablation_summary.csv"), newline="") as f:
        table = {row["arm"]: row for row in csv.DictReader(f)}
    if set(table) != set(w.arms):
        return [f"ablation_summary.csv arms {sorted(table)}"]
    full = float(table["full"]["final_hist_ratio"])
    blind = float(table["no_balancing"]["final_hist_ratio"])
    problems = []
    if not blind >= SKEW_FACTOR * full:
        problems.append(f"class-blind skew lost: no_balancing ratio {blind} "
                        f"< {SKEW_FACTOR} x full ratio {full}")
    if "--export-selection" in w.flags:
        expected = 2 * w.ssl_epochs
        for arm in w.arms:
            n = sum(name.startswith("selection_") for name in os.listdir(os.path.join(out_dir, arm)))
            if n != expected:
                problems.append(f"{arm}: {n} selection CSVs, expected {expected}")
    return problems


def check_outputs(w: Workload, out_dir: str) -> list[str]:
    try:
        problems = []
        for sub in w.run_dirs():
            problems += _check_run_dir(os.path.join(out_dir, sub), w.total_epochs)
        if w.arms:
            problems += _check_ablation(w, out_dir)
        return problems
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]


def quality(w: Workload, out_dir: str) -> dict:
    """Final-epoch test accuracy and selection AUC (ablations: the first arm)."""
    sub = w.run_dirs()[0]
    with open(os.path.join(out_dir, sub, "summary.json")) as f:
        s = json.load(f)
    return {"test_acc": s["last_acc"], "auc": s["final_auc"]}
