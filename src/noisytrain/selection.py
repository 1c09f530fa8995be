"""Divergence-based clean/noisy partitioning with class balancing.

Per-sample disagreement between the given one-hot label and the model's
predicted distribution is measured with the Jensen-Shannon divergence in
base 2, so values span exactly [0, 1].  A cutoff derived from the
divergence distribution yields the filter rate R, and the lowest-R
portion of each class is admitted to the clean set.  A global (class
blind) variant exists purely as an ablation baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, _check_number, atomic_open, check_settings, round_half_up, setting
from .kernel import Matrix
from .model import TwinNetworks, ensemble_softmax

_LN2 = np.log(2.0)


class DistributionError(ValueError):
    """An input row is not a valid probability distribution."""


@dataclass(frozen=True)
class CutoffParams:
    """Filter coefficient tau, adjustment threshold d_mu, per-class quota rule."""

    tau: float = setting(5.0, float, 1e-9, 1e9)
    d_mu: float = setting(0.7, float, 1e-9, 0.999999)
    quota_mode: str = setting("class_fraction", choices=("class_fraction", "dataset_fraction"))

    def __post_init__(self):
        check_settings(self)


@dataclass(frozen=True)
class DivergenceReport:
    """Per-sample divergences with their mean and minimum."""

    d: np.ndarray
    d_avg: float
    d_min: float

    @classmethod
    def from_values(cls, d) -> "DivergenceReport":
        arr = np.asarray(d, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("divergence report needs a non-empty 1-D array")
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):   # NaN fails both
            raise ValueError("divergences must lie in [0, 1]")
        return cls(d=arr, d_avg=float(arr.mean()), d_min=float(arr.min()))

    def __len__(self) -> int:
        return len(self.d)


@dataclass(frozen=True)
class SelectionResult:
    """Clean/noisy index partition and the quantities that produced it."""

    clean_indices: np.ndarray
    noisy_indices: np.ndarray
    filter_rate: float
    d_cutoff: float
    per_class_quota: np.ndarray   # selected count per given class


def _as_distribution(v, name: str) -> np.ndarray:
    arr = np.asarray(v.data if isinstance(v, Matrix) else v, dtype=np.float64).reshape(-1)
    if arr.size < 2:
        raise DistributionError(f"{name} must have at least 2 entries")
    if not np.all(np.isfinite(arr) & (arr >= 0.0)):
        raise DistributionError(f"{name} has negative or non-finite entries")
    if abs(arr.sum() - 1.0) > 1e-6:
        raise DistributionError(f"{name} sums to {arr.sum():.8f}, not 1")
    return arr


def jsd(y, p) -> float:
    """Jensen-Shannon divergence between two distributions, base-2 logs.

    0 * log 0 terms are dropped, so one-hot inputs are fine.  The result
    is symmetric and lies in [0, 1]; disjoint supports give exactly 1.
    """
    ya = _as_distribution(y, "y")
    pa = _as_distribution(p, "p")
    if ya.size != pa.size:
        raise DistributionError(f"length mismatch: {ya.size} vs {pa.size}")
    m = (ya + pa) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t_y = np.where(ya > 0.0, ya * np.log(ya / m), 0.0)
        t_p = np.where(pa > 0.0, pa * np.log(pa / m), 0.0)
    val = 0.5 * (t_y.sum() + t_p.sum()) / _LN2
    return float(min(max(val, 0.0), 1.0))


def divergences_from_probs(probs: Matrix, given_labels: np.ndarray) -> DivergenceReport:
    """Vectorized jsd(one_hot(label), probs_row) over a whole dataset."""
    P = probs.data
    n, C = P.shape
    labels = np.asarray(given_labels, dtype=np.int64)
    Y = np.zeros((n, C))
    Y[np.arange(n), labels] = 1.0
    M = (Y + P) / 2.0
    t_y = -np.log(M[np.arange(n), labels])
    with np.errstate(divide="ignore", invalid="ignore"):
        t_p = np.where(P > 0.0, P * np.log(P / M), 0.0).sum(axis=1)
    d = 0.5 * (t_y + t_p) / _LN2
    return DivergenceReport.from_values(np.clip(d, 0.0, 1.0))


def compute_divergences(twins: TwinNetworks, ds: LabeledDataset) -> DivergenceReport:
    """Divergence of each given label from the two-network ensemble prediction.

    Runs on the raw (un-augmented) features in evaluation mode.
    """
    if len(ds) == 0:
        raise ValueError("dataset is empty")
    probs = ensemble_softmax(twins, ds.features)
    return divergences_from_probs(probs, ds.given_labels)


def compute_cutoff(report: DivergenceReport, params: CutoffParams) -> float:
    """Automatic cutoff: pulled below the mean only when the mean is high.

    A high divergence mean signals unconfident predictions, so the cutoff
    retreats toward the minimum and the selection becomes conservative.
    """
    if report.d_avg >= params.d_mu:
        return report.d_avg - (report.d_avg - report.d_min) / params.tau
    return report.d_avg


def compute_filter_rate(report: DivergenceReport, d_cutoff: float) -> float:
    """Fraction of samples with divergence strictly below the cutoff."""
    return float(np.count_nonzero(report.d < d_cutoff)) / len(report)


def _ordered_members(d: np.ndarray, members: np.ndarray) -> np.ndarray:
    # sort by divergence, ties broken by lower sample index
    order = np.lexsort((members, d[members]))
    return members[order]


def _checked_labels(given_labels, num_classes: int, report: DivergenceReport) -> np.ndarray:
    """The given labels as int64, refused unless there is one per sample, each in [0, num_classes)."""
    labels = np.asarray(given_labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(f"labels out of range [0, {num_classes})")
    if len(labels) != len(report):
        raise ValueError("labels and divergences disagree in length")
    return labels


def uniform_select(report: DivergenceReport, given_labels, num_classes: int,
                   filter_rate: float, quota_mode: str = "class_fraction",
                   d_cutoff: float = float("nan")) -> SelectionResult:
    """Admit the lowest-divergence portion of every class independently.

    quota_mode "class_fraction" takes round(R * N_c) per class;
    "dataset_fraction" targets round(R * N / C) per class and takes all
    available samples from any class that falls short.
    """
    filter_rate = _check_number("filter_rate", filter_rate, float, 0.0, 1.0)
    if quota_mode not in ("class_fraction", "dataset_fraction"):
        raise ValueError(f"unknown quota_mode {quota_mode!r}")
    labels = _checked_labels(given_labels, num_classes, report)

    n = len(report)
    quotas = np.zeros(num_classes, dtype=np.int64)
    clean_parts = []
    for c in range(num_classes):
        members = np.flatnonzero(labels == c)
        if quota_mode == "class_fraction":
            quota = round_half_up(filter_rate * len(members))
        else:
            quota = min(len(members), round_half_up(filter_rate * n / num_classes))
        quotas[c] = quota
        if quota > 0:
            clean_parts.append(_ordered_members(report.d, members)[:quota])
    clean = np.sort(np.concatenate(clean_parts)) if clean_parts else np.empty(0, dtype=np.int64)
    noisy = np.delete(np.arange(n), clean)
    return SelectionResult(clean, noisy, filter_rate, float(d_cutoff), quotas)


def baseline_global_select(report: DivergenceReport, filter_rate: float,
                           given_labels, num_classes: int,
                           d_cutoff: float = float("nan")) -> SelectionResult:
    """Class-blind selection of the globally lowest round(R * N) divergences.

    Ablation baseline only; per_class_quota records the realized counts.
    """
    filter_rate = _check_number("filter_rate", filter_rate, float, 0.0, 1.0)
    labels = _checked_labels(given_labels, num_classes, report)
    n = len(report)
    k = round_half_up(filter_rate * n)
    order = np.lexsort((np.arange(n), report.d))
    clean = np.sort(order[:k])
    noisy = np.delete(np.arange(n), clean)
    counts = np.bincount(labels[clean], minlength=num_classes)
    return SelectionResult(clean, noisy, filter_rate, float(d_cutoff), counts)


def export_selection_csv(sel: SelectionResult, report: DivergenceReport,
                         given_labels, path: str) -> None:
    """Offline inspection dump: index,given_label,d,selected (no field needs csv quoting)."""
    n = len(report)
    labels = np.asarray(given_labels, dtype=np.int64)
    if len(labels) != n:
        raise ValueError("labels and divergences disagree in length")
    selected = np.zeros(n, dtype=np.int64)
    selected[sel.clean_indices] = 1
    lines = ["index,given_label,d,selected"]
    lines.extend(f"{i},{label},{d!r},{s}" for i, label, d, s in
                 zip(range(n), labels.tolist(), report.d.tolist(), selected.tolist()))
    with atomic_open(path) as f:
        f.write("\n".join(lines) + "\n")
