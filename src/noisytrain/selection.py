"""Divergence-based clean/noisy partitioning with class balancing.

Per-sample disagreement between the given one-hot label and a prediction
the caller has already made is measured with the Jensen-Shannon
divergence in base 2, so values span exactly [0, 1]; nothing here runs a
network.  A cutoff derived from the divergence distribution yields the
filter rate R, and ``select_clean`` admits each class's round(R * N / C)
samples of lowest divergence to the clean set.  Without class balancing
the same rule runs over one group of all samples: the class-blind baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _check_columns, _check_number, _checked_indices, atomic_open, round_half_up

_LN2 = np.log(2.0)

# the cutoff's filter coefficient tau (> 1, or the cutoff sits at or below d_min and
# selects nothing) and adjustment threshold d_mu: fixed, as uniform selection is not tuned
TAU = 5.0
D_MU = 0.7


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
    class_counts: np.ndarray   # selected count per given class


def _as_distribution(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64).reshape(-1)
    if arr.size < 2:
        raise ValueError(f"{name} must have at least 2 entries")
    if not np.all(np.isfinite(arr) & (arr >= 0.0)):
        raise ValueError(f"{name} has negative or non-finite entries")
    if abs(arr.sum() - 1.0) > 1e-6:
        raise ValueError(f"{name} sums to {arr.sum():.8f}, not 1")
    return arr


def jsd(y, p) -> float:
    """Jensen-Shannon divergence between two distributions, base-2 logs.

    0 * log 0 terms are dropped, so one-hot inputs are fine.  The result
    is symmetric and lies in [0, 1]; disjoint supports give exactly 1.
    """
    ya = _as_distribution(y, "y")
    pa = _as_distribution(p, "p")
    if ya.size != pa.size:
        raise ValueError(f"length mismatch: {ya.size} vs {pa.size}")
    m = (ya + pa) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t_y = np.where(ya > 0.0, ya * np.log(ya / m), 0.0)
        t_p = np.where(pa > 0.0, pa * np.log(pa / m), 0.0)
    val = 0.5 * (t_y.sum() + t_p.sum()) / _LN2
    return float(min(max(val, 0.0), 1.0))


def divergences_from_probs(probs: np.ndarray, given_labels: np.ndarray) -> DivergenceReport:
    """jsd(one_hot(label), row) for every row of the 2-D ``probs``, read from the label's
    entry p, in float64 whatever the dtype of ``probs``.

    Rows must be distributions, as ``jsd`` requires: each off-label entry p_j
    has midpoint p_j / 2, so together they add (1 - p) * ln 2."""
    _check_columns(probs)
    n, C = probs.shape
    labels = _checked_indices("given_labels", given_labels, C)
    if len(labels) != n:
        raise ValueError(f"given_labels: {len(labels)} labels for {n} prediction rows")
    p = probs[np.arange(n), labels].astype(np.float64)   # so d, and all read from it, are float64
    m = (1.0 + p) / 2.0
    t_p = p * np.log(np.where(p > 0.0, p / m, 1.0))   # p = 0 drops its term
    d = (t_p - np.log(m) + (1.0 - p) * _LN2) / (2.0 * _LN2)
    return DivergenceReport.from_values(np.clip(d, 0.0, 1.0))


def compute_cutoff(report: DivergenceReport) -> float:
    """Automatic cutoff: pulled below the mean only when the mean is high.

    A high divergence mean (at least ``D_MU``) signals unconfident
    predictions, so the cutoff retreats toward the minimum, by ``1 / TAU``
    of the spread, and the selection becomes conservative.
    """
    if report.d_avg >= D_MU:
        return report.d_avg - (report.d_avg - report.d_min) / TAU
    return report.d_avg


def compute_filter_rate(report: DivergenceReport, d_cutoff: float) -> float:
    """Fraction of samples with divergence strictly below the cutoff."""
    return float(np.count_nonzero(report.d < d_cutoff)) / len(report)


def select_clean(report: DivergenceReport, given_labels, num_classes: int, filter_rate: float,
                 balancing: bool = True, d_cutoff: float = float("nan")) -> SelectionResult:
    """Admit the lowest-divergence samples of each group, ties to the lower index.

    With ``balancing`` a sample's group is its given class (uniform
    selection); without it all samples form one group (the class-blind
    baseline).  Each of the G groups keeps min(N_g, round(R * N / G)): every
    class the same count, and the one class-blind group round(R * N).
    """
    filter_rate = _check_number("filter_rate", filter_rate, float, 0.0, 1.0)
    labels = _checked_indices("given_labels", given_labels, num_classes)
    n = len(report)
    if len(labels) != n:
        raise ValueError("labels and divergences disagree in length")
    group = labels if balancing else np.zeros(n, dtype=np.int64)
    sizes = np.bincount(group, minlength=num_classes if balancing else 1)
    quotas = np.minimum(sizes, round_half_up(filter_rate * n / len(sizes)))
    # by group, then divergence; lexsort is stable, so ties keep the lower index
    order = np.lexsort((report.d, group))
    ranked_group = group[order]
    rank_in_group = np.arange(n) - (np.cumsum(sizes) - sizes)[ranked_group]
    clean = np.sort(order[rank_in_group < quotas[ranked_group]])
    noisy = np.delete(np.arange(n), clean)
    return SelectionResult(clean, noisy, filter_rate, float(d_cutoff),
                           np.bincount(labels[clean], minlength=num_classes))


def export_selection_csv(sel: SelectionResult, report: DivergenceReport,
                         given_labels, path: str) -> None:
    """Offline inspection dump: index,given_label,d,selected (no field needs csv quoting)."""
    n = len(report)
    labels = _checked_indices("given_labels", given_labels, len(sel.class_counts))
    if len(labels) != n:
        raise ValueError("labels and divergences disagree in length")
    selected = np.zeros(n, dtype=np.int64)
    selected[_checked_indices("clean_indices", sel.clean_indices, n)] = 1
    lines = ["index,given_label,d,selected"]
    lines.extend(f"{i},{label},{d!r},{s}" for i, label, d, s in
                 zip(range(n), labels.tolist(), report.d.tolist(), selected.tolist()))
    with atomic_open(path) as f:
        f.write("\n".join(lines) + "\n")
