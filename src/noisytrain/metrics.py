"""Evaluation of selection quality, pseudo-labels, accuracy, memorization.

All functions are pure and deterministic, and read predictions a caller
has already made (``experiment.run`` passes the two networks' averaged
softmax); none runs a forward pass.  True labels are consulted only here,
never by training code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledDataset, _check_columns, _checked_indices
from .selection import DivergenceReport, SelectionResult


@dataclass(kw_only=True)
class EpochMetrics:
    """One logged row per training epoch, built by keyword only.

    Its fields, in order and without ``class_counts``, are the columns of
    ``metrics.csv`` (``filter_rate`` is written as ``R``).  Selection-quality
    fields describe the partition entering the epoch (the first network's
    selection pass); accuracy fields describe the model at the end of the
    epoch.  A warmup row sets ``epoch``, ``phase``, the two accuracies and
    ``loss_lx``, and leaves every other field ``None``.
    """

    epoch: int
    phase: str
    filter_rate: float | None = None
    d_cutoff: float | None = None
    precision: float | None = None
    recall: float | None = None
    roc_auc: float | None = None
    pseudo_recall: float | None = None
    test_acc: float
    train_acc_given: float
    loss_lx: float
    loss_lu: float | None = None
    loss_reg: float | None = None
    loss_lc: float | None = None
    class_counts: list[int] | None = None


def truly_clean_mask(ds: LabeledDataset) -> np.ndarray:
    return ds.given_labels == ds.true_labels


def _check_length(name: str, size: int, n: int) -> None:
    if size != n:
        raise ValueError(f"{name}: {size} entries for a dataset of {n} samples")


def selection_precision_recall(sel: SelectionResult,
                               ds: LabeledDataset) -> tuple[float | None, float | None]:
    """How much of the selected set is truly clean, and how much of the
    truly clean set was captured; precision is None for an empty selection,
    and recall None when no sample is truly clean."""
    clean_mask = truly_clean_mask(ds)
    selected = _checked_indices("clean_indices", sel.clean_indices, len(ds))
    hits = int(clean_mask[selected].sum())
    n_true_clean = int(clean_mask.sum())
    return (hits / len(selected) if len(selected) else None,
            hits / n_true_clean if n_true_clean else None)


def _tied_ranks(values: np.ndarray) -> np.ndarray:
    """Mid-ranks (1-based); tied values share the average of their ranks."""
    n = len(values)
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], n] - 1
    ranks = np.empty(n)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


def roc_auc(report: DivergenceReport, ds: LabeledDataset) -> float | None:
    """Rank-sum AUC of cleanness score 1 - d for truly-clean vs truly-noisy;
    None when either set is empty."""
    _check_length("report", len(report), len(ds))
    clean_mask = truly_clean_mask(ds)
    n_pos = int(clean_mask.sum())
    n_neg = len(ds) - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    scores = 1.0 - report.d
    ranks = _tied_ranks(scores)
    rank_sum = ranks[clean_mask].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def pseudo_label_recall(probs: np.ndarray, ds: LabeledDataset, noisy_indices) -> float | None:
    """Macro-averaged per-true-class recall of the argmax of ``probs``, one
    prediction row per sample of ``ds``, on the noisy set; None when that
    set is empty.

    True classes absent from the noisy set are left out of the average.
    """
    _check_columns(probs, ds.num_classes)
    _check_length("probs", len(probs), len(ds))
    idx = _checked_indices("noisy_indices", noisy_indices, len(ds))
    if idx.size == 0:
        return None
    predicted = probs.argmax(axis=1)[idx]
    true = ds.true_labels[idx]
    members = np.bincount(true, minlength=ds.num_classes)
    hits = np.bincount(true[predicted == true], minlength=ds.num_classes)
    present = members > 0
    return float(np.mean(hits[present] / members[present]))


def accuracy(probs: np.ndarray, labels) -> float:
    """Fraction of argmax predictions of ``probs`` matching the labels.

    Against given labels on the train set this measures memorization.
    """
    _check_columns(probs)
    labels = _checked_indices("labels", labels, probs.shape[1])
    if len(labels) == 0:
        raise ValueError("empty evaluation set")
    _check_length("labels", len(labels), len(probs))
    predicted = probs.argmax(axis=1)
    return float((predicted == labels).mean())
