"""Evaluation of selection quality, pseudo-labels, accuracy, memorization.

All functions are pure and deterministic.  True labels are consulted
only here, never by training code.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import AugmentationSpec, LabeledDataset, weak_augment
from .kernel import Matrix, wrap
from .model import TwinNetworks, ensemble_softmax
from .selection import DivergenceReport, SelectionResult
from .training import guess_pseudo_labels

logger = logging.getLogger(__name__)


class UndefinedAUCError(ValueError):
    """ROC-AUC needs both truly-clean and truly-noisy samples."""


@dataclass
class EpochMetrics:
    """One logged row per training epoch.

    Selection-quality fields describe the partition entering the epoch
    (the first network's selection pass); accuracy fields describe the
    model at the end of the epoch.  Warmup rows leave selection fields
    unset.
    """

    epoch: int
    phase: str
    filter_rate: float | None
    d_cutoff: float | None
    precision: float | None
    recall: float | None
    roc_auc: float | None
    pseudo_recall: float | None
    test_acc: float
    train_acc_given: float
    loss_lx: float | None
    loss_lu: float | None
    loss_reg: float | None
    loss_lc: float | None
    class_counts: list[int] | None = None


def truly_clean_mask(ds: LabeledDataset) -> np.ndarray:
    return ds.given_labels == ds.true_labels


def selection_precision_recall(sel: SelectionResult, ds: LabeledDataset) -> tuple[float, float]:
    """How much of the selected set is truly clean, and how much of the
    truly clean set was captured."""
    clean_mask = truly_clean_mask(ds)
    n_true_clean = int(clean_mask.sum())
    selected = sel.clean_indices
    if len(selected) == 0:
        logger.warning("empty selection: precision reported as 1 by convention")
        return 1.0, 0.0
    hits = int(clean_mask[selected].sum())
    precision = hits / len(selected)
    recall = hits / n_true_clean if n_true_clean > 0 else 0.0
    return float(precision), float(recall)


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


def roc_auc(report: DivergenceReport, ds: LabeledDataset) -> float:
    """Rank-sum AUC of cleanness score 1 - d for truly-clean vs truly-noisy."""
    clean_mask = truly_clean_mask(ds)
    n_pos = int(clean_mask.sum())
    n_neg = len(ds) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAUCError("need both truly-clean and truly-noisy samples")
    scores = 1.0 - report.d
    ranks = _tied_ranks(scores)
    rank_sum = ranks[clean_mask].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def pseudo_label_recall(twins: TwinNetworks, ds: LabeledDataset, noisy_indices,
                        T: float, aug: AugmentationSpec,
                        rng: np.random.Generator) -> float:
    """Macro-averaged per-true-class recall of argmax pseudo-labels.

    Restricted to the noisy set; true classes absent from it are left out
    of the average.
    """
    idx = np.asarray(noisy_indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("noisy set is empty")
    x = wrap(ds.features.data[idx])
    q = guess_pseudo_labels(twins, weak_augment(x, aug, rng), weak_augment(x, aug, rng), T)
    predicted = q.data.argmax(axis=1)
    true = ds.true_labels[idx]
    recalls = []
    for c in range(ds.num_classes):
        members = true == c
        if members.any():
            recalls.append(float((predicted[members] == c).mean()))
    return float(np.mean(recalls))


def accuracy(twins: TwinNetworks, features: Matrix, labels) -> float:
    """Fraction of ensemble argmax predictions matching the labels.

    Against given labels on the train set this measures memorization.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) == 0:
        raise ValueError("empty evaluation set")
    probs = ensemble_softmax(twins, features)
    predicted = probs.data.argmax(axis=1)
    return float((predicted == labels).mean())

