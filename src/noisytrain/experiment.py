"""Full training runs: warmup followed by SSL epochs, with per-epoch metrics.

A run logs one metrics row per epoch.  For SSL epochs the selection
fields describe the partition computed at the start of the epoch (the
same one the first network trains against), so the first SSL row is the
state of selection exactly at the end of warmup.  Accuracy fields always
describe the model after the epoch's updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import AugmentationSpec, LabeledDataset
from .metrics import (EpochMetrics, UndefinedAUCError, accuracy,
                      class_histogram, pseudo_label_recall,
                      selection_precision_recall, roc_auc)
from .model import Arch, TwinNetworks, init_twins
from .selection import CutoffParams
from .training import (AblationFlags, EpochRecord, Hyperparams, select_for_network,
                       train_epoch, warmup_train)

_S_METRIC = 80


@dataclass
class RunResult:
    """A run's state after its last epoch: enough for ``run`` to continue it.

    Each network of ``twins`` carries its SGD velocity row."""

    twins: TwinNetworks
    rows: list[EpochMetrics]


def run(train_ds: LabeledDataset, test_ds: LabeledDataset, hp: Hyperparams,
        hidden: int, embed_dim: int, aug: AugmentationSpec,
        cutoff_params: CutoffParams | None = None,
        flags: AblationFlags | None = None,
        on_epoch: Callable[[int, EpochRecord], None] | None = None,
        start: RunResult | None = None) -> RunResult:
    """Train twin networks for hp.total_epochs and log metrics per epoch.

    With ``start``, continue a finished run of the same data and settings
    from epoch ``len(start.rows)``, training its networks and their velocity
    rows further in place.  Every random draw is keyed by seed and epoch,
    so the result is the one an uninterrupted run would give.
    """
    cutoff_params = cutoff_params or CutoffParams()
    flags = flags or AblationFlags()
    if start is None:
        arch = Arch(train_ds.dims, hidden, train_ds.num_classes, embed_dim)
        twins = init_twins(arch, hp.seed)
        rows: list[EpochMetrics] = []
    else:
        twins, rows = start.twins, list(start.rows)

    for epoch in range(len(rows), hp.total_epochs):
        if epoch < hp.warmup_epochs:
            ce = warmup_train(twins, train_ds, hp, epochs=1, epoch_offset=epoch)
            rows.append(EpochMetrics(
                epoch=epoch, phase="warmup",
                filter_rate=None, d_cutoff=None, precision=None, recall=None,
                roc_auc=None, pseudo_recall=None,
                test_acc=accuracy(twins, test_ds.features, test_ds.true_labels),
                train_acc_given=accuracy(twins, train_ds.features, train_ds.given_labels),
                loss_lx=ce[0], loss_lu=None, loss_reg=None, loss_lc=None,
            ))
            continue

        report, sel = select_for_network(twins, 1, train_ds, cutoff_params, flags)
        precision, recall = selection_precision_recall(sel, train_ds)
        try:
            auc = roc_auc(report, train_ds)
        except UndefinedAUCError:
            auc = None
        if len(sel.noisy_indices) > 0:
            rng = np.random.default_rng([hp.seed, _S_METRIC, epoch])
            p_recall = pseudo_label_recall(twins, train_ds, sel.noisy_indices,
                                           hp.T, aug, rng)
        else:
            p_recall = None
        counts = class_histogram(sel, train_ds.given_labels, train_ds.num_classes)

        record = train_epoch(twins, train_ds, hp, aug, cutoff_params, flags,
                             epoch, first_selection=(report, sel))
        if on_epoch is not None:
            on_epoch(epoch, record)

        losses = record.mean_losses()
        rows.append(EpochMetrics(
            epoch=epoch, phase="ssl",
            filter_rate=sel.filter_rate, d_cutoff=sel.d_cutoff,
            precision=precision, recall=recall, roc_auc=auc,
            pseudo_recall=p_recall,
            test_acc=accuracy(twins, test_ds.features, test_ds.true_labels),
            train_acc_given=accuracy(twins, train_ds.features, train_ds.given_labels),
            loss_lx=losses["lx"], loss_lu=losses["lu"],
            loss_reg=losses["lreg"], loss_lc=losses["lc"],
            class_counts=[int(c) for c in counts],
        ))
    return RunResult(twins=twins, rows=rows)
