"""Full training runs: warmup followed by SSL epochs, with per-epoch metrics.

An SSL epoch is two halves, one per network.  Before each half, ``run``
makes that network's selection with ``select_for_network`` and hands it
to ``train_half_epoch``.  A run logs one metrics row per epoch.  For SSL
epochs the selection fields describe the first network's selection,
made at the start of the epoch, so the first SSL row is the state of
selection exactly at the end of warmup.  Accuracy fields always describe
the model after the epoch's updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import AugmentationSpec, LabeledDataset
from .metrics import (EpochMetrics, UndefinedAUCError, accuracy, pseudo_label_recall,
                      selection_precision_recall, roc_auc)
from .model import Arch, TwinNetworks, init_twins
from .selection import CutoffParams
from .training import (AblationFlags, HalfEpochRecord, Hyperparams, select_for_network,
                       train_half_epoch, warmup_train)

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
        on_epoch: Callable[[int, list[HalfEpochRecord]], None] | None = None,
        start: RunResult | None = None) -> RunResult:
    """Train twin networks for hp.total_epochs and log metrics per epoch.

    With ``start``, continue a finished run of the same data and settings
    from epoch ``len(start.rows)``, training its networks and their velocity
    rows further in place.  Every random draw is keyed by seed and epoch,
    so the result is the one an uninterrupted run would give.  After each
    SSL epoch, ``on_epoch(epoch, halves)`` gets its two half-epoch records.
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
            logged = dict(phase="warmup", loss_lx=warmup_train(twins, train_ds, hp, epoch))
        else:
            halves = []
            for net_index in (1, 2):
                report, sel = select_for_network(twins, net_index, train_ds, cutoff_params, flags)
                if net_index == 1:
                    p_recall = None if len(sel.noisy_indices) == 0 else pseudo_label_recall(
                        twins, train_ds, sel.noisy_indices, hp.T, aug,
                        np.random.default_rng([hp.seed, _S_METRIC, epoch]))
                halves.append(train_half_epoch(twins, net_index, train_ds, hp, aug, flags,
                                               epoch, report, sel))
            if on_epoch is not None:
                on_epoch(epoch, halves)

            report, sel = halves[0].report, halves[0].selection
            precision, recall = selection_precision_recall(sel, train_ds)
            try:
                auc = roc_auc(report, train_ds)
            except UndefinedAUCError:
                auc = None
            lx, lu, lreg, lc = (float(np.mean([h.losses[k] for h in halves]))
                                for k in ("lx", "lu", "lreg", "lc"))
            logged = dict(phase="ssl", filter_rate=sel.filter_rate, d_cutoff=sel.d_cutoff,
                          precision=precision, recall=recall, roc_auc=auc,
                          pseudo_recall=p_recall, loss_lx=lx, loss_lu=lu, loss_reg=lreg,
                          loss_lc=lc, class_counts=[int(c) for c in sel.per_class_quota])
        rows.append(EpochMetrics(
            epoch=epoch, **logged,
            test_acc=accuracy(twins, test_ds.features, test_ds.true_labels),
            train_acc_given=accuracy(twins, train_ds.features, train_ds.given_labels)))
    return RunResult(twins=twins, rows=rows)
