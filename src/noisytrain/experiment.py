"""Full training runs: warmup followed by SSL epochs, with per-epoch metrics.

An SSL epoch is two halves, one per network.  Before each half, ``run``
makes that network's selection with ``select_for_network`` and hands it
to ``train_half_epoch``.  A run logs one metrics row per epoch.  For SSL
epochs the selection fields describe the first network's selection,
made at the start of the epoch, so the first SSL row is the state of
selection exactly at the end of warmup.  Accuracy fields always describe
the model after the epoch's updates.

``run`` is the one owner of the current predictions.  It evaluates both
networks on the train set after each warmup epoch (or at the first SSL
epoch of a continuation), one network again right after its half, and
both on the test set once per epoch; selection, metrics and ``on_epoch``
read these read-only arrays and their ``ensemble_softmax``, one per state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .data import AugmentationSpec, LabeledDataset
from .metrics import (EpochMetrics, accuracy, pseudo_label_recall, selection_precision_recall,
                      roc_auc)
from .model import Arch, TwinNetworks, ensemble_softmax, forward_softmax, init_twins
from .training import (_LOSS_TERMS, AblationFlags, HalfEpochRecord, Hyperparams,
                       select_for_network, train_half_epoch, warmup_train)


@dataclass
class RunResult:
    """A run's state after its last epoch: enough for ``run`` to continue it.

    Each network of ``twins`` carries its SGD velocity row."""

    twins: TwinNetworks
    rows: list[EpochMetrics]


def run(train_ds: LabeledDataset, test_ds: LabeledDataset, hp: Hyperparams,
        hidden: int, embed_dim: int, aug: AugmentationSpec,
        flags: AblationFlags | None = None,
        on_epoch: Callable[[EpochMetrics, list[HalfEpochRecord], tuple, tuple], None] | None = None,
        start: RunResult | None = None) -> RunResult:
    """Train twin networks for hp.total_epochs and log metrics per epoch.

    With ``start``, continue a finished run of the same data and settings
    from epoch ``len(start.rows)``, training its networks and their velocity
    rows further in place.  Every random draw is keyed by seed and epoch,
    so the result is the one an uninterrupted run would give.  A ``start``
    of another arch, of networks not seeded from ``hp.seed``, with more rows
    than ``hp.total_epochs``, or with a row whose phase ``hp.warmup_epochs``
    would not give it is refused before any epoch.  After every
    epoch, warmup included, ``on_epoch(row, halves, train, test)`` gets the
    row, its half-epoch records (none in warmup) and the train- and test-set
    ``(per-network softmaxes, ensemble)`` it read, which no later epoch changes.
    """
    flags = flags or AblationFlags()
    arch = Arch(train_ds.dims, hidden, train_ds.num_classes, embed_dim)
    if start is None:
        twins = init_twins(arch, hp.seed)
        rows: list[EpochMetrics] = []
    else:
        twins, rows = start.twins, list(start.rows)
        seeds, want = [twins.net1.seed, twins.net2.seed], [2 * hp.seed + 1, 2 * hp.seed + 2]
        if twins.net1.arch != arch:
            raise ValueError(f"start: arch {twins.net1.arch} is not this run's {arch}")
        if seeds != want:
            raise ValueError(f"start: network seeds {seeds} are not seed {hp.seed}'s {want}")
        if len(rows) > hp.total_epochs:
            raise ValueError(f"start: {len(rows)} rows, more than total_epochs {hp.total_epochs}")
        for i, row in enumerate(rows):
            phase = "warmup" if i < hp.warmup_epochs else "ssl"
            if row.phase != phase:
                raise ValueError(f"start: row {i} is {row.phase}, but warmup_epochs "
                                 f"{hp.warmup_epochs} makes it {phase}")

    nets = (twins.net1, twins.net2)

    def evaluate(ds: LabeledDataset) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """Each network's softmax on ``ds``, and their ensemble."""
        probs = tuple(forward_softmax(net, ds.features) for net in nets)
        return probs, ensemble_softmax(*probs)

    train = None   # evaluate(train_ds) of the networks' current state
    for epoch in range(len(rows), hp.total_epochs):
        halves = []
        if epoch < hp.warmup_epochs:
            logged = dict(phase="warmup", loss_lx=warmup_train(twins, train_ds, hp, epoch))
            train = evaluate(train_ds)
        else:
            if train is None:   # the first SSL epoch of a continuation
                train = evaluate(train_ds)
            (probs, ens), train = train, None   # a replaced state is freed unless a reader kept it
            for k, net in enumerate(nets):
                report, sel = select_for_network(ens if flags.ensemble else probs[k], train_ds,
                                                 flags)
                if k == 0:
                    p_recall = pseudo_label_recall(ens, train_ds, sel.noisy_indices)
                halves.append(train_half_epoch(twins, k + 1, train_ds, hp, aug, flags,
                                               epoch, report, sel))
                probs = probs[:k] + (forward_softmax(net, train_ds.features),) + probs[k + 1:]
                ens = ensemble_softmax(*probs)
            train = probs, ens

            report, sel = halves[0].report, halves[0].selection
            precision, recall = selection_precision_recall(sel, train_ds)
            lx, lu, lreg, lc = (float(np.mean([h.losses[k] for h in halves]))
                                for k in _LOSS_TERMS)
            logged = dict(phase="ssl", filter_rate=sel.filter_rate, d_cutoff=sel.d_cutoff,
                          precision=precision, recall=recall, roc_auc=roc_auc(report, train_ds),
                          pseudo_recall=p_recall, loss_lx=lx, loss_lu=lu, loss_reg=lreg,
                          loss_lc=lc, class_counts=[int(c) for c in sel.class_counts])
        test = evaluate(test_ds)
        rows.append(EpochMetrics(
            epoch=epoch, **logged, test_acc=accuracy(test[1], test_ds.true_labels),
            train_acc_given=accuracy(train[1], train_ds.given_labels)))
        if on_epoch is not None:
            on_epoch(rows[-1], halves, train, test)
    return RunResult(twins=twins, rows=rows)
